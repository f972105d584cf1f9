"""End-to-end acceptance checks, one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from casimir_mto.constants import CODATA
from casimir_mto.electrostatics import (
    ElectrostaticConfig,
    calibrate,
    electrostatic_force,
    make_calibration_samples,
    series_truncation_report,
)
from casimir_mto.lifshitz import (
    SpherePlaneGeometry,
    force_sphere_plane,
    gradient_from_pressure,
    ideal_force_sphere_plane,
    pressure_plane_plane,
)
from casimir_mto.materials import DrudeOnly, DrudeParams, PerfectConductor
from casimir_mto.oscillator import (
    SerpentineSpring,
    SweepConfig,
    invert_sweep,
    measured_params,
    min_detectable_gradient,
    resonant_frequency,
    simulate_sweep,
    spring_constant,
)
from casimir_mto.roughness import (
    RoughnessDistribution,
    averaged_force,
    averaged_pressure,
)
from casimir_mto.yukawa import (
    YukawaParams,
    alpha_limit,
    reference_plate,
    reference_sphere,
    yukawa_force_sphere_plane,
)
from yukawa_brute import yukawa_force_brute

R_SPHERE = 294.3e-6
GOLD = DrudeOnly(DrudeParams(9.0, 0.035))
COPPER = DrudeOnly(DrudeParams(8.9, 0.030))
IDEAL = PerfectConductor()


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_ideal_limit_quadrature():
    """Ideal-metal force matches the closed form to 1e-4, < 1 s/point."""
    worst_rel = 0.0
    worst_dt = 0.0
    for z in (0.2e-6, 0.5e-6, 1.0e-6, 2.0e-6):
        t0 = time.perf_counter()
        res = force_sphere_plane(z, R_SPHERE, IDEAL, IDEAL, tol=1e-6)
        dt = time.perf_counter() - t0
        rel = abs(res.value / ideal_force_sphere_plane(z, R_SPHERE) - 1.0)
        worst_rel = max(worst_rel, rel)
        worst_dt = max(worst_dt, dt)
    report(
        1,
        worst_rel <= 1e-4 and worst_dt < 1.0,
        f"max rel err {worst_rel:.2e}, max time {worst_dt * 1e3:.1f} ms",
    )


def test_criterion_2_pft_exact_identity():
    """5-point dF/dz equals 2 pi R P to 1e-3 for Drude Au/Cu."""
    worst = 0.0
    for z in (0.2e-6, 0.5e-6, 1.0e-6, 2.0e-6):
        h = 0.005 * z
        stencil = ((z - 2 * h, 1.0), (z - h, -8.0), (z + h, 8.0), (z + 2 * h, -1.0))
        deriv = sum(
            c * force_sphere_plane(zi, R_SPHERE, GOLD, COPPER, tol=1e-8).value
            for zi, c in stencil
        ) / (12 * h)
        grad = gradient_from_pressure(
            pressure_plane_plane(z, GOLD, COPPER, tol=1e-8), R_SPHERE).value
        worst = max(worst, abs(deriv / grad - 1.0))
    report(2, worst <= 1e-3, f"max rel mismatch {worst:.2e}")


def test_criterion_3_spring_constant():
    """Design formula lands in [9.3, 9.8]e-10; kappa/I consistent with f0."""
    kappa = spring_constant(SerpentineSpring(2e-6, 2e-6, 500e-6, 180e9))
    omega_derived = math.sqrt(8.6e-10 / 4.6e-17)
    omega_quoted = 2 * math.pi * 687.23
    drift = abs(omega_derived / omega_quoted - 1.0)
    report(
        3,
        9.3e-10 <= kappa <= 9.8e-10 and drift < 0.01,
        f"kappa {kappa:.3e} N m/rad, sqrt(kappa/I) off by {drift:.2%}",
    )


def test_criterion_4_frequency_shift_and_detectability():
    """1e-6 N/m shifts f by -23.9 +- 0.1 mHz; 10 mHz -> 4.18e-7 N/m +- 1%."""
    par = measured_params()
    df_mhz = (resonant_frequency(par, 1e-6) - par.omega0) / (2 * math.pi) * 1e3
    gmin = min_detectable_gradient(par, 0.01)
    ok = abs(df_mhz + 23.9) <= 0.1 and abs(gmin / 4.18e-7 - 1.0) <= 0.01
    report(4, ok, f"df {df_mhz:.4f} mHz, min gradient {gmin:.4e} N/m")


TRUTH = (50280.0, 0.6325, 294.3e-6, 39.4e-9)
Z_CAL = np.linspace(0.6e-6, 3e-6, 16)
V_CAL = (0.1325, 0.3325, 0.4825, 0.7825, 0.9325, 1.1325)
GUESS = (5.2e4, 0.6, 3.0e-4, 3e-8)


def test_criterion_5_calibration_round_trip():
    """Noiseless sweeps recover all four constants to 1e-6; with dC noise
    of 1 part in 5e5, k comes back within a few parts in 1e4 (100 trials)."""
    fit = calibrate(make_calibration_samples(*TRUTH, Z_CAL, V_CAL), GUESS)
    rels = [
        abs(fit.k / TRUTH[0] - 1.0),
        abs(fit.v0 / TRUTH[1] - 1.0),
        abs(fit.radius / TRUTH[2] - 1.0),
        abs(fit.delta0 / TRUTH[3] - 1.0),
    ]
    errs = []
    for seed in range(100):
        noisy = make_calibration_samples(*TRUTH, Z_CAL, V_CAL,
                                         noise_rel=2e-6, seed=seed)
        errs.append(abs(calibrate(noisy, GUESS).k / TRUTH[0] - 1.0))
    mean_err = float(np.mean(errs))
    ok = max(rels) <= 1e-6 and mean_err < 5e-4
    report(
        5,
        ok,
        f"noiseless worst rel {max(rels):.2e}; noisy k err mean {mean_err:.2e} "
        f"(max {max(errs):.2e}) over 100 trials",
    )


def test_criterion_6_electrostatic_series():
    """Series matches pi eps0 V^2 R/d within 2% at d/R = 0.0034, and two
    expansion orders reach 0.1% there."""
    geom = SpherePlaneGeometry(radius=R_SPHERE, separation=1.00062e-6, delta0=0.0)
    cfg = ElectrostaticConfig(0.3, 0.0, geom)
    force = electrostatic_force(cfg)
    asym = math.pi * CODATA.eps0 * 0.3**2 * R_SPHERE / cfg.gap
    rep = series_truncation_report(cfg)
    ok = (
        abs(force / asym - 1.0) <= 0.02
        and rep.expansion_rel_error[2] <= 1e-3
        and rep.orders_for_0p1pct == 2
    )
    report(
        6,
        ok,
        f"series/asymptote - 1 = {force / asym - 1.0:+.2%}; two-order "
        f"expansion error {rep.expansion_rel_error[2]:.2e}",
    )


def test_criterion_7_roughness_convexity():
    """+-39.4 nm two-point distribution at 1 um enhances the ideal force
    by 0.95% +- 0.05%; single-entry distribution reduces exactly."""
    dist = RoughnessDistribution(np.array([-39.4e-9, 39.4e-9]), np.array([0.5, 0.5]))
    avg = averaged_force(1e-6, R_SPHERE, dist, IDEAL, IDEAL, tol=1e-7)
    plain = force_sphere_plane(1e-6, R_SPHERE, IDEAL, IDEAL, tol=1e-7)
    enhancement = avg.value / plain.value - 1.0
    single = averaged_pressure(
        0.5e-6, RoughnessDistribution.single(), GOLD, COPPER, tol=1e-6
    )
    direct = pressure_plane_plane(0.5e-6, GOLD, COPPER, tol=1e-6)
    ok = abs(enhancement - 0.0095) <= 0.0005 and single.value == direct.value
    report(7, ok, f"enhancement {enhancement:.4%}; single-entry exact "
                  f"{single.value == direct.value}")


def test_criterion_8_finite_conductivity_ordering():
    """Drude force below ideal everywhere, ratio rising from 0.2 to 2 um."""
    ratios = []
    below = True
    for z in (0.2e-6, 0.5e-6, 1.0e-6, 2.0e-6):
        drude = force_sphere_plane(z, R_SPHERE, GOLD, COPPER, tol=1e-6).value
        ideal_val = ideal_force_sphere_plane(z, R_SPHERE)
        below &= abs(drude) < abs(ideal_val)
        ratios.append(abs(drude) / abs(ideal_val))
    rising = all(a < b for a, b in zip(ratios, ratios[1:]))
    report(8, below and rising,
           "ratios " + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_9_yukawa_oracle_and_limit():
    """Analytic layered force vs brute-force volume integral to 1%;
    alpha-limit linearity exact; alpha = 1e13 at 200 nm recorded."""
    sphere, plate = reference_sphere(), reference_plate()
    worst = 0.0
    for lam in (50e-9, 200e-9, 1000e-9):
        p = YukawaParams(1e13, lam)
        analytic = yukawa_force_sphere_plane(p, sphere, plate, 2e-7)
        brute = yukawa_force_brute(p, sphere, plate, 2e-7)
        worst = max(worst, abs(analytic / brute - 1.0))
    z_grid = np.array([1.5e-7, 2e-7, 3e-7])
    a1 = alpha_limit(lambda z: 1e-14, 2e-7, sphere, plate, z_grid)
    a2 = alpha_limit(lambda z: 3e-14, 2e-7, sphere, plate, z_grid)
    linear = abs(a2 / (3 * a1) - 1.0) < 1e-14
    f13 = yukawa_force_sphere_plane(YukawaParams(1e13, 200e-9), sphere, plate, 2e-7)
    # Order-of-magnitude consistency note: the alpha ~ 1e13 force at the
    # closest approach sits in the pN-and-below band of plausible
    # residuals for a fN-sensitivity experiment.
    in_band = 1e-13 < f13 < 1e-10
    report(
        9,
        worst <= 1e-2 and linear and in_band,
        f"max analytic/brute mismatch {worst:.2e}; "
        f"F(alpha=1e13, lambda=200nm, z=200nm) = {f13:.3e} N",
    )


def test_criterion_10_pipeline_determinism_and_speed():
    """Zero-noise sweep inverts back to the roughness-averaged gradients
    to 1e-12; a 100-point material sweep finishes inside a minute."""
    grid = np.linspace(0.2e-6, 0.6e-6, 100)
    dist = RoughnessDistribution(
        np.array([-30e-9, -10e-9, 0.0, 10e-9, 30e-9]),
        np.array([0.15, 0.2, 0.3, 0.2, 0.15]),
    )
    cfg = SweepConfig(z_grid=grid, tol=1e-6)
    par = measured_params()

    t0 = time.perf_counter()
    points = simulate_sweep(cfg, par, R_SPHERE, GOLD, COPPER, dist, seed=7)
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for (z, grad) in invert_sweep(points, par):
        want = 2 * math.pi * R_SPHERE * abs(
            averaged_pressure(z, dist, GOLD, COPPER, tol=1e-6).value
        )
        worst = max(worst, abs(grad / want - 1.0))

    again = simulate_sweep(cfg, par, R_SPHERE, GOLD, COPPER, dist, seed=7)
    identical = all(a.omega_r == b.omega_r for a, b in zip(points, again))
    report(
        10,
        worst <= 1e-12 and elapsed < 60.0 and identical,
        f"round-trip worst rel {worst:.2e}; 100-point sweep {elapsed:.1f} s; "
        f"seed-repeat identical {identical}",
    )
