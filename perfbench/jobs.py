"""Benchmark workloads: CLI jobs made from a seed, and checks on their outputs.

A workload is a list of CLI jobs run in order by one fresh interpreter (a
round). ``make_jobs`` writes each job's config and data files into an
inputs directory and returns JSON-able job records; ``check_job`` decides
whether a job's outputs in a round directory are correct.

Why these three workloads:

- ``sweep``: the criterion-10 pipeline (tabulated gold/copper, 5-entry
  roughness, noise, tol 1e-6). Lifshitz pressure integrals at many nearby
  separations x 5 offsets dominate, so batching or caching over
  separations, offsets or eps shows here.
- ``tight_force``: the same Lifshitz layer used differently: force
  kernel at the tightest tolerance, no roughness, closed-form or ideal
  eps over a wide separation range. The ideal job has a closed-form oracle.
- ``analysis``: the Lifshitz-free end of the pipeline. Calibration fits
  (image-charge series inside every residual), one limits job and one
  registry validation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "tight_force", "analysis")

# Physical constants (CODATA 2018), kept here so the checks do not trust
# the package for the numbers they verify.
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
EPS0 = 8.8541878128e-12

RADIUS_M = 294.3e-6
# Oscillator constants of the CLI's default ``measured_params()``.
F0_HZ = 687.23
COUPLING_PER_KG = 6.489e8
LINEAR_DOMAIN_LIMIT = 0.1

# Criterion-10 roughness distribution and sweep acquisition settings.
ROUGHNESS = [[-30e-9, 0.15], [-10e-9, 0.2], [0.0, 0.3], [10e-9, 0.2], [30e-9, 0.15]]
FREQ_NOISE_HZ = 0.0316
SEPARATION_NOISE_M = 3.2e-10
INTEGRATION_S = 10.0
SWEEP_TOL = 1e-6

FORCE_TOL = 1e-8

# Criterion-5 voltages; calibration truth is drawn around the device values.
V_CAL = (0.1325, 0.3325, 0.4825, 0.7825, 0.9325, 1.1325)
CAL_TRUTH = (50280.0, 0.6325, 294.3e-6, 39.4e-9)
CAL_GUESS = {"k_n_per_f": 5.2e4, "v0_v": 0.6, "radius_m": 3.0e-4, "delta0_m": 3e-8}
CAL_NOISE_REL = 2e-6   # criterion 5's capacitance-bridge noise
# Relative recovery tolerance per parameter: ~10 standard deviations of the
# fit error at CAL_NOISE_REL (k, R: 3e-4; V0: 1.1e-7; delta0: 4e-5, from
# 40 seeded fits), so a correct fit fails with negligible probability.
CAL_REL_TOL = {"k_n_per_f": 3e-3, "v0_v": 1.2e-6, "radius_m": 3e-3, "delta0_m": 4e-4}

LIMITS_LAMBDA = {"start": 5e-8, "stop": 1e-6, "points": 40, "spacing": "log"}

# Full-size and smoke-size job counts per workload.
SIZES = {
    "full": {"sweep_jobs": 3, "sweep_points": 8, "force_points": 20,
             "cal_jobs": 24, "cal_points": 20},
    "smoke": {"sweep_jobs": 1, "sweep_points": 2, "force_points": 3,
              "cal_jobs": 1, "cal_points": 8},
}


def ideal_force(z: float, radius: float = RADIUS_M) -> float:
    """Ideal-metal sphere-plane force -pi^3 hbar c R / 360 z^3."""
    return -(math.pi**3) * HBAR * C_LIGHT * radius / (360.0 * z**3)


def ideal_gradient(z: float, radius: float = RADIUS_M) -> float:
    """Ideal-metal gradient 2 pi R |P|, with P = -pi^2 hbar c / 240 z^4."""
    return 2.0 * math.pi * radius * (math.pi**2) * HBAR * C_LIGHT / (240.0 * z**4)


def series_force(z, v, v0, radius, delta0):
    """Sphere-plane electrostatic attraction by the image-charge series.

    Independent of the package: sums sum_n [n coth(nu) - coth u]/sinh(nu)
    over a fixed block of terms, cosh u = 1 + (z + 2 delta0)/R.
    """
    u = np.arccosh(1.0 + (np.asarray(z) + 2.0 * delta0) / radius)
    n_max = int(math.ceil(60.0 / float(u.min())))
    n = np.arange(1, n_max + 1)[:, None]
    nu = n * u[None, :]
    terms = (n / np.tanh(nu) - 1.0 / np.tanh(u)[None, :]) / np.sinh(nu)
    return 2.0 * math.pi * EPS0 * (np.asarray(v) - v0) ** 2 * terms.sum(axis=0)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """n log-spread points, one drawn in each of n equal log bins of [lo, hi]."""
    edges = np.log(np.geomspace(lo, hi, n + 1))
    return [float(x) for x in np.exp(rng.uniform(edges[:-1], edges[1:]))]


def _job(name: str, argv: list[str], outputs: list[str], check: dict) -> dict:
    return {"name": name, "argv": argv, "outputs": outputs, "check": check}


def _sweep_jobs(rng, inputs: Path, size: dict) -> list[dict]:
    jobs = []
    for j in range(size["sweep_jobs"]):
        grid = {
            "start": 2e-7 * (1.0 + 0.02 * rng.uniform()),
            "stop": 6e-7 * (1.0 - 0.02 * rng.uniform()),
            "points": size["sweep_points"],
            "spacing": "linear",
        }
        cfg = {
            "materials": {"pair": ["gold", "copper"]},
            "radius_m": RADIUS_M,
            "z_grid_m": grid,
            "noise": {"freq_noise_rms_hz": FREQ_NOISE_HZ,
                      "separation_noise_rms_m": SEPARATION_NOISE_M},
            "integration_time_s": INTEGRATION_S,
            "roughness": {"entries": ROUGHNESS},
            "seed": int(rng.integers(2**63)),
            "tol": SWEEP_TOL,
        }
        name = f"sweep-{j}"
        _write_json(inputs / f"{name}.json", cfg)
        jobs.append(_job(
            name,
            ["sweep", "--config", f"{inputs}/{name}.json", "--out", f"{name}.csv"],
            [f"{name}.csv", f"{name}_gradients.csv"],
            {"kind": "sweep", "grid": grid},
        ))
    return jobs


def _force_jobs(rng, inputs: Path, size: dict) -> list[dict]:
    z = _stratified(rng, 1e-7, 3e-6, size["force_points"])
    jobs = []
    for name, pair in (("force-ideal", ["ideal", "ideal"]),
                       ("force-drude", ["gold_drude", "copper_drude"])):
        cfg = {
            "materials": {"pair": pair},
            "radius_m": RADIUS_M,
            "quantity": "force",
            "z_grid_m": z,
            "tol": FORCE_TOL,
        }
        _write_json(inputs / f"{name}.json", cfg)
        jobs.append(_job(
            name,
            ["force", "--config", f"{inputs}/{name}.json", "--out", f"{name}.csv"],
            [f"{name}.csv"],
            {"kind": name, "z": z},
        ))
    return jobs


def _analysis_jobs(rng, inputs: Path, size: dict) -> list[dict]:
    jobs = []
    for j in range(size["cal_jobs"]):
        k, v0, radius, delta0 = CAL_TRUTH
        truth = {
            "k_n_per_f": k * (1.0 + 0.02 * rng.uniform(-1, 1)),
            "v0_v": v0 + 0.02 * rng.uniform(-1, 1),
            "radius_m": radius * (1.0 + 0.01 * rng.uniform(-1, 1)),
            "delta0_m": delta0 * (1.0 + 0.05 * rng.uniform(-1, 1)),
        }
        z = np.array(_stratified(rng, 0.6e-6, 3e-6, size["cal_points"]))
        lines = ["z_metal_m,v_applied_v,delta_c_f"]
        for v in V_CAL:
            f = series_force(z, v, truth["v0_v"], truth["radius_m"], truth["delta0_m"])
            dc = f / truth["k_n_per_f"] * (1.0 + CAL_NOISE_REL * rng.standard_normal(z.size))
            lines += [f"{zi:.17e},{v:.17e},{ci:.17e}" for zi, ci in zip(z, dc)]
        name = f"calibrate-{j}"
        (inputs / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_json(inputs / f"{name}.json",
                    {"data": f"{inputs}/{name}.csv", "initial_guess": CAL_GUESS})
        jobs.append(_job(
            name,
            ["calibrate", "--config", f"{inputs}/{name}.json", "--out", f"{name}.json"],
            [f"{name}.json"],
            {"kind": "calibrate", "truth": truth},
        ))

    z_lim = sorted(float(x) for x in rng.uniform(2e-7, 6e-7, 5))
    bound_z = np.linspace(1.5e-7, 7e-7, 12)
    b0 = 1e-14 * (1.0 + rng.uniform())
    rows = ["z_m,bound_n"] + [f"{zb:.17e},{b0 * (zb / 2e-7) ** 2:.17e}" for zb in bound_z]
    (inputs / "bounds.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_json(inputs / "limits.json", {
        "lambda_grid_m": LIMITS_LAMBDA,
        "z_grid_m": z_lim,
        "residual_bound": {"file": f"{inputs}/bounds.csv"},
    })
    jobs.append(_job(
        "limits",
        ["limits", "--config", f"{inputs}/limits.json", "--out", "limits.csv"],
        ["limits.csv"],
        {"kind": "limits"},
    ))
    jobs.append(_job("materials-validate", ["materials", "validate"], [],
                     {"kind": "validate"}))
    return jobs


def make_jobs(workload: str, seed: int, inputs: Path, size: str = "full") -> list[dict]:
    """Write the workload's inputs for ``seed`` under ``inputs``; return its jobs.

    The same seed gives byte-identical inputs and the same job list.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    maker = {"sweep": _sweep_jobs, "tight_force": _force_jobs,
             "analysis": _analysis_jobs}[workload]
    return maker(rng, inputs, SIZES[size])


# -- checks ---------------------------------------------------------------


class CheckFailed(Exception):
    """A job's output is wrong."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    _expect(lines and lines[0].split(",") == header,
            f"{path.name}: header is not {','.join(header)}")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], ndmin=2)
    _expect(rows.shape[1] == len(header), f"{path.name}: rows do not have {len(header)} fields")
    _expect(np.all(np.isfinite(rows)), f"{path.name}: non-finite value")
    return rows


def _check_sweep(out: Path, name: str, spec: dict) -> None:
    g = spec["grid"]
    grid = np.linspace(g["start"], g["stop"], g["points"])
    sweep = _read_csv(out / f"{name}.csv", ["z_m", "f_hz", "sigma_hz"])
    grads = _read_csv(out / f"{name}_gradients.csv", ["z_m", "dfdz_n_per_m"])
    _expect(sweep.shape[0] == grid.size and grads.shape[0] == grid.size,
            f"{name}: expected {grid.size} rows")
    _expect(np.array_equal(sweep[:, 0], grid) and np.array_equal(grads[:, 0], grid),
            f"{name}: z column differs from the configured grid")
    sigma = FREQ_NOISE_HZ / math.sqrt(INTEGRATION_S)
    _expect(np.allclose(sweep[:, 2], sigma, rtol=1e-12, atol=0),
            f"{name}: sigma_hz is not {sigma}")
    shift = 1.0 - sweep[:, 1] / F0_HZ
    _expect(np.all(np.abs(shift) < LINEAR_DOMAIN_LIMIT), f"{name}: f_hz off resonance")
    want = shift * (2.0 * math.pi * F0_HZ) ** 2 / COUPLING_PER_KG
    _expect(np.allclose(grads[:, 1], want, rtol=1e-9, atol=0),
            f"{name}: gradients do not invert the recorded frequencies")
    # Real metals attract less than ideal ones (criterion 8); the frequency
    # noise is ~4e-7 N/m, far below the margin at these separations.
    ideal = np.array([ideal_gradient(z) for z in grid])
    _expect(np.all(grads[:, 1] > 0) and np.all(grads[:, 1] < ideal),
            f"{name}: gradient not in (0, ideal)")


def _check_force(out: Path, name: str, spec: dict, ideal_pair: bool) -> None:
    rows = _read_csv(out / f"{name}.csv", ["z_m", "f_n", "est_rel_error"])
    z = np.asarray(spec["z"])
    _expect(rows.shape[0] == z.size, f"{name}: expected {z.size} rows")
    _expect(np.array_equal(rows[:, 0], z), f"{name}: z column differs from the config")
    _expect(np.all(rows[:, 2] <= FORCE_TOL), f"{name}: est_rel_error above tol")
    ideal = np.array([ideal_force(zi) for zi in z])
    _expect(np.all(rows[:, 1] < 0), f"{name}: force not attractive")
    if ideal_pair:
        rel = np.abs(rows[:, 1] / ideal - 1.0)
        _expect(np.all(rel <= FORCE_TOL),
                f"{name}: ideal rows off the closed form by {rel.max():.2e}")
    else:
        _expect(np.all(np.abs(rows[:, 1]) < np.abs(ideal)),
                f"{name}: Drude force not below the ideal one")


def _check_calibrate(out: Path, name: str, spec: dict) -> None:
    fit = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
    for key, truth in spec["truth"].items():
        rel = abs(float(fit[key]) / truth - 1.0)
        _expect(rel <= CAL_REL_TOL[key],
                f"{name}: {key} off the generating value by {rel:.2e}")


def _check_limits(out: Path) -> None:
    rows = _read_csv(out / "limits.csv", ["lambda_m", "alpha_limit"])
    n = LIMITS_LAMBDA["points"]
    _expect(rows.shape[0] == n, f"limits: expected {n} rows")
    lam = np.geomspace(LIMITS_LAMBDA["start"], LIMITS_LAMBDA["stop"], n)
    _expect(np.array_equal(rows[:, 0], lam), "limits: lambda column differs")
    _expect(np.all(rows[:, 1] > 0), "limits: alpha limits not positive")


def digest(paths) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def check_job(job: dict, out: Path, rc, stdout: str,
              reference_digest: str | None = None) -> str | None:
    """Return None if the job ran correctly, else the reason it failed.

    ``rc`` is the CLI's return value; ``out`` holds the round's outputs.
    With ``reference_digest`` the outputs must also be byte-identical to
    an earlier run of the same job.
    """
    name, spec = job["name"], job["check"]
    if rc != 0:
        return f"{name}: exit code {rc}"
    try:
        kind = spec["kind"]
        if kind == "sweep":
            _check_sweep(out, name, spec)
        elif kind in ("force-ideal", "force-drude"):
            _check_force(out, name, spec, ideal_pair=kind == "force-ideal")
        elif kind == "calibrate":
            _check_calibrate(out, name, spec)
        elif kind == "limits":
            _check_limits(out)
        elif kind == "validate":
            tail = stdout.strip().splitlines()[-1:] or [""]
            _expect("FAIL" not in stdout and tail[0].endswith("material(s) valid"),
                    f"{name}: registry did not validate")
        if reference_digest is not None:
            _expect(digest(out / o for o in job["outputs"]) == reference_digest,
                    f"{name}: output differs from an earlier run with the same inputs")
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return str(exc)
    return None
