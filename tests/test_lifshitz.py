import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_mto import lifshitz, materials, yukawa
from casimir_mto.constants import CODATA, HBARC_EV_M
from casimir_mto.errors import ConvergenceError, DomainError
from casimir_mto.lifshitz import (
    SpherePlaneGeometry,
    force_sphere_plane,
    gradient_from_pressure,
    ideal_force_sphere_plane,
    ideal_pressure_plane_plane,
    pressure_plane_plane,
)
from casimir_mto.materials import DielectricModel, DrudeOnly, load_registry

R_SPHERE = 294.3e-6


class ArrayEps(DielectricModel):
    """A model whose eps(i xi) is ``fn`` of the xi array (eV), as given."""

    def __init__(self, fn):
        self.fn = fn

    def eps(self, xi_ev):
        return self.fn(xi_ev)


class TestIdealClosedForms:
    def test_pressure_formula(self):
        # -pi^2 hbar c / 240 z^4, evaluated directly
        want = -math.pi**2 * CODATA.hbar * CODATA.c / 240e-24
        assert ideal_pressure_plane_plane(1e-6) == pytest.approx(want, rel=1e-15)
        assert ideal_pressure_plane_plane(1e-6) == pytest.approx(-1.3001258e-3, rel=1e-7)

    def test_force_formula(self):
        want = -math.pi**3 * CODATA.hbar * CODATA.c * R_SPHERE / 360e-18
        assert ideal_force_sphere_plane(1e-6, R_SPHERE) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert ideal_force_sphere_plane(1e-6, R_SPHERE) == pytest.approx(
            -8.0137215e-13, rel=1e-7, abs=0.0)
        assert ideal_force_sphere_plane(0.2e-6, R_SPHERE) == pytest.approx(
            -1.0017152e-10, rel=1e-7, abs=0.0)

    def test_scalings(self):
        assert ideal_force_sphere_plane(1e-6, 2 * R_SPHERE) == pytest.approx(
            2 * ideal_force_sphere_plane(1e-6, R_SPHERE), rel=1e-14
        )
        assert ideal_force_sphere_plane(2e-6, R_SPHERE) == pytest.approx(
            ideal_force_sphere_plane(1e-6, R_SPHERE) / 8, rel=1e-14
        )
        assert ideal_pressure_plane_plane(0.5e-6) == pytest.approx(
            16 * ideal_pressure_plane_plane(1e-6), rel=1e-14
        )

    def test_pft_consistency_of_closed_forms(self):
        # d(ideal force)/dz / (2 pi R) equals the ideal pressure.
        z, h = 1e-6, 1e-10
        deriv = (
            ideal_force_sphere_plane(z + h, R_SPHERE)
            - ideal_force_sphere_plane(z - h, R_SPHERE)
        ) / (2 * h)
        assert deriv / (2 * math.pi * R_SPHERE) == pytest.approx(
            abs(ideal_pressure_plane_plane(z)), rel=1e-6
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            ideal_pressure_plane_plane(0.0)
        with pytest.raises(DomainError):
            ideal_force_sphere_plane(1e-6, 0.0)
        # z^p or z^-p out of range: the integrals' rule and message.
        for z in (1e300, 5e-324):
            with pytest.raises(DomainError, match=r"z\^4 and z\^-4 finite"):
                ideal_pressure_plane_plane(z)
            with pytest.raises(DomainError, match=r"z\^3 and z\^-3 finite"):
                ideal_force_sphere_plane(z, 1e-4)


class TestQuadratureAgainstIdealLimit:
    @pytest.mark.parametrize("z", [0.2e-6, 1e-6, 2e-6])
    def test_pressure(self, z, ideal):
        res = pressure_plane_plane(z, ideal, ideal, tol=1e-6)
        assert res.value == pytest.approx(ideal_pressure_plane_plane(z), rel=1e-6)
        assert res.value < 0
        assert res.est_rel_error <= 1e-6

    @pytest.mark.parametrize("z", [0.2e-6, 1e-6])
    def test_force(self, z, ideal):
        res = force_sphere_plane(z, R_SPHERE, ideal, ideal, tol=1e-6)
        assert res.value == pytest.approx(ideal_force_sphere_plane(z, R_SPHERE), rel=1e-6, abs=0.0)
        assert res.value < 0

    def test_gradient_closed_form(self, ideal):
        res = gradient_from_pressure(pressure_plane_plane(1e-6, ideal, ideal, tol=1e-6), R_SPHERE)
        want = 2 * math.pi * R_SPHERE * abs(ideal_pressure_plane_plane(1e-6))
        assert res.value == pytest.approx(want, rel=1e-6)
        assert res.value > 0


class TestRealMetals:
    def test_material_order_symmetry(self, gold_drude, copper_drude):
        a = pressure_plane_plane(0.5e-6, gold_drude, copper_drude, tol=1e-6)
        b = pressure_plane_plane(0.5e-6, copper_drude, gold_drude, tol=1e-6)
        assert a.value == b.value  # reflection products commute exactly

    def test_finite_conductivity_reduces_attraction(self, gold_drude, copper_drude, ideal):
        for z in (0.2e-6, 0.5e-6, 2e-6):
            drude = pressure_plane_plane(z, gold_drude, copper_drude, tol=1e-6)
            assert abs(drude.value) < abs(ideal_pressure_plane_plane(z))

    def test_ratio_to_ideal_grows_with_separation(self, gold_drude, copper_drude):
        ratios = []
        for z in (0.2e-6, 0.7e-6, 2e-6):
            drude = pressure_plane_plane(z, gold_drude, copper_drude, tol=1e-6)
            ratios.append(abs(drude.value) / abs(ideal_pressure_plane_plane(z)))
        assert ratios[0] < ratios[1] < ratios[2] < 1.0

    def test_monotone_decrease_in_separation(self, gold_drude, copper_drude):
        grid = np.linspace(0.2e-6, 1.4e-6, 5)
        forces = [
            abs(force_sphere_plane(float(z), R_SPHERE, gold_drude, copper_drude, tol=1e-6).value)
            for z in grid
        ]
        assert all(a > b for a, b in zip(forces, forces[1:]))

    def test_pft_identity_five_point(self, gold_drude, copper_drude):
        """Central-difference force derivative vs 2 pi R * pressure."""
        z = 0.5e-6
        h = 0.005 * z
        stencil = [
            (z - 2 * h, 1.0), (z - h, -8.0), (z + h, 8.0), (z + 2 * h, -1.0)
        ]
        deriv = sum(
            c * force_sphere_plane(zi, R_SPHERE, gold_drude, copper_drude, tol=1e-8).value
            for zi, c in stencil
        ) / (12 * h)
        grad = gradient_from_pressure(
            pressure_plane_plane(z, gold_drude, copper_drude, tol=1e-8), R_SPHERE)
        assert deriv == pytest.approx(grad.value, rel=1e-3)

    def test_force_against_nested_scipy_oracle(self, gold_drude, copper_drude):
        """Whole double integral vs an independent nested-quadrature route,
        with eps held at its 1e-5 eV value below 1e-5 eV (a model change
        worth less than 1e-7 at 0.5 um)."""
        want = _nested_scipy_force(0.5e-6, gold_drude, copper_drude, xi_min_ev=1e-5)
        got = force_sphere_plane(0.5e-6, R_SPHERE, gold_drude, copper_drude, tol=1e-7)
        assert got.value == pytest.approx(want, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("z", [3e-6, 1e-5])
    def test_force_against_floor_free_oracle(self, z, gold_drude, copper_drude):
        """The same route with eps never clamped: at large z the low
        frequencies carry a share of the force that a clamped eps misses."""
        want = _nested_scipy_force(z, gold_drude, copper_drude, xi_min_ev=0.0)
        got = force_sphere_plane(z, R_SPHERE, gold_drude, copper_drude, tol=1e-7)
        assert got.value == pytest.approx(want, rel=1e-7, abs=0.0)

    def test_mixed_ideal_metal_pair(self, gold_drude, ideal):
        res = pressure_plane_plane(0.5e-6, gold_drude, ideal, tol=1e-6)
        drude_pair = pressure_plane_plane(0.5e-6, gold_drude, gold_drude, tol=1e-6)
        assert abs(drude_pair.value) < abs(res.value) < abs(ideal_pressure_plane_plane(0.5e-6))

    def test_tolerance_honesty(self, gold_drude, copper_drude):
        loose = pressure_plane_plane(0.5e-6, gold_drude, copper_drude, tol=4e-6)
        tight = pressure_plane_plane(0.5e-6, gold_drude, copper_drude, tol=2e-6)
        shift = abs(tight.value - loose.value) / abs(tight.value)
        assert shift < loose.est_rel_error
        assert loose.est_rel_error <= 4e-6

    def test_drude_force_converges_by_level_four(self, gold_drude, copper_drude):
        # eps ~ 1/xi down to xi -> 0 keeps the integrand smooth in t, so the
        # rule converges double-exponentially at large z too.
        res = force_sphere_plane(3e-6, R_SPHERE, gold_drude, copper_drude, tol=1e-8)
        n = lifshitz._exp_sinh(4, *lifshitz._t_range("force", 1e-8))[0].size
        assert res.evaluations <= n * n  # level 4: n u by n s nodes
        assert res.est_rel_error <= 1e-8

    def test_sampled_eps_keeps_estimate_honest(self):
        # Tabulated metals integrate through their sampled eps. A sampler
        # that is only C^1 makes successive levels agree long before they
        # converge, so the estimate must hold against the exact eps. At
        # 10 um the rule queries eps far below the sampled range, where the
        # sampler continues it by a power law. Wrapped in a plain model, the
        # exact transform is evaluated at every node, not sampled.
        registry = load_registry()
        gold, copper = registry["gold"], registry["copper"]
        for z in (2e-8, 2e-7, 1e-5):
            fast = pressure_plane_plane(z, gold, copper, tol=1e-8)
            exact = pressure_plane_plane(z, ArrayEps(gold.eps), ArrayEps(copper.eps), tol=1e-8)
            bound = fast.est_rel_error + exact.est_rel_error
            assert fast.value == pytest.approx(exact.value, rel=bound, abs=0.0)

    def test_tabulated_material_integrates(self):
        from casimir_mto.materials import load_registry

        registry = load_registry()
        res = pressure_plane_plane(0.5e-6, registry["gold"], registry["copper"], tol=1e-6)
        assert res.value < 0
        # Interband absorption strengthens eps over pure Drude.
        drude = pressure_plane_plane(
            0.5e-6, registry["gold_drude"], registry["copper_drude"], tol=1e-6
        )
        assert abs(res.value) > abs(drude.value)
        assert abs(res.value) < abs(ideal_pressure_plane_plane(0.5e-6))


class TestContracts:
    def test_tolerance_window(self, ideal):
        with pytest.raises(DomainError):
            pressure_plane_plane(1e-6, ideal, ideal, tol=1e-9)
        with pytest.raises(DomainError):
            pressure_plane_plane(1e-6, ideal, ideal, tol=1e-2)

    def test_separation_positive(self, ideal):
        with pytest.raises(DomainError):
            pressure_plane_plane(0.0, ideal, ideal)
        with pytest.raises(DomainError):
            pressure_plane_plane(math.inf, ideal, ideal)
        with pytest.raises(DomainError):
            pressure_plane_plane([1e-6, 0.0], ideal, ideal)
        with pytest.raises(DomainError):
            force_sphere_plane(1e-6, -1.0, ideal, ideal)

    def test_not_a_model(self, ideal):
        with pytest.raises(DomainError):
            pressure_plane_plane(1e-6, object(), object())
        # A plain callable is not a model either: models take xi arrays.
        with pytest.raises(DomainError, match="not a dielectric model"):
            pressure_plane_plane(1e-6, lambda xi: 2.0 + 0.0 * xi, ideal)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            SpherePlaneGeometry(radius=-1.0, separation=1e-6)
        with pytest.raises(DomainError):
            SpherePlaneGeometry(radius=1e-4, separation=0.0)
        for delta0 in (-1e-9, math.nan, math.inf):
            with pytest.raises(DomainError, match="delta0"):
                SpherePlaneGeometry(radius=1e-4, separation=1e-6, delta0=delta0)
        with pytest.warns(UserWarning):
            SpherePlaneGeometry(radius=1e-4, separation=2e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpherePlaneGeometry(radius=294.3e-6, separation=1e-6, delta0=39.4e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_geometry_rejected(self, bad):
        with pytest.raises(DomainError, match="radius must be finite and > 0"):
            SpherePlaneGeometry(radius=bad, separation=1e-6)
        with pytest.raises(DomainError, match="separation must be finite and > 0"):
            SpherePlaneGeometry(radius=1e-4, separation=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_arguments_rejected(self, ideal, bad):
        # An infinite radius or separation gave -inf, inf or -0.0.
        pressure = pressure_plane_plane(1e-6, ideal, ideal)
        radius, separation = "radius must be finite and > 0", r"separation must be > 0, with z\^"
        for call, message in [
            (lambda: force_sphere_plane(1e-6, bad, ideal, ideal), radius),
            (lambda: ideal_force_sphere_plane(1e-6, bad), radius),
            (lambda: gradient_from_pressure(pressure, bad), radius),
            (lambda: ideal_pressure_plane_plane(bad), separation),
            (lambda: ideal_force_sphere_plane(bad, 1e-4), separation),
        ]:
            with pytest.raises(DomainError, match=message):
                call()

    def test_result_evaluation_count(self, ideal):
        res = pressure_plane_plane(1e-6, ideal, ideal, tol=1e-6)
        assert res.evaluations > 1000

    def test_budget_exhaustion_carries_partial_result(self):
        from casimir_mto.errors import ConvergenceError

        # A pathological "material" oscillating too fast for any panel
        # budget; the partial result must still come back scaled.
        noisy = ArrayEps(lambda xi: 2.0 + np.sin(3e9 * xi))
        with pytest.raises(ConvergenceError) as exc_info:
            pressure_plane_plane(1e-6, noisy, noisy, tol=1e-6)
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.value < 0
        assert abs(partial.value) < abs(ideal_pressure_plane_plane(1e-6))


def _nested_scipy_force(z, m1, m2, xi_min_ev):
    """Sphere-plane force from nested SciPy quad over u and p = 1 + s/u, with
    eps(i xi) looked up at max(xi, xi_min_ev)."""
    from scipy.integrate import quad

    e_scale = HBARC_EV_M / (2 * z)

    def inner(u):
        e1 = m1.eps(max(u * e_scale, xi_min_ev))
        e2 = m2.eps(max(u * e_scale, xi_min_ev))

        def f(p):
            s1 = math.sqrt(e1 - 1 + p * p)
            s2 = math.sqrt(e2 - 1 + p * p)
            w = math.exp(-p * u)
            if w == 0.0:
                return 0.0
            qte = (e1 - 1) / (s1 + p) ** 2 * (e2 - 1) / (s2 + p) ** 2 * w
            qtm = (
                (e1 - 1) * (p * p * (e1 + 1) - 1) / (e1 * p + s1) ** 2
                * (e2 - 1) * (p * p * (e2 + 1) - 1) / (e2 * p + s2) ** 2
                * w
            )
            return p * (math.log1p(-qte) + math.log1p(-qtm))

        val, _ = quad(f, 1, max(300 / u, 2.0), limit=400)
        return u * u * val

    outer, _ = quad(inner, 0, 60, limit=400)
    return CODATA.hbar * CODATA.c * R_SPHERE / (16 * math.pi * z**3) * outer


def _pairs(gold_drude, copper_drude, ideal):
    registry = load_registry()
    return {
        "ideal": (ideal, ideal),
        "drude": (gold_drude, copper_drude),
        "mixed": (registry["gold"], ideal),
        "tabulated": (registry["gold"], registry["copper"]),
    }


def _integral(kind, z, m1, m2, tol):
    if kind == "pressure":
        return pressure_plane_plane(z, m1, m2, tol=tol)
    return force_sphere_plane(z, R_SPHERE, m1, m2, tol=tol)


class TestTrimmedRule:
    """Each call keeps the t range its tol allows; est_rel_error is the level
    difference plus a closed-form bound on what the dropped nodes hold."""

    def test_estimate_is_honest_over_pairs_separations_and_tolerances(
            self, gold_drude, copper_drude, ideal):
        # The last input stacks every separation in one call: each entry
        # must bound its own error.
        zs = (2e-8, 1e-7, 5e-7, 2e-6, 1e-5)
        for name, (m1, m2) in _pairs(gold_drude, copper_drude, ideal).items():
            for kind in ("pressure", "force"):
                refs = []
                for z in (*zs, np.array(zs)):
                    if np.ndim(z):
                        ref, ref_est = (np.array(r) for r in zip(*refs))
                    elif name == "ideal":
                        ref = (ideal_pressure_plane_plane(z) if kind == "pressure"
                               else ideal_force_sphere_plane(z, R_SPHERE))
                        ref_est = 0.0
                    else:
                        tight = _integral(kind, z, m1, m2, 1e-8)
                        ref, ref_est = tight.value, tight.est_rel_error
                    refs.append((ref, ref_est))
                    for tol in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8):
                        res = _integral(kind, z, m1, m2, tol)
                        assert np.all(res.est_rel_error <= tol)
                        true = abs(res.value / ref - 1.0)
                        assert np.all(true <= res.est_rel_error + ref_est), (name, kind, z, tol)

    @pytest.mark.xfail(strict=True, reason="known under-report: the estimate takes 5.0e-9 "
                       "for a true error of 6.7e-9 (ROADMAP, direction 1)")
    def test_estimate_bounds_gold_on_an_ideal_plane_at_tol_1e_8(self, ideal):
        # Tabulated Au against a perfect conductor: the reference is the rule
        # on the full t range at the finest level.
        z = 5.353290927451952e-07
        gold = load_registry()["gold"]
        res = force_sphere_plane(z, 1e-4, gold, ideal, tol=1e-8)
        full = lifshitz._stops("force", np.array([[z]]), gold, ideal, 0.0,
                               lifshitz._T_LO, lifshitz._T_HI)[0][0, 0]
        ref = CODATA.hbar * CODATA.c * 1e-4 / (16.0 * math.pi) / z**3 * full
        assert abs(res.value / ref - 1.0) <= res.est_rel_error

    @pytest.mark.xfail(strict=True, reason="known under-report: the estimate takes 2.2e-9 "
                       "for a true error of 7.0e-9 (ROADMAP, direction 1)")
    def test_estimate_bounds_gold_on_copper_at_tol_1e_8(self):
        # Tabulated Au against tabulated Cu, which stops at level 2: the
        # reference is the rule on the full t range at the finest level.
        z = 1.1538358966377532e-06
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        res = force_sphere_plane(z, 1e-4, au, cu, tol=1e-8)
        full = lifshitz._stops("force", np.array([[z]]), au, cu, 0.0,
                               lifshitz._T_LO, lifshitz._T_HI)[0][0, 0]
        ref = CODATA.hbar * CODATA.c * 1e-4 / (16.0 * math.pi) / z**3 * full
        assert abs(res.value / ref - 1.0) <= res.est_rel_error

    @pytest.mark.parametrize("kind", ["pressure", "force"])
    def test_dropped_nodes_stay_within_the_truncation_term(
            self, kind, gold_drude, copper_drude, ideal, monkeypatch):
        # Full-range minus trimmed rule at the same level, against the term
        # that est_rel_error adds for that level. With _MAX_LEVEL at the
        # level (from the first pass's, 2, on) and tol 0 the level loop
        # returns that level's sum.
        for name, (m1, m2) in _pairs(gold_drude, copper_drude, ideal).items():
            for z0 in (2e-8, 1e-5):
                z = np.array([[z0]])
                for tol in (1e-3, 1e-8):
                    t_range = lifshitz._t_range(kind, tol)
                    for level in range(2, 5):
                        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", level)
                        (full, _, n_full), (trim, _, n_trim) = (
                            lifshitz._stops(kind, z, m1, m2, 0.0, *r)
                            for r in ((lifshitz._T_LO, lifshitz._T_HI), t_range))
                        assert n_trim < n_full
                        bound = lifshitz._truncation(*t_range, np.ones(1))[level, 0]
                        assert abs(full[0] - trim[0]) <= bound, (name, z0, tol, level)

    def test_an_entry_does_not_depend_on_the_entries_stacked_with_it(
            self, gold_drude, copper_drude, monkeypatch):
        # One-entry rows stacked together: every entry's level sums must
        # come out bit for bit as without the others (a BLAS matrix-vector
        # product does not give that).
        for kind in ("pressure", "force"):
            t_range = lifshitz._t_range(kind, 1e-6)
            for z in (2e-7, 1e-6):
                for k in (1, 2, 3):
                    alone = z * (1.0 + 0.05 * np.arange(k))
                    stacked = np.append(alone, 0.97 * z)
                    for level in range(2, 5):
                        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", level)
                        a, b = (lifshitz._stops(kind, zs[:, None], gold_drude, copper_drude,
                                                0.0, *t_range)[0] for zs in (alone, stacked))
                        assert np.array_equal(a, b[:-1]), (kind, z, k, level)

    def test_a_row_does_not_depend_on_the_rows_stacked_with_it(self, monkeypatch):
        # Rows of a 2-D stack share nodes within themselves only: a row's
        # entries come out bit for bit as in a call on that row alone, in any
        # order along the row, beside any rows and across chunk boundaries.
        # The last row is wider than _SPREAD and splits into runs of three
        # entries and one.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        offsets = np.array([-3e-8, 0.0, 1e-8, 3e-8])
        zs = np.array([2e-7, 6e-7, 1.1e-6])[:, None] + offsets
        zs = np.vstack([zs, 1e-7 * np.array([1.0, 3.0, 5.0, 40.0])])
        for kind in ("pressure", "force"):
            alone = [_integral(kind, row[None, :], au, cu, 1e-6) for row in zs]
            flipped = _integral(kind, zs[-1:, ::-1], au, cu, 1e-6)
            assert np.array_equal(flipped.value[0, ::-1], alone[-1].value[0])
            for stack in (lifshitz._STACK, 8, 1):
                monkeypatch.setattr(lifshitz, "_STACK", stack)
                res = _integral(kind, zs, au, cu, 1e-6)
                assert np.array_equal(res.value, np.vstack([a.value for a in alone]))
                assert np.array_equal(res.est_rel_error,
                                      np.vstack([a.est_rel_error for a in alone]))
                assert res.evaluations == sum(a.evaluations for a in alone)

    def test_a_rows_smallest_entry_is_its_lone_call(self):
        # The entry whose nodes a row shares has scale 1: in these rows,
        # which stop at the level their smallest entry needs alone, its
        # value and estimate are those of a call on it alone.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        zs = np.array([3e-7, 1e-6])[:, None] * np.array([1.2, 1.0, 1.5])
        for kind in ("pressure", "force"):
            res = _integral(kind, zs, au, cu, 1e-6)
            lone = _integral(kind, zs[:, 1], au, cu, 1e-6)
            assert np.array_equal(res.value[:, 1], lone.value)
            assert np.array_equal(res.est_rel_error[:, 1], lone.est_rel_error)

    def test_a_stacked_entry_is_its_lone_call(self, monkeypatch):
        # Alone, the 1.1 um Au/Cu force stops a level before its neighbours;
        # stacked, it must still stop there, also across a chunk boundary.
        # The grid repeats 1.1 um, whose nodes count once.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        zs = np.array([5e-7, 1.1e-6, 1.5e-6, 1.1e-6, 2e-7])
        lone = [force_sphere_plane(z, R_SPHERE, au, cu, tol=1e-6) for z in zs]
        assert lone[1].evaluations < lone[0].evaluations
        for stack in (lifshitz._STACK, 2):
            monkeypatch.setattr(lifshitz, "_STACK", stack)
            res = force_sphere_plane(zs, R_SPHERE, au, cu, tol=1e-6)
            assert res.value.tolist() == [r.value for r in lone]
            assert res.est_rel_error.tolist() == [r.est_rel_error for r in lone]
            assert res.evaluations == sum(r.evaluations for r in lone[:3] + lone[4:])

    def test_trimmed_levels_nest_inside_the_full_rule(self):
        # Levels 1 to 5 (level 1 is the even sub-grid of the first pass):
        # t_lo lies on the level-1 grid, so each level is the next one's even
        # nodes, all inside the full rule.
        for tol in (1e-3, 1e-5, 1e-6, 1e-8):
            t_range = lifshitz._t_range("pressure", tol)
            assert (4.0 * (t_range[0] - lifshitz._T_LO)).is_integer()
            for level in range(1, 5):
                x = lifshitz._exp_sinh(level, *t_range)[0]
                full = lifshitz._exp_sinh(level, lifshitz._T_LO, lifshitz._T_HI)[0]
                assert np.isin(x, full).all()
                assert np.array_equal(lifshitz._exp_sinh(level + 1, *t_range)[0][::2], x)

    def test_eps_is_looked_up_once_per_node(self, gold_drude):
        registry = load_registry()
        t_range = lifshitz._t_range("pressure", 1e-8)
        for eps in (gold_drude.eps, registry["gold"].sampled().eps):
            e = None
            for level in range(5):
                xi = 0.05 * lifshitz._exp_sinh(level, *t_range)[0]
                e = lifshitz._lookup(eps, xi, e)
                assert np.array_equal(e, eps(xi))

        sizes = []

        class Counting(DrudeOnly):
            def eps(self, xi):
                sizes.append(xi.size)
                return super().eps(xi)

        model = Counting(gold_drude.params)
        res = pressure_plane_plane(5e-7, model, model, tol=1e-6)
        plain = pressure_plane_plane(5e-7, gold_drude, gold_drude, tol=1e-6)
        assert res.value == plain.value
        n_u = math.isqrt(res.evaluations)
        assert sum(sizes) == 2 * n_u  # one lookup per u node and surface

    @pytest.mark.parametrize("eps", [lambda xi: np.full_like(xi, 0.5),
                                     lambda xi: np.where(xi > 1.0, 0.99, 3.0)])
    def test_eps_below_one_is_a_domain_error(self, eps, ideal):
        with pytest.raises(DomainError, match=">= 1"):
            pressure_plane_plane(1e-6, ArrayEps(eps), ideal, tol=1e-6)


class TestLadder:
    """The ladder starts with one pass over the level-2 grid, whose even
    nodes with doubled weights give level 1: every row's first stop test
    is at level 2."""

    @pytest.mark.parametrize("kind", ["pressure", "force"])
    def test_the_first_pass_gives_the_level_1_rule(self, kind, gold_drude, copper_drude,
                                                   monkeypatch):
        # With no truncation term, tol 0 and _MAX_LEVEL 2, a one-entry row's
        # estimate is |L2 - L1| / |L2|. The fused pass's L1 must be the
        # level-1 rule summed on its own nodes to a few ulps of L2.
        registry = load_registry()
        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", 2)
        monkeypatch.setattr(lifshitz, "_truncation",
                            lambda t_lo, t_hi, c: np.zeros((3, *c.shape)))
        t_range = lifshitz._t_range(kind, 1e-6)
        x, w = lifshitz._exp_sinh(1, *t_range)
        for m1, m2 in ((gold_drude, copper_drude), (registry["gold"], registry["copper"])):
            for z in (2e-8, 3e-7, 1e-5):
                (l2,), (rel,), _ = lifshitz._stops(kind, np.array([[z]]), m1, m2, 0.0, *t_range)
                e1, e2 = (lifshitz._surface_eps(m)(x * HBARC_EV_M / (2.0 * z)) for m in (m1, m2))
                l1 = lifshitz._rule_sum(kind, x, e1, e2, x, w, [None])[0] @ w
                assert abs(rel - abs(l2 - l1) / abs(l2)) <= 4 * np.finfo(float).eps, (z, rel)

    def test_no_row_stops_before_level_2(self, gold_drude, copper_drude, ideal, monkeypatch):
        # At the loosest tol, lone entries and two-entry rows of every pair:
        # the first rule built is level 2's, and each entry counts the nodes
        # of a level from 2 on.
        exp_sinh, levels = lifshitz._exp_sinh, []

        def recording(level, t_lo, t_hi):
            levels.append(level)
            return exp_sinh(level, t_lo, t_hi)

        monkeypatch.setattr(lifshitz, "_exp_sinh", recording)
        for name, (m1, m2) in _pairs(gold_drude, copper_drude, ideal).items():
            for kind in ("pressure", "force"):
                t_range = lifshitz._t_range(kind, 1e-3)
                counts = [exp_sinh(level, *t_range)[0].size ** 2
                          for level in range(2, lifshitz._MAX_LEVEL + 1)]
                for z in (2e-8, 1e-7, 1e-6, 1e-5):
                    for zs, entries in ((z, 1), (z * np.array([[1.0, 1.3]]), 2)):
                        levels.clear()
                        res = _integral(kind, zs, m1, m2, 1e-3)
                        assert min(levels) == levels[0] == 2, (name, kind, z)
                        assert res.evaluations in [entries * n for n in counts], (name, kind, z)

    def test_the_first_pass_can_be_the_last_level(self, monkeypatch):
        # With _MAX_LEVEL at the first pass's level, every row writes the
        # first pass's sums and estimates: those of rows that meet a loose
        # tol there.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        zs = np.array([[2e-7, 2.1e-7], [5e-7, 5.5e-7], [1e-6, 1.2e-6]])
        for kind in ("pressure", "force"):
            t_range = lifshitz._t_range(kind, 1e-6)
            n2 = lifshitz._exp_sinh(2, *t_range)[0].size ** 2
            loose = lifshitz._stops(kind, zs, au, cu, 1.0, *t_range)
            monkeypatch.setattr(lifshitz, "_MAX_LEVEL", 2)
            sums, rel, nodes = lifshitz._stops(kind, zs, au, cu, 0.0, *t_range)
            monkeypatch.undo()
            assert np.all(np.isfinite(sums) & (rel > 0.0))
            assert np.array_equal(sums, loose[0]), kind
            assert np.array_equal(rel, loose[1]), kind
            assert nodes == loose[2] == 6 * n2


def _reference(name, kind, z, m1, m2):
    """Each entry of ``z`` alone at tol 1e-8 (the closed form for the ideal
    pair), and its estimate."""
    if name == "ideal":
        exact = (ideal_pressure_plane_plane(1.0) * z**-4.0 if kind == "pressure"
                 else ideal_force_sphere_plane(1.0, R_SPHERE) * z**-3.0)
        return exact, 0.0
    tight = _integral(kind, z, m1, m2, 1e-8)
    return tight.value, tight.est_rel_error


class TestSharedRows:
    """The entries of a row of a 2-D stack share the eps values and
    reflection factors of its smallest; each still bounds its own error and
    converges where it would alone."""

    SCALES = np.array([1.0, 1.05, 1.5, 4.0, lifshitz._SPREAD])

    @pytest.mark.parametrize("kind", ["pressure", "force"])
    def test_every_entry_is_within_its_estimate(self, kind, gold_drude, copper_drude, ideal):
        zs = np.array([2e-8, 1e-7, 5e-7, 2e-6])[:, None] * self.SCALES
        for name, (m1, m2) in _pairs(gold_drude, copper_drude, ideal).items():
            if name == "mixed":
                continue
            ref, ref_est = _reference(name, kind, zs, m1, m2)
            for tol in (1e-3, 1e-4, 1e-6):
                res = _integral(kind, zs, m1, m2, tol)
                assert np.all(res.est_rel_error <= tol)
                true = np.abs(res.value / ref - 1.0)
                assert np.all(true <= res.est_rel_error + ref_est), (name, tol)

    @given(z_min=st.floats(2e-8, 1e-5), spread=st.floats(1.0, lifshitz._SPREAD),
           name=st.sampled_from(["ideal", "drude", "tabulated"]),
           kind=st.sampled_from(["pressure", "force"]),
           tol=st.sampled_from([1e-3, 1e-4, 1e-6]))
    @settings(max_examples=30, deadline=None)
    def test_a_row_converges_where_its_entries_do(
            self, z_min, spread, name, kind, tol, gold_drude, copper_drude, ideal):
        m1, m2 = _pairs(gold_drude, copper_drude, ideal)[name]
        row = z_min * spread ** np.linspace(0.0, 1.0, 4)
        try:
            _integral(kind, row, m1, m2, tol)
        except ConvergenceError:
            return
        res = _integral(kind, row[None, :], m1, m2, tol)
        ref, ref_est = _reference(name, kind, row, m1, m2)
        assert np.all(np.abs(res.value[0] / ref - 1.0) <= res.est_rel_error[0] + ref_est)

    @pytest.mark.parametrize("kind,z0,levels", [("force", 1.1e-6, (2, 3, 3, 3)),
                                                ("pressure", 7e-7, (3, 3, 3, 2))],
                             ids=["force", "pressure"])
    def test_a_row_stops_when_all_its_entries_meet_tol(self, kind, z0, levels, monkeypatch):
        # In these Au/Cu rows one entry meets tol a level before the others:
        # the smallest force entry and the widest pressure entry. The row
        # stops as one at level 3, every entry takes that level's sum and
        # estimate, and the row counts every entry's nodes at that level.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        row = z0 * np.array([[1.0, 1.1, 1.5, 2.2]])
        t_range = lifshitz._t_range(kind, 1e-6)
        sums, rel, _ = lifshitz._stops(kind, row, au, cu, 1e-6, *t_range)
        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", 2)
        early = lifshitz._stops(kind, row, au, cu, 1e-6, *t_range)[1]
        assert (early[0] <= 1e-6).tolist() == [level == 2 for level in levels]
        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", 3)
        at, at_rel, _ = lifshitz._stops(kind, row, au, cu, 1e-6, *t_range)
        assert np.array_equal(sums, at) and np.array_equal(rel, at_rel)
        monkeypatch.undo()
        nodes = lifshitz._exp_sinh(3, *t_range)[0].size ** 2
        assert _integral(kind, row, au, cu, 1e-6).evaluations == 4 * nodes == 23_104

    def test_evaluations_count_the_pairs_whose_tail_is_evaluated(self, monkeypatch):
        # On a 1-D stack (the 1.1 um force stops a level before the others),
        # on a row whose entries meet tol at different levels, on a rough
        # stack of several rows and on a row that splits at _SPREAD into
        # runs of 16 and 4 entries.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        tail, pairs = lifshitz._tail, []

        def counting(kind, v, lq):
            pairs.append(v.size)
            return tail(kind, v, lq)

        monkeypatch.setattr(lifshitz, "_tail", counting)
        offsets = np.array([-3e-8, -1e-8, 0.0, 1e-8, 3e-8])
        for kind, z in (("force", np.array([5e-7, 1.1e-6, 1.5e-6, 2e-7])),
                        ("force", 1.1e-6 * np.array([[1.0, 1.1, 1.5, 2.2]])),
                        ("pressure", np.array([[2e-7], [4e-7], [6e-7]]) + offsets),
                        ("force", np.geomspace(1e-7, 2.8e-6, 20)[None, :])):
            pairs.clear()
            assert _integral(kind, z, au, cu, 1e-6).evaluations == sum(pairs), (kind, z)

    def test_scaled_truncation_bound_takes_each_scale(self):
        # Each entry's bounds are those of its scale alone, and scale 1
        # gives the closed form of the rule's own nodes at every level.
        t_range = lifshitz._t_range("force", 1e-6)
        x_lo, a = (float(lifshitz._x(t)) for t in t_range)
        beyond, at = lifshitz._tails(a)
        scales = np.array([1.0, 1.35, 3.0])
        bounds = lifshitz._truncation(*t_range, scales)
        assert bounds.shape == (lifshitz._MAX_LEVEL + 1, scales.size)
        for k, c in enumerate(scales.tolist()):
            alone = lifshitz._truncation(*t_range, np.array([c]))
            assert bounds[:, k].tolist() == alone[:, 0].tolist()
        for level in range(lifshitz._MAX_LEVEL + 1):
            first = 0.5 ** (level + 1) * 0.5 * math.pi * math.cosh(t_range[1]) * a
            assert bounds[level, 0] == 8.0 * lifshitz._ZETA3 * x_lo + 2.0 * (beyond + first * at)


def _result(kind, z, m1, m2, tol):
    """The result of a call, or the partial result of its ConvergenceError."""
    try:
        return _integral(kind, z, m1, m2, tol)
    except ConvergenceError as exc:
        return exc.partial


class TestDistinctRuns:
    """Each distinct run of a stack is integrated once and copied to the runs
    that repeat it: runs with equal separations or, between two perfect
    conductors, equal scales z/z0. ``evaluations`` counts the distinct runs'
    nodes."""

    @staticmethod
    def _rows(monkeypatch):
        stops, rows = lifshitz._stops, []

        def counting(kind, z, *args):
            rows.append(len(z))
            return stops(kind, z, *args)

        monkeypatch.setattr(lifshitz, "_stops", counting)
        return rows

    @pytest.mark.parametrize("kind", ["pressure", "force"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_an_ideal_grid_is_one_integral(self, kind, tol, ideal, monkeypatch):
        # Eps is never looked up, so every entry of a 1-D grid is one
        # integral, and so is every row with the same scales (powers of two
        # keep z/z0 exact).
        zs = np.geomspace(1e-7, 3e-6, 20)
        lone = [_integral(kind, z, ideal, ideal, tol) for z in zs]
        scaled = zs[:, None] * np.array([1.0, 2.0, 4.0])
        lone_rows = [_integral(kind, row[None, :], ideal, ideal, tol) for row in scaled]
        rows = self._rows(monkeypatch)
        res = _integral(kind, zs, ideal, ideal, tol)
        assert rows == [1]
        assert res.value.tolist() == [r.value for r in lone]
        assert res.est_rel_error.tolist() == [r.est_rel_error for r in lone]
        assert res.evaluations == lone[0].evaluations
        rows.clear()
        res = _integral(kind, scaled, ideal, ideal, tol)
        assert rows == [1]
        assert np.array_equal(res.value, np.vstack([r.value for r in lone_rows]))
        assert np.array_equal(res.est_rel_error, np.vstack([r.est_rel_error for r in lone_rows]))
        assert res.evaluations == lone_rows[0].evaluations

    def test_repeated_separations_are_integrated_once(self, monkeypatch):
        # Au/Cu repeats as a 1-D grid and as repeated rows of a 2-D stack,
        # at every chunk size: each entry is its lone call (or its row's),
        # and each distinct entry goes through _stops and counts its nodes
        # once.
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        grid = np.array([3e-7, 1.1e-6, 3e-7, 7e-7, 1.1e-6, 3e-7])
        row = np.array([2e-7, 2.1e-7, 2.5e-7])
        stack = np.vstack([row, row + 1e-7, row, row])
        for kind in ("pressure", "force"):
            lone = {z: _integral(kind, z, au, cu, 1e-6) for z in grid.tolist()}
            first, second = (_integral(kind, r[None, :], au, cu, 1e-6) for r in stack[:2])
            rows = self._rows(monkeypatch)
            for size in (lifshitz._STACK, 8, 1):
                monkeypatch.setattr(lifshitz, "_STACK", size)
                rows.clear()
                res = _integral(kind, grid, au, cu, 1e-6)
                assert sum(rows) == len(lone), (kind, size)
                assert res.value.tolist() == [lone[z].value for z in grid.tolist()]
                assert res.est_rel_error.tolist() == [lone[z].est_rel_error for z in grid.tolist()]
                assert res.evaluations == sum(r.evaluations for r in lone.values())
                rows.clear()
                res = _integral(kind, stack, au, cu, 1e-6)
                assert sum(rows) == 2, (kind, size)
                want = [first, second, first, first]
                assert np.array_equal(res.value, np.vstack([r.value for r in want]))
                assert np.array_equal(res.est_rel_error, np.vstack([r.est_rel_error for r in want]))
                assert res.evaluations == first.evaluations + second.evaluations
            monkeypatch.undo()

    def test_a_partial_result_fills_every_repeated_entry(self, ideal, monkeypatch):
        # Stopped at the first pass, tol 1e-8 is out of reach: the partial
        # result still holds every entry's lone sum and estimate.
        registry = load_registry()
        monkeypatch.setattr(lifshitz, "_MAX_LEVEL", 2)
        grid = np.array([3e-7, 1.1e-6, 3e-7, 1.1e-6, 3e-7])
        for m1, m2 in ((registry["gold"], registry["copper"]), (ideal, ideal)):
            lone = [_result("force", z, m1, m2, 1e-8) for z in grid]
            with pytest.raises(ConvergenceError) as exc_info:
                _integral("force", grid, m1, m2, 1e-8)
            partial = exc_info.value.partial
            assert partial.value.tolist() == [r.value for r in lone]
            assert partial.est_rel_error.tolist() == [r.est_rel_error for r in lone]
            assert np.all(partial.est_rel_error > 1e-8)


class TestBlockBudget:
    """The passes taken ``BLOCK`` elements at a time (u rows of the Lifshitz
    rule, xi rows of the dispersion table, Yukawa ranges) compute each row
    whole, so no budget moves a bit, down to one row per chunk."""

    @staticmethod
    def _passes():
        registry = load_registry()
        au, cu = registry["gold"], registry["copper"]
        xi = np.geomspace(1e-3, 1e3, 37)
        tables = [materials._dispersion_table(au.table, xi, splice)
                  for splice in (au.splice_ev, float(np.mean(au.table.energy_range)))]
        stack = force_sphere_plane(np.array([2e-7, 1e-6])[:, None] * np.array([1.0, 1.1, 1.3]),
                                   R_SPHERE, au, cu, tol=1e-6)
        limits = yukawa.alpha_limit(np.full(3, 1e-14), np.geomspace(1e-8, 1e-5, 5),
                                    yukawa.reference_sphere(), yukawa.reference_plate(),
                                    [2e-7, 3e-7, 5e-7])
        return [*tables, stack.value, stack.est_rel_error, limits]

    @pytest.mark.parametrize("block", [1, 7, 1 << 30])
    def test_results_do_not_depend_on_the_budget(self, block, monkeypatch):
        want = self._passes()
        for module in (lifshitz, materials, yukawa):
            monkeypatch.setattr(module, "BLOCK", block)
        got = self._passes()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
