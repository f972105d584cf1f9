import math
import warnings

import numpy as np
import pytest

from casimir_mto import lifshitz
from casimir_mto.constants import CODATA, HBARC_EV_M
from casimir_mto.errors import DomainError
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
                    for tol in (1e-3, 1e-4, 1e-6, 1e-8):
                        res = _integral(kind, z, m1, m2, tol)
                        assert np.all(res.est_rel_error <= tol)
                        true = abs(res.value / ref - 1.0)
                        assert np.all(true <= res.est_rel_error + ref_est), (name, kind, z, tol)

    @pytest.mark.parametrize("kind", ["pressure", "force"])
    def test_dropped_nodes_stay_within_the_truncation_term(
            self, kind, gold_drude, copper_drude, ideal):
        # Full-range minus trimmed rule at the same level, against the term
        # that est_rel_error adds for that level.
        for name, (m1, m2) in _pairs(gold_drude, copper_drude, ideal).items():
            for z0 in (2e-8, 1e-5):
                z = np.array([[z0]])
                for tol in (1e-3, 1e-8):
                    t_range = lifshitz._t_range(kind, tol)
                    levels = (lifshitz._levels(kind, z, m1, m2, *r)
                              for r in ((lifshitz._T_LO, lifshitz._T_HI), t_range))
                    for level, ((full, n_full), (trim, n_trim)) in enumerate(zip(*levels)):
                        if level == 5:
                            break
                        assert n_trim < n_full
                        bound = lifshitz._truncation(*t_range, level)
                        assert abs(full[0] - trim[0]) <= bound, (name, z0, tol, level)

    def test_an_entry_does_not_depend_on_the_entries_stacked_with_it(
            self, gold_drude, copper_drude):
        # A rough CLI row stacks the plain separation with the average's
        # entries, so every entry's level sums must come out bit for bit as
        # without it (a BLAS matrix-vector product does not give that).
        for kind in ("pressure", "force"):
            t_range = lifshitz._t_range(kind, 1e-6)
            for z in (2e-7, 1e-6):
                for k in (1, 2, 3):
                    alone = (z * (1.0 + 0.05 * np.arange(k))).reshape(-1, 1)
                    stacked = np.vstack([alone, [[0.97 * z]]])
                    levels = (lifshitz._levels(kind, zs, gold_drude, copper_drude, *t_range)
                              for zs in (alone, stacked))
                    for level, ((a, _), (b, _)) in enumerate(zip(*levels)):
                        if level == 4:
                            break
                        assert np.array_equal(a, b[:-1]), (kind, z, k, level)

    def test_a_stacked_entry_is_its_lone_call(self, monkeypatch):
        # Alone, the 1.1 um Au/Cu force stops a level before its neighbours;
        # stacked, it must still stop there, also across a chunk boundary.
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
            assert res.evaluations == sum(r.evaluations for r in lone)

    def test_trimmed_levels_nest_inside_the_full_rule(self):
        for tol in (1e-3, 1e-6, 1e-8):
            t_range = lifshitz._t_range("pressure", tol)
            for level in range(4):
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
