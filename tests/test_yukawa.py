import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_mto.errors import ConfigurationError, DomainError, ValidationError
from casimir_mto.yukawa import (
    DENSITIES,
    Layer,
    LayeredBody,
    YukawaParams,
    _unit_force,
    alpha_limit,
    reference_plate,
    reference_sphere,
    yukawa_force_sphere_plane,
)
from yukawa_brute import yukawa_force_brute


class TestBodies:
    def test_density_steps_telescope(self):
        body = reference_sphere()
        steps = body.density_steps()
        # Superposed steps must rebuild each region's density.
        assert steps[0][1] == pytest.approx(DENSITIES["gold"])
        assert sum(s for _, s in steps) == pytest.approx(DENSITIES["alumina"])
        depths = [d for d, _ in steps]
        assert depths == sorted(depths)

    def test_sphere_needs_radius(self):
        with pytest.raises(ValidationError):
            LayeredBody("sphere", 1000.0)

    def test_overthick_coating_rejected(self):
        with pytest.raises(ValidationError):
            LayeredBody.sphere(1e-7, 1000.0, (Layer(2e-7, 2000.0),))

    def test_layer_validation(self):
        with pytest.raises(ValidationError):
            Layer(0.0, 1000.0)
        with pytest.raises(ValidationError):
            Layer(1e-9, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_bodies_rejected(self, bad):
        with pytest.raises(ValidationError, match="thickness must be finite and > 0"):
            Layer(bad, 1000.0)
        with pytest.raises(ValidationError, match="density must be finite and > 0"):
            Layer(1e-9, bad)
        with pytest.raises(ValidationError, match="core density must be finite and > 0"):
            LayeredBody.half_space(bad)
        with pytest.raises(ValidationError, match="finite positive outer radius"):
            LayeredBody.sphere(bad, 1000.0)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            YukawaParams(1.0, 0.0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                YukawaParams(alpha, 1e-6)


class TestForce:
    def test_zero_strength_gives_zero(self):
        p = YukawaParams(0.0, 200e-9)
        assert yukawa_force_sphere_plane(p, reference_sphere(), reference_plate(), 2e-7) == 0.0

    def test_linear_in_alpha(self):
        f1 = yukawa_force_sphere_plane(YukawaParams(1e10, 2e-7), reference_sphere(), reference_plate(), 2e-7)
        f2 = yukawa_force_sphere_plane(YukawaParams(2e10, 2e-7), reference_sphere(), reference_plate(), 2e-7)
        assert f2 == pytest.approx(2 * f1, rel=1e-14)

    def test_monotone_decreasing_in_separation(self):
        p = YukawaParams(1e10, 2e-7)
        forces = [
            yukawa_force_sphere_plane(p, reference_sphere(), reference_plate(), z)
            for z in (1e-7, 2e-7, 4e-7, 8e-7)
        ]
        assert all(a > b > 0 for a, b in zip(forces, forces[1:]))

    def test_monotone_increasing_in_range(self):
        forces = [
            yukawa_force_sphere_plane(YukawaParams(1e10, lam), reference_sphere(), reference_plate(), 2e-7)
            for lam in (5e-8, 1e-7, 2e-7, 1e-6)
        ]
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_brute_force_agreement_at_200nm(self):
        p = YukawaParams(1e13, 200e-9)
        analytic = yukawa_force_sphere_plane(p, reference_sphere(), reference_plate(), 2e-7)
        brute = yukawa_force_brute(p, reference_sphere(), reference_plate(), 2e-7)
        assert analytic == pytest.approx(brute, rel=1e-2)

    def test_thick_coating_converges_to_bulk(self):
        p = YukawaParams(1.0, 2e-7)
        sphere = reference_sphere()
        bulk = LayeredBody.half_space(DENSITIES["gold"])
        coated = LayeredBody.half_space(
            DENSITIES["silicon"], (Layer(1e-4, DENSITIES["gold"]),)
        )
        fb = yukawa_force_sphere_plane(p, sphere, bulk, 2e-7)
        fc = yukawa_force_sphere_plane(p, sphere, coated, 2e-7)
        assert fc == pytest.approx(fb, rel=1e-12)

    @pytest.mark.parametrize("lam,bound", [(50e-9, 1e-3), (200e-9, 2.5e-3)])
    def test_chromium_adhesion_layers_negligible(self, lam, bound):
        # Modeling the 1 nm Cr with its own density vs. letting the core
        # material fill that slot barely moves the force: ~0.02% at
        # lambda = 50 nm, rising to ~0.18% at 200 nm.
        p = YukawaParams(1.0, lam)
        with_cr = yukawa_force_sphere_plane(p, reference_sphere(), reference_plate(), 2e-7)
        no_cr_sphere = LayeredBody.sphere(
            294.3e-6, DENSITIES["alumina"],
            (Layer(203e-9, DENSITIES["gold"]), Layer(1e-9, DENSITIES["alumina"])),
        )
        no_cr_plate = LayeredBody.half_space(
            DENSITIES["silicon"],
            (Layer(200e-9, DENSITIES["copper"]), Layer(1e-9, DENSITIES["silicon"])),
        )
        without = yukawa_force_sphere_plane(p, no_cr_sphere, no_cr_plate, 2e-7)
        assert abs(with_cr / without - 1.0) < bound

    def test_unit_force_keeps_full_precision_for_every_range(self):
        # (R - lam) + (R + lam) e^(-2R/lam) cancels to about (2/3) R^3/lam^2
        # once lam >> R; the closed form used to lose everything by 1 km.
        mp = pytest.importorskip("mpmath")
        radius, gap = 294.3e-6, 2e-7
        for lam in np.geomspace(1e-9, 1e4, 261):
            with mp.workdps(60):
                g, r, l = (mp.mpf(float(v)) for v in (gap, radius, lam))
                want = (4 * mp.pi**2 * l**3 * mp.exp(-g / l)
                        * ((r - l) + (r + l) * mp.exp(-2 * r / l)))
                err = abs(mp.mpf(_unit_force(gap, radius, float(lam))) / want - 1)
            assert err <= 1e-13, lam

    def test_domain(self):
        p = YukawaParams(1.0, 2e-7)
        with pytest.raises(DomainError):
            yukawa_force_sphere_plane(p, reference_sphere(), reference_plate(), 0.0)
        with pytest.raises(DomainError):
            yukawa_force_sphere_plane(p, reference_plate(), reference_plate(), 1e-7)


class TestAlphaLimit:
    Z_GRID = np.array([1.5e-7, 2e-7, 3e-7, 5e-7])

    def test_halved_bound_halves_limit(self):
        a1 = alpha_limit(lambda z: 2e-14, 2e-7, reference_sphere(), reference_plate(), self.Z_GRID)
        a2 = alpha_limit(lambda z: 1e-14, 2e-7, reference_sphere(), reference_plate(), self.Z_GRID)
        assert a2 == pytest.approx(0.5 * a1, rel=1e-14)

    def test_self_consistency_at_1e13(self):
        # Bound set to the alpha=1e13 force must return exactly 1e13.
        lam = 200e-9
        forces = {
            float(z): yukawa_force_sphere_plane(
                YukawaParams(1e13, lam), reference_sphere(), reference_plate(), float(z)
            )
            for z in self.Z_GRID
        }
        limit = alpha_limit(lambda z: forces[float(z)], lam,
                            reference_sphere(), reference_plate(), self.Z_GRID)
        assert limit == pytest.approx(1e13, rel=1e-12)

    def test_array_bound(self):
        bounds = np.full(self.Z_GRID.size, 1e-14)
        a = alpha_limit(bounds, 2e-7, reference_sphere(), reference_plate(), self.Z_GRID)
        assert a > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            alpha_limit(lambda z: 1e-14, 2e-7, reference_sphere(), reference_plate(), [])

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(DomainError):
            alpha_limit(lambda z: 0.0, 2e-7, reference_sphere(), reference_plate(), self.Z_GRID)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_limit_linearity_property(self, scale):
        base = alpha_limit(lambda z: 1e-14, 2e-7, reference_sphere(), reference_plate(), self.Z_GRID)
        scaled = alpha_limit(lambda z: scale * 1e-14, 2e-7,
                             reference_sphere(), reference_plate(), self.Z_GRID)
        assert scaled == pytest.approx(scale * base, rel=1e-12)
