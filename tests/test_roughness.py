import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_mto.errors import DomainError, ParseError, ValidationError
from casimir_mto.lifshitz import (
    _exp_sinh,
    _t_range,
    force_sphere_plane,
    ideal_force_sphere_plane,
    pressure_plane_plane,
)
from casimir_mto.materials import load_registry
from casimir_mto.roughness import (
    HeightMap,
    RoughnessDistribution,
    averaged_force,
    averaged_pressure,
    load_heightmap,
    weights_from_heightmaps,
)

R_SPHERE = 294.3e-6
# The criterion-10 sweep's 5-entry distribution: [offset_m, weight].
SWEEP_ENTRIES = [[-30e-9, 0.15], [-10e-9, 0.2], [0.0, 0.3], [10e-9, 0.2], [30e-9, 0.15]]
# (entries, the same entries with a weight split and shuffled, pairs, z_m)
SPLITS = {
    "two_way": ([[0.0, 0.5], [2e-8, 0.5]],
                [[0.0, 0.5], [2e-8, 0.25], [2e-8, 0.25]],
                ("ideal",), (1e-6,)),
    "three_way_shuffled": ([[-1e-8, 0.3], [0.0, 0.2], [2e-8, 0.5]],
                           [[2e-8, 0.125], [0.0, 0.2], [2e-8, 0.25],
                            [-1e-8, 0.3], [2e-8, 0.125]],
                           ("ideal", "drude", "tabulated"),
                           (0.2e-6, 0.33e-6, 0.7e-6, 1.3e-6)),
}


@pytest.fixture(scope="module")
def pairs(ideal, gold_drude, copper_drude):
    registry = load_registry()
    return {"ideal": (ideal, ideal), "drude": (gold_drude, copper_drude),
            "tabulated": (registry["gold"], registry["copper"]),
            "ideal_gold": (ideal, registry["gold"])}


def _dist(entries) -> RoughnessDistribution:
    return RoughnessDistribution(*np.array(entries).T)


class TestDistributionInvariants:
    def test_weights_must_normalize(self):
        with pytest.raises(ValidationError):
            RoughnessDistribution(np.array([0.0, 1e-9]), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            RoughnessDistribution(np.array([0.0, 1e-9]), np.array([1.5, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            RoughnessDistribution(np.array([]), np.array([]))

    def test_nonfinite_offset_rejected(self):
        with pytest.raises(ValidationError):
            RoughnessDistribution(np.array([np.inf]), np.array([1.0]))

    def test_single(self):
        d = RoughnessDistribution.single()
        assert d.n_entries == 1
        assert np.dot(d.weights, d.offsets) == 0.0


class TestHeightMap:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_pixel_pitch_rejected(self, bad):
        with pytest.raises(ValidationError, match="pixel pitch must be finite and > 0"):
            HeightMap(np.zeros((2, 2)), bad)


class TestWeightsFromHeightmaps:
    def test_flat_maps_give_delta(self):
        flat = HeightMap(np.zeros((4, 4)), 1e-7)
        d = weights_from_heightmaps(flat, flat)
        assert d.n_entries == 1
        assert d.offsets[0] == 0.0
        assert d.weights[0] == 1.0

    def test_two_level_vs_flat(self):
        two = HeightMap(np.array([[-5e-9, 5e-9], [5e-9, -5e-9]]), 1e-7)
        flat = HeightMap(np.zeros((2, 2)), 1e-7)
        d = weights_from_heightmaps(two, flat)
        np.testing.assert_allclose(d.offsets, [-5e-9, 5e-9])
        np.testing.assert_allclose(d.weights, [0.5, 0.5])

    def test_two_independent_two_level_surfaces_convolve(self):
        two = HeightMap(np.array([[-5e-9, 5e-9], [5e-9, -5e-9]]), 1e-7)
        d = weights_from_heightmaps(two, two)
        np.testing.assert_allclose(d.offsets, [-1e-8, 0.0, 1e-8])
        np.testing.assert_allclose(d.weights, [0.25, 0.5, 0.25])

    def test_single_combined_profile_path(self):
        two = HeightMap(np.array([[-5e-9, 5e-9]]), 1e-7)
        d = weights_from_heightmaps(two, None)
        np.testing.assert_allclose(d.offsets, [-5e-9, 5e-9])
        np.testing.assert_allclose(d.weights, [0.5, 0.5])

    def test_zero_mean_after_binning(self, rng):
        m1 = HeightMap(rng.normal(2e-9, 3e-9, (48, 48)), 1e-7)
        m2 = HeightMap(rng.normal(-1e-9, 2e-9, (32, 32)), 1e-7)
        d = weights_from_heightmaps(m1, m2, bins=21)
        assert d.n_entries <= 21
        assert abs(np.dot(d.weights, d.offsets)) < 1e-22
        assert abs(d.weights.sum() - 1.0) <= 1e-12

    def test_histogram_path_for_large_maps(self, rng):
        m1 = HeightMap(rng.normal(0, 3e-9, (64, 64)), 1e-7)
        m2 = HeightMap(rng.normal(0, 3e-9, (64, 64)), 1e-7)
        d = weights_from_heightmaps(m1, m2, bins=15)
        assert d.n_entries <= 15
        assert abs(np.dot(d.weights, d.offsets)) < 1e-22

    def test_bins_validated(self):
        flat = HeightMap(np.zeros((2, 2)), 1e-7)
        with pytest.raises(DomainError):
            weights_from_heightmaps(flat, flat, bins=0)

    @given(bins=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_normalization_preserved(self, bins):
        rng = np.random.default_rng(bins)
        m1 = HeightMap(rng.normal(0, 2e-9, (16, 16)), 1e-7)
        m2 = HeightMap(rng.normal(0, 4e-9, (16, 16)), 1e-7)
        d = weights_from_heightmaps(m1, m2, bins=bins)
        assert abs(d.weights.sum() - 1.0) <= 1e-12


class TestAveraging:
    def test_single_entry_reduces_exactly(self, gold_drude, copper_drude):
        d = RoughnessDistribution.single()
        avg = averaged_pressure(0.5e-6, d, gold_drude, copper_drude, tol=1e-6)
        plain = pressure_plane_plane(0.5e-6, gold_drude, copper_drude, tol=1e-6)
        assert avg.value == plain.value

    def test_ideal_pressure_two_point_closed_form(self, ideal):
        d = RoughnessDistribution(np.array([-0.1e-6, 0.1e-6]), np.array([0.5, 0.5]))
        avg = averaged_pressure(1e-6, d, ideal, ideal, tol=1e-7)
        plain = pressure_plane_plane(1e-6, ideal, ideal, tol=1e-7)
        # z^-4 convexity: (0.9^-4 + 1.1^-4)/2
        want = 0.5 * (0.9**-4 + 1.1**-4)
        assert avg.value / plain.value == pytest.approx(want, rel=1e-6)

    def test_ideal_force_two_point_closed_form(self, ideal):
        d = RoughnessDistribution(np.array([-39.4e-9, 39.4e-9]), np.array([0.5, 0.5]))
        avg = averaged_force(1e-6, R_SPHERE, d, ideal, ideal, tol=1e-7)
        plain = force_sphere_plane(1e-6, R_SPHERE, ideal, ideal, tol=1e-7)
        want = 0.5 * (0.9606**-3 + 1.0394**-3)
        assert avg.value / plain.value == pytest.approx(want, rel=1e-6)

    def test_weight_reordering_is_exact(self, ideal):
        d1 = RoughnessDistribution(np.array([-2e-8, 0.0, 3e-8]), np.array([0.25, 0.5, 0.25]))
        d2 = RoughnessDistribution(np.array([3e-8, -2e-8, 0.0]), np.array([0.25, 0.25, 0.5]))
        a = averaged_force(1e-6, R_SPHERE, d1, ideal, ideal, tol=1e-6)
        b = averaged_force(1e-6, R_SPHERE, d2, ideal, ideal, tol=1e-6)
        assert a.value == b.value

    @pytest.mark.parametrize("case", sorted(SPLITS))
    def test_weight_splitting_is_exact(self, pairs, case):
        entries, split, names, zs = SPLITS[case]
        d1, d2 = _dist(entries), _dist(split)
        for name in names:
            m1, m2 = pairs[name]
            for z in zs:
                a = averaged_pressure(z, d1, m1, m2, tol=1e-6)
                b = averaged_pressure(z, d2, m1, m2, tol=1e-6)
                assert a.value == b.value, (name, z)

    @pytest.mark.parametrize("name", ["tabulated", "drude", "ideal_gold"])
    def test_averaged_estimate_is_honest(self, pairs, name):
        # The estimate is the level difference of the weighted sum; it must
        # bound the error against entry-by-entry integrals at tol 1e-8.
        m1, m2 = pairs[name]
        d = _dist(SWEEP_ENTRIES)
        # Node counts of the trimmed rule at each level, for the t range of
        # each quantity and tol.
        entry_nodes = {
            (kind, tol): {_exp_sinh(level, *_t_range(kind, tol))[0].size ** 2
                          for level in range(1, 7)}
            for kind in ("pressure", "force") for tol in (1e-3, 1e-4, 1e-6)
        }
        for z in (0.1e-6, 0.2e-6, 0.5e-6, 1e-6, 3e-6):
            shifted = z + d.offsets
            ref_p = sum(w * pressure_plane_plane(s, m1, m2, tol=1e-8).value
                        for s, w in zip(shifted, d.weights))
            ref_f = sum(w * force_sphere_plane(s, R_SPHERE, m1, m2, tol=1e-8).value
                        for s, w in zip(shifted, d.weights))
            for tol in (1e-3, 1e-4, 1e-6):
                for kind, avg, ref, lone in (
                        ("pressure", averaged_pressure(z, d, m1, m2, tol=tol), ref_p,
                         [pressure_plane_plane(s, m1, m2, tol=tol) for s in shifted]),
                        ("force", averaged_force(z, R_SPHERE, d, m1, m2, tol=tol), ref_f,
                         [force_sphere_plane(s, R_SPHERE, m1, m2, tol=tol) for s in shifted])):
                    assert abs(avg.value / ref - 1.0) <= avg.est_rel_error, (z, tol)
                    # Each entry stops at its own level, as it would alone.
                    nodes = [r.evaluations for r in lone]
                    assert avg.evaluations == sum(nodes)
                    assert all(n in entry_nodes[kind, tol] for n in nodes)

    def test_convexity_enhancement(self, ideal):
        """Zero-mean spread must amplify |F| (Jensen on convex z^-3)."""
        d = RoughnessDistribution(
            np.array([-3e-8, 0.0, 3e-8]), np.array([0.3, 0.4, 0.3])
        )
        avg = averaged_force(0.7e-6, R_SPHERE, d, ideal, ideal, tol=1e-6)
        assert abs(avg.value) > abs(ideal_force_sphere_plane(0.7e-6, R_SPHERE))

    @pytest.mark.parametrize("average", [averaged_pressure, averaged_force])
    def test_zero_weight_entries_are_not_integrated(self, average, gold_drude, copper_drude):
        args = (R_SPHERE,) if average is averaged_force else ()
        d = RoughnessDistribution(np.array([1e-9, 0.0]), np.array([0.0, 1.0]))
        got = average(0.5e-6, *args, d, gold_drude, copper_drude, tol=1e-6)
        want = average(0.5e-6, *args, RoughnessDistribution.single(), gold_drude,
                       copper_drude, tol=1e-6)
        assert got.evaluations == want.evaluations
        assert (got.value, got.est_rel_error) == (want.value, want.est_rel_error)
        # A zero-weight entry still has to shift to a positive separation.
        bad = RoughnessDistribution(np.array([-1e-6, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match="entry 0"):
            average(0.5e-6, *args, bad, gold_drude, copper_drude)

    def test_offending_entry_named(self, ideal):
        d = RoughnessDistribution(np.array([-2e-6, 2e-6]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="entry 0"):
            averaged_pressure(1e-6, d, ideal, ideal)

    def test_bin_count_stability(self, ideal, rng):
        from scipy.ndimage import gaussian_filter

        smooth = HeightMap(gaussian_filter(rng.normal(0, 3e-9, (64, 64)), 4), 1e-7)
        d21 = weights_from_heightmaps(smooth, smooth, bins=21)
        d42 = weights_from_heightmaps(smooth, smooth, bins=42)
        a = averaged_force(1e-6, R_SPHERE, d21, ideal, ideal, tol=1e-6)
        b = averaged_force(1e-6, R_SPHERE, d42, ideal, ideal, tol=1e-6)
        assert abs(a.value / b.value - 1.0) < 5e-3


class TestHeightMapIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scan.txt"
        path.write_text(
            "# AFM export\n# pixel_pitch_m = 2.0e-7\n1e-9 2e-9\n-1e-9 0.0\n"
        )
        hm = load_heightmap(path)
        assert hm.pixel_pitch == 2.0e-7
        assert hm.grid.shape == (2, 2)

    def test_missing_pitch(self, tmp_path):
        path = tmp_path / "scan.txt"
        path.write_text("1e-9 2e-9\n")
        with pytest.raises(ParseError):
            load_heightmap(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "scan.txt"
        path.write_text("# pixel_pitch_m = 1e-7\n\n1e-9 2e-9\n# note\n1e-9\n")
        with pytest.raises(ParseError) as exc_info:
            load_heightmap(path)
        assert exc_info.value.line == 5  # the file line, not the data-row index

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scan.txt"
        path.write_text("# pixel_pitch_m = 1e-7\n1e-9 oops\n")
        with pytest.raises(ParseError) as exc_info:
            load_heightmap(path)
        assert exc_info.value.line == 2

    def test_heightmap_invariants(self):
        with pytest.raises(ValidationError):
            HeightMap(np.array([[np.nan]]), 1e-7)
        with pytest.raises(ValidationError):
            HeightMap(np.zeros((2, 2)), 0.0)
