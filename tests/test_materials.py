import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from casimir_mto.errors import (
    ConfigurationError,
    DomainError,
    ParseError,
    ValidationError,
)
from casimir_mto.materials import (
    DrudeOnly,
    DrudeParams,
    OpticalTable,
    PerfectConductor,
    SampledDielectric,
    Tabulated,
    _dispersion_drude_segment,
    drude_eps,
    drude_eps2,
    drude_eps_via_dispersion,
    kk_to_imaginary_axis,
    load_optical_data,
    load_registry,
)

AU = DrudeParams(9.0, 0.035)


class TestDrudeEps:
    def test_at_plasma_energy_with_negligible_relaxation(self):
        # gamma -> 0 limit: eps = 1 + (wp/xi)^2 = 2 at xi = wp.
        params = DrudeParams(9.0, 1e-30)
        assert drude_eps(9.0, params) == 2.0

    def test_tabulated_default_point(self):
        # 1 + 81 / (0.1 * 0.135) = 6001 exactly
        assert drude_eps(0.1, AU) == pytest.approx(6001.0, rel=1e-12)

    def test_high_frequency_limit(self):
        assert drude_eps(1e9, AU) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            drude_eps(0.0, AU)
        with pytest.raises(DomainError):
            drude_eps(-1.0, AU)

    def test_params_validated(self):
        with pytest.raises(ValidationError):
            DrudeParams(0.0, 0.035)
        with pytest.raises(ValidationError):
            DrudeParams(9.0, -1.0)
        with pytest.raises(ValidationError, match="plasma energy"):
            DrudeParams(1e80, 0.035)
        with pytest.raises(ValidationError, match="relaxation energy"):
            DrudeParams(9.0, 1e300)
        DrudeParams(1e3, 1e3)

    @given(
        wp=st.floats(0.5, 20.0),
        gamma=st.floats(1e-3, 0.5),
        xi1=st.floats(1e-3, 1e3),
        factor=st.floats(1.0001, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_and_above_one(self, wp, gamma, xi1, factor):
        params = DrudeParams(wp, gamma)
        e1 = drude_eps(xi1, params)
        e2 = drude_eps(xi1 * factor, params)
        assert e1 >= e2 >= 1.0


class TestDispersionIntegral:
    def test_pure_drude_dual_route(self):
        """Numeric dispersion of the Drude loss vs the closed form."""
        for xi in np.geomspace(0.01, 100.0, 12):
            numeric = drude_eps_via_dispersion(AU, float(xi))
            closed = drude_eps(float(xi), AU)
            assert numeric == pytest.approx(closed, rel=1e-3)
            # The machinery is much better than the contractual 1e-3.
            assert numeric == pytest.approx(closed, rel=1e-5)

    def test_drude_only_documented_value(self):
        assert drude_eps_via_dispersion(AU, 0.1) == pytest.approx(6001.0, rel=1e-5)

    def test_single_lorentzian_closed_form(self):
        # eps''(w) = S w0^2 G w / ((w0^2 - w^2)^2 + G^2 w^2)
        # has eps(i xi) = 1 + S w0^2 / (w0^2 + G xi + xi^2) exactly.
        s0, w0, g0 = 2.0, 5.0, 1.5
        w = np.geomspace(1e-3, 1e4, 4000)
        y = s0 * w0**2 * g0 * w / ((w0**2 - w**2) ** 2 + g0**2 * w**2)
        table = OpticalTable(w, y)
        tiny_drude = DrudeParams(1e-8, 1e-3)
        for xi in (0.1, 1.0, 5.0, 30.0):
            got = kk_to_imaginary_axis(table, tiny_drude, xi)
            want = 1.0 + s0 * w0**2 / (w0**2 + g0 * xi + xi**2)
            assert got == pytest.approx(want, rel=1e-3)

    def test_high_frequency_tends_to_one(self):
        table = load_optical_data_from_default("au_eps2.csv")
        assert kk_to_imaginary_axis(table, AU, 1e6) == pytest.approx(1.0, abs=1e-6)

    def test_drude_dominates_at_low_frequency(self):
        table = load_optical_data_from_default("au_eps2.csv")
        xi = 1e-4
        full = kk_to_imaginary_axis(table, AU, xi)
        assert full == pytest.approx(drude_eps(xi, AU), rel=1e-3)

    def test_zero_row_table_rejected(self):
        empty = OpticalTable(np.array([]), np.array([]))
        with pytest.raises(ConfigurationError):
            kk_to_imaginary_axis(empty, AU, 1.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(DomainError):
            kk_to_imaginary_axis(None, AU, 0.0)

    @pytest.mark.parametrize("hi", [0.15, 1e5])
    @pytest.mark.parametrize("xi", [0.035, 0.035 * (1 + 1e-9), 0.035 * (1 - 1e-9), 1e-8, 1e6])
    def test_drude_segment_matches_quad(self, hi, xi):
        # The closed form against an adaptive quadrature of the same
        # integrand, including xi = gamma, where the partial-fraction form
        # would divide 0 by 0. Decade break points let quad find the peaks
        # near gamma and xi when the upper limit is far above them.
        a = AU.plasma_ev**2 * AU.relaxation_ev
        g2 = AU.relaxation_ev**2
        points = sorted(p for p in (AU.relaxation_ev, xi, *np.geomspace(1e-9, 1e4, 14))
                        if p < hi)
        want, _ = quad(lambda w: a / ((w * w + g2) * (w * w + xi * xi)), 0.0, hi,
                       points=points, epsabs=0.0, epsrel=1e-13, limit=400)
        got = _dispersion_drude_segment(AU, np.array([xi]), hi)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def load_optical_data_from_default(name):
    from casimir_mto.materials import data_dir

    return load_optical_data(data_dir() / name)


class TestOpticalTableIO:
    def _write(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text(body, encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        path = self._write(tmp_path, "energy_ev,eps2\n0.5,10\n1.0,5\n2.0,1\n")
        table = load_optical_data(path)
        assert table.n_rows == 3
        assert table.energy_range == (0.5, 2.0)

    def test_negative_eps2_rejected(self, tmp_path):
        path = self._write(tmp_path, "energy_ev,eps2\n0.5,10\n1.0,-5\n")
        with pytest.raises(ValidationError):
            load_optical_data(path)

    def test_duplicate_energy_rejected(self, tmp_path):
        path = self._write(tmp_path, "energy_ev,eps2\n0.5,10\n0.5,5\n")
        with pytest.raises(ValidationError):
            load_optical_data(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = self._write(tmp_path, "energy_ev,eps2\n1.0,10\n0.5,5\n")
        with pytest.raises(ValidationError):
            load_optical_data(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "energy_ev,eps2\n0.5,10\nnot-a-number,5\n")
        with pytest.raises(ParseError) as exc_info:
            load_optical_data(path)
        assert exc_info.value.line == 3

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "0.5,10\n1.0,5\n")
        with pytest.raises(ParseError):
            load_optical_data(path)


class TestModels:
    def test_perfect_conductor_has_no_eps(self):
        with pytest.raises(DomainError):
            PerfectConductor().eps(1.0)
        assert PerfectConductor().is_ideal

    def test_tabulated_matches_kk(self):
        table = load_optical_data_from_default("au_eps2.csv")
        model = Tabulated(table, AU)
        assert model.eps(0.5) == kk_to_imaginary_axis(table, AU, 0.5, model.splice_ev)

    def test_splice_mismatch_rejected(self):
        w = np.geomspace(0.15, 50.0, 200)
        # Table loss far from the Drude tail at the splice.
        y = np.full_like(w, 100.0)
        with pytest.raises(ValidationError):
            Tabulated(OpticalTable(w, y), AU)

    def test_splice_outside_table_rejected(self):
        table = load_optical_data_from_default("au_eps2.csv")
        with pytest.raises(ConfigurationError):
            Tabulated(table, AU, splice_ev=1e-3)

    def test_monotone_and_above_one(self):
        table = load_optical_data_from_default("au_eps2.csv")
        model = Tabulated(table, AU)
        xi = np.geomspace(1e-3, 1e3, 25)
        eps = np.array([model.eps(float(x)) for x in xi])
        assert np.all(eps >= 1.0)
        assert np.all(np.diff(eps) <= 0)

    def test_sampler_tracks_model(self):
        table = load_optical_data_from_default("cu_eps2.csv")
        model = Tabulated(table, DrudeParams(8.9, 0.030))
        sampler = model.sampled()
        assert sampler is model.sampled()  # cached
        for xi in np.geomspace(1e-4, 500.0, 17):
            assert sampler.eps(float(xi)) == pytest.approx(model.eps(float(xi)), rel=1e-6)

    def test_sampler_extrapolation_stays_physical(self):
        table = load_optical_data_from_default("au_eps2.csv")
        sampler = Tabulated(table, AU).sampled()
        assert sampler.eps(1e-8) >= sampler.eps(1e-6) >= 1.0
        assert 1.0 <= sampler.eps(1e6) <= sampler.eps(1e4)
        with pytest.raises(DomainError):
            sampler.eps(0.0)

    @pytest.mark.parametrize("name", ["gold", "copper"])
    def test_chebyshev_sampler_matches_dispersion(self, name):
        model = load_registry()[name]
        sampler = model.sampled()
        xi = np.geomspace(1e-6, 1e4, 20_001)
        assert np.max(np.abs(sampler.eps(xi) / model.eps(xi) - 1.0)) <= 1e-12
        dense = sampler.eps(np.geomspace(1e-8, 1e6, 400_001))
        assert np.all(np.diff(dense) <= 0) and np.all(dense >= 1.0)

    def test_sampled_xi_must_be_lobatto_points(self):
        with pytest.raises(ValidationError):
            SampledDielectric(np.geomspace(1e-3, 1e3, 9), np.full(9, 2.0))

    def test_sampled_requires_eps_above_one(self):
        with pytest.raises(ValidationError):
            SampledDielectric(np.array([0.1, 1.0]), np.array([1.0, 0.5]))

    def test_array_eps_matches_scalar(self):
        # The force integrals and the sampler build pass arrays; every entry
        # must equal the scalar call, inside and on both sides of the sampled
        # range, and across the blocks of the table row sums.
        gold = Tabulated(load_optical_data_from_default("au_eps2.csv"), AU)
        sampler = gold.sampled()
        xi = np.geomspace(1e-8, 1e6, 141)
        for model in (sampler, DrudeOnly(AU), gold):
            assert isinstance(model.eps(0.5), float)
            assert model.eps(xi).tolist() == [model.eps(float(x)) for x in xi]
        for model in (sampler, gold):
            with pytest.raises(DomainError):
                model.eps(np.array([1.0, 0.0]))


class TestRegistry:
    def test_default_registry_loads(self):
        registry = load_registry()
        assert {"gold", "copper", "gold_drude", "copper_drude", "ideal"} <= set(registry)
        assert registry["ideal"].is_ideal
        assert isinstance(registry["gold"], Tabulated)
        assert isinstance(registry["gold_drude"], DrudeOnly)

    def test_bundled_splice_continuity(self):
        registry = load_registry()
        for name in ("gold", "copper"):
            assert registry[name].splice_mismatch() <= 1e-2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({"x": {"variant": "drude", "plasma_ev": 9, "relaxation_ev": 0.03, "bogus": 1}}))
        with pytest.raises(ConfigurationError):
            load_registry(path)

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({"x": {"variant": "plasma"}}))
        # Named as such, not reported as the Drude numbers it lacks.
        with pytest.raises(ConfigurationError, match="unknown variant 'plasma'"):
            load_registry(path)

    def test_perfect_conductor_may_carry_unused_drude_numbers(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({"x": {"variant": "perfect_conductor", "plasma_ev": 9.0,
                                          "relaxation_ev": 0.03, "label": "pc"}}))
        model = load_registry(path)["x"]
        assert model.is_ideal and model.label == "pc"

    def test_named_models_read_only_their_tables(self, monkeypatch):
        import casimir_mto.materials as materials

        real = materials.read_table

        def no_table(path, header):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(materials, "read_table", no_table)
        registry = load_registry(names=["ideal", "gold_drude"])
        assert list(registry) == ["ideal", "gold_drude"]
        assert registry["ideal"].is_ideal and isinstance(registry["gold_drude"], DrudeOnly)

        read = []

        def recorded(path, header):
            read.append(path.name)
            return real(path, header)

        monkeypatch.setattr(materials, "read_table", recorded)
        assert len(load_registry()) == 5
        assert sorted(read) == ["au_eps2.csv", "cu_eps2.csv"]

    def test_env_var_root(self, tmp_path, monkeypatch):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({"x": {"variant": "perfect_conductor"}}))
        monkeypatch.setenv("CASIMIR_DATA_DIR", str(tmp_path))
        registry = load_registry()
        assert set(registry) == {"x"}


def test_drude_eps2_positive_and_decaying():
    w = np.geomspace(0.01, 100, 50)
    y = drude_eps2(w, AU)
    assert np.all(y > 0)
    assert np.all(np.diff(y) < 0)
