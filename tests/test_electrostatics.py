import contextlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_mto import electrostatics
from casimir_mto.constants import CODATA
from casimir_mto.electrostatics import (
    _N0,
    SMALL_GAP_C1,
    CalibrationFit,
    ElectrostaticConfig,
    TruncationReport,
    _lm_parameter,
    calibrate,
    calibration_rows,
    electrostatic_force,
    estimate_v0,
    least_squares,
    make_calibration_samples,
    series_truncation_report,
    small_gap_force,
)
from casimir_mto.errors import (
    DomainError,
    FitError,
    IdentifiabilityError,
    ValidationError,
)
from casimir_mto.lifshitz import SpherePlaneGeometry
from casimir_mto.materials import data_dir

TRUTH = (50280.0, 0.6325, 294.3e-6, 39.4e-9)
Z_GRID = np.linspace(0.6e-6, 3e-6, 16)
VOLTS = (0.1325, 0.3325, 0.4825, 0.7825, 0.9325, 1.1325)
GUESS = (5.2e4, 0.6, 3.0e-4, 3e-8)


def _plain_sums(u):
    """Reference image-charge sum S(u) and slope dS/du: every term until
    the rest is below 1e-20 of the sum, added pairwise along n."""
    u = np.asarray(u, dtype=float)[:, None]
    n = np.arange(1.0, np.ceil(50.0 / u.min()) + _N0)
    with np.errstate(over="ignore"):
        c1, s1 = 1.0 / np.tanh(u), 1.0 / np.sinh(u)
        n_coth, csch = n / np.tanh(n * u), 1.0 / np.sinh(n * u)
    terms = (n_coth - c1) * csch
    slopes = csch * (s1 * s1 - (n * csch) ** 2 - n_coth * (n_coth - c1))
    return terms.sum(axis=1), slopes.sum(axis=1)


@contextlib.contextmanager
def _block_rows():
    """Record the rows n of each block the series passes evaluate."""
    rows, coth_csch = [], electrostatics._coth_csch

    def recording(x):
        if np.ndim(x) == 2:  # rows n by columns u
            rows.append(x.shape[0])
        return coth_csch(x)

    with mock.patch.object(electrostatics, "_coth_csch", recording):
        yield rows


def _config(v_applied=0.3, v_residual=0.0, z_metal=1e-6, delta0=0.0,
            radius=294.3e-6):
    geom = SpherePlaneGeometry(radius=radius, separation=z_metal, delta0=delta0)
    return ElectrostaticConfig(v_applied, v_residual, geom)


class TestForceSeries:
    def test_zero_at_matched_voltage(self):
        assert electrostatic_force(_config(v_applied=0.6325, v_residual=0.6325)) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_voltages_rejected(self, bad):
        with pytest.raises(ValidationError, match="voltages must be finite"):
            _config(v_applied=bad)
        with pytest.raises(ValidationError, match="voltages must be finite"):
            _config(v_residual=bad)

    def test_small_gap_asymptote(self):
        cfg = _config()
        force = electrostatic_force(cfg)
        asym = math.pi * CODATA.eps0 * 0.3**2 * 294.3e-6 / 1e-6
        assert force == pytest.approx(asym, rel=0.02)
        assert force == pytest.approx(7.3076e-10, rel=1e-4)

    def test_quadratic_in_voltage(self):
        f1 = electrostatic_force(_config(v_applied=0.3))
        f2 = electrostatic_force(_config(v_applied=0.6))
        assert f2 == pytest.approx(4 * f1, rel=1e-12, abs=0.0)

    def test_voltage_offset_symmetry(self):
        fp = electrostatic_force(_config(v_applied=0.9325, v_residual=0.6325))
        fm = electrostatic_force(_config(v_applied=0.3325, v_residual=0.6325))
        assert fp == pytest.approx(fm, rel=1e-12, abs=0.0)

    def test_monotone_decreasing_in_gap(self):
        forces = [electrostatic_force(_config(z_metal=z)) for z in (0.5e-6, 1e-6, 2e-6, 4e-6)]
        assert all(a > b for a, b in zip(forces, forces[1:]))

    def test_delta0_enters_the_gap(self):
        with_offset = electrostatic_force(_config(z_metal=1e-6, delta0=50e-9))
        plain = electrostatic_force(_config(z_metal=1.1e-6))
        assert with_offset == pytest.approx(plain, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("gap_ratio", [1e-4, 1e-3, 1e-2, 0.09])
    def test_partial_sums_monotone_after_first_term(self, gap_ratio):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = series_truncation_report(_config(z_metal=gap_ratio * 294.3e-6))
        sums = [s for _, s in report.terms]
        assert all(b >= a for a, b in zip(sums[1:], sums[2:]))

    @given(dv=st.floats(0.05, 2.0), z=st.floats(3e-7, 5e-6))
    @settings(max_examples=30, deadline=None)
    def test_positive_magnitude(self, dv, z):
        assert electrostatic_force(_config(v_applied=dv, z_metal=z)) > 0


class TestSeriesBlocks:
    # The Euler-Maclaurin sum against the plain series, summed term by
    # term to its end (up to 50,000 terms at u = 1e-3).
    @given(u=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_matches_term_by_term_loop(self, u):
        got = electrostatics._series_sums(np.array(u))[0]
        assert np.allclose(got, _plain_sums(u)[0], rtol=1e-13, atol=0)

    @given(u=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_slope_matches_term_by_term_loop(self, u):
        got = electrostatics._series_sums(np.array(u))[1]
        assert np.allclose(got, _plain_sums(u)[1], rtol=1e-13, atol=0)

    @given(u=st.lists(st.floats(0.02, 5.0), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_slope_matches_central_difference(self, u):
        # The difference error at h = 1e-5 u is about 1e-10 relative.
        u = np.array(u)
        h = 1e-5 * u
        s_hi = electrostatics._series_sums(u + h)[0]
        s_lo = electrostatics._series_sums(u - h)[0]
        got = electrostatics._series_sums(u)[1]
        assert np.allclose(got, (s_hi - s_lo) / (2.0 * h), rtol=1e-6, atol=0)

    def test_first_block_covers_the_fit_gaps(self):
        # A pass is one block of _N0 terms whatever the gaps: the 20 gaps of
        # a calibration (0.6-3 um) and a single force.
        radius, delta0 = 294.3e-6, 39.4e-9
        u = np.arccosh(1.0 + (np.linspace(0.6e-6, 3e-6, 20) + 2.0 * delta0) / radius)
        with _block_rows() as rows:
            got = electrostatics._series_sums(u)
        assert rows == [_N0]
        assert np.allclose(got, _plain_sums(u), rtol=1e-13, atol=0)
        with _block_rows() as rows:
            electrostatic_force(_config(z_metal=1e-6))
        assert rows == [_N0]

    def test_series_longer_than_one_default_block(self):
        # At u = 1e-3 the plain series needs about 40,000 terms; the
        # Euler-Maclaurin pass still evaluates one block of _N0 rows.
        u = np.array([1e-3])
        with _block_rows() as rows:
            got = electrostatics._series_sums(u)
        assert rows == [_N0]
        assert np.allclose(got, _plain_sums(u), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("u", [[0.0], [0.1, -0.2], [-1.0]])
    def test_non_positive_u_rejected(self, u):
        with pytest.raises(DomainError):
            electrostatics._series_sums(np.array(u))

    def test_finite_at_the_smallest_gaps(self):
        # u = 1.5e-8 is sqrt(eps): no gap with 1 + d/R > 1 gives less.
        # S ~ 1/u^2 and dS/du ~ -2/u^3 there.
        u = np.array([1e-8, 2e-8, 1e-6])
        s, ds = electrostatics._series_sums(u)
        assert np.all(np.isfinite(s) & np.isfinite(ds))
        assert np.allclose(s * u**2, 1.0, rtol=1e-6, atol=0)
        assert np.allclose(ds * u**3, -2.0, rtol=1e-6, atol=0)

    def test_small_gap_c1(self):
        # C1 is the rho -> 0 limit of (2 rho S - 1)/rho - ln(rho)/3, which
        # at rho = 1e-6 is within about 1e-6 of it. u solves cosh u = 1 + rho
        # in a form that does not round rho against 1.
        rho = 1e-6
        s = electrostatics._series_sums(2.0 * math.asinh(math.sqrt(rho / 2.0)))[0, 0]
        estimate = (2.0 * rho * s - 1.0) / rho - math.log(rho) / 3.0
        assert estimate == pytest.approx(SMALL_GAP_C1, abs=1e-4)

    def test_u_is_formed_without_rounding_the_gap(self):
        # At rho = 1e-6, arccosh(1 + rho) would be off by about 1e-10.
        rho = 1e-6
        want = electrostatics._series_sums(2.0 * math.asinh(math.sqrt(rho / 2.0)))[0, 0]
        got = electrostatics._series_at(np.array([rho]), 1.0, 0.0)[0, 0]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestSeriesOracle:
    # mpmath's own Euler-Maclaurin summation (numerical tail integral and
    # derivatives) at 20 digits; its default extrapolation fails below
    # u ~ 1e-2.
    @pytest.mark.parametrize("u", [1e-4, 2e-3, 0.03, 0.3, 5.0])
    def test_sum_and_slope(self, u):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            x = mp.mpf(u)
            c1, s1 = mp.coth(x), mp.csch(x)

            def term(n):
                return (n * mp.coth(n * x) - c1) * mp.csch(n * x)

            def slope(n):
                cn, sn = mp.coth(n * x), mp.csch(n * x)
                return sn * (s1**2 - (n * sn) ** 2 - n * cn * (n * cn - c1))

            want = [float(mp.nsum(f, [2, mp.inf], method="e")) for f in (term, slope)]
        got = electrostatics._series_sums(u)[:, 0]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestTruncationReport:
    def test_reference_geometry_two_orders_suffice(self):
        report = series_truncation_report(_config(z_metal=1e-6))
        assert report.gap_ratio == pytest.approx(0.0034, rel=0.01)
        assert report.expansion_rel_error[1] > 1e-3
        assert report.expansion_rel_error[2] <= 1e-3
        assert report.orders_for_0p1pct == 2

    def test_wide_gap_needs_more_orders(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = series_truncation_report(_config(z_metal=0.1 * 294.3e-6))
        assert report.expansion_rel_error[2] > 1e-3
        assert report.orders_for_0p1pct is None

    def test_leading_term_dominates_at_tiny_gap(self):
        report = series_truncation_report(_config(z_metal=2.943e-8))  # d/R = 1e-4
        assert report.expansion_rel_error[1] < 1e-3
        assert report.orders_for_0p1pct == 1

    def test_report_structure(self):
        report = series_truncation_report(_config())
        assert isinstance(report, TruncationReport)
        ns = [n for n, _ in report.terms]
        assert ns[0] == 1
        assert report.terms[-1][1] == report.force

    @pytest.mark.parametrize("z_metal", [1e-7, 1e-6, 2e-5])
    def test_force_is_electrostatic_force(self, z_metal):
        # One path from gap to force: the report's force is the function's.
        cfg = _config(v_applied=0.9325, v_residual=0.6325, z_metal=z_metal, delta0=39.4e-9)
        assert series_truncation_report(cfg).force == electrostatic_force(cfg)

    def test_rows_are_the_series_partial_sums(self):
        cfg = _config()
        u = math.acosh(1.0 + cfg.gap / cfg.geometry.radius)
        pref = 2.0 * math.pi * CODATA.eps0 * 0.3 * 0.3
        n = np.arange(1.0, 65.0)
        partial = pref * np.cumsum((n / np.tanh(n * u) - 1.0 / np.tanh(u)) / np.sinh(n * u))
        report = series_truncation_report(cfg)
        assert [n for n, _ in report.terms] == [*range(1, 65), math.inf]
        assert [f for _, f in report.terms[:-1]] == pytest.approx(partial, rel=1e-13, abs=0.0)
        assert report.terms[-1][1] == report.force
        assert report.force == pytest.approx(pref * _plain_sums([u])[0][0], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("separation", [-1e-6, 0.0])
    def test_non_positive_gap_rejected(self, separation):
        geom = SimpleNamespace(radius=294.3e-6, separation=separation, delta0=0.0)
        with pytest.raises(DomainError):
            series_truncation_report(ElectrostaticConfig(0.3, 0.0, geom))

    def test_gap_below_resolution_rejected(self):
        # 1 + d/R rounds to 1, so u = 0 and every term is 0/0.
        with pytest.raises(DomainError):
            series_truncation_report(_config(z_metal=1e-25))

    def test_small_gap_force_orders(self):
        with pytest.raises(DomainError):
            small_gap_force(1e-6, 294.3e-6, 0.3, orders=3)


class TestCalibration:
    def test_noiseless_round_trip(self):
        samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS)
        fit = calibrate(samples, GUESS)
        assert fit.k == pytest.approx(TRUTH[0], rel=1e-6)
        assert fit.v0 == pytest.approx(TRUTH[1], rel=1e-6)
        assert fit.radius == pytest.approx(TRUTH[2], rel=1e-6)
        assert fit.delta0 == pytest.approx(TRUTH[3], rel=1e-6)
        assert fit.residual_rms < 1e-15

    def test_noisy_k_recovery(self):
        errs = []
        for seed in range(10):
            samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS,
                                               noise_rel=2e-6, seed=seed)
            fit = calibrate(samples, GUESS)
            errs.append(abs(fit.k / TRUTH[0] - 1.0))
        assert np.mean(errs) < 5e-4

    def test_single_voltage_unidentifiable(self):
        samples = make_calibration_samples(*TRUTH, Z_GRID, (0.9325,))
        with pytest.raises(IdentifiabilityError):
            calibrate(samples, GUESS)

    def test_too_few_samples(self):
        samples = make_calibration_samples(*TRUTH, Z_GRID[:2], (0.3325,))[:3]
        with pytest.raises(IdentifiabilityError):
            calibrate(samples, GUESS)
        with pytest.raises(IdentifiabilityError, match="need at least 4"):
            calibrate([], GUESS)

    def test_two_separations_fail_before_the_fit(self, monkeypatch):
        # Two gaps fix V0 and two amplitudes S(g_i/R)/k, not k, R and
        # delta0: the design is refused before a residual is evaluated
        # (noiseless data used to end the fit as "rank-deficient").
        samples = make_calibration_samples(*TRUTH, Z_GRID[:2], VOLTS)
        calls = []
        monkeypatch.setattr(electrostatics, "_series_at", lambda *a: calls.append(a))
        with pytest.raises(IdentifiabilityError, match=r"3 distinct separations \(got 2\)"):
            calibrate(samples, GUESS)
        assert calls == []

    def test_covariance_properties(self):
        samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS,
                                           noise_rel=2e-6, seed=3)
        fit = calibrate(samples, GUESS)
        cov = fit.covariance
        assert cov.shape == (4, 4)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-20)
        # Reported sigma should cover the actual error within a few x.
        assert abs(fit.k - TRUTH[0]) < 10 * fit.uncertainties()[0]

    def test_sample_validation(self):
        # One check for every caller; with row 9 bad too, the error is row
        # 7's, named by its file line (9 here) when the lines are given.
        for row, message in [
            ((-1e-6, 0.3, 1e-14), "z_metal must be > 0"),
            ((0.0, 0.3, 1e-14), "z_metal must be > 0"),
            ((1e-6, math.nan, 1e-14), "calibration sample fields must be finite"),
            ((math.nan, 0.3, 1e-14), "calibration sample fields must be finite"),
            ((1e-6, 0.3, math.inf), "calibration sample fields must be finite"),
        ]:
            samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS)
            samples[7] = row
            samples[9] = (-1e-6, math.nan, 0.0)
            with pytest.raises(ValidationError, match=f"^{message}$"):
                calibrate(samples, GUESS)
            with pytest.raises(ValidationError, match=f"^{message}$"):
                estimate_v0(samples)
            with pytest.raises(ValidationError, match=f"^line 9: {message}$"):
                calibration_rows(samples, range(2, 2 + len(samples)))

    def test_fit_invariants_enforced(self):
        with pytest.raises(ValidationError):
            CalibrationFit(k=-1.0, v0=0.0, radius=1e-4, delta0=0.0,
                           covariance=np.eye(4), residual_rms=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k", "radius", "delta0"])
    def test_nonfinite_fit_rejected(self, field, bad):
        values = dict(k=5e4, v0=0.0, radius=1e-4, delta0=0.0,
                      covariance=np.eye(4), residual_rms=0.0)
        with pytest.raises(ValidationError, match=f"fitted {field} must be finite"):
            CalibrationFit(**{**values, field: bad})

    def test_estimate_v0_picks_quietest_voltage(self):
        samples = make_calibration_samples(*TRUTH, Z_GRID, (0.3325, 0.6325 + 1e-4, 0.9325))
        assert estimate_v0(samples) == pytest.approx(0.6325, abs=1e-3)

    def test_fit_sums_distinct_gaps_once_per_trial_point(self, monkeypatch):
        columns, trials = [], []
        series_sums, solver = electrostatics._series_sums, electrostatics.least_squares

        def counting_series(u, *args, **kwargs):
            columns.append(np.size(u))
            return series_sums(u, *args, **kwargs)

        def counting_solver(fun, x0, **kwargs):
            res = solver(fun, x0, **kwargs)
            trials.append(res.nfev)
            return res

        samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS, noise_rel=2e-6, seed=5)
        monkeypatch.setattr(electrostatics, "_series_sums", counting_series)
        monkeypatch.setattr(electrostatics, "least_squares", counting_solver)
        calibrate(samples, GUESS)
        # One pass per trial point gives S and its slope, so the Jacobian
        # sums nothing; each pass covers the distinct gaps only.
        assert 0 < len(columns) <= trials[0] + 1
        assert columns == [Z_GRID.size] * len(columns) and Z_GRID.size < len(samples)

    def test_fit_builds_one_model_per_trial_point(self, monkeypatch):
        # Residuals and Jacobian at one point share its model, and the rank
        # test's Jacobian at the guess is the solver's first, not a rebuild.
        models, ranked, solved, points = [], [], [], set()
        force_model = electrostatics._force_model
        rank, solver = electrostatics._full_rank_svd, electrostatics.least_squares

        def counting_model(*args):
            models.append(args)
            return force_model(*args)

        def recording_rank(jac):
            ranked.append(jac)
            return rank(jac)

        def recording_solver(fun, x0, *, jac, **kwargs):
            def at(y):
                points.add(y.tobytes())
                return y

            def recording_jac(y):
                solved.append(jac(at(y)))
                return solved[-1]

            return solver(lambda y: fun(at(y)), x0, jac=recording_jac, **kwargs)

        samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS, noise_rel=2e-6, seed=5)
        monkeypatch.setattr(electrostatics, "_force_model", counting_model)
        monkeypatch.setattr(electrostatics, "_full_rank_svd", recording_rank)
        monkeypatch.setattr(electrostatics, "least_squares", recording_solver)
        calibrate(samples, GUESS)
        assert len(models) == len(points) > 1
        assert ranked[0] is solved[0] and ranked[-1] is solved[-1]
        # Every Jacobian handed out was built once: none besides the solver's.
        assert len({id(j) for j in ranked + solved}) == len(solved) > 1

    def test_covariance_from_the_svd(self, monkeypatch):
        # Ill-conditioned design (cond(J) ~ 5e6): (J^T J)^-1 squares the
        # condition number and loses ~5e-4 relative; the SVD form of the
        # HC3 sandwich does not. Oracle: the same sandwich from a QR of J,
        # h_i = |Q_i|^2 and R^-1 Q^T diag(r_i / (1 - h_i)) (its transpose
        # on the right), which does not square it either.
        z = np.linspace(2.9e-6, 3.0e-6, 10)
        samples = make_calibration_samples(*TRUTH, z, (0.3, 0.9), noise_rel=1e-6, seed=2)
        results, solver = [], electrostatics.least_squares

        def capturing_solver(fun, x0, **kwargs):
            results.append(solver(fun, x0, **kwargs))
            return results[-1]

        monkeypatch.setattr(electrostatics, "least_squares", capturing_solver)
        fit = calibrate(samples, GUESS)
        res = results[0]
        sv = np.linalg.svd(res.jac, compute_uv=False)
        assert 1e6 < sv[0] / sv[-1] < 1e8
        q, r = np.linalg.qr(res.jac)
        lev = np.sum(q * q, axis=1)
        half = np.linalg.solve(r, q.T * (res.fun / (1.0 - lev)))
        scale = np.maximum(np.abs(GUESS), [1.0, 1e-2, 1e-6, 1e-9])
        want = half @ half.T * np.outer(scale, scale)
        sigma = np.sqrt(np.diag(want))
        assert np.all(np.abs(fit.covariance - want) <= 1e-8 * np.outer(sigma, sigma))

    def test_sigma_covers_the_truth(self):
        # HC3 under the multiplicative noise of make_calibration_samples:
        # over 200 seeded designs the pulls (fit - truth)/sigma have a
        # standard deviation near 1 for every parameter (the pooled
        # variance gave 1.9 / 1.2 / 1.9 / 2.4).
        truth = (4.7e4, 0.03, 296e-6, 25e-9)
        z = np.linspace(0.6e-6, 3e-6, 30)
        pulls = []
        for seed in range(200):
            samples = make_calibration_samples(*truth, z, (-0.2, 0.1, 0.25, 0.4),
                                               noise_rel=1e-3, seed=seed)
            fit = calibrate(samples, (5e4, 0.0, 3e-4, 3e-8))
            got = np.array([fit.k, fit.v0, fit.radius, fit.delta0])
            pulls.append((got - truth) / fit.uncertainties())
        spread = np.std(pulls, axis=0)
        assert np.all((0.8 <= spread) & (spread <= 1.25)), spread

    def test_leverage_one_sample_unidentifiable(self):
        # Four gaps at one voltage fix R, delta0 and (V - V0)^2 / k; the one
        # sample at a second voltage alone fixes V0, and nothing is left to
        # estimate its spread from.
        samples = np.concatenate((make_calibration_samples(*TRUTH, Z_GRID[::4], (0.3325,),
                                                           noise_rel=1e-6, seed=1),
                                  make_calibration_samples(*TRUTH, Z_GRID[5:6], (0.9325,))))
        with pytest.raises(IdentifiabilityError, match=r"sample 5 .*\(leverage 1\)"):
            calibrate(samples, GUESS)

    def test_bundled_demo_dataset_is_regenerated_exactly(self, tmp_path):
        tool_path = Path(__file__).resolve().parents[1] / "tools" / "make_demo_calibration.py"
        spec = importlib.util.spec_from_file_location("make_demo_calibration", tool_path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        out = tmp_path / "calibration_demo.csv"
        tool.write_demo(out)
        bundled = data_dir() / "calibration_demo.csv"
        assert (out.read_text(encoding="utf-8").splitlines()
                == bundled.read_text(encoding="utf-8").splitlines())

    def test_generator_determinism(self):
        a = make_calibration_samples(*TRUTH, Z_GRID, VOLTS, noise_rel=1e-6, seed=11)
        b = make_calibration_samples(*TRUTH, Z_GRID, VOLTS, noise_rel=1e-6, seed=11)
        assert np.array_equal(a, b)

    def test_exhausted_budget_raises_fit_error(self, monkeypatch):
        solver = electrostatics.least_squares
        monkeypatch.setattr(electrostatics, "least_squares",
                            lambda fun, x0, **kw: solver(fun, x0, **{**kw, "max_nfev": 3}))
        samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTS, noise_rel=2e-6, seed=5)
        with pytest.raises(FitError, match="did not converge in 3 evaluations"):
            calibrate(samples, GUESS)

    def test_fit_stops_at_the_noise(self, monkeypatch):
        # The chi^2 stop against the same fits run to ftol = xtol = gtol =
        # 1e-15: no parameter moves by 1e-3 sigma and no sigma by 1e-6
        # relative, for at least a quarter fewer trial points.
        solver = electrostatics.least_squares
        nfev = {"stop": [], "tight": []}

        def counting(key, **tols):
            def run(fun, x0, **kw):
                res = solver(fun, x0, **{**kw, **tols})
                nfev[key].append(res.nfev)
                return res
            return run

        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            truth = (TRUTH[0] * (1 + 0.02 * rng.uniform(-1, 1)),
                     TRUTH[1] + 0.02 * rng.uniform(-1, 1),
                     TRUTH[2] * (1 + 0.01 * rng.uniform(-1, 1)),
                     TRUTH[3] * (1 + 0.05 * rng.uniform(-1, 1)))
            z = np.sort(rng.uniform(0.6e-6, 3e-6, 20))
            samples = make_calibration_samples(*truth, z, VOLTS, noise_rel=2e-6, seed=seed)
            monkeypatch.setattr(electrostatics, "least_squares",
                                counting("tight", xtol=1e-15, ftol=1e-15, gtol=1e-15))
            ref = calibrate(samples, GUESS)
            monkeypatch.setattr(electrostatics, "least_squares", counting("stop"))
            fit = calibrate(samples, GUESS)
            sigma = ref.uncertainties()
            got = np.array([fit.k, fit.v0, fit.radius, fit.delta0])
            want = np.array([ref.k, ref.v0, ref.radius, ref.delta0])
            assert np.all(np.abs(got - want) <= 1e-3 * sigma), seed
            assert np.all(np.abs(fit.uncertainties() / sigma - 1.0) <= 1e-6), seed
        assert np.mean(nfev["stop"]) <= 0.75 * np.mean(nfev["tight"])

    def test_fit_matches_scipy_lm(self, monkeypatch):
        # Oracle: MINPACK through SciPy, with the same Jacobian-norm scaling
        # (x_scale="jac", the default since SciPy 1.16). 24 seeded designs
        # around the device values, at three noise levels.
        from scipy.optimize import least_squares as scipy_least_squares

        solver = electrostatics.least_squares
        for seed in range(24):
            rng = np.random.default_rng(seed)
            truth = (TRUTH[0] * (1 + 0.02 * rng.uniform(-1, 1)),
                     TRUTH[1] + 0.02 * rng.uniform(-1, 1),
                     TRUTH[2] * (1 + 0.01 * rng.uniform(-1, 1)),
                     TRUTH[3] * (1 + 0.05 * rng.uniform(-1, 1)))
            z = np.sort(rng.uniform(0.6e-6, 3e-6, 16))
            noise = (2e-6, 1e-4, 1e-3)[seed % 3]
            samples = make_calibration_samples(*truth, z, VOLTS, noise_rel=noise, seed=seed)
            monkeypatch.setattr(
                electrostatics, "least_squares",
                lambda fun, x0, **kw: scipy_least_squares(fun, x0, method="lm",
                                                          x_scale="jac", **kw))
            ref = calibrate(samples, GUESS)
            monkeypatch.setattr(electrostatics, "least_squares", solver)
            fit = calibrate(samples, GUESS)
            sigma = ref.uncertainties()
            got = np.array([fit.k, fit.v0, fit.radius, fit.delta0])
            want = np.array([ref.k, ref.v0, ref.radius, ref.delta0])
            assert np.all(np.abs(got - want) <= 1e-3 * sigma), seed
            assert np.all(np.abs(fit.uncertainties() / sigma - 1.0) <= 1e-3), seed


def _rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLeastSquares:
    @staticmethod
    def _rosenbrock(calls):
        def fun(x):
            calls.append(x.copy())
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        return fun

    def test_solves_rosenbrock(self):
        calls = []
        res = least_squares(self._rosenbrock(calls), [-1.2, 1.0], jac=_rosenbrock_jac,
                            xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=200)
        assert res.success
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-8)
        assert res.cost < 1e-20
        # With an analytic Jacobian every residual call is a trial point.
        assert len(calls) == res.nfev

    @pytest.mark.parametrize("fun,jac,x0", [
        (lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
         _rosenbrock_jac, [-1.2, 1.0]),
        (lambda x: np.array([-13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
                             -29.0 + x[0] + ((x[1] + 1.0) * x[1] - 14.0) * x[1]]),
         lambda x: np.array([[1.0, (10.0 - 3.0 * x[1]) * x[1] - 2.0],
                             [1.0, (3.0 * x[1] + 2.0) * x[1] - 14.0]]),
         [0.5, -2.0]),
        (lambda x: np.array([np.exp(-t * x[0]) - np.exp(-t * x[1])
                             - x[2] * (np.exp(-t) - np.exp(-10.0 * t))
                             for t in 0.1 * np.arange(1, 11)]),
         lambda x: np.array([[-t * np.exp(-t * x[0]), t * np.exp(-t * x[1]),
                              np.exp(-10.0 * t) - np.exp(-t)]
                             for t in 0.1 * np.arange(1, 11)]),
         [0.0, 10.0, 20.0]),
        (lambda x: np.array([1e4 * x[0] * x[1] - 1.0,
                             np.exp(-x[0]) + np.exp(-x[1]) - 1.0001]),
         lambda x: np.array([[1e4 * x[1], 1e4 * x[0]],
                             [-np.exp(-x[0]), -np.exp(-x[1])]]),
         [0.0, 1.0]),
        # An idle third variable: a zero Jacobian column and singular value.
        (lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.0]),
         lambda x: np.array([[-20.0 * x[0], 10.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
         [-1.2, 1.0, 5.0]),
    ], ids=["rosenbrock", "freudenstein_roth", "box_3d", "powell_badly_scaled",
            "rosenbrock_zero_column"])
    def test_follows_minpack_path(self, fun, jac, x0):
        # Moré-Garbow-Hillstrom problems with analytic Jacobians: the same
        # trial points, the same number of them and the same solution as
        # MINPACK's lmder through SciPy's lm (Jacobian-norm scaling).
        from scipy.optimize import least_squares as scipy_least_squares

        def recording(trials):
            return lambda x: trials.append(np.array(x)) or fun(x)

        kw = dict(jac=jac, xtol=1e-10, ftol=1e-10, gtol=1e-10, max_nfev=500)
        ref_trials, trials = [], []
        ref = scipy_least_squares(recording(ref_trials), x0, method="lm", x_scale="jac", **kw)
        res = least_squares(recording(trials), x0, **kw)
        assert res.success and len(trials) == res.nfev and len(ref_trials) == ref.nfev
        assert np.array(trials) == pytest.approx(np.array(ref_trials[:res.nfev]),
                                                 rel=1e-6, abs=1e-12)
        # Box 3D's zero-residual solution (1, 10, 1) is representable: a
        # trial that lands on it exactly has |f| = 0 and stops on gtol, one
        # trial before a run whose point is an ulp off and stops on xtol.
        assert res.nfev == ref.nfev or (res.cost == 0.0 and res.nfev == ref.nfev - 1)
        assert res.x == pytest.approx(ref.x, rel=1e-6)

    def test_zero_singular_value_takes_no_step(self):
        # w = sv g / (sv^2 + par) is 0 where sv = 0, also at par = 0.
        sv, g = np.array([2.0, 0.0]), np.array([1.0, 3.0])
        par, w = _lm_parameter(sv, g, 10.0, 0.0)
        assert par == 0.0 and w.tolist() == [0.5, 0.0]
        par, w = _lm_parameter(sv, g, 0.1, 0.0)
        assert par > 0 and w[1] == 0.0
        assert abs(math.sqrt(w @ w) - 0.1) <= 0.01

    def test_zero_jacobian_column_is_left_out_of_the_gradient_test(self):
        # The second variable is idle: its zero column divides nothing, so a
        # start where the first column is orthogonal to f stops there.
        res = least_squares(lambda x: np.array([x[0] - 2.0, 1.0]), [2.0, 5.0],
                            jac=lambda x: np.array([[1.0, 0.0], [0.0, 0.0]]),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10)
        assert res.success and res.nfev == 1
        assert res.x.tolist() == [2.0, 5.0]

    def test_budget_counts_calls_outside_the_jacobian(self):
        res = least_squares(self._rosenbrock([]), [-1.2, 1.0], jac=_rosenbrock_jac,
                            xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=5)
        assert not res.success
        assert res.nfev == 5

    def test_zero_residual_start_stops_on_gradient(self):
        res = least_squares(lambda x: x - 2.0, [2.0, 2.0], jac=lambda x: np.eye(2),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10)
        assert res.success and res.nfev == 1
        assert res.jac == pytest.approx(np.eye(2))
