import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_mto import oscillator
from casimir_mto.errors import ConfigurationError, DomainError, ValidationError
from casimir_mto.oscillator import (
    OscillatorParams,
    SerpentineSpring,
    SweepConfig,
    SweepNoise,
    default_amplitude_schedule,
    gradient_from_frequency,
    invert_sweep,
    measured_params,
    min_detectable_gradient,
    resonant_frequency,
    simulate_sweep,
    spring_constant,
)
from casimir_mto.roughness import RoughnessDistribution

DEVICE_SPRING = SerpentineSpring(width=2e-6, thickness=2e-6, length=500e-6,
                                youngs_modulus=180e9)


class TestSpring:
    def test_design_value(self):
        # w t^3 E / 6L with the device dimensions
        kappa = spring_constant(DEVICE_SPRING)
        assert kappa == pytest.approx(9.6e-10, rel=1e-12)
        assert 9.3e-10 <= kappa <= 9.8e-10

    def test_cubic_in_thickness(self):
        doubled = SerpentineSpring(2e-6, 4e-6, 500e-6, 180e9)
        assert spring_constant(doubled) == pytest.approx(8 * spring_constant(DEVICE_SPRING), rel=1e-12)

    def test_inverse_in_length(self):
        doubled = SerpentineSpring(2e-6, 2e-6, 1000e-6, 180e9)
        assert spring_constant(doubled) == pytest.approx(spring_constant(DEVICE_SPRING) / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SerpentineSpring(0.0, 2e-6, 500e-6, 180e9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", SerpentineSpring._fields)
    def test_nonfinite_rejected(self, field, bad):
        values = dict(zip(SerpentineSpring._fields, (2e-6, 2e-6, 500e-6, 180e9)))
        with pytest.raises(ValidationError, match=f"{field} must be finite and > 0"):
            SerpentineSpring(**{**values, field: bad})


class TestParams:
    def test_measured_set_is_internally_consistent(self):
        par = measured_params()
        assert math.sqrt(par.kappa / par.inertia) == pytest.approx(par.omega0, rel=0.01)
        assert par.lever_b**2 / (2 * par.inertia) == pytest.approx(par.coupling, rel=1e-12)

    def test_derivation_when_omitted(self):
        par = OscillatorParams(kappa=8.6e-10, inertia=4.6e-17, lever_b=2.44e-4)
        assert par.omega0 == pytest.approx(math.sqrt(8.6e-10 / 4.6e-17), rel=1e-12)
        assert par.coupling == pytest.approx(2.44e-4**2 / (2 * 4.6e-17), rel=1e-12)

    def test_inconsistent_omega0_rejected(self):
        with pytest.raises(ValidationError):
            OscillatorParams(kappa=8.6e-10, inertia=4.6e-17, lever_b=2.44e-4,
                             omega0=1.1 * math.sqrt(8.6e-10 / 4.6e-17))

    def test_inconsistent_coupling_rejected(self):
        with pytest.raises(ValidationError):
            OscillatorParams(kappa=8.6e-10, inertia=4.6e-17, lever_b=2.44e-4,
                             coupling=1e9)


class TestFrequencyMap:
    def test_zero_gradient_gives_bare_resonance(self):
        par = measured_params()
        assert resonant_frequency(par, 0.0) == par.omega0

    def test_documented_shift(self):
        par = measured_params()
        omega = resonant_frequency(par, 1e-6)
        df_mhz = (omega - par.omega0) / (2 * math.pi) * 1e3
        assert df_mhz == pytest.approx(-23.9, abs=0.1)
        frac = (par.omega0 - omega) / par.omega0
        assert frac == pytest.approx(3.48e-5, rel=0.01)

    def test_negative_gradient_stiffens(self):
        par = measured_params()
        assert resonant_frequency(par, -1e-6) > par.omega0

    def test_detectability_threshold(self):
        par = measured_params()
        assert min_detectable_gradient(par, 0.01) == pytest.approx(4.18e-7, rel=0.01)
        assert min_detectable_gradient(par, 0.02) == pytest.approx(
            2 * min_detectable_gradient(par, 0.01), rel=1e-12
        )

    def test_equivalent_force_scale_is_femtonewtons(self):
        # Order check: min gradient x (z/3) at the closest approach sits in
        # the fN-to-tens-of-fN regime of the measurement.
        par = measured_params()
        f_equiv = min_detectable_gradient(par, 0.01) * 0.2e-6 / 3
        assert 1e-15 < f_equiv < 1e-13

    def test_out_of_linear_domain(self):
        par = measured_params()
        with pytest.raises(DomainError):
            resonant_frequency(par, 5e-3)
        with pytest.raises(DomainError):
            gradient_from_frequency(par, 0.5 * par.omega0)

    @given(grad=st.floats(-1e-4, 1e-4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, grad):
        par = measured_params()
        back = gradient_from_frequency(par, resonant_frequency(par, grad))
        # Storing the absolute resonance frequency floors the recoverable
        # gradient at eps * omega0^2 / (2 coupling) ~ 3e-18 N/m.
        assert back == pytest.approx(grad, rel=1e-9, abs=1e-17)


class TestSweep:
    def _setup(self, z_grid, noise=SweepNoise()):
        cfg = SweepConfig(z_grid=np.asarray(z_grid), noise=noise, tol=1e-6)
        par = measured_params()
        dist = RoughnessDistribution(np.array([-3e-8, 3e-8]), np.array([0.5, 0.5]))
        return cfg, par, 294.3e-6, dist

    def test_zero_noise_matches_forward_model(self, gold_drude, copper_drude):
        from casimir_mto.roughness import averaged_pressure

        cfg, par, radius, dist = self._setup([0.3e-6, 0.5e-6])
        points = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=7)
        for p in points:
            pr = averaged_pressure(p.z, dist, gold_drude, copper_drude, tol=1e-6)
            grad = 2 * math.pi * radius * abs(pr.value)
            assert p.omega_r == resonant_frequency(par, grad)
            assert p.sigma_omega == 0.0

    def test_contact_offset_shifts_force_separation(self, gold_drude, copper_drude):
        # z = z_metal + 2 delta0: delta0 = 20 nm acts as a 40 nm grid shift,
        # while the records keep the nominal metal gaps.
        grid = np.array([0.3e-6, 0.5e-6])
        delta0 = 20e-9
        cfg, par, radius, dist = self._setup(grid)
        points = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=7,
                                delta0=delta0)
        cfg_shifted, *_ = self._setup(grid + 2 * delta0)
        shifted = simulate_sweep(cfg_shifted, par, radius, gold_drude, copper_drude,
                                 dist, seed=7)
        assert [p.z for p in points] == list(grid)
        assert [p.omega_r for p in points] == [p.omega_r for p in shifted]
        assert [p.sigma_omega for p in points] == [p.sigma_omega for p in shifted]

    def test_fixed_seed_reproducible(self, gold_drude, copper_drude):
        noise = SweepNoise(freq_noise_rms_hz=0.03, separation_noise_rms_m=3.2e-10)
        cfg, par, radius, dist = self._setup([0.3e-6, 0.5e-6], noise)
        a = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=99)
        b = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=99)
        assert all(x.omega_r == y.omega_r for x, y in zip(a, b))
        c = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=100)
        assert any(x.omega_r != y.omega_r for x, y in zip(a, c))

    def test_noiseless_inversion_round_trip(self, gold_drude, copper_drude):
        cfg, par, radius, dist = self._setup([0.25e-6, 0.4e-6])
        points = simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=1)
        from casimir_mto.roughness import averaged_pressure

        for z, grad in invert_sweep(points, par):
            pr = averaged_pressure(z, dist, gold_drude, copper_drude, tol=1e-6)
            want = 2 * math.pi * radius * abs(pr.value)
            assert grad == pytest.approx(want, rel=1e-12)

    def test_noise_scales_with_integration_time(self):
        noise = SweepNoise(freq_noise_rms_hz=0.1)
        cfg = SweepConfig(z_grid=np.array([0.5e-6]), noise=noise,
                          integration_time_s=25.0)
        # sigma_f = 0.1/sqrt(25) = 0.02 Hz
        par = measured_params()
        radius = 294.3e-6
        pts = simulate_sweep(cfg, par, radius,
                             *_drude_pair(), RoughnessDistribution.single(), seed=0)
        assert pts[0].sigma_omega == pytest.approx(2 * math.pi * 0.02, rel=1e-12)

    def test_noise_statistics(self, monkeypatch):
        """Sample spread over 1000 repeated noisy points matches the
        configured RMS within 10%."""
        # Separation noise is 0, so every seed integrates the same pressure:
        # compute it once per separation and keep the 1000 noise draws.
        pressure = oscillator.averaged_pressure
        memo = {}

        def averaged_pressure(z, *args, **kwargs):
            key = tuple(np.atleast_1d(z))
            if key not in memo:
                memo[key] = pressure(z, *args, **kwargs)
            return memo[key]

        monkeypatch.setattr(oscillator, "averaged_pressure", averaged_pressure)
        par = measured_params()
        sigma_f = 0.05 / math.sqrt(10.0)
        cfg = SweepConfig(z_grid=np.array([0.5e-6]),
                          noise=SweepNoise(freq_noise_rms_hz=0.05))
        radius = 294.3e-6
        m1, m2 = _drude_pair()
        freqs = []
        for s in range(1000):
            pts = simulate_sweep(cfg, par, radius, m1, m2,
                                 RoughnessDistribution.single(), seed=s)
            freqs.append(pts[0].omega_r / (2 * math.pi))
        sample = np.std(freqs, ddof=1)
        assert sample == pytest.approx(sigma_f, rel=0.10)

    def test_bad_geometry_rejected_before_integrals(self):
        cfg, par, radius, dist = self._setup([0.3e-6])
        m = object()  # any integral would fail on this with its own message
        with pytest.raises(DomainError, match="radius"):
            simulate_sweep(cfg, par, 0.0, m, m, dist, seed=1)
        with pytest.raises(DomainError, match="delta0"):
            simulate_sweep(cfg, par, radius, m, m, dist, seed=1, delta0=-1e-9)
        # Every point is checked before the one stacked integral.
        cfg, *_ = self._setup([0.3e-6, 2.5e-8])
        with pytest.raises(DomainError, match="point #1"):
            simulate_sweep(cfg, par, radius, m, m, dist, seed=1)

    def test_sweep_is_one_integral(self, monkeypatch, gold_drude, copper_drude):
        from casimir_mto import lifshitz

        calls = []
        integral = lifshitz._lifshitz

        def counted(kind, z, *args):
            calls.append(np.size(z))
            return integral(kind, z, *args)

        monkeypatch.setattr(lifshitz, "_lifshitz", counted)
        noise = SweepNoise(freq_noise_rms_hz=0.03, separation_noise_rms_m=3.2e-10)
        cfg, par, radius, dist = self._setup([0.25e-6, 0.3e-6, 0.5e-6], noise)
        simulate_sweep(cfg, par, radius, gold_drude, copper_drude, dist, seed=5)
        assert calls == [3 * dist.n_entries]

    def test_amplitude_guard(self):
        with pytest.raises(ConfigurationError, match="z/5"):
            SweepConfig(z_grid=np.array([2e-9]))

    def test_amplitude_schedule_endpoints(self):
        assert default_amplitude_schedule(0.2e-6) == pytest.approx(3e-9, rel=1e-12)
        assert default_amplitude_schedule(1.2e-6) == pytest.approx(35e-9, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(z_grid=np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_noise_magnitudes_validated(self, bad):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            SweepNoise(bad)
        with pytest.raises(ValidationError, match="finite and >= 0"):
            SweepNoise(0.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_integration_time_rejected(self, bad):
        # An infinite integration time would report sigma_hz = 0.
        with pytest.raises(ConfigurationError, match="integration time must be finite and > 0"):
            SweepConfig(z_grid=np.array([3e-7]), integration_time_s=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_tolerance_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="tolerance"):
            SweepConfig(z_grid=np.array([3e-7]), tol=bad)


def _drude_pair():
    from casimir_mto.materials import DrudeOnly, DrudeParams

    return (DrudeOnly(DrudeParams(9.0, 0.035)), DrudeOnly(DrudeParams(8.9, 0.030)))
