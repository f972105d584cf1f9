"""Torsional-oscillator model: from force gradients to frequency shifts.

A plate on serpentine springs twists about its axis; a sphere above one
edge couples through the lever arm b. Driving the sphere vertically at
resonance and tracking the resonant frequency measures the local force
gradient:

    omega_r = omega0 * [1 - (b^2 / 2 I omega0^2) * dF/dz],

exact to linear order in the gradient (the operating regime; the guard
below rejects anything beyond 10% fractional shift). Inverting this map
turns a measured frequency into a gradient, and the simulator produces
synthetic noisy sweeps of that measurement over a separation grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, ValidationError
from .lifshitz import gradient_from_pressure
from .records import Record
from .roughness import RoughnessDistribution, averaged_pressure

LINEAR_DOMAIN_LIMIT = 0.1      # max |fractional frequency shift|
CONSISTENCY_TOL = 0.02         # omega0 vs sqrt(kappa/I), coupling vs b^2/2I


class SerpentineSpring(Record):
    """Meandered suspension beam; all lengths m, modulus Pa."""

    width: float
    thickness: float
    length: float
    youngs_modulus: float

    def __post_init__(self):
        for name in ("width", "thickness", "length", "youngs_modulus"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")


def spring_constant(s: SerpentineSpring) -> float:
    """Torsional spring constant w t^3 E / (6 L), in N m/rad."""
    return s.width * s.thickness**3 * s.youngs_modulus / (6.0 * s.length)


class OscillatorParams(Record):
    """Mechanical constants of the oscillator.

    ``omega0`` (rad/s) and ``coupling`` (= lever_b^2 / 2 I, kg^-1) are
    derived when omitted; when supplied they must agree with the derived
    values to 2% (high-Q resonance: omega0 ~ sqrt(kappa/I)).
    """

    kappa: float                 # N m / rad
    inertia: float               # kg m^2
    lever_b: float               # m
    omega0: float | None = None  # rad/s
    coupling: float | None = None  # kg^-1

    def __post_init__(self):
        for name in ("kappa", "inertia", "lever_b"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        w_derived = math.sqrt(self.kappa / self.inertia)
        c_derived = self.lever_b * self.lever_b / (2.0 * self.inertia)
        # A derived constant that overflows or vanishes would make the checks
        # below compare NaN or divide by zero.
        for name, value in (("sqrt(kappa/inertia)", w_derived), ("b^2/2I", c_derived)):
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name} = {value:g} must be finite and > 0")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", w_derived)
        elif not self.omega0 > 0:
            raise ValidationError("omega0 must be > 0")
        elif abs(self.omega0 / w_derived - 1.0) > CONSISTENCY_TOL:
            raise ValidationError(
                f"omega0 {self.omega0:.6g} deviates {abs(self.omega0 / w_derived - 1):.1%} "
                f"from sqrt(kappa/inertia) = {w_derived:.6g}"
            )
        if self.coupling is None:
            object.__setattr__(self, "coupling", c_derived)
        elif not self.coupling > 0:
            raise ValidationError("coupling must be > 0")
        elif abs(self.coupling / c_derived - 1.0) > CONSISTENCY_TOL:
            raise ValidationError(
                f"coupling {self.coupling:.6g} deviates "
                f"{abs(self.coupling / c_derived - 1):.1%} from b^2/2I = {c_derived:.6g}"
            )

    @property
    def f0_hz(self) -> float:
        return self.omega0 / (2.0 * math.pi)


def measured_params(
    kappa: float = 8.6e-10,
    inertia: float = 4.6e-17,
    coupling: float = 6.489e8,
    f0_hz: float = 687.23,
) -> OscillatorParams:
    """Oscillator constants as calibrated on the physical device.

    The lever arm is reconstructed from the coupling constant b^2/2I.
    """
    lever_b = math.sqrt(2.0 * inertia * coupling)
    return OscillatorParams(
        kappa=kappa,
        inertia=inertia,
        lever_b=lever_b,
        omega0=2.0 * math.pi * f0_hz,
        coupling=coupling,
    )


def _fractional_shift(params: OscillatorParams, grad: float) -> float:
    return params.coupling * grad / params.omega0**2


def resonant_frequency(params: OscillatorParams, grad: float) -> float:
    """Resonant angular frequency (rad/s) under a force gradient (N/m).

    Positive gradients (attraction weakening with distance) soften the
    resonance. Raises DomainError outside the linear-response domain.
    """
    shift = _fractional_shift(params, grad)
    if abs(shift) >= LINEAR_DOMAIN_LIMIT:
        raise DomainError(
            f"fractional shift {shift:.3g} outside linear domain "
            f"(|shift| < {LINEAR_DOMAIN_LIMIT}); reduce the gradient"
        )
    return params.omega0 * (1.0 - shift)


def gradient_from_frequency(params: OscillatorParams, omega_r: float) -> float:
    """Force gradient (N/m) inferred from a measured resonance (rad/s).

    Exact linear inverse of ``resonant_frequency``.
    """
    shift = 1.0 - omega_r / params.omega0
    if abs(shift) >= LINEAR_DOMAIN_LIMIT:
        raise DomainError(
            f"fractional shift {shift:.3g} outside linear domain "
            f"(|shift| < {LINEAR_DOMAIN_LIMIT})"
        )
    return shift * params.omega0**2 / params.coupling


def min_detectable_gradient(params: OscillatorParams,
                            delta_f_min_hz: float) -> float:
    """Gradient (N/m) producing exactly the resolvable frequency step."""
    if not delta_f_min_hz > 0:
        raise DomainError("frequency resolution must be > 0")
    return (delta_f_min_hz / params.f0_hz) * params.omega0**2 / params.coupling


def default_amplitude_schedule(z: float) -> float:
    """Drive amplitude vs separation: 3 nm at 0.2 um to 35 nm at 1.2 um,
    linearly interpolated/extrapolated with a 0.5 nm floor."""
    a = 3e-9 + (35e-9 - 3e-9) * (z - 0.2e-6) / 1.0e-6
    return max(a, 0.5e-9)


class SweepNoise(Record):
    """Measurement noise magnitudes.

    ``freq_noise_rms_hz`` is the frequency RMS at 1 s integration (scaled
    by 1/sqrt(T)); ``separation_noise_rms_m`` is the positioning jitter.
    """

    freq_noise_rms_hz: float = 0.0
    separation_noise_rms_m: float = 0.0

    def __post_init__(self):
        for value in (self.freq_noise_rms_hz, self.separation_noise_rms_m):
            if not 0 <= value < math.inf:
                raise ValidationError("noise magnitudes must be finite and >= 0")


class SweepConfig(Record):
    """Separation grid and acquisition settings for a simulated sweep."""

    z_grid: np.ndarray
    integration_time_s: float = 10.0
    noise: SweepNoise = SweepNoise()
    tol: float = 1e-6

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z_grid, dtype=float))
        object.__setattr__(self, "z_grid", z)
        if z.size == 0:
            raise ConfigurationError("sweep grid is empty")
        if np.any(z <= 0):
            raise ConfigurationError("sweep separations must be > 0")
        if not 0 < self.integration_time_s < math.inf:
            raise ConfigurationError("integration time must be finite and > 0")
        if not math.isfinite(self.tol):
            raise ConfigurationError("tolerance must be finite")
        bad = [
            (i, float(zi)) for i, zi in enumerate(z)
            if not default_amplitude_schedule(float(zi)) < zi / 5.0
        ]
        if bad:
            listing = ", ".join(f"#{i} (z={zi:.3g} m)" for i, zi in bad)
            raise ConfigurationError(
                f"drive amplitude must stay below z/5; violated at {listing}"
            )


class SweepPoint(Record):
    """One simulated record: nominal separation, measured resonance and
    its standard deviation (rad/s)."""

    z: float
    omega_r: float
    sigma_omega: float


def simulate_sweep(
    cfg: SweepConfig,
    params: OscillatorParams,
    radius: float,
    m1,
    m2,
    dist: RoughnessDistribution,
    seed: int,
    delta0: float = 0.0,
) -> list[SweepPoint]:
    """Synthetic resonance sweep over the separation grid.

    Each point maps the roughness-averaged pressure through the
    proximity-force gradient and the resonance formula, then adds
    Gaussian frequency noise (scaled by 1/sqrt(integration time)) and
    separation jitter. ``radius`` is the sphere radius and ``delta0`` the
    per-surface contact offset, both in meters. Grid values are
    metal-to-metal gaps: the force is evaluated at
    z = z_metal + jitter + 2 * delta0, while each SweepPoint keeps the
    nominal grid value. Per-point RNG substreams
    keyed by (seed, index) make the output a pure function of
    configuration and seed, independent of evaluation order. Every point's
    jitter is drawn and checked first; the averages of all points are then
    one stacked Lifshitz call (see roughness.averaged_pressure), and each
    point's frequency noise comes last from its own substream.
    """
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    if not delta0 >= 0:
        raise DomainError("contact offset delta0 must be >= 0")
    sigma_f = cfg.noise.freq_noise_rms_hz / math.sqrt(cfg.integration_time_s)
    sigma_omega = 2.0 * math.pi * sigma_f
    rngs, shifted = [], []
    for i, z in enumerate(cfg.z_grid):
        rng = np.random.default_rng([int(seed), i])
        jitter = rng.normal(0.0, cfg.noise.separation_noise_rms_m)
        z_true = float(z) + jitter + 2.0 * delta0
        if z_true + float(dist.offsets.min()) <= 0:
            raise DomainError(
                f"point #{i}: jittered separation {z_true:.3e} m leaves the "
                "physical domain"
            )
        rngs.append(rng)
        shifted.append(z_true)
    p = averaged_pressure(np.array(shifted), dist, m1, m2, tol=cfg.tol)
    out = []
    for z, rng, grad in zip(cfg.z_grid, rngs, gradient_from_pressure(p, radius).value):
        omega = resonant_frequency(params, float(grad))
        omega += rng.normal(0.0, sigma_omega)
        out.append(SweepPoint(float(z), float(omega), float(sigma_omega)))
    return out


def invert_sweep(points: Sequence[SweepPoint],
                 params: OscillatorParams) -> list[tuple[float, float]]:
    """Measured gradients (z, dF/dz in N/m) from a recorded sweep."""
    return [(p.z, gradient_from_frequency(params, p.omega_r)) for p in points]
