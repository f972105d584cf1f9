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
import random
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, ValidationError
from .lifshitz import gradient_from_pressure
from .records import Record
from .roughness import RoughnessDistribution, averaged_pressure

LINEAR_DOMAIN_LIMIT = 0.1      # max |fractional frequency shift|
CONSISTENCY_TOL = 0.02         # omega0 vs sqrt(kappa/I)


def _check_positive(values: dict) -> None:
    """ValidationError naming the first of ``values`` that is not finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValidationError(f"{name} must be finite and > 0")


class SerpentineSpring(Record):
    """Meandered suspension beam; all lengths m, modulus Pa."""

    width: float
    thickness: float
    length: float
    youngs_modulus: float

    def __post_init__(self):
        _check_positive({name: getattr(self, name) for name in self._fields})


def spring_constant(s: SerpentineSpring) -> float:
    """Torsional spring constant w t^3 E / (6 L), in N m/rad."""
    return s.width * s.thickness**3 * s.youngs_modulus / (6.0 * s.length)


class OscillatorParams(Record):
    """Mechanical constants of the oscillator, each finite and > 0.

    ``omega0`` must agree with sqrt(kappa/inertia) to 2% (high-Q
    resonance); ``coupling`` is b^2 / 2I, the lever arm b squared over
    twice the moment of inertia, as calibrated.
    """

    kappa: float     # N m / rad
    inertia: float   # kg m^2
    coupling: float  # kg^-1
    omega0: float    # rad/s

    def __post_init__(self):
        _check_positive({name: getattr(self, name) for name in self._fields})
        w_derived = math.sqrt(self.kappa / self.inertia)
        # A root that overflows or vanishes would make the check below
        # compare NaN or divide by zero.
        if not 0.0 < w_derived < math.inf:
            raise ValidationError(
                f"sqrt(kappa/inertia) = {w_derived:g} must be finite and > 0")
        # Reported in Hz under f0_hz, the resonance as a sweep config sets it.
        deviation = abs(self.omega0 / w_derived - 1.0)
        if deviation > CONSISTENCY_TOL:
            raise ValidationError(
                f"f0_hz {self.f0_hz:.6g} Hz deviates {100.0 * deviation:.3g}% "
                f"from sqrt(kappa/inertia) / 2 pi = {w_derived / (2.0 * math.pi):.6g} Hz"
            )
        # The frequency map divides by omega0^2.
        if not self.omega0 * self.omega0 < math.inf:
            raise ValidationError(f"f0_hz {self.f0_hz:.6g} Hz overflows as (2 pi f0_hz)^2")

    @property
    def f0_hz(self) -> float:
        return self.omega0 / (2.0 * math.pi)


def measured_params(
    kappa_nm_per_rad: float = 8.6e-10,
    inertia_kg_m2: float = 4.6e-17,
    coupling_per_kg: float = 6.489e8,
    f0_hz: float = 687.23,
) -> OscillatorParams:
    """Oscillator constants as calibrated on the physical device, with the
    resonance given in Hz; the names are the keys of a ``sweep`` config's
    ``oscillator`` object, and a value that is not finite and > 0 is
    reported under its own."""
    _check_positive({"kappa_nm_per_rad": kappa_nm_per_rad, "inertia_kg_m2": inertia_kg_m2,
                     "coupling_per_kg": coupling_per_kg, "f0_hz": f0_hz})
    omega0 = 2.0 * math.pi * f0_hz
    if omega0 == math.inf:
        raise ValidationError(f"f0_hz {f0_hz:.6g} Hz overflows as 2 pi f0_hz")
    return OscillatorParams(kappa_nm_per_rad, inertia_kg_m2, coupling_per_kg, omega0)


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
    if not 0 < delta_f_min_hz < math.inf:
        raise DomainError("frequency resolution must be finite and > 0")
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
        if not np.all(np.isfinite(z) & (z > 0)):
            raise ConfigurationError("sweep separations must be finite and > 0")
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
    ``sigma_omega`` (rad/s), the standard deviation of the frequency noise
    alone.

    The separation jitter also spreads ``omega_r`` and is not in
    ``sigma_omega``. At the closest gaps it dominates: for tabulated Au/Cu
    with 3.2e-10 m jitter and 0.01 Hz frequency noise, the spread over
    seeds is about 13 times ``sigma_omega`` at 200 nm.
    """

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
    nominal grid value. Each point has its own random substream,
    ``random.Random(f"{seed}:{index}")``: a str seed is hashed with
    SHA-512, so the stream depends on neither evaluation order nor
    PYTHONHASHSEED, and the output is a pure function of configuration
    and seed. Every point's jitter is drawn first; the averages of all
    points are then one stacked Lifshitz call (see
    roughness.averaged_pressure), which checks every shifted separation
    before it integrates, and each point's frequency noise comes last from
    its own substream. Both draws are ``gauss(0, sigma)``. The substreams
    are not NumPy's, so a given seed's resonances differ from those of
    versions that drew from ``numpy.random``.
    """
    if not 0 < radius < math.inf:
        raise DomainError("sphere radius must be finite and > 0")
    if not 0 <= delta0 < math.inf:
        raise DomainError("contact offset delta0 must be finite and >= 0")
    sigma_f = cfg.noise.freq_noise_rms_hz / math.sqrt(cfg.integration_time_s)
    sigma_omega = 2.0 * math.pi * sigma_f
    rngs = [random.Random(f"{int(seed)}:{i}") for i in range(cfg.z_grid.size)]
    jitter = np.array([rng.gauss(0.0, cfg.noise.separation_noise_rms_m) for rng in rngs])
    shifted = cfg.z_grid + jitter + 2.0 * delta0
    p = averaged_pressure(shifted, dist, m1, m2, tol=cfg.tol)
    out = []
    for z, rng, grad in zip(cfg.z_grid, rngs, gradient_from_pressure(p, radius).value):
        omega = resonant_frequency(params, float(grad))
        omega += rng.gauss(0.0, sigma_omega)
        out.append(SweepPoint(float(z), float(omega), float(sigma_omega)))
    return out


def invert_sweep(points: Sequence[SweepPoint],
                 params: OscillatorParams) -> list[tuple[float, float]]:
    """Measured gradients (z, dF/dz in N/m) from a recorded sweep."""
    return [(p.z, gradient_from_frequency(params, p.omega_r)) for p in points]
