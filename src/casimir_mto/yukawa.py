"""Hypothetical Yukawa force between the layered test bodies.

A new short-range interaction adds a pair potential
-G alpha m1 m2 exp(-r/lambda)/r to Newtonian gravity. Integrating it over
a homogeneous sphere above a homogeneous half-space gives the closed form

    F(z) = 4 pi^2 G alpha rho_s rho_p lambda^3 e^(-z/lambda)
           * [(R - lambda) + (R + lambda) e^(-2R/lambda)],

exact for any lambda (superposition; no proximity approximation).
Coated bodies decompose into density steps: each coating of thickness t
adds a nested body whose surface sits t deeper, picking up the expected
exp(-t/lambda) attenuation. The tests check it against a brute-force
cylindrical-grid integration of the bare pair force over both volumes.

Force magnitudes are reported positive; alpha enters linearly, so
exclusion limits scale directly out of residual force bounds.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .constants import CODATA
from .errors import ConfigurationError, DomainError, ValidationError
from .records import Record

# Standard reference densities, kg/m^3 (bulk handbook values).
DENSITIES = {
    "gold": 19300.0,
    "copper": 8960.0,
    "chromium": 7190.0,
    "alumina": 3980.0,
    "silicon": 2330.0,
}

class YukawaParams(Record):
    """Interaction strength (dimensionless) and range (m)."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValidationError("strength alpha must be finite")
        if not self.lam > 0:
            raise ValidationError("range lambda must be > 0")
        if not math.isfinite(self.lam * self.lam * self.lam):
            raise ValidationError(f"range lambda = {self.lam:.3e} m overflows lambda^3")


class Layer(Record):
    """One coating: thickness (m) and density (kg/m^3)."""

    thickness: float
    density: float

    def __post_init__(self):
        if not 0 < self.thickness < math.inf:
            raise ValidationError("layer thickness must be finite and > 0")
        if not 0 < self.density < math.inf:
            raise ValidationError("layer density must be finite and > 0")


class LayeredBody(Record):
    """Sphere or half-space with coatings listed outermost-first."""

    shape: str                    # "sphere" | "half_space"
    core_density: float
    layers: tuple[Layer, ...] = ()
    radius: float | None = None   # outer radius for spheres

    def __post_init__(self):
        if self.shape not in ("sphere", "half_space"):
            raise ValidationError(f"unknown shape {self.shape!r}")
        if not 0 < self.core_density < math.inf:
            raise ValidationError("core density must be finite and > 0")
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.shape == "sphere":
            if self.radius is None or not 0 < self.radius < math.inf:
                raise ValidationError("sphere needs a finite positive outer radius")
            if sum(l.thickness for l in self.layers) >= self.radius:
                raise ValidationError("coatings thicker than the sphere radius")

    @classmethod
    def sphere(cls, radius: float, core_density: float,
               layers: Sequence[Layer] = ()) -> "LayeredBody":
        return cls("sphere", core_density, tuple(layers), radius)

    @classmethod
    def half_space(cls, core_density: float,
                   layers: Sequence[Layer] = ()) -> "LayeredBody":
        return cls("half_space", core_density, tuple(layers))

    def density_steps(self) -> list[tuple[float, float]]:
        """(depth below outer surface, density step) superposition.

        The body equals a stack of nested homogeneous bodies: the
        outermost density from the surface, plus each interface's density
        difference starting at its depth.
        """
        steps = []
        depth = 0.0
        prev = 0.0
        for layer in self.layers:
            steps.append((depth, layer.density - prev))
            prev = layer.density
            depth += layer.thickness
        steps.append((depth, self.core_density - prev))
        return steps


def reference_sphere(radius: float = 294.3e-6) -> LayeredBody:
    """Au-coated sapphire sphere: 203 nm Au over 1 nm Cr on an alumina core."""
    return LayeredBody.sphere(
        radius,
        DENSITIES["alumina"],
        (Layer(203e-9, DENSITIES["gold"]), Layer(1e-9, DENSITIES["chromium"])),
    )


def reference_plate() -> LayeredBody:
    """Cu-coated plate: 200 nm Cu over 1 nm Cr on polysilicon."""
    return LayeredBody.half_space(
        DENSITIES["silicon"],
        (Layer(200e-9, DENSITIES["copper"]), Layer(1e-9, DENSITIES["chromium"])),
    )


# Odd series y - tanh y = sum_k c_k y^(2k+3), to 1e-17 relative for y < 0.1.
_Y_MINUS_TANH = (1 / 3, -2 / 15, 17 / 315, -62 / 2835, 1382 / 155925,
                 -21844 / 6081075, 929569 / 638512875)


def _unit_force(gap: float, radius: float, lam: float) -> float:
    """Closed-form sphere/half-space force per (G alpha rho_s rho_p).

    The bracket (R - lam) + (R + lam) e^(-2y), y = R/lam, cancels to about
    (2/3) R y^2 once lam >> R. For 2y < 1 it is taken as
    lam (1 + e^(-2y)) (y - tanh y), the same quantity, with y - tanh y
    from its odd series below y = 0.1.
    """
    y = radius / lam
    if 2.0 * y < 1.0:
        if y < 0.1:
            d = 0.0
            for c in reversed(_Y_MINUS_TANH):
                d = d * (y * y) + c
            d *= y**3
        else:
            d = y - math.tanh(y)
        bracket = lam * (1.0 + math.exp(-2.0 * y)) * d
    else:
        bracket = (radius - lam) + (radius + lam) * math.exp(-2.0 * radius / lam)
    return 4.0 * math.pi**2 * lam**3 * math.exp(-gap / lam) * bracket


def yukawa_force_sphere_plane(p: YukawaParams, sphere: LayeredBody,
                              plate: LayeredBody, z: float) -> float:
    """Attraction magnitude (N) between the coated sphere and plate at gap z."""
    if not z > 0:
        raise DomainError("separation must be > 0")
    if sphere.shape != "sphere" or plate.shape != "half_space":
        raise DomainError("expected a sphere over a half-space")
    total = 0.0
    for d_s, drho_s in sphere.density_steps():
        r_i = sphere.radius - d_s
        for d_p, drho_p in plate.density_steps():
            total += drho_s * drho_p * _unit_force(z + d_s + d_p, r_i, p.lam)
    return CODATA.G * p.alpha * total


def alpha_limit(residual_bound: Callable[[float], float] | Sequence[float],
                lam: float, sphere: LayeredBody, plate: LayeredBody,
                z_grid: Sequence[float]) -> float:
    """Smallest alpha whose Yukawa force would exceed the residual bound.

    ``residual_bound`` maps separation to the experimental force bound (N),
    or supplies one bound per grid point. The limit is
    min over z of bound(z) / F(alpha=1, z); alpha-linearity is exact. A
    force that vanishes at every z bounds nothing (DomainError).
    """
    z_grid = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if z_grid.size == 0:
        raise ConfigurationError("empty separation grid")
    if callable(residual_bound):
        bounds = np.array([float(residual_bound(z)) for z in z_grid])
    else:
        bounds = np.atleast_1d(np.asarray(residual_bound, dtype=float))
        if bounds.shape != z_grid.shape:
            raise ConfigurationError("bound array must match the grid")
    if np.any(bounds <= 0):
        raise DomainError("residual bounds must be positive")
    unit = YukawaParams(alpha=1.0, lam=lam)
    forces = np.array([
        yukawa_force_sphere_plane(unit, sphere, plate, float(z)) for z in z_grid
    ])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        limit = float(np.min(bounds / forces))
    if not math.isfinite(limit):
        raise DomainError(f"Yukawa force at lambda = {lam:.3e} m is zero or not finite "
                          "on the whole separation grid; no alpha limit")
    return limit
