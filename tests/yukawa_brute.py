"""Brute-force Yukawa force between the layered bodies (test oracle).

Integrates the bare pair force over both volumes on grids, with no closed
forms, as an independent check of ``casimir_mto.yukawa``'s analytic
sphere/half-space superposition.
"""

import math

import numpy as np

from casimir_mto.constants import CODATA
from casimir_mto.errors import ConfigurationError, DomainError
from casimir_mto.yukawa import LayeredBody, YukawaParams

# Integration support: exp(-45) ~ 3e-20 is far below any tolerance used.
_SUPPORT_FOLDS = 45.0


def _half_space_field(h_grid: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Vertical Yukawa force per unit (G alpha rho m) on a point mass at
    heights ``h_grid`` above a unit-density half-space, by direct
    cylindrical quadrature (no closed forms)."""
    span = _SUPPORT_FOLDS * lam
    dt = span / n
    t = (np.arange(n) + 0.5) * dt           # depth below the surface
    dr = span / n
    r = (np.arange(n) + 0.5) * dr           # cylindrical radius
    out = np.zeros_like(h_grid)
    r2 = r * r
    for ti in t:
        ht = h_grid[:, None] + ti           # vertical distance to the ring
        s2 = ht * ht + r2[None, :]
        s = np.sqrt(s2)
        integrand = r[None, :] * ht * (1.0 / s + 1.0 / lam) * np.exp(-s / lam) / s2
        out += integrand.sum(axis=1)
    return 2.0 * math.pi * out * dr * dt


def yukawa_force_brute(p: YukawaParams, sphere: LayeredBody,
                       plate: LayeredBody, z: float,
                       rel_conv: float = 3e-3, n_start: int = 96,
                       max_rounds: int = 6) -> float:
    """Brute-force volume integration of the pair force (test oracle).

    The plate's field is integrated on a (radius, depth) grid; the sphere
    is sliced horizontally. Resolution doubles until successive estimates
    agree to ``rel_conv``.
    """
    if not z > 0:
        raise DomainError("separation must be > 0")
    lam = p.lam
    span = _SUPPORT_FOLDS * lam
    prev = None
    n = n_start
    for _ in range(max_rounds):
        # Field of the layered plate at heights above its outer surface.
        h_lo, h_hi = z * 0.5, z + span + 2e-6
        h_grid = np.linspace(h_lo, h_hi, 4 * n)
        field = np.zeros_like(h_grid)
        for d_p, drho_p in plate.density_steps():
            field += drho_p * _half_space_field(h_grid + d_p, lam, n)

        total = 0.0
        for d_s, drho_s in sphere.density_steps():
            r_i = sphere.radius - d_s
            gap_i = z + d_s
            zeta_max = min(2.0 * r_i, span)
            dz = zeta_max / (4 * n)
            zeta = (np.arange(4 * n) + 0.5) * dz
            area = math.pi * zeta * (2.0 * r_i - zeta)
            phi = np.interp(gap_i + zeta, h_grid, field)
            total += drho_s * float(np.dot(area, phi)) * dz

        value = CODATA.G * p.alpha * total
        if prev is not None and abs(value - prev) <= rel_conv * abs(value):
            return value
        prev = value
        n *= 2
    raise ConfigurationError(
        f"brute-force Yukawa integration did not self-converge to {rel_conv:g}"
    )
