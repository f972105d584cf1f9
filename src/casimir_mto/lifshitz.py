"""Zero-temperature Casimir force and pressure between real metals.

The pressure between two half-spaces and the sphere-plane force are
double integrals over imaginary frequency xi and the wave parameter p.
With the dimensionless frequency u = 2 xi z / c and p = 1 + s/u, both
become integrals over the quarter plane u, s > 0:

    P(z) = -(hbar c / 32 pi^2 z^4) * integral (u+s)^2 sum_pol Q w / (1 - Q w)
    F(z) =  (hbar c R / 16 pi z^3) * integral (u+s)   sum_pol log(1 - Q w)

with w = exp(-(u+s)), Q the product of the two surfaces' reflection
factors for one polarization and s_j = sqrt(eps_j(xi) - 1 + p^2).
One double-exponential product rule (Takahasi & Mori 1974) covers both
axes: x = exp(pi/2 sinh t) on an even t grid, with the u axis split at
the frequency floor (u = u_floor + x above it, u_floor exp(-x) below it,
where eps is constant), so each piece is smooth. The t step halves from
level to level, reusing the nodes already evaluated, until two levels
agree to the tolerance; their difference is the reported error.
Perfect conductors take the ideal limit (reflection products = 1), which
reproduces the closed forms -pi^2 hbar c / 240 z^4 and
-pi^3 hbar c R / 360 z^3 exactly; those serve as the quadrature oracle.

Sign convention (used package-wide): attractive forces and pressures are
negative; the force gradient d|F|/... is reported positive for an
attraction weakening with distance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, HBARC_EV_M
from .errors import ConvergenceError, DomainError
from .materials import DielectricModel, PerfectConductor, Tabulated

TOL_MIN = 1e-8
TOL_MAX = 1e-3

# Materials are never queried below this photon energy; with a Drude tail
# eps ~ 1/xi the reflection products approach their ideal limit there.
# The clamp is a model error that est_rel_error does not include: halving
# it moves the Drude Au/Cu sphere-plane force at tol 1e-8 by 6.5e-8 at
# 0.5 um, 3.4e-7 at 1 um, 3.1e-6 at 3 um and 1.7e-5 at 10 um (relative).
XI_FLOOR_EV = 1e-5

# Exp-sinh rule: t range of every axis, finest level (step 2^-(level+1))
# and the tensor entries evaluated at once.
_T_LO, _T_HI = -4.5, 2.25
_MAX_LEVEL = 6
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SpherePlaneGeometry:
    """Sphere of radius ``radius`` above a plane at surface gap ``separation``.

    ``delta0`` is the per-surface mean contact offset: rough surfaces touch
    at mean separation 2*delta0, and measured gaps relate to the force
    separation through z = z_metal + 2*delta0.
    All lengths in meters.
    """

    radius: float
    separation: float
    delta0: float = 0.0

    def __post_init__(self):
        if not self.radius > 0:
            raise DomainError("sphere radius must be > 0")
        if not self.separation > 0:
            raise DomainError("separation must be > 0")
        if self.delta0 < 0:
            raise DomainError("contact offset delta0 must be >= 0")
        if self.separation / self.radius > 0.1:
            warnings.warn(
                "separation exceeds 10% of the sphere radius; the "
                "sphere-plane force formula assumes z << R",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LifshitzResult:
    """Converged integral value with its accuracy bookkeeping.

    ``value`` is in N/m^2 (pressure), N (force) or N/m (gradient);
    ``est_rel_error`` bounds the quadrature error relative to ``value``;
    ``evaluations`` counts the (u, s) nodes of the product rule. For a
    weighted set of separations (a roughness average) ``value`` is the
    weighted sum, ``est_rel_error`` the level difference of that sum, and
    ``evaluations`` the nodes of all entries together.
    """

    value: float
    est_rel_error: float
    evaluations: int


def ideal_pressure_plane_plane(z: float) -> float:
    """Ideal-metal pressure between two planes: -pi^2 hbar c / 240 z^4."""
    if not z > 0:
        raise DomainError("separation must be > 0")
    return -(math.pi**2) * CODATA.hbar * CODATA.c / (240.0 * z**4)


def ideal_force_sphere_plane(z: float, radius: float) -> float:
    """Ideal-metal sphere-plane force: -pi^3 hbar c R / 360 z^3."""
    if not z > 0:
        raise DomainError("separation must be > 0")
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    return -(math.pi**3) * CODATA.hbar * CODATA.c * radius / (360.0 * z**3)


def _surface_eps(model) -> object:
    """Array permittivity lookup for one surface: None marks the ideal limit."""
    if isinstance(model, PerfectConductor):
        return None
    if isinstance(model, Tabulated):
        return model.sampled().eps
    if isinstance(model, DielectricModel):
        return model.eps
    if callable(model):
        # Plain callables are taken to be scalar-only.
        return np.vectorize(model, otypes=[float])
    raise DomainError(f"not a dielectric model: {model!r}")


def _exp_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the exp-sinh rule on (0, inf) at step 2^-(level+1).

    x = exp(pi/2 sinh t) at t = _T_LO + j h up to _T_HI; the nodes of one
    level are those of the level before plus the ones at odd j.
    """
    h = 0.5 ** (level + 1)
    t = _T_LO + h * np.arange(int((_T_HI - _T_LO) / h) + 1)
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return x, h * 0.5 * math.pi * np.cosh(t) * x


def _reflection_factors(e, u, v):
    """Reflection factors (TE, TM) of one surface at p = v/u.

    With k = u sqrt(e - 1 + p^2), the cancellation-free forms
    (k - v)(k + v) = (e-1) u^2 and (e v - k)(e v + k) = (e-1)((e+1) v^2 - u^2)
    stay finite as u -> 0.
    """
    k = np.sqrt((e - 1.0) * u * u + v * v)
    fte = (e - 1.0) * u * u / ((k + v) ** 2)
    ftm = (e - 1.0) * ((e + 1.0) * v * v - u * u) / ((e * v + k) ** 2)
    return fte, ftm


def _integrand(kind: str, u, s, e1, e2):
    """(u+s)^2 sum_pol Q w/(1 - Q w) for pressure, (u+s) sum_pol log(1 - Q w)
    for force, with w = exp(-(u+s)).

    ``u``, ``e1`` and ``e2`` broadcast against ``s``; an eps of None marks
    a perfect conductor (both factors exactly 1).
    """
    v = u + s
    qte = qtm = 1.0
    for e in (e1, e2):
        if e is not None:
            fte, ftm = _reflection_factors(e, u, v)
            qte, qtm = qte * fte, qtm * ftm
    g = 0.0
    with np.errstate(divide="ignore"):
        for q in (qte, qtm):
            a = np.log(q) - v  # log(Q w), -inf where Q = 0
            omq = -np.expm1(a)  # 1 - Q w without cancellation
            g = g + (np.exp(a) / omq if kind == "pressure" else np.log(omq))
    return v * v * g if kind == "pressure" else v * g


def _rule_sum(kind: str, u, wu, e1, e2, s, ws) -> float:
    """sum_ij wu_i ws_j f(u_i, s_j), a block of u rows at a time.

    ``e1``/``e2`` hold each row's permittivity, or None for a perfect
    conductor.
    """
    rows = max(1, _BLOCK // s.size)
    total = 0.0
    for i in range(0, u.size, rows):
        b = slice(i, i + rows)
        e1b = None if e1 is None else e1[b, None]
        e2b = None if e2 is None else e2[b, None]
        total += float(wu[b] @ (_integrand(kind, u[b, None], s, e1b, e2b) @ ws))
    return total


def _lifshitz(kind: str, z: np.ndarray, scale: np.ndarray, prefactor: float,
              m1, m2, tol: float, xi_floor_ev: float) -> LifshitzResult:
    """prefactor * sum_i scale_i * integral over u, s > 0 of the Lifshitz
    integrand at separation z_i, for (entry, 1, 1) arrays ``z`` and ``scale``.

    Node arrays have shape (entry, piece, node), a piece being u above or
    below the frequency floor. Halves the step of the exp-sinh product rule
    until two successive levels of the weighted sum agree to ``tol``;
    raises ConvergenceError with the scaled finest-level result attached
    when _MAX_LEVEL does not get there.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    eps1 = _surface_eps(m1)
    eps2 = _surface_eps(m2)
    e_scale = HBARC_EV_M / (2.0 * z)  # photon energy per unit u, eV
    u_floor = xi_floor_ev / e_scale
    total = 0.0
    for level in range(_MAX_LEVEL + 1):
        x, w = _exp_sinh(level)
        # u = u_floor + x above the floor and u = u_floor exp(-x) below it,
        # where eps is constant, so each piece is smooth.
        below = u_floor * np.exp(-x)
        u = np.concatenate([u_floor + x, below], axis=1)
        xi = np.maximum(u * e_scale, xi_floor_ev)
        sw = scale * w
        rows = (u, np.concatenate([sw, below * sw], axis=1),
                None if eps1 is None else eps1(xi),
                None if eps2 is None else eps2(xi))
        # Only pairs with a node new at this level (odd index) are evaluated;
        # the other pairs sum to a quarter of the previous level (half the
        # step twice). flatten() copies: BLAS sums a strided row differently.
        new, old = (slice(1, None, 2), slice(0, None, 2)) if level else (slice(None), slice(0))

        def pick(nodes):
            return [None if a is None else a[..., nodes].flatten() for a in rows]

        previous = total
        total = (0.25 * total
                 + _rule_sum(kind, *pick(new), x, w)
                 + _rule_sum(kind, *pick(old), x[new], w[new]))
        evals = u.size * x.size
        if level:
            rel = abs(total - previous) / max(abs(total), 1e-300)
            if rel <= tol:
                return LifshitzResult(prefactor * total, rel, evals)
    raise ConvergenceError(
        f"double-exponential rule did not reach tol={tol:g} by level "
        f"{_MAX_LEVEL} (reached {rel:.2e})",
        partial=LifshitzResult(prefactor * total, rel, evals),
    )


def _stack(z, weights, power: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Separations z_i as an (entry, 1, 1) array, each entry's rule scale
    w_i (z_0/z_i)^power (w_i = 1 by default) and z_0, the first z_i."""
    z = np.asarray(z, dtype=float).reshape(-1, 1, 1)
    if not (z.size and 0 < z.min() and z.max() < math.inf):
        raise DomainError("separation must be finite and > 0")
    z0 = float(z[0, 0, 0])
    w = 1.0 if weights is None else np.asarray(weights, dtype=float).reshape(z.shape)
    return z, w * (z0 / z) ** power, z0


def pressure_plane_plane(z, m1, m2, tol: float = 1e-6,
                         xi_floor_ev: float = XI_FLOOR_EV, weights=None) -> LifshitzResult:
    """Casimir pressure between two half-spaces at separation z (meters).

    Negative (attractive). ``m1``/``m2`` are DielectricModel instances or
    callables xi_ev -> eps; the result is symmetric under their exchange.
    An array ``z`` with ``weights`` w_i (default 1) gives sum_i w_i P(z_i)
    from one stacked rule (see LifshitzResult).
    Raises ConvergenceError (with the partial LifshitzResult attached) if
    the quadrature budget is exhausted before reaching ``tol``.
    """
    z, scale, z0 = _stack(z, weights, 4)
    prefactor = -CODATA.hbar * CODATA.c / (32.0 * math.pi**2 * z0**4)
    return _lifshitz("pressure", z, scale, prefactor, m1, m2, tol, xi_floor_ev)


def force_sphere_plane(z, radius: float, m1, m2, tol: float = 1e-6,
                       xi_floor_ev: float = XI_FLOOR_EV, weights=None) -> LifshitzResult:
    """Casimir force on a sphere of given radius above a plane (Newtons).

    Negative (attractive); proximity-force form, valid for z << radius.
    An array ``z`` with ``weights`` gives sum_i w_i F(z_i), as for the
    pressure.
    """
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    z, scale, z0 = _stack(z, weights, 3)
    # The inner logarithms are negative, so the positive prefactor keeps
    # the force attractive.
    prefactor = CODATA.hbar * CODATA.c * radius / (16.0 * math.pi * z0**3)
    return _lifshitz("force", z, scale, prefactor, m1, m2, tol, xi_floor_ev)


def gradient_from_pressure(pressure: LifshitzResult,
                           radius: float) -> LifshitzResult:
    """Proximity-force gradient 2 pi R |P| of a (possibly averaged) pressure.

    Keeps the pressure's error estimate and evaluation count.
    """
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    return LifshitzResult(2.0 * math.pi * radius * abs(pressure.value),
                          pressure.est_rel_error, pressure.evaluations)


def force_gradient_sphere_plane(z: float, radius: float, m1, m2,
                                tol: float = 1e-6,
                                xi_floor_ev: float = XI_FLOOR_EV) -> LifshitzResult:
    """Sphere-plane force gradient dF/dz = 2 pi R P, reported positive.

    The proximity-force identity ties the gradient to the two-plane
    pressure; an attractive force weakening with distance gives a
    positive gradient under the package sign convention.
    """
    p = pressure_plane_plane(z, m1, m2, tol=tol, xi_floor_ev=xi_floor_ev)
    return gradient_from_pressure(p, radius)


__all__ = [
    "SpherePlaneGeometry",
    "LifshitzResult",
    "ideal_pressure_plane_plane",
    "ideal_force_sphere_plane",
    "pressure_plane_plane",
    "force_sphere_plane",
    "force_gradient_sphere_plane",
    "gradient_from_pressure",
    "XI_FLOOR_EV",
    "TOL_MIN",
    "TOL_MAX",
]
