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
axes: u = x and s = x with x = exp(pi/2 sinh t) on an even t grid, and
eps is looked up at xi = u hbar c / 2z itself, however small, so no
frequency floor leaves a model error. Each call keeps the t range its
tolerance needs. The t step halves from level to level, reusing the
nodes (and eps values) already evaluated, until two levels agree to the
tolerance. The reported error, est_rel_error, is their difference
plus a closed-form bound on the part of the integral the trimmed t range
drops: for eps >= 1 every reflection factor lies in [0, 1], so the
ideal-metal integrand bounds the real one pointwise. An array of
separations is one stacked rule, with a result and an estimate per entry;
each entry stops at its own level.
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

import numpy as np

from .constants import CODATA, HBARC_EV_M
from .errors import ConvergenceError, DomainError
from .materials import DielectricModel, PerfectConductor, Tabulated
from .records import Record

TOL_MIN = 1e-8
TOL_MAX = 1e-3

# Exp-sinh rule: widest t range of an axis, finest level (step
# 2^-(level+1)) and the tensor entries evaluated at once.
_T_LO, _T_HI = -4.5, 2.25
_MAX_LEVEL = 6
_BLOCK = 1 << 12
# Entries of a stack integrated together: bounds the memory of a long stack.
_STACK = 256

# The t range of a call is trimmed so that its truncation bound, less the
# first dropped node's share (which shrinks with the step), is at most
# _TRUNC_SHARE * tol of the ideal integral, half at each end.
_TRUNC_SHARE = 1e-2
_ZETA3 = 1.2020569031595942
# Ideal-limit integrals over the quarter plane: 2 pi^4/15 and 4 zeta(4).
_IDEAL_TOTAL = {"pressure": 2.0 * math.pi**4 / 15.0, "force": 2.0 * math.pi**4 / 45.0}


class SpherePlaneGeometry(Record):
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
        if not 0 < self.radius < math.inf:
            raise DomainError("sphere radius must be finite and > 0")
        if not 0 < self.separation < math.inf:
            raise DomainError("separation must be finite and > 0")
        if not 0 <= self.delta0 < math.inf:
            raise DomainError("contact offset delta0 must be finite and >= 0")
        if self.separation / self.radius > 0.1:
            warnings.warn(
                "separation exceeds 10% of the sphere radius; the "
                "sphere-plane force formula assumes z << R",
                stacklevel=2,
            )


class LifshitzResult(Record):
    """Converged integral value with its accuracy bookkeeping.

    ``value`` is in N/m^2 (pressure), N (force) or N/m (gradient);
    ``est_rel_error`` bounds the error of ``value`` relative to the exact
    Lifshitz integral for the given eps (the model is never clamped): the
    difference of the last two levels plus the truncation bound of the
    trimmed t range; ``evaluations`` counts the (u, s) nodes of the product
    rule. For an array of separations ``value`` and ``est_rel_error`` are
    arrays, one entry per separation, each from the level at which that
    entry alone meets tol (bit for bit a call on it alone), and
    ``evaluations`` sums every entry's nodes at its own level.
    """

    value: float | np.ndarray
    est_rel_error: float | np.ndarray
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
    raise DomainError(f"not a dielectric model: {model!r}")


def _x(t):
    """Exp-sinh node x = exp(pi/2 sinh t)."""
    return np.exp(0.5 * math.pi * np.sinh(t))


def _t(x: float) -> float:
    """The t of exp-sinh node x."""
    return math.asinh(math.log(x) / (0.5 * math.pi))


def _exp_sinh(level: int, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the exp-sinh rule on (0, inf) at step 2^-(level+1).

    x = exp(pi/2 sinh t) at the t = _T_LO + j h in [t_lo, t_hi]; with t_lo
    on the level-0 grid the nodes of one level are those of the level
    before plus the ones at odd positions.
    """
    h = 0.5 ** (level + 1)
    t = _T_LO + h * np.arange(round((t_lo - _T_LO) / h), math.floor((t_hi - _T_LO) / h) + 1)
    x = _x(t)
    return x, h * 0.5 * math.pi * np.cosh(t) * x


def _tails(a: float) -> tuple[float, float]:
    """Integrals of g(u + s) = 2 v^2/(e^v - 1) over u > 0: for s > a, and
    at s = a."""
    c = 2.0 * math.exp(-a) / -math.expm1(-a)
    return c * (a * a + 4.0 * a + 6.0), c * (a * a + 2.0 * a + 2.0)


def _t_range(kind: str, tol: float) -> tuple[float, float]:
    """t range of the rule at ``tol``.

    Each end's share of the truncation bound (see _truncation) is held to
    _TRUNC_SHARE * tol / 2 of the ideal integral. t_lo is snapped down onto
    the level-0 grid, so every level keeps a subset of the full rule's nodes.
    """
    budget = 0.5 * _TRUNC_SHARE * tol * _IDEAL_TOTAL[kind]
    x_lo = budget / (8.0 * _ZETA3)
    t_lo = max(_T_LO, _T_LO + 0.5 * math.floor(2.0 * (_t(x_lo) - _T_LO)))
    a = 1.0
    for _ in range(8):  # fixed point of 2 _tails(a)[0] = budget
        a = math.log(4.0 * (a * a + 4.0 * a + 6.0) / (-math.expm1(-a) * budget))
    return t_lo, min(_T_HI, _t(a))


def _truncation(t_lo: float, t_hi: float, level: int) -> float:
    """Bound on the part of the integral that the level's rule on
    [t_lo, t_hi] drops.

    With eps >= 1 every reflection factor lies in [0, 1], so the pressure
    integrand is at most g(v) = 2 v^2/(e^v - 1) and the force integrand's
    magnitude at most h(v) = -2 v log(1 - e^-v), with h <= g for v >= 1
    and both integrating to at most 4 zeta(3) over v > 0. A strip of width
    d along either axis thus holds at most 4 zeta(3) d: x < x_lo on u and
    on s. Beyond a = x(t_hi), either axis holds at most
    _tails(a)[0]. The nodes dropped past t_hi sum to no more than that
    plus the first one's weight, at most the step times x'(t_hi), times
    the bound's u integral at s = a (the integrand falls in t there).
    """
    x_lo, a = float(_x(t_lo)), float(_x(t_hi))
    beyond, at = _tails(a)
    first = 0.5 ** (level + 1) * 0.5 * math.pi * math.cosh(t_hi) * a
    return 8.0 * _ZETA3 * x_lo + 2.0 * (beyond + first * at)


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
    a perfect conductor (both factors exactly 1). Q <= 1 analytically;
    log Q is capped at 0 where huge eps rounds the product above 1.
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
            a = np.minimum(np.log(q), 0.0) - v  # log(Q w), -inf where Q = 0
            omq = -np.expm1(a)  # 1 - Q w without cancellation
            g = g + (np.exp(a) / omq if kind == "pressure" else np.log(omq))
    return v * v * g if kind == "pressure" else v * g


def _row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v one row at a time: a BLAS product rounds a row differently with
    other rows around it, and a stacked entry must not depend on the others."""
    return np.matmul(a[:, None, :], v)[:, 0]


def _rule_sum(kind: str, u, e1, e2, s, ws) -> np.ndarray:
    """sum_j ws_j f(u_i, s_j) for every row i, a block of u rows at a time.

    ``e1``/``e2`` hold each row's permittivity, or None for a perfect
    conductor.
    """
    rows = max(1, _BLOCK // s.size)
    sums = np.empty(u.size)
    for i in range(0, u.size, rows):
        b = slice(i, i + rows)
        e1b = None if e1 is None else e1[b, None]
        e2b = None if e2 is None else e2[b, None]
        sums[b] = _row_dot(_integrand(kind, u[b, None], s, e1b, e2b), ws)
    return sums


def _lookup(eps, xi: np.ndarray, previous) -> np.ndarray | None:
    """eps at every node of ``xi``: looked up on the nodes at odd positions
    only when ``previous`` holds the values at the even ones (None marks a
    perfect conductor). Raises DomainError below 1, where the truncation
    bound fails."""
    if eps is None:
        return None
    if previous is None:
        e = np.asarray(eps(xi), dtype=float)
    else:
        e = np.empty_like(xi)
        e[..., ::2] = previous
        e[..., 1::2] = eps(xi[..., 1::2])
    if not np.all(e >= 1.0):
        raise DomainError("permittivity eps(i xi) must be >= 1 (got "
                          f"{float(np.min(e)):g} at xi = {float(xi.flat[np.argmin(e)]):g} eV)")
    return e


def _levels(kind: str, z: np.ndarray, m1, m2, t_lo: float, t_hi: float):
    """Yield (sums, nodes) for levels 0.._MAX_LEVEL of the product rule on
    t in [t_lo, t_hi]: sums_i is the integral over u, s > 0 of the
    Lifshitz integrand at separation z_i, for an (entry, 1) array ``z``,
    and nodes the (u, s) nodes of one entry's rule. u node arrays have
    shape (entry, node). Sending the indices of the entries to keep drops
    the others from the levels after.
    """
    eps1 = _surface_eps(m1)
    eps2 = _surface_eps(m2)
    e_scale = HBARC_EV_M / (2.0 * z)  # photon energy per unit u, eV
    total = 0.0
    e1 = e2 = None
    for level in range(_MAX_LEVEL + 1):
        x, w = _exp_sinh(level, t_lo, t_hi)
        xi = x * e_scale
        u = np.broadcast_to(x, xi.shape)
        e1, e2 = _lookup(eps1, xi, e1), _lookup(eps2, xi, e2)
        # Only pairs with a node new at this level (odd index) are evaluated;
        # the other pairs sum to a quarter of the previous level (half the
        # step twice). Picked rows run entry by entry, and fold back per entry.
        new, old = (slice(1, None, 2), slice(0, None, 2)) if level else (slice(None), slice(0))

        def part(nodes, s, ws):
            picked = [None if a is None else a[..., nodes].flatten() for a in (u, e1, e2)]
            sums = _rule_sum(kind, *picked, s, ws).reshape(len(xi), -1)
            return _row_dot(sums, w[nodes])

        total = 0.25 * total + part(new, x, w) + part(old, x[new], w[new])
        keep = yield total, x.size * x.size
        if keep is not None:
            e_scale, total = e_scale[keep], total[keep]
            e1, e2 = (None if e is None else e[keep] for e in (e1, e2))


def _stops(kind: str, z: np.ndarray, m1, m2, tol: float, t_lo: float, t_hi: float):
    """Level sums, estimates and the node count of a 1-D array ``z``, each
    entry's from the first level at which its estimate is within ``tol``
    (the finest level's if none is): what a call on the entry alone gives.
    Entries that stop leave the levels after."""
    sums, rel = np.empty(z.size), np.empty(z.size)
    evals = 0
    live = np.arange(z.size)
    levels = _levels(kind, z.reshape(-1, 1), m1, m2, t_lo, t_hi)
    total, _ = next(levels)
    keep = None
    for level in range(1, _MAX_LEVEL + 1):
        previous = total
        total, nodes = levels.send(keep)
        r = (np.abs(total - previous) + _truncation(t_lo, t_hi, level)) / np.maximum(
            np.abs(total), 1e-300)
        stop = (r <= tol) | (level == _MAX_LEVEL)
        sums[live[stop]], rel[live[stop]] = total[stop], r[stop]
        evals += nodes * int(stop.sum())
        keep = np.flatnonzero(~stop)
        live, total = live[keep], total[keep]
        if not live.size:
            break
    return sums, rel, evals


def _lifshitz(kind: str, z, coeff: float, m1, m2, tol: float) -> LifshitzResult:
    """coeff / z_i^p times the integral of the Lifshitz integrand at each
    separation z_i (see _levels), with p = 4 for pressure and 3 for force,
    on the t range that ``tol`` allows.

    Halves the step of the exp-sinh product rule until the difference of
    two successive levels plus the truncation bound is within ``tol`` of
    the integral. Every entry stops at its own first such level, so its
    value and estimate are bit for bit those of a call on it alone; the
    stack runs _STACK entries at a time. Raises ConvergenceError with the
    result attached (the finest level for the entries that did not get
    there) when some entry does not meet ``tol`` by _MAX_LEVEL.
    """
    p = 4 if kind == "pressure" else 3
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        zp = z**p
        if not (z.size and np.all((z > 0) & np.isfinite(zp) & np.isfinite(1.0 / zp))):
            raise DomainError(f"separation must be > 0, with z^{p} and z^-{p} finite")
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    t_lo, t_hi = _t_range(kind, tol)
    flat = z.reshape(-1)
    total, rel = np.empty(flat.size), np.empty(flat.size)
    evals = 0
    for i in range(0, flat.size, _STACK):
        chunk = slice(i, i + _STACK)
        total[chunk], rel[chunk], nodes = _stops(kind, flat[chunk], m1, m2, tol, t_lo, t_hi)
        evals += nodes
    value, rel = coeff / zp * total.reshape(z.shape), rel.reshape(z.shape)
    result = LifshitzResult(value, rel, evals) if z.ndim else LifshitzResult(
        float(value), float(rel), evals)
    if rel.max() > tol:
        raise ConvergenceError(f"double-exponential rule did not reach tol={tol:g} by level "
                               f"{_MAX_LEVEL} (reached {rel.max():.2e})", partial=result)
    return result


def pressure_plane_plane(z, m1, m2, tol: float = 1e-6) -> LifshitzResult:
    """Casimir pressure between two half-spaces at separation z (meters).

    Negative (attractive). ``m1``/``m2`` are DielectricModel instances (any
    other object raises DomainError); the result is symmetric under their
    exchange.
    An array ``z`` gives one pressure per separation from one stacked rule
    (see LifshitzResult).
    Raises ConvergenceError (with the partial LifshitzResult attached) if
    the quadrature budget is exhausted before reaching ``tol``.
    """
    return _lifshitz("pressure", z, -CODATA.hbar * CODATA.c / (32.0 * math.pi**2), m1, m2, tol)


def force_sphere_plane(z, radius: float, m1, m2, tol: float = 1e-6) -> LifshitzResult:
    """Casimir force on a sphere of given radius above a plane (Newtons).

    Negative (attractive); proximity-force form, valid for z << radius.
    An array ``z`` gives one force per separation, as for the pressure.
    """
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    # The inner logarithms are negative, so the positive prefactor keeps
    # the force attractive.
    return _lifshitz("force", z, CODATA.hbar * CODATA.c * radius / (16.0 * math.pi), m1, m2, tol)


def gradient_from_pressure(pressure: LifshitzResult,
                           radius: float) -> LifshitzResult:
    """Sphere-plane force gradient dF/dz = 2 pi R |P| (proximity force) of a
    plain, stacked or averaged two-plane pressure, positive for an attraction
    weakening with distance; keeps the pressure's estimate and node count."""
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    return LifshitzResult(2.0 * math.pi * radius * abs(pressure.value),
                          pressure.est_rel_error, pressure.evaluations)


__all__ = [
    "SpherePlaneGeometry",
    "LifshitzResult",
    "ideal_pressure_plane_plane",
    "ideal_force_sphere_plane",
    "pressure_plane_plane",
    "force_sphere_plane",
    "gradient_from_pressure",
    "TOL_MIN",
    "TOL_MAX",
]
