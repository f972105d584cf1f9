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
each entry stops at its own level. The entries of each row of a 2-D array
(say, one separation's roughness offsets) share the eps values and
reflection factors of the row's smallest separation z0: at z = c z0 the
substitution u -> c u, s -> c s keeps xi and p, so only the tail
exp(-(u+s)) and the measure see c.
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
# Widest ratio of separations whose entries share one rule's nodes. Over
# four pairs, both kinds, tol 1e-3 to 1e-8 and 20 nm to 10 um, entries up
# to 32 times their row's smallest stopped no later than alone and within
# their estimates; from 64 times some needed an extra level. The near-strip
# term of the truncation bound grows with the ratio (see _truncation).
_SPREAD = 16.0

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
    entry alone meets tol, and ``evaluations`` sums every entry's nodes at
    its own level. An entry of a scalar or 1-D array is bit for bit a call
    on it alone. The entries of a row along the last axis of a 2-D array
    are integrated on the nodes of the row's smallest separation z0 (a row
    wider than a factor _SPREAD = 16 splits into runs, each with its own
    z0): an entry at z = c z0 takes z0's eps and reflection factors, its v
    scaled by c and its sum by c^2, and a truncation bound for nodes scaled
    by c. Its value and estimate are bit for bit those of its row alone,
    and the row's smallest entry is its call alone.
    """

    value: float | np.ndarray
    est_rel_error: float | np.ndarray
    evaluations: int


def _power(z, p: int) -> np.ndarray:
    """z^p of separations ``z``; DomainError unless all are > 0 with z^p and z^-p finite."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        zp = z**p
        if not (z.size and np.all((z > 0) & np.isfinite(zp) & np.isfinite(1.0 / zp))):
            raise DomainError(f"separation must be > 0, with z^{p} and z^-{p} finite")
    return zp


def ideal_pressure_plane_plane(z: float) -> float:
    """Ideal-metal pressure between two planes: -pi^2 hbar c / 240 z^4."""
    return float(-(math.pi**2) * CODATA.hbar * CODATA.c / (240.0 * _power(z, 4)))


def ideal_force_sphere_plane(z: float, radius: float) -> float:
    """Ideal-metal sphere-plane force: -pi^3 hbar c R / 360 z^3."""
    if not 0 < radius < math.inf:
        raise DomainError("sphere radius must be finite and > 0")
    return float(-(math.pi**3) * CODATA.hbar * CODATA.c * radius / (360.0 * _power(z, 3)))


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


def _truncation(t_lo: float, t_hi: float, c: np.ndarray) -> np.ndarray:
    """Bounds on the part of the integral that the rule on [t_lo, t_hi]
    drops, one row per level and one column per entry, for entries whose
    nodes are those of the rule scaled by ``c`` >= 1 (1 for the rule's own
    nodes).

    With eps >= 1 every reflection factor lies in [0, 1], so the pressure
    integrand is at most g(v) = 2 v^2/(e^v - 1) and the force integrand's
    magnitude at most h(v) = -2 v log(1 - e^-v), with h <= g for v >= 1
    and both integrating to at most 4 zeta(3) over v > 0. A strip of width
    d along either axis thus holds at most 4 zeta(3) d: x < c x_lo on u and
    on s. Beyond c a, with a = x(t_hi), either axis holds at most
    _tails(c a)[0]. The nodes dropped past t_hi sum to no more than that
    plus the first one's weight, at most c times the step times x'(t_hi),
    times the bound's u integral at s = c a (the integrand falls in t there).
    _tails runs on floats, so an entry's bound does not depend on the others.
    """
    x_lo, a = float(_x(t_lo)), float(_x(t_hi))
    beyond, at = np.array([_tails(x) for x in (c * a).tolist()]).T
    first = np.array([[0.5 ** (level + 1) * 0.5 * math.pi * math.cosh(t_hi) * a]
                      for level in range(_MAX_LEVEL + 1)])
    return 8.0 * _ZETA3 * (c * x_lo) + 2.0 * (beyond + c * first * at)


def _reflection_factors(e, u, v, v2):
    """Reflection factors (TE, TM) of one surface at p = v/u, with v2 = v*v:
    TE = a/(k + v)^2 and TM = (b v^2 - a)/(e v + k)^2, from the products
    (k - v)(k + v) = a and (e v - k)(e v + k) = b v^2 - a, where
    k = u sqrt(e - 1 + p^2) and the row values a = (e-1) u^2 and
    b = (e-1)(e+1) (e^2 - 1 would lose e - 1 as e -> 1). Both are free of
    cancellation and finite as u -> 0: (e+1) v^2 >= 2 u^2, so b v^2 - a >= b v^2/2."""
    a = (e - 1.0) * (u * u)
    k = np.sqrt(a + v2)
    return a / (k + v) ** 2, ((e - 1.0) * (e + 1.0) * v2 - a) / (e * v + k) ** 2


def _tail(kind: str, v, lq):
    """v^2 sum_pol Q w/(1 - Q w) for pressure, v sum_pol log(1 - Q w) for
    force, with w = exp(-v), from the polarizations' log Q ``lq`` (empty
    for two perfect conductors, whose polarizations are equal and summed as
    one doubled). Q w/(1 - Q w) = 1/expm1(v - log Q), 0 where expm1
    overflows, and the force takes one log of the product of the two
    1 - Q w = -expm1(log Q - v)."""
    if kind == "pressure":
        g = [1.0 / np.expm1(v - x) for x in lq or [0.0]]
        return (v * v) * (g[0] + g[1] if lq else 2.0 * g[0])
    m = [np.expm1(x - v) for x in lq or [0.0]]
    return v * (np.log(m[0] * m[1]) if lq else 2.0 * np.log(-m[0]))


def _row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v one row at a time: a BLAS product rounds a row differently with
    other rows around it, and a stacked entry must not depend on the others."""
    return np.matmul(a[:, None, :], v)[:, 0]


def _rule_sum(kind: str, u, e1, e2, s, ws, scales) -> np.ndarray:
    """sum_j ws_j f(c_i u_i, c_i s_j) for every row i and every entry of
    ``scales``, a block of u rows at a time: one row of sums per entry.
    f is (u+s)^2 sum_pol Q w/(1 - Q w) for pressure and (u+s) sum_pol
    log(1 - Q w) for force, with w = exp(-(u+s)) (see _tail).

    ``e1``/``e2`` hold each row's permittivity, or None for a perfect
    conductor. An entry of ``scales`` is None for c = 1 or an array of one
    c per row; Q is the same for every c, since it depends on u and v only
    through p = v/u. The node (c u, c s) is that of an entry at c times the
    separation, whose eps is looked up at the same xi.
    """
    rows = max(1, _BLOCK // s.size)
    sums = np.empty((len(scales), u.size))
    for i in range(0, u.size, rows):
        b = slice(i, i + rows)
        ub = u[b, None]
        v = ub + s
        v2 = v * v
        q = [_reflection_factors(e[b, None], ub, v, v2) for e in (e1, e2) if e is not None]
        q = q[0] if len(q) == 1 else [x * y for x, y in zip(*q)]  # [] for two ideal surfaces
        with np.errstate(divide="ignore", over="ignore"):
            for x in q:  # log Q in place, capped at 0 where huge eps rounds Q above 1
                np.minimum(np.log(x, out=x), 0.0, out=x)
            for k, c in enumerate(scales):
                sums[k, b] = _row_dot(_tail(kind, v if c is None else c[b, None] * v, q), ws)
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


def _slots(r: np.ndarray, c: np.ndarray):
    """Slot k of each entry within its row ``r`` (entries grouped by row, in
    row order) and, per slot, the scales ``c`` of its rows' entries: None
    where c is 1 in every row, and 1 where a row leaves the slot empty."""
    k = np.arange(r.size) - np.searchsorted(r, r)
    scales = np.ones((int(r[-1]) + 1, int(k.max()) + 1))
    scales[r, k] = c
    return k, [None if np.all(col == 1.0) else col for col in scales.T]


def _stops(kind: str, z: np.ndarray, m1, m2, tol: float, t_lo: float, t_hi: float):
    """Integrals over u, s > 0 of the Lifshitz integrand at the separations
    ``z`` and their estimates, one per entry in row-major order, and the
    node count.

    Each row of the 2-D ``z`` (NaN pads its end) is integrated on the nodes
    of its first entry z0, its smallest: an entry at z = c z0 keeps z0's eps
    and reflection factors at every node, with v scaled by c and its sum by
    c^2, so a row looks eps up once. A one-entry row is z0 alone (c = 1).
    The step of the product rule on t in [t_lo, t_hi] halves from level to
    level, and each entry stops at the first level (from 1 on, from 2 on for
    c != 1) where the difference to the level before plus its truncation
    bound is within ``tol`` of its sum, or at _MAX_LEVEL; a row leaves the
    levels after once all its entries have stopped. The count sums each
    entry's (u, s) nodes at its own level.
    """
    has = ~np.isnan(z)
    row = np.nonzero(has)[0]
    c = z[has] / z[row, 0]
    c2, bounds = c * c, _truncation(t_lo, t_hi, c)
    eps1, eps2 = _surface_eps(m1), _surface_eps(m2)
    sums, rel = np.empty(row.size), np.empty(row.size)
    evals = 0
    live, r = np.arange(row.size), row  # r: each live entry's live row
    k, cols = _slots(r, c)
    e_scale = HBARC_EV_M / (2.0 * z[:, :1])  # photon energy per unit u, eV
    total, e1, e2 = 0.0, None, None
    for level in range(_MAX_LEVEL + 1):
        x, w = _exp_sinh(level, t_lo, t_hi)
        xi = x * e_scale
        u = np.broadcast_to(x, xi.shape)
        e1, e2 = _lookup(eps1, xi, e1), _lookup(eps2, xi, e2)
        # Only pairs with a node new at this level (odd index) are evaluated;
        # the other pairs sum to a quarter of the previous level (half the
        # step twice). Picked rows run row by row, and fold back per entry.
        new, old = (slice(1, None, 2), slice(0, None, 2)) if level else (slice(None), slice(0))

        def part(nodes, s, ws):
            picked = [None if a is None else a[..., nodes].flatten() for a in (u, e1, e2)]
            per_row = [col if col is None else np.repeat(col, x[nodes].size) for col in cols]
            row_sums = _rule_sum(kind, *picked, s, ws, per_row)
            slot_sums = _row_dot(row_sums.reshape(len(cols) * len(xi), -1), w[nodes])
            return slot_sums.reshape(len(cols), -1)[k, r]

        previous = total
        total = 0.25 * total + part(new, x, w) + part(old, x[new], w[new])
        if not level:
            continue
        value = c2[live] * total
        est = (np.abs(value - c2[live] * previous) + bounds[level, live]) / np.maximum(
            np.abs(value), 1e-300)
        met = est <= tol
        if level == 1:
            # Scaled nodes shift the coarse rules' error, which changes sign
            # with c: levels 0 and 1 can agree by chance while level 1 is far
            # off. Such entries stop from level 2 on.
            met &= c[live] == 1.0
        stop = met | (level == _MAX_LEVEL)
        sums[live[stop]], rel[live[stop]] = value[stop], est[stop]
        evals += x.size * x.size * int(stop.sum())
        keep = np.flatnonzero(~stop)
        if not keep.size:
            break
        if keep.size < live.size:  # rows and slots change only when an entry stops
            held = np.flatnonzero(np.bincount(r[keep]))  # np.unique loads numpy.ma
            live, total, r = live[keep], total[keep], np.searchsorted(held, r[keep])
            e_scale, e1, e2 = (None if e is None else e[held] for e in (e_scale, e1, e2))
            k, cols = _slots(r, c[live])
    return sums, rel, evals


def _runs(z: np.ndarray) -> np.ndarray:
    """Flat indices of the entries of ``z`` in runs that share one rule's
    nodes, a run per row (-1 pads): each row along a 2-D ``z``'s last axis
    by increasing separation, split before an entry more than _SPREAD times
    its run's first; a scalar or 1-D ``z`` one entry per run."""
    if z.ndim < 2:
        return np.arange(z.size)[:, None]
    width = z.shape[-1]
    rows = z.reshape(-1, width)
    order = np.argsort(rows, axis=1, kind="stable") + width * np.arange(len(rows))[:, None]
    ordered = z.reshape(-1)[order]
    if np.all(ordered[:, -1] <= _SPREAD * ordered[:, 0]):
        return order
    runs = []
    for index, values in zip(order.tolist(), ordered.tolist()):
        start = 0
        for j, value in enumerate(values):
            if value > _SPREAD * values[start]:
                runs.append(index[start:j])
                start = j
        runs.append(index[start:])
    width = max(map(len, runs))
    return np.array([run + [-1] * (width - len(run)) for run in runs])


def _lifshitz(kind: str, z, coeff: float, m1, m2, tol: float) -> LifshitzResult:
    """coeff / z_i^p times the integral of the Lifshitz integrand at each
    separation z_i, with p = 4 for pressure and 3 for force, on the t range
    that ``tol`` allows. The entries of each row along the last axis of a
    2-D ``z`` share the nodes of their smallest (see _stops, _runs); a
    scalar or 1-D ``z`` is one entry per row. _stops runs whole runs, about
    _STACK entries at a time, and every entry stops at its own level, so
    its value and estimate are bit for bit those of its run alone, and a
    one-entry run's those of a call on it alone. Raises ConvergenceError
    with the result attached (the finest level for the entries that did not
    get there) when some entry does not meet ``tol`` by _MAX_LEVEL.
    """
    z = np.asarray(z, dtype=float)
    zp = _power(z, 4 if kind == "pressure" else 3)
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    t_lo, t_hi = _t_range(kind, tol)
    flat = z.reshape(-1)
    total, rel = np.empty(flat.size), np.empty(flat.size)
    evals = 0
    runs = _runs(z)
    step = max(1, _STACK // runs.shape[1])
    for i in range(0, len(runs), step):
        index = runs[i:i + step]
        has = index >= 0
        total[index[has]], rel[index[has]], nodes = _stops(
            kind, np.where(has, flat[index], np.nan), m1, m2, tol, t_lo, t_hi)
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
    exchange. An array ``z`` gives one pressure per separation from one
    stacked rule (see LifshitzResult). Raises ConvergenceError (with the
    partial LifshitzResult attached) if the quadrature budget is exhausted
    before reaching ``tol``.
    """
    return _lifshitz("pressure", z, -CODATA.hbar * CODATA.c / (32.0 * math.pi**2), m1, m2, tol)


def force_sphere_plane(z, radius: float, m1, m2, tol: float = 1e-6) -> LifshitzResult:
    """Casimir force on a sphere of given radius above a plane (Newtons).

    Negative (attractive); proximity-force form, valid for z << radius.
    An array ``z`` gives one force per separation, as for the pressure.
    """
    if not 0 < radius < math.inf:
        raise DomainError("sphere radius must be finite and > 0")
    # The inner logarithms are negative, so the positive prefactor keeps
    # the force attractive.
    return _lifshitz("force", z, CODATA.hbar * CODATA.c * radius / (16.0 * math.pi), m1, m2, tol)


def gradient_from_pressure(pressure: LifshitzResult,
                           radius: float) -> LifshitzResult:
    """Sphere-plane force gradient dF/dz = 2 pi R |P| (proximity force) of a
    plain, stacked or averaged two-plane pressure, positive for an attraction
    weakening with distance; keeps the pressure's estimate and node count."""
    if not 0 < radius < math.inf:
        raise DomainError("sphere radius must be finite and > 0")
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
