"""Zero-temperature Casimir force and pressure between real metals.

The pressure between two half-spaces and the sphere-plane force are
double integrals over imaginary frequency xi and the wave parameter p.
With the dimensionless frequency u = 2 xi z / c both reduce to

    P(z) = -(hbar c / 32 pi^2 z^4) * integral_0^inf u^3 K_P(u) du
    F(z) = -(hbar c R / 16 pi z^3) * integral_0^inf u^2 K_F(u) du

where K_P and K_F are the inner wave-vector integrals over p in [1, inf)

    K_P(u) = integral p^2 * sum_pol Q w / (1 - Q w),    w = exp(-p u),
    K_F(u) = integral p   * sum_pol log(1 - Q w),

with Q the product of the two surfaces' reflection factors for one
polarization and s_j = sqrt(eps_j - 1 + p^2). The substitution p = 1/t
maps the p domain onto (0, 1], where panels refine adaptively under the
15-point Gauss-Kronrod rule of ``numerics``; the outer u integral uses
that module's adaptive integrator.
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
from .numerics import GK15_GAUSS, GK15_KRONROD, GK15_NODES, adaptive_quadrature

TOL_MIN = 1e-8
TOL_MAX = 1e-3

# Materials are never queried below this photon energy; with a Drude tail
# eps ~ 1/xi the reflection products approach their ideal limit there, so
# the clamp is invisible at the supported tolerances (halving it moves
# results by far less than TOL_MIN).
XI_FLOOR_EV = 1e-5

# Running-peak cutoff for extending the frequency grid upward.
_PEAK_CUTOFF = 1e-12
_U_START = 1.0 / 64.0
_U_HARD_MAX = 512.0
# Bisection budget of one inner wave-vector integral.
_INNER_MAX_PANELS = 4096


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
    ``evaluations`` counts integrand evaluations in the inner kernels.
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
    """Permittivity lookup for one surface: None marks the ideal limit."""
    if isinstance(model, PerfectConductor):
        return None
    if isinstance(model, Tabulated):
        return model.sampled().eps
    if isinstance(model, DielectricModel):
        return model.eps
    if callable(model):
        return model
    raise DomainError(f"not a dielectric model: {model!r}")


def _reflection_factors(e: float, p: np.ndarray):
    """Reflection factors (TE, TM) of one surface at wave parameter p.

    ``e <= 0`` marks a perfect conductor (both factors exactly 1).
    Cancellation-free forms: (s-p)(s+p) = e-1 and
    (e p - s)(e p + s) = (e-1)(p^2(e+1) - 1).
    """
    if e <= 0.0:
        one = np.ones_like(p)
        return one, one
    s = np.sqrt(e - 1.0 + p * p)
    fte = (e - 1.0) / ((s + p) ** 2)
    ftm = (e - 1.0) * (p * p * (e + 1.0) - 1.0) / ((e * p + s) ** 2)
    return fte, ftm


def _inner_integrand(kind: str, t: np.ndarray, u: float, e1: float, e2: float):
    """Inner integrand after p = 1/t, finite and smooth on (0, 1]."""
    p = 1.0 / t
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(-u * p)
        fte1, ftm1 = _reflection_factors(e1, p)
        fte2, ftm2 = _reflection_factors(e2, p)
        qte = fte1 * fte2 * w
        qtm = ftm1 * ftm2 * w
        if kind == "pressure":
            g = p ** 4 * (qte / (1.0 - qte) + qtm / (1.0 - qtm))
        else:
            g = p ** 3 * (np.log1p(-qte) + np.log1p(-qtm))
    # Underflowed exponential: the tail contributes exactly zero.
    return np.where(w > 0.0, g, 0.0)


def _inner_edges(u: float) -> np.ndarray:
    """Log-spaced panels: dense near t -> 0 where exp(-u/t) still bites."""
    if u >= 0.5:
        return np.array([0.0, 0.5, 1.0])
    edges = [0.0, u / 32.0]
    x = u / 32.0
    while x < 0.5:
        x *= 2.0
        edges.append(x)
    edges.append(1.0)
    return np.array(edges)


def _gk15_panels(kind: str, a: np.ndarray, b: np.ndarray, u, e1, e2):
    """GK15 on every panel [a_i, b_i] at once; returns (values, errors)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * GK15_NODES[None, :]
    y = _inner_integrand(kind, x, u, e1, e2)
    resk = half * (y @ GK15_KRONROD)
    resg = half * (y @ GK15_GAUSS)
    resabs = half * (np.abs(y) @ GK15_KRONROD)
    mean = resk / (b - a)
    resasc = half * (np.abs(y - mean[:, None]) @ GK15_KRONROD)
    err = np.abs(resk - resg)
    scale = np.ones_like(err)
    nz = (resasc != 0.0) & (err != 0.0)
    scale[nz] = np.minimum(1.0, (200.0 * err[nz] / resasc[nz]) ** 1.5)
    err = np.maximum(resasc * scale, 50.0 * np.finfo(float).eps * resabs)
    return resk, err


def _inner_integral(kind: str, u: float, e1: float, e2: float,
                    rtol: float) -> tuple[float, int]:
    """Wave-vector integral K(u) at scaled frequency u; returns (value, evals).

    Panels whose error estimate misses ``rtol`` are bisected, and each
    round applies the rule to all of them in one vectorized call.
    ``e1``/``e2`` <= 0 mark perfect conductors.
    """
    if u < 1e-12:
        raise ValueError("scaled frequency u must be >= 1e-12")
    edges = _inner_edges(u)
    a, b = edges[:-1], edges[1:]
    val, err = _gk15_panels(kind, a, b, u, e1, e2)
    evals = 15 * a.size
    i0 = abs(float(val.sum()))
    acc_val = 0.0
    panels = a.size
    while a.size:
        # Accept on per-panel relative error, with a width-proportional
        # absolute slack so near-zero panels terminate.
        slack = 0.25 * rtol * i0 * (b - a)
        ok = err <= np.maximum(rtol * np.abs(val), slack)
        acc_val += float(val[ok].sum())
        a, b = a[~ok], b[~ok]
        if a.size == 0:
            break
        panels += 2 * a.size
        if panels > _INNER_MAX_PANELS:
            raise RuntimeError(
                f"inner quadrature exceeded {_INNER_MAX_PANELS} panels at u={u:g}"
            )
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        val, err = _gk15_panels(kind, a, b, u, e1, e2)
        evals += 15 * a.size
    return acc_val, evals


def _lifshitz(kind: str, z: float, prefactor: float, m1, m2, tol: float,
              xi_floor_ev: float) -> LifshitzResult:
    """prefactor * integral of u^n K(u) du over all frequencies.

    Raises ConvergenceError with the scaled partial result attached when
    the frequency quadrature runs out of budget.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    eps1 = _surface_eps(m1)
    eps2 = _surface_eps(m2)
    e_scale = HBARC_EV_M / (2.0 * z)  # photon energy per unit u, eV
    inner_rtol = tol / 20.0
    power = 3 if kind == "pressure" else 2
    evals = 0

    def h(u_arr: np.ndarray) -> np.ndarray:
        nonlocal evals
        out = np.empty_like(u_arr)
        for i, u in enumerate(u_arr):
            xi_ev = max(u * e_scale, xi_floor_ev)
            e1 = -1.0 if eps1 is None else eps1(xi_ev)
            e2 = -1.0 if eps2 is None else eps2(xi_ev)
            val, ev = _inner_integral(kind, u, e1, e2, inner_rtol)
            evals += ev
            out[i] = u**power * val
        return out

    # March log-spaced edges upward until the integrand falls below the
    # running peak by _PEAK_CUTOFF; the tail beyond is exponentially dead.
    edges = [0.0, _U_START]
    peak = 0.0
    u_edge = _U_START
    while u_edge < _U_HARD_MAX:
        probe = abs(float(h(np.array([u_edge]))[0]))
        peak = max(peak, probe)
        if u_edge >= 16.0 and probe < _PEAK_CUTOFF * peak:
            break
        u_edge *= 2.0
        edges.append(u_edge)

    try:
        quad = adaptive_quadrature(h, edges, rel_tol=0.5 * tol)
    except ConvergenceError as exc:
        partial = exc.partial
        rel = partial.error / max(abs(partial.value), 1e-300) + 1.25 * inner_rtol
        raise ConvergenceError(
            str(exc), partial=LifshitzResult(prefactor * partial.value, rel, evals)
        ) from None
    rel_err = quad.error / max(abs(quad.value), 1e-300) + 1.25 * inner_rtol
    return LifshitzResult(prefactor * quad.value, rel_err, evals)


def pressure_plane_plane(z: float, m1, m2, tol: float = 1e-6,
                         xi_floor_ev: float = XI_FLOOR_EV) -> LifshitzResult:
    """Casimir pressure between two half-spaces at separation z (meters).

    Negative (attractive). ``m1``/``m2`` are DielectricModel instances or
    callables xi_ev -> eps; the result is symmetric under their exchange.
    Raises ConvergenceError (with the partial LifshitzResult attached) if
    the quadrature budget is exhausted before reaching ``tol``.
    """
    if not z > 0:
        raise DomainError("separation must be > 0")
    prefactor = -CODATA.hbar * CODATA.c / (32.0 * math.pi**2 * z**4)
    return _lifshitz("pressure", z, prefactor, m1, m2, tol, xi_floor_ev)


def force_sphere_plane(z: float, radius: float, m1, m2, tol: float = 1e-6,
                       xi_floor_ev: float = XI_FLOOR_EV) -> LifshitzResult:
    """Casimir force on a sphere of given radius above a plane (Newtons).

    Negative (attractive); proximity-force form, valid for z << radius.
    """
    if not radius > 0:
        raise DomainError("sphere radius must be > 0")
    if not z > 0:
        raise DomainError("separation must be > 0")
    # The inner logarithms are negative, so the positive prefactor keeps
    # the force attractive.
    prefactor = CODATA.hbar * CODATA.c * radius / (16.0 * math.pi * z**3)
    return _lifshitz("force", z, prefactor, m1, m2, tol, xi_floor_ev)


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
