"""Adaptive panel quadrature on (semi-)finite intervals.

A 15-point Gauss--Kronrod rule is applied to an initial list of panel
edges; the worst panel is bisected until the summed error estimate meets
the requested relative tolerance. Integrands must accept a NumPy array of
abscissae and return an array of values, so one rule application costs a
single vectorized call.

This integrator backs the dispersion (Kramers--Kronig) transform in
``materials``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# Nodes/weights of the (G7, K15) pair on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# All 15 abscissae, negative to positive, with the Kronrod weights and the
# Gauss weights (zero on the Kronrod-only nodes).
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    evaluations: int


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One Gauss-Kronrod application; returns (kronrod, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    resk = half * float(np.dot(_WEIGHTS_K, y))
    resg = half * float(np.dot(_WEIGHTS_G, y))
    resabs = half * float(np.dot(_WEIGHTS_K, np.abs(y)))
    mean = resk / (b - a)
    resasc = half * float(np.dot(_WEIGHTS_K, np.abs(y - mean)))
    err = abs(resk - resg)
    # QUADPACK-style sharpening of the raw |K - G| estimate.
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    noise = 50.0 * np.finfo(float).eps * resabs
    return resk, max(err, noise)


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    rel_tol: float = 1e-8,
    max_panels: int = 4000,
) -> QuadResult:
    """Integrate ``f`` over the panels defined by ``edges``.

    Parameters
    ----------
    f : callable
        Vectorized integrand.
    edges : sequence of float
        Strictly increasing panel boundaries; the integral runs from
        ``edges[0]`` to ``edges[-1]``.
    rel_tol : float
        Target for (summed panel error) / |integral|.
    max_panels : int
        Bisection budget; exhausting it raises ConvergenceError with the
        partial QuadResult attached.
    """
    edges = list(edges)
    if len(edges) < 2:
        raise ValueError("need at least two panel edges")
    heap = []  # (-error, a, b, value)
    total = 0.0
    total_err = 0.0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        if not b > a:
            raise ValueError("panel edges must be strictly increasing")
        v, e = _gk15(f, a, b)
        evals += 15
        total += v
        total_err += e
        heapq.heappush(heap, (-e, a, b, v))

    while total_err > rel_tol * max(abs(total), 1e-300):
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature did not reach rel_tol={rel_tol:g} within "
                f"{max_panels} panels (reached {total_err / max(abs(total), 1e-300):.2e})",
                partial=QuadResult(total, total_err, evals),
            )
        neg_e, a, b, v = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Panel at floating-point resolution; keep its estimate.
            heapq.heappush(heap, (np.nextafter(neg_e, 0.0), a, b, v))
            break
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        evals += 30
        total += v1 + v2 - v
        total_err += e1 + e2 - (-neg_e)
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))

    return QuadResult(total, total_err, evals)


def geometric_edges(lo: float, hi: float, ratio: float = 2.0) -> list[float]:
    """Panel edges growing geometrically from ``lo`` to ``hi``."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    edges = [lo]
    x = lo
    while x * ratio < hi:
        x *= ratio
        edges.append(x)
    edges.append(hi)
    return edges
