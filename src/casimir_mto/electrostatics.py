"""Exact sphere-plane electrostatics and system calibration.

A conducting sphere at potential difference V above a grounded plane
feels the attraction

    F = 2 pi eps0 V^2 sum_{n>=1} [coth u - n coth(n u)] / sinh(n u),
    cosh u = 1 + d / R,

with d the surface gap (image-charge series; the n = 1 term vanishes).
This module reports the attraction magnitude, which is how the
calibration uses it; signed force bookkeeping lives with the oscillator.

Sweeping applied voltage and separation while recording the capacitance
imbalance dC calibrates four system constants at once: the force-per-
capacitance factor k (F = k dC), the residual contact potential V0, the
sphere radius R and the roughness contact offset delta0.

The series is summed a block of terms at a time: one NumPy step evaluates
the terms of many (n, u) pairs and accumulates them along n in the same
order as a term-by-term loop, so the sums match that loop bit for bit.
The same routine gives the truncation report its partial sums. S(u)
depends on R and delta0 only, so the fit reuses the last sum when a step
moves only k or V0 (the Jacobian's k and V0 columns), and the sample
generator sums it once for all voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .constants import CODATA
from .errors import (
    ConvergenceError,
    DomainError,
    FitError,
    IdentifiabilityError,
    ValidationError,
)
from .lifshitz import SpherePlaneGeometry

MAX_SERIES_TERMS = 100_000
# Blocks of the series hold at most _BLOCK_ENTRIES (n, u) terms. They
# start at _FIRST_ROWS values of n and double, so a series that converges
# in a few terms (wide gaps) is not charged a full block.
_BLOCK_ENTRIES = 8_192
_FIRST_ROWS = 16

# Small-gap expansion of the series, rho = d/R:
#   F = (pi eps0 V^2 R / d) * [1 + rho ((1/3) ln rho + C1) + O(rho^2 ln^2 rho)]
# The 1/3 is the exact log coefficient; C1 is frozen from a high-precision
# evaluation of the series at rho -> 0.
SMALL_GAP_LOG_COEFF = 1.0 / 3.0
SMALL_GAP_C1 = -0.505


@dataclass(frozen=True)
class ElectrostaticConfig:
    """Inputs of one electrostatic evaluation.

    ``geometry.separation`` is the metal gap z_metal; the electrostatic
    gap is z_metal + 2*delta0. ``series_tol`` is the relative term size at
    which the image-charge series stops.
    """

    v_applied: float
    v_residual: float
    geometry: SpherePlaneGeometry
    series_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.series_tol <= 1e-6:
            raise ValidationError("series_tol must lie in (0, 1e-6]")

    @property
    def gap(self) -> float:
        return self.geometry.separation + 2.0 * self.geometry.delta0


def _coth_stable(x: np.ndarray) -> np.ndarray:
    e = np.exp(-2.0 * x)
    return (1.0 + e) / (1.0 - e)


def _inv_sinh_stable(x: np.ndarray) -> np.ndarray:
    e = np.exp(-x)
    return 2.0 * e / (1.0 - e * e)


def _series_partials(u: np.ndarray, series_tol: float,
                     max_terms: int = MAX_SERIES_TERMS):
    """Partial sums of S(u) = sum_n [n coth(nu) - coth u]/sinh(nu), by block.

    Each step evaluates a block of terms at once, rows n and columns u,
    and accumulates it with ``cumsum`` along n from the previous block's
    total. Yields ``(n, partial)`` per block, ``partial[i]`` being the sum
    through term ``n[i]``; the last block ends at the first row n >= 2
    whose term is within series_tol of its partial sum for every u. Each
    element is summed term by term in the order of the one-term-at-a-time
    loop, so results match it exactly.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if np.any(u <= 0):
        raise DomainError("gap parameter u must be > 0")
    coth_u = _coth_stable(u)
    max_rows = max(1, _BLOCK_ENTRIES // max(u.size, 1))
    rows = min(_FIRST_ROWS, max_rows)
    total = np.zeros_like(u)
    first = 1
    while first <= max_terms:
        n = np.arange(first, min(first + rows, max_terms + 1), dtype=float)
        nu = n[:, None] * u
        term = (n[:, None] * _coth_stable(nu) - coth_u) * _inv_sinh_stable(nu)
        partial = np.cumsum(np.vstack((total, term)), axis=0)[1:]
        # The n = 1 term is identically zero; start testing after it.
        done = (n >= 2) & np.all(term <= series_tol * np.maximum(partial, 1e-300), axis=1)
        if done.any():
            stop = int(np.argmax(done)) + 1
            yield n[:stop], partial[:stop]
            return
        yield n, partial
        total = partial[-1]
        first += rows
        rows = min(2 * rows, max_rows)
    raise ConvergenceError(
        f"image-charge series not converged after {max_terms} terms "
        f"(min u = {u.min():.3e})"
    )


def _series_sum(u: np.ndarray, series_tol: float,
                max_terms: int = MAX_SERIES_TERMS) -> np.ndarray:
    """Image-charge sum S(u) = sum_n [n coth(nu) - coth u]/sinh(nu).

    Vectorized over u and over blocks of terms n (``_series_partials``);
    stops at the first term below series_tol of the partial sum for every
    element, bit for bit as a one-term-at-a-time loop would.
    """
    u = np.asarray(u, dtype=float)
    for _, partial in _series_partials(u, series_tol, max_terms):
        pass
    return partial[-1].copy().reshape(u.shape)


def electrostatic_force(cfg: ElectrostaticConfig) -> float:
    """Attraction magnitude (N) between sphere and plane, exact series.

    Zero exactly when the applied voltage matches the residual potential.
    """
    dv = cfg.v_applied - cfg.v_residual
    if dv == 0.0:
        return 0.0
    gap = cfg.gap
    if not gap > 0:
        raise DomainError("electrostatic gap must be > 0")
    u = math.acosh(1.0 + gap / cfg.geometry.radius)
    s = float(_series_sum(np.array([u]), cfg.series_tol)[0])
    return 2.0 * math.pi * CODATA.eps0 * dv * dv * s


def _series_at(z_metal: np.ndarray, radius: float, delta0: float,
               series_tol: float = 1e-10) -> np.ndarray:
    """Image-charge sum S(u) at each metal gap; it depends on (R, delta0)
    only, so the force at any voltage is ``_force_model(v, v0, s)``."""
    gap = z_metal + 2.0 * delta0
    if np.any(gap <= 0) or radius <= 0:
        raise DomainError("force model needs positive gap and radius")
    u = np.arccosh(1.0 + gap / radius)
    return _series_sum(u, series_tol)


def _force_model(v_applied: np.ndarray, v0: float, s: np.ndarray) -> np.ndarray:
    """Series force over calibration samples from their sums S(u)."""
    return 2.0 * math.pi * CODATA.eps0 * (v_applied - v0) ** 2 * s


def small_gap_force(d: float, radius: float, v_diff: float,
                    orders: int = 1) -> float:
    """Truncated small-gap expansion of the series force.

    ``orders=1`` is the parallel-plate-like leading term
    pi eps0 V^2 R / d; ``orders=2`` adds the logarithmic first
    correction (coefficients above).
    """
    if orders not in (1, 2):
        raise DomainError("orders must be 1 or 2")
    lead = math.pi * CODATA.eps0 * v_diff**2 * radius / d
    if orders == 1:
        return lead
    rho = d / radius
    return lead * (1.0 + rho * (SMALL_GAP_LOG_COEFF * math.log(rho) + SMALL_GAP_C1))


@dataclass(frozen=True)
class TruncationReport:
    """Convergence diagnostics of the series and its small-gap expansion."""

    gap_ratio: float
    terms: tuple[tuple[int, float], ...]   # (n, partial force sum in N)
    force: float
    expansion_rel_error: dict[int, float]  # orders kept -> relative error
    orders_for_0p1pct: int | None          # smallest order count within 0.1%


def series_truncation_report(cfg: ElectrostaticConfig,
                             max_rows: int = 64) -> TruncationReport:
    """Tabulate the partial sums of the series and rate the expansion.

    Identifies how many orders of the small-gap (d/R) expansion reach
    0.1% of the converged series (None if two are not enough).
    """
    dv = cfg.v_applied - cfg.v_residual
    gap = cfg.gap
    if not gap > 0:
        raise DomainError("electrostatic gap must be > 0")
    radius = cfg.geometry.radius
    u = math.acosh(1.0 + gap / radius)
    pref = 2.0 * math.pi * CODATA.eps0 * dv * dv

    rows: list[tuple[int, float]] = []
    for n, partial in _series_partials(np.array([u]), cfg.series_tol):
        rows.extend((int(ni), pref * float(si))
                    for ni, si in zip(n[:max_rows - len(rows)], partial[:, 0]))
    n_last, force = int(n[-1]), pref * float(partial[-1, 0])
    if rows[-1][0] != n_last:
        rows.append((n_last, force))

    errors: dict[int, float] = {}
    for k in (1, 2):
        approx = small_gap_force(gap, radius, dv, orders=k)
        errors[k] = abs(approx - force) / abs(force) if force else 0.0
    orders = next((k for k in (1, 2) if errors[k] <= 1e-3), None)
    return TruncationReport(
        gap_ratio=gap / radius,
        terms=tuple(rows),
        force=force,
        expansion_rel_error=errors,
        orders_for_0p1pct=orders,
    )


@dataclass(frozen=True)
class CalibrationSample:
    """One calibration record: metal gap (m), applied voltage (V),
    capacitance imbalance (F)."""

    z_metal: float
    v_applied: float
    delta_c: float

    def __post_init__(self):
        if not (math.isfinite(self.z_metal) and math.isfinite(self.v_applied)
                and math.isfinite(self.delta_c)):
            raise ValidationError("calibration sample fields must be finite")
        if not self.z_metal > 0:
            raise ValidationError("z_metal must be > 0")


@dataclass(frozen=True)
class CalibrationFit:
    """Fitted system constants with covariance from the Jacobian."""

    k: float            # N/F
    v0: float           # V
    radius: float       # m
    delta0: float       # m
    covariance: np.ndarray
    residual_rms: float  # N

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if not self.k > 0:
            raise ValidationError("fitted k must be > 0")
        if not self.radius > 0:
            raise ValidationError("fitted radius must be > 0")
        if self.delta0 < 0:
            raise ValidationError("fitted delta0 must be >= 0")
        if cov.shape != (4, 4):
            raise ValidationError("covariance must be 4x4")
        if not np.allclose(cov, cov.T, rtol=1e-8, atol=0):
            raise ValidationError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(0.5 * (cov + cov.T)) < -1e-12 * max(np.abs(cov).max(), 1e-300)):
            raise ValidationError("covariance must be positive semi-definite")

    def uncertainties(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def calibrate(samples: Sequence[CalibrationSample],
              initial_guess: tuple[float, float, float, float]) -> CalibrationFit:
    """Least-squares recovery of (k, V0, R, delta0) from voltage sweeps.

    Minimizes sum [k dC_i - F(z_i, V_i; V0, R, delta0)]^2 with a
    numerically differentiated Jacobian (relative step 1e-6). Requires at
    least 4 samples spanning at least 2 distinct applied voltages; a
    single-voltage design leaves k and (V - V0)^2 degenerate.
    """
    if len(samples) < 4:
        raise IdentifiabilityError("need at least 4 calibration samples")
    z = np.array([s.z_metal for s in samples])
    v = np.array([s.v_applied for s in samples])
    dc = np.array([s.delta_c for s in samples])
    if np.unique(v).size < 2:
        raise IdentifiabilityError(
            "all samples share one applied voltage; k and V0 are degenerate"
        )

    x0 = np.asarray(initial_guess, dtype=float)
    if x0.shape != (4,):
        raise DomainError("initial_guess must be (k, v0, radius, delta0)")

    # Parameters span ~12 orders of magnitude; fit in units of the guess,
    # floored at a natural unit per parameter so zero guesses stay scaled.
    scale = np.maximum(np.abs(x0), [1.0, 1e-2, 1e-6, 1e-9])
    last: list = [None, None]  # latest (|R|, |delta0|) and its S(u)

    def residuals(y):
        k, v0, radius, delta0 = y * scale
        # Residuals live in measurement (dC) space: the force-space form
        # k*dC - F has a spurious exact minimum at k = R = 0. Exploratory
        # steps may go unphysical; fold them back smoothly.
        geom = (max(abs(radius), 1e-30), abs(delta0))
        # S(u) depends on (R, delta0) only: the Jacobian's k and V0 steps
        # reuse the sum of the point they step from.
        if geom != last[0]:
            last[:] = geom, _series_at(z, *geom)
        model = _force_model(v, v0, last[1])
        return dc - model / max(abs(k), 1e-30)

    res = least_squares(
        residuals,
        x0 / scale,
        method="lm",
        diff_step=1e-6,
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=4000,
    )
    if not res.success:
        raise FitError(f"calibration fit did not converge: {res.message}")

    jac_scaled = res.jac
    sv = np.linalg.svd(jac_scaled, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        raise IdentifiabilityError(
            f"calibration design is rank-deficient (condition {sv[0] / max(sv[-1], 1e-300):.2e})"
        )

    ndof = max(len(samples) - 4, 1)
    sigma2 = 2.0 * res.cost / ndof
    cov_scaled = sigma2 * np.linalg.inv(jac_scaled.T @ jac_scaled)
    cov = cov_scaled * np.outer(scale, scale)
    cov = 0.5 * (cov + cov.T)
    k, v0, radius, delta0 = res.x * scale
    k = float(abs(k))
    radius = float(abs(radius))
    delta0 = float(abs(delta0))
    force_residuals = k * dc - _force_model(v, float(v0), _series_at(z, radius, delta0))
    return CalibrationFit(
        k=k,
        v0=float(v0),
        radius=radius,
        delta0=delta0,
        covariance=cov,
        residual_rms=float(np.sqrt(np.mean(force_residuals**2))),
    )


def estimate_v0(samples: Sequence[CalibrationSample]) -> float:
    """Prior for V0: the applied voltage with the smallest mean |dC|."""
    v = np.array([s.v_applied for s in samples])
    dc = np.abs([s.delta_c for s in samples])
    volts = np.unique(v)
    means = np.array([dc[v == vi].mean() for vi in volts])
    return float(volts[np.argmin(means)])


def make_calibration_samples(
    k: float,
    v0: float,
    radius: float,
    delta0: float,
    z_grid: Sequence[float],
    voltages: Sequence[float],
    noise_rel: float = 0.0,
    seed: int | None = None,
) -> list[CalibrationSample]:
    """Synthesize a calibration sweep from known system constants.

    ``noise_rel`` perturbs each dC reading by a Gaussian of that relative
    width (the capacitance bridge resolution).
    """
    rng = np.random.default_rng(seed)
    s = _series_at(np.asarray(z_grid, dtype=float), radius, delta0)
    out = []
    for vi in voltages:
        f = _force_model(np.full(len(z_grid), float(vi)), v0, s)
        dc = f / k
        if noise_rel:
            dc = dc * (1.0 + noise_rel * rng.standard_normal(dc.size))
        out.extend(
            CalibrationSample(float(zi), float(vi), float(ci))
            for zi, ci in zip(z_grid, dc)
        )
    return out
