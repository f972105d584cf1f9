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
sphere radius R and the roughness contact offset delta0. The fit is this
module's ``least_squares``, MINPACK's Levenberg-Marquardt algorithm
(Moré 1978) on a four-column SVD.

The series is summed a block of terms at a time: one NumPy step evaluates
the terms of many (n, u) pairs and accumulates them along n in the same
order as a term-by-term loop, so the sums match that loop bit for bit.
The first block is sized from the predicted last term of the slowest
column (``_first_rows``), so a pass is usually one block; a block that
falls short is followed by blocks of twice its rows.
The same pass sums the slope dS/du from the same exponentials, and the
same routine gives the truncation report its partial sums. S(u) depends
on R and delta0 only: the fit sums it once per trial point over the
distinct gaps of the sweep, takes its Jacobian analytically from S and
dS/du of that point, and the sample generator sums it once for all
voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
# Blocks of the series hold at most _BLOCK_ENTRIES (n, u) terms. The first
# holds the rows n that the slowest column is predicted to need
# (``_first_rows``), so a series that converges in a few terms (wide gaps)
# is not charged a full block and a slow one is not split into many; a
# block that falls short is followed by blocks of twice its rows.
_BLOCK_ENTRIES = 8_192

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


def _first_rows(u_min: float, series_tol: float, max_rows: int) -> int:
    """Rows n the series is predicted to need at its smallest u, at most
    max_rows.

    For large n a term is about 2 (n - coth u) e^(-nu) = (2/u)(x - 1) e^(-x)
    with x = nu and coth u ~ 1/u, and S(u) ~ 1/u^2 for small u, so the last
    term sits near the root x >= 2 of (x - 1) e^(-x) = c = tol / (2u); the
    step x <- ln((x - 1) / c) climbs to it. One row past ceil(x / u) covers
    S lying a little below 1/u^2. Above u ~ 3, S lies far below it and the
    first block falls short.
    """
    c = series_tol / (2.0 * u_min)
    x = 2.0  # (x - 1) e^(-x) peaks at x = 2
    for _ in range(8):
        x = max(2.0, math.log(x - 1.0) - math.log(c))
    return int(min(x / u_min + 2.0, max_rows))


def _series_partials(u: np.ndarray, series_tol: float,
                     max_terms: int = MAX_SERIES_TERMS):
    """Partial sums of S(u) = sum_n [n coth(nu) - coth u]/sinh(nu) and of
    its slope dS/du, by block.

    Each step evaluates a block of terms at once, rows n and columns u,
    and accumulates it with ``cumsum`` along n from the previous block's
    total. Yields ``(n, partial)`` per block, ``partial[i]`` being the
    sums (S, dS/du) through term ``n[i]``, shape (rows, 2, u.size); the
    last block ends at the first row n >= 2 whose S term is within
    series_tol of its partial sum for every u. Each element is summed term
    by term in the order of the one-term-at-a-time loop, so results match
    it exactly. With c = coth and s = csch, the slope of a term comes from
    the same exponentials:

        d/du [(n c_n - c_1) s_n] = s_n [s_1^2 - n^2 s_n^2 - n c_n (n c_n - c_1)].
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if np.any(u <= 0):
        raise DomainError("gap parameter u must be > 0")
    coth_u = _coth_stable(u)
    csch2_u = _inv_sinh_stable(u) ** 2
    max_rows = max(1, _BLOCK_ENTRIES // max(u.size, 1))
    rows = _first_rows(float(u.min()), series_tol, max_rows) if u.size else 1
    total = np.zeros((2, u.size))
    first = 1
    while first <= max_terms:
        n = np.arange(first, min(first + rows, max_terms + 1), dtype=float)
        nu = n[:, None] * u
        n_coth = n[:, None] * _coth_stable(nu)
        csch = _inv_sinh_stable(nu)
        term = (n_coth - coth_u) * csch
        block = np.empty((n.size + 1, 2, u.size))
        block[0], block[1:, 0] = total, term
        block[1:, 1] = csch * (csch2_u - (n[:, None] * csch) ** 2 - n_coth * (n_coth - coth_u))
        partial = np.cumsum(block, axis=0)[1:]
        # The n = 1 term is identically zero; start testing after it.
        done = (n >= 2) & np.all(term <= series_tol * np.maximum(partial[:, 0], 1e-300),
                                 axis=1)
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


def _series_sums(u: np.ndarray, series_tol: float,
                 max_terms: int = MAX_SERIES_TERMS) -> np.ndarray:
    """Image-charge sum S(u) = sum_n [n coth(nu) - coth u]/sinh(nu) and its
    slope dS/du, as rows of a (2, *u.shape) array.

    Vectorized over u and over blocks of terms n (``_series_partials``);
    stops at the first term of S below series_tol of its partial sum for
    every element, bit for bit as a one-term-at-a-time loop would.
    """
    u = np.asarray(u, dtype=float)
    for _, partial in _series_partials(u, series_tol, max_terms):
        pass
    return partial[-1].copy().reshape(2, *u.shape)


def _series_sum(u: np.ndarray, series_tol: float,
                max_terms: int = MAX_SERIES_TERMS) -> np.ndarray:
    """Image-charge sum S(u) alone (``_series_sums``)."""
    return _series_sums(u, series_tol, max_terms)[0]


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
    """Image-charge sum S(u) at each metal gap and its derivatives in R
    and delta0, as rows (S, dS/dR, dS/ddelta0). They depend on (R, delta0)
    only, so the force at any voltage is ``_force_model(v, v0, s)``.

    With g = z + 2 delta0 and cosh u = 1 + g/R, du/dR = -g/(R^2 sinh u)
    and du/ddelta0 = 2/(R sinh u).
    """
    gap = z_metal + 2.0 * delta0
    if np.any(gap <= 0) or radius <= 0:
        raise DomainError("force model needs positive gap and radius")
    rho = gap / radius
    s, ds_du = _series_sums(np.arccosh(1.0 + rho), series_tol)
    ds_dg = ds_du / (radius * np.sqrt(rho * (2.0 + rho)))  # sinh u = sqrt(rho (2 + rho))
    return np.stack((s, -rho * ds_dg, 2.0 * ds_dg))


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
                    for ni, si in zip(n[:max_rows - len(rows)], partial[:, 0, 0]))
    n_last, force = int(n[-1]), pref * float(partial[-1, 0, 0])
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


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX_NFEV_MESSAGE = "The maximum number of function evaluations is exceeded."
# Fit parameters (k, V0, R, delta0) that the residuals take as |x|.
_FOLDED = np.array([True, False, True, True])
# The calibration fit stops once a step changes chi^2 by less than this.
# With the pooled sigma^2 = 2 cost / ndof, chi^2 = ndof at the minimum, so
# MINPACK's relative cost reduction r is a chi^2 change of r ndof and
# ftol = _CHI2_STOP / ndof. A displacement dx changes chi^2 by
# dx^T C^-1 dx there, so 1e-6 is about 1e-3 sigma.
_CHI2_STOP = 1e-6


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of ``least_squares``; ``jac`` is taken at ``x``."""

    x: np.ndarray
    cost: float          # 0.5 * |fun(x)|^2
    jac: np.ndarray
    nfev: int            # residual calls
    success: bool
    message: str


def _lm_parameter(sv: np.ndarray, g: np.ndarray, delta: float, par: float):
    """MINPACK ``lmpar`` on the SVD J D^-1 = U diag(sv) V^T, g = U^T f.

    The scaled step D p = -V w, w = sv g / (sv^2 + par), has a closed form
    for any damping par. Returns (par, w) with par = 0 if the Gauss-Newton
    step is within 1.1 delta, else with |w| within 10% of delta, found by
    Moré's safeguarded Newton iteration on |w(par)| - delta.
    """
    sv2 = sv * sv
    nonsing = sv > 0
    w = np.zeros_like(g)
    w[nonsing] = g[nonsing] / sv[nonsing]
    dxnorm = np.linalg.norm(w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    # d|w|/dpar = -sum(w^2 / (sv^2 + par)) / |w|: Newton bounds and steps.
    parl = 0.0
    if nonsing.all():
        parl = fp / (delta * np.sum(w * w / sv2) / dxnorm**2)
    gnorm = np.linalg.norm(sv * g)
    paru = gnorm / delta
    par = min(max(par, parl), paru)
    if par == 0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0:
            par = max(_TINY, 1e-3 * paru)
        w = sv * g / (sv2 + par)
        dxnorm = np.linalg.norm(w)
        prev, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0 and fp <= prev < 0) or it == 10:
            break
        parc = fp / (delta * np.sum(w * w / (sv2 + par)) / dxnorm**2)
        if fp > 0:
            parl = max(parl, par)
        elif fp < 0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, w


def least_squares(fun, x0, *, jac, xtol: float, ftol: float,
                  gtol: float, max_nfev: int) -> LeastSquaresResult:
    """Minimise 0.5 |fun(x)|^2 by Levenberg-Marquardt, as MINPACK ``lmder``.

    Moré (1978): the variables are scaled by D, the running maximum of the
    Jacobian's column norms; the trust radius starts at 100 |D x0| and
    follows MINPACK's update from the ratio of actual to predicted
    reduction; the damping comes from ``_lm_parameter``. Stops when the
    relative reduction is within ``ftol`` (actual and predicted), the
    trust radius within ``xtol`` of |D x|, or the scaled gradient cosine
    within ``gtol`` (tolerances below machine epsilon count as epsilon).
    ``jac(x)`` returns the Jacobian of ``fun`` at x; it is called at the
    start and after each accepted step, always right after ``fun`` at the
    same x. ``nfev`` counts the calls of ``fun``, and at ``max_nfev`` of
    them the fit gives up (``success`` False).
    """
    ftol, xtol, gtol = (max(t, _EPS) for t in (ftol, xtol, gtol))
    x = np.array(x0, dtype=float)
    f = np.asarray(fun(x), dtype=float)
    nfev, fnorm, par, diag, message = 1, np.linalg.norm(f), 0.0, None, None
    while message is None:
        jac_x = np.asarray(jac(x), dtype=float)
        colnorm = np.linalg.norm(jac_x, axis=0)
        if diag is None:
            diag = np.where(colnorm == 0, 1.0, colnorm)
            xnorm = np.linalg.norm(diag * x)
            delta = 100.0 * xnorm or 100.0
            first = True
        live = colnorm != 0
        gnorm = 0.0
        if fnorm and live.any():
            gnorm = float(np.max(np.abs(jac_x.T @ f)[live] / colnorm[live])) / fnorm
        if gnorm <= gtol:
            message = "`gtol` termination condition is satisfied."
            break
        diag = np.maximum(diag, colnorm)
        u, sv, vt = np.linalg.svd(jac_x / diag, full_matrices=False)
        g = u.T @ f
        while True:
            par, w = _lm_parameter(sv, g, delta, par)
            step = -(vt.T @ w) / diag
            pnorm = np.linalg.norm(w)
            if first:
                delta = min(delta, pnorm)
            x_new = x + step
            f_new = np.asarray(fun(x_new), dtype=float)
            nfev += 1
            fnorm_new = np.linalg.norm(f_new)
            actred = 1.0 - (fnorm_new / fnorm) ** 2 if 0.1 * fnorm_new < fnorm else -1.0
            temp1 = np.linalg.norm(sv * w) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1**2 + 2.0 * temp2**2
            dirder = -(temp1**2 + temp2**2)
            ratio = actred / prered if prered else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm_new >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0 or ratio >= 0.75:
                delta = 2.0 * pnorm
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, f, fnorm, first = x_new, f_new, fnorm_new, False
                xnorm = np.linalg.norm(diag * x)
            f_conv = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1
            x_conv = delta <= xtol * xnorm
            if f_conv or x_conv:
                message = ("Both `ftol` and `xtol` termination conditions are satisfied."
                           if f_conv and x_conv else
                           "`ftol` termination condition is satisfied." if f_conv else
                           "`xtol` termination condition is satisfied.")
            elif nfev >= max_nfev:
                message = _MAX_NFEV_MESSAGE
            if message is not None:
                if accepted:
                    jac_x = np.asarray(jac(x), dtype=float)
                break
            if accepted:
                break
    return LeastSquaresResult(
        x=x, cost=0.5 * float(f @ f), jac=jac_x, nfev=nfev,
        success=message != _MAX_NFEV_MESSAGE, message=message,
    )


@np.errstate(all="ignore")  # overflow is raised below as DomainError
def calibrate(samples: Sequence[CalibrationSample],
              initial_guess: tuple[float, float, float, float]) -> CalibrationFit:
    """Least-squares recovery of (k, V0, R, delta0) from voltage sweeps.

    Minimizes sum [dC_i - F(z_i, V_i; V0, R, delta0) / k]^2 in units of
    the initial guess with ``least_squares`` (Levenberg-Marquardt with the
    analytic Jacobian, at most 4,000 residual evaluations, else FitError).
    Each trial point sums the series once, over the distinct gaps only;
    the same pass gives dS/du for the R and delta0 columns, so a Jacobian
    costs no series work. The covariance is the pooled 2 cost / (n - 4)
    times (J^T J)^-1, taken from the SVD of J. Requires at least 4 samples
    spanning at least 2 distinct applied voltages; a single-voltage design
    leaves k and (V - V0)^2 degenerate.

    The fit stops at the noise, once a step changes chi^2 by less than
    1e-6: with the pooled variance, chi^2 = 2 cost / sigma^2 equals
    ndof = n - 4 at the minimum, so a relative cost reduction r is a chi^2
    change of r ndof, and ftol = 1e-6 / ndof. A chi^2 change of 1e-6 is
    a displacement of about 1e-3 sigma. Residuals, cost, Jacobian or
    covariance that overflow raise DomainError.
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
    if x0.shape != (4,) or not np.all(np.isfinite(x0)):
        raise DomainError("initial_guess must be finite (k, v0, radius, delta0)")

    # Parameters span ~12 orders of magnitude; fit in units of the guess,
    # floored at a natural unit per parameter so zero guesses stay scaled.
    scale = np.maximum(np.abs(x0), [1.0, 1e-2, 1e-6, 1e-9])
    # Each sweep repeats its gaps at every voltage: sum the series once per
    # distinct gap (the sums are per column, so this is bit-exact).
    z_gaps, gap_of = np.unique(z, return_inverse=True)
    last: list = [None, None]  # latest (|R|, |delta0|) and its _series_at rows

    def model(y):
        """|k|, V0 and the sample rows (F, dF/dR, dF/ddelta0) at scaled y.
        Exploratory steps may go unphysical; they are folded back smoothly."""
        k, v0, radius, delta0 = y * scale
        geom = (max(abs(radius), 1e-30), abs(delta0))
        if geom != last[0]:
            last[:] = geom, _series_at(z_gaps, *geom)
        return max(abs(k), 1e-30), v0, _force_model(v, v0, last[1][:, gap_of])

    def residuals(y):
        # Residuals live in measurement (dC) space: the force-space form
        # k*dC - F has a spurious exact minimum at k = R = 0.
        k, _, forces = model(y)
        r = dc - forces[0] / k
        if not math.isfinite(r @ r):
            raise DomainError("calibration cost is not finite: a dC residual "
                              "or the sum of their squares overflows")
        return r

    def jacobian(y):
        k, v0, forces = model(y)
        # The folds |k|, |R| and |delta0| contribute sign(x), +1 at x = 0.
        sign = np.where((y < 0) & _FOLDED, -1.0, 1.0)
        s = last[1][0, gap_of]
        cols = (forces[0] / k**2, 4.0 * math.pi * CODATA.eps0 * (v - v0) * s / k,
                -forces[1] / k, -forces[2] / k)
        jac_y = np.column_stack(cols) * (sign * scale)
        if not np.isfinite(jac_y).all():
            raise DomainError("calibration Jacobian is not finite: a dC derivative overflows")
        return jac_y

    ndof = max(len(samples) - 4, 1)
    res = least_squares(
        residuals,
        x0 / scale,
        jac=jacobian,
        xtol=1e-15,
        ftol=_CHI2_STOP / ndof,
        gtol=1e-15,
        max_nfev=4000,
    )
    if not res.success:
        raise FitError(f"calibration fit did not converge: {res.message}")

    _, sv, vt = np.linalg.svd(res.jac, full_matrices=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        raise IdentifiabilityError(
            f"calibration design is rank-deficient (condition {sv[0] / max(sv[-1], 1e-300):.2e})"
        )

    sigma2 = 2.0 * res.cost / ndof
    cov_scaled = sigma2 * (vt.T / sv**2) @ vt
    cov = cov_scaled * np.outer(scale, scale)
    cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise DomainError("calibration covariance is not finite: the dC residuals are out of range")
    k, v0, radius, delta0 = res.x * scale
    k = float(abs(k))
    return CalibrationFit(
        k=k,
        v0=float(v0),
        radius=float(abs(radius)),
        delta0=float(abs(delta0)),
        covariance=cov,
        # The force residual k dC - F is k times the fitted dC residual.
        residual_rms=k * math.sqrt(2.0 * res.cost / len(samples)),
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
    s = _series_at(np.asarray(z_grid, dtype=float), radius, delta0)[0]
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
