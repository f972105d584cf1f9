"""Exact sphere-plane electrostatics and system calibration.

A conducting sphere at potential difference V above a grounded plane
feels the attraction

    F = 2 pi eps0 V^2 sum_{n>=1} [coth u - n coth(n u)] / sinh(n u),
    cosh u = 1 + d / R,

with d the surface gap (image-charge series; the n = 1 term vanishes).
u is formed as 2 asinh(sqrt(d / 2R)), without rounding d / R against 1.
This module reports the attraction magnitude, which is how the
calibration uses it; signed force bookkeeping lives with the oscillator.

Sweeping applied voltage and separation while recording the capacitance
imbalance dC calibrates four system constants at once: the force-per-
capacitance factor k (F = k dC), the residual contact potential V0, the
sphere radius R and the roughness contact offset delta0. The fit is this
module's ``least_squares``, MINPACK's Levenberg-Marquardt algorithm
(Moré 1978) on a four-column SVD.

The series is summed by Euler-Maclaurin (``_series_sums``): the first
terms directly, the rest as a closed-form integral plus end corrections
whose n-derivatives are polynomials in coth and csch. That is
exact to rounding for every gap, at a fixed cost of a few dozen NumPy
steps, and the same expressions give the slope dS/du. S(u) depends on R
and delta0 only: the fit sums it once per trial point over the distinct
gaps of the sweep, takes its Jacobian analytically from S and dS/du of
that point, and the sample generator sums it once for all voltages.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .constants import CODATA
from .errors import (
    DomainError,
    FitError,
    IdentifiabilityError,
    ValidationError,
)
from .lifshitz import SpherePlaneGeometry
from .records import Record

# Euler-Maclaurin: sum_{n >= N0} t(n) = int_N0^inf t dn - sum_m B_m/m! t^(m-1)(N0),
# m = 1, 2, 4, ..., 12 (these B_m/m!). t is analytic within pi/u of the real
# n axis and has a pole at n = 0, so the first omitted term is below 1e-17 of S.
_N0 = 16
_BERNOULLI = (-1 / 2, 1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)

# Small-gap expansion of the series, rho = d/R:
#   F = (pi eps0 V^2 R / d) * [1 + rho ((1/3) ln rho + C1) + O(rho^2 ln^2 rho)]
# The 1/3 is the exact log coefficient; C1 is the limit rho -> 0 of
# (2 rho S - 1)/rho - (1/3) ln rho, which a 30-digit evaluation puts at
# -0.504743, -0.504748 and -0.5047483 for rho = 1e-5, 1e-6 and 1e-7.
SMALL_GAP_LOG_COEFF = 1.0 / 3.0
SMALL_GAP_C1 = -0.50475


class ElectrostaticConfig(Record):
    """Inputs of one electrostatic evaluation.

    ``geometry.separation`` is the metal gap z_metal; the electrostatic
    gap is z_metal + 2*delta0.
    """

    v_applied: float
    v_residual: float
    geometry: SpherePlaneGeometry

    def __post_init__(self):
        if not (math.isfinite(self.v_applied) and math.isfinite(self.v_residual)):
            raise ValidationError("voltages must be finite")

    @property
    def gap(self) -> float:
        return self.geometry.separation + 2.0 * self.geometry.delta0


def _coth_csch(x: np.ndarray):
    """(coth x, csch x) to a few ulps for every x > 0."""
    e = np.exp(-x)
    csch = -2.0 * e / np.expm1(-2.0 * x)
    return 1.0 + e * csch, csch


@functools.cache
def _tables():
    """The Bernoulli corrections as polynomials, built on first use.

    In x = nu, the derivatives of g = coth x csch x and h = csch x are
    polynomials in c = coth x and s = csch x, as
    d/dx c^a s^b = -a c^(a-1) s^(b+2) - b c^(a+1) s^b; the j-th has only
    coefficients of sign (-1)^j. With b_m = B_m/m! and j = m - 1,
    d^j t/dn^j = n u^j g^(j) + j u^(j-1) g^(j-1) - coth u u^j h^(j), so the
    corrections at n = _N0 are P0 - coth u P1 and their u-slopes are
    P2 + csch^2 u P1 - coth u P3, where P0..P3 are polynomials in c, s (at
    x = _N0 u) and u: P0 = sum_m b_m [N0 u^j g^(j) + j u^(j-1) g^(j-1)],
    P1 = sum_m b_m u^j h^(j), and P2, P3 are the u-slopes of P0, P1.
    Returns the powers (a, b) of the monomials c^a s^b in use, the
    coefficients of P0..P3 over (P, u^i, monomial) and those of u^i in
    coth u - 1/u = sum_{m > 1} b_m 2^m u^(m-1).
    """
    size = 2 * len(_BERNOULLI) + 1  # powers 0 .. 14
    a, b, i = np.ogrid[:size, :size, :size]

    def d_dx(q):  # of sum q[..., a, b, i] c^a s^b u^i at fixed u
        out = np.zeros_like(q)
        out[..., :-1, 2:, :] -= (a * q)[..., 1:, :-2, :]
        out[..., 1:, :, :] -= (b * q)[..., :-1, :, :]
        return out

    weight = dict(zip((0, *range(1, size - 3, 2)), _BERNOULLI))  # j = m - 1 -> b_m
    langevin = np.zeros(size - 3)  # b_m 2^m at u^(m-1), m = 2, 4, .., 12
    langevin[1::2] = np.array(_BERNOULLI[1:]) * 2.0 ** np.arange(2, size - 2, 2)
    gh = np.zeros((2, size, size, size))  # (g, h), then (g^(j), h^(j))
    gh[0, 1, 1, 0] = gh[1, 0, 1, 0] = 1.0
    poly = np.zeros_like(gh)
    for j in range(size - 3):  # rolling the u axis by j multiplies by u^j
        g_j = (_N0 * weight.get(j, 0.0) + (j + 1) * weight.get(j + 1, 0.0)) * gh[0]
        poly += np.roll((g_j, weight.get(j, 0.0) * gh[1]), j, axis=-1)
        gh = d_dx(gh)
    poly = np.concatenate((poly, _N0 * d_dx(poly)))
    poly[2:, ..., :-1] += (i * poly[:2])[..., 1:]
    pa, pb = np.nonzero(poly.any(axis=(0, 3)))
    return pa, pb, poly[:, pa, pb, :size - 3].transpose(0, 2, 1).reshape(-1, pa.size), langevin


def _series_sums(u: np.ndarray) -> np.ndarray:
    """Image-charge sum S(u) = sum_n t(n), t(n) = (n coth(nu) - coth u)
    csch(nu), and its slope dS/du, as rows of a (2, u.size) array.

    Euler-Maclaurin (constants above), exact to rounding for every u > 0:
    the terms n < _N0, minus the corrections (``_tables``), plus the tail
    integral [_N0 csch a + ln tanh(a/2) (coth u - 1/u)] / u, a = _N0 u.
    The slope differentiates the same expressions in u; for the terms,
    with c = coth and s = csch,

        d/du [(n c_n - c_1) s_n] = s_n [s_1^2 - n^2 s_n^2 - n c_n (n c_n - c_1)].
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if np.any(u <= 0):
        raise DomainError("gap parameter u must be > 0")
    pa, pb, poly, langevin = _tables()
    n = np.arange(1.0, _N0 + 1.0)[:, None]
    c, s = _coth_csch(n * u)  # rows n = 1.._N0
    c1, s1, ca, sa = c[0], s[0], c[-1], s[-1]
    dn = n * c - c1
    out = np.stack((dn * s, s * (s1 * s1 - (n * s) ** 2 - (dn + c1) * dn)))[:, :-1].sum(axis=1)

    powers = np.empty((2 * len(_BERNOULLI) + 1, 3, u.size))  # c^k, s^k, u^k
    powers[0], powers[1:] = 1.0, (ca, sa, u)
    np.cumprod(powers, axis=0, out=powers)
    u_pow = powers[:langevin.size, 2]
    p0, p1, p2, p3 = ((poly @ (powers[pa, 0] * powers[pb, 1])).reshape(4, -1, u.size)
                      * u_pow).sum(axis=1)
    out[0] -= p0 - c1 * p1
    out[1] -= p2 + s1 * s1 * p1 - c1 * p3

    # coth u - 1/u (the Langevin function) by its series where it cancels;
    # ln tanh(a/2) = ln(coth a - csch a) cancels at small a, but by at most
    # eps/a^2, about eps/400 of S.
    inv_u = 1.0 / u
    lang = np.where(u < 0.25, langevin @ u_pow, c1 - inv_u)
    dlang = 1.0 - lang * (lang + 2.0 * inv_u)  # 1/u^2 - csch^2 u
    lnt = np.log(ca - sa)
    out[0] += (_N0 * sa + lnt * lang) * inv_u
    out[1] += (_N0 * sa * (lang - inv_u - _N0 * ca) + lnt * (dlang - lang * inv_u)) * inv_u
    return out


def _gap_u(gap, radius: float):
    """rho = gap/R and u = 2 asinh(sqrt(rho/2)) (cosh u = 1 + rho) per gap, with
    no rounding of rho against 1 (which costs up to 1.1e-16/rho relative). A
    gap with 1 + rho == 1 is rejected all the same: such gaps stay out of domain."""
    gap = np.asarray(gap, dtype=float)
    if not (np.all(gap > 0) and radius > 0):
        raise DomainError("electrostatic gap and sphere radius must be > 0")
    rho = gap / radius
    if np.any(1.0 + rho == 1.0):
        raise DomainError("electrostatic gap is below the resolution of 1 + gap/R")
    return rho, 2.0 * np.arcsinh(np.sqrt(0.5 * rho))


def _series_at(z_metal: np.ndarray, radius: float, delta0: float) -> np.ndarray:
    """Image-charge sum S(u) at each metal gap and its derivatives in R
    and delta0, as rows (S, dS/dR, dS/ddelta0). They depend on (R, delta0)
    only, so the force at any voltage is ``_force_model(v, v0, s)``.

    With g = z + 2 delta0 and cosh u = 1 + g/R, du/dR = -g/(R^2 sinh u)
    and du/ddelta0 = 2/(R sinh u).
    """
    rho, u = _gap_u(z_metal + 2.0 * delta0, radius)
    s, ds_du = _series_sums(u)
    ds_dg = ds_du / (radius * np.sqrt(rho * (2.0 + rho)))  # sinh u = sqrt(rho (2 + rho))
    return np.stack((s, -rho * ds_dg, 2.0 * ds_dg))


def _force_model(v_applied: np.ndarray, v0: float, s: np.ndarray) -> np.ndarray:
    """Series force over calibration samples from their sums S(u)."""
    return 2.0 * math.pi * CODATA.eps0 * (v_applied - v0) ** 2 * s


def electrostatic_force(cfg: ElectrostaticConfig) -> float:
    """Attraction magnitude (N) between sphere and plane, exact series.

    Zero exactly when the applied voltage matches the residual potential.
    """
    geom = cfg.geometry
    s = _series_at(np.array([geom.separation]), geom.radius, geom.delta0)[0]
    return float(_force_model(cfg.v_applied, cfg.v_residual, s)[0])


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


class TruncationReport(Record):
    """Convergence diagnostics of the series and its small-gap expansion."""

    gap_ratio: float
    terms: tuple[tuple[float, float], ...]  # (n, partial force sum in N); n = inf: all
    force: float
    expansion_rel_error: dict[int, float]  # orders kept -> relative error
    orders_for_0p1pct: int | None          # smallest order count within 0.1%


def series_truncation_report(cfg: ElectrostaticConfig,
                             max_rows: int = 64) -> TruncationReport:
    """Tabulate the partial sums of the series and rate the expansion.

    ``terms`` holds the force through each of the first ``max_rows`` terms
    and, as its last row (n = inf), the whole sum, which is ``force``.
    Identifies how many orders of the small-gap (d/R) expansion reach
    0.1% of the converged series (None if two are not enough).
    """
    dv = cfg.v_applied - cfg.v_residual
    gap, radius = cfg.gap, cfg.geometry.radius
    rho, u = _gap_u(gap, radius)
    force = electrostatic_force(cfg)
    n = np.arange(1.0, max_rows + 1.0)
    cn, sn = _coth_csch(n * u)
    partial = _force_model(cfg.v_applied, cfg.v_residual,
                           np.cumsum((n * cn - _coth_csch(u)[0]) * sn))
    rows = [*zip(range(1, max_rows + 1), partial.tolist()), (math.inf, force)]

    errors: dict[int, float] = {}
    for k in (1, 2):
        approx = small_gap_force(gap, radius, dv, orders=k)
        errors[k] = abs(approx - force) / abs(force) if force else 0.0
    orders = next((k for k in (1, 2) if errors[k] <= 1e-3), None)
    return TruncationReport(
        gap_ratio=float(rho),
        terms=tuple(rows),
        force=force,
        expansion_rel_error=errors,
        orders_for_0p1pct=orders,
    )


def calibration_rows(samples, lines: Sequence[int] | None = None) -> np.ndarray:
    """Calibration records as the (n, 3) float array of rows (z_metal m,
    v_applied V, delta_c F), checked in one pass: the first row with a
    field that is not finite, or with z_metal <= 0, raises ValidationError,
    prefixed with its file line ``lines[i]`` when ``lines`` is given."""
    rows = np.asarray(samples, dtype=float)
    if rows.size == 0:  # no rows: calibrate's count check names the error
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValidationError("calibration samples must be (n, 3) rows")
    finite = np.isfinite(rows).all(axis=1)
    bad = ~finite | (rows[:, 0] <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        where = "" if lines is None else f"line {lines[i]}: "
        raise ValidationError(where + ("z_metal must be > 0" if finite[i]
                                       else "calibration sample fields must be finite"))
    return rows


class CalibrationFit(Record):
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
# In units of the residual variance sigma^2 = 2 cost / ndof, chi^2 = ndof
# at the minimum, so MINPACK's relative cost reduction r is a chi^2 change
# of r ndof and ftol = _CHI2_STOP / ndof. A displacement dx changes chi^2
# by dx^T C^-1 dx there, so 1e-6 is about 1e-3 sigma.
_CHI2_STOP = 1e-6
# A sample whose leverage is within this of 1 alone fixes a direction of
# the parameters, and the HC3 covariance has no estimate for it.
_LEVERAGE_FLOOR = 1e-10


class LeastSquaresResult(Record):
    """Outcome of ``least_squares``; ``jac`` is taken at ``x``."""

    x: np.ndarray
    cost: float          # 0.5 * |fun(x)|^2
    fun: np.ndarray      # residuals at x
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
        x=x, cost=0.5 * float(f @ f), fun=f, jac=jac_x, nfev=nfev,
        success=message != _MAX_NFEV_MESSAGE, message=message,
    )


@np.errstate(all="ignore")  # overflow is raised below as DomainError
def calibrate(samples, initial_guess: tuple[float, float, float, float]) -> CalibrationFit:
    """Least-squares recovery of (k, V0, R, delta0) from voltage sweeps,
    the (n, 3) rows (z_metal, v_applied, delta_c) of ``calibration_rows``.

    Minimizes sum [dC_i - F(z_i, V_i; V0, R, delta0) / k]^2 in units of
    the initial guess with ``least_squares`` (Levenberg-Marquardt with the
    analytic Jacobian, at most 4,000 residual evaluations, else FitError).
    Each trial point sums the series once, over the distinct gaps only;
    the same pass gives dS/du for the R and delta0 columns, so a Jacobian
    costs no series work. Requires at least 4 samples spanning at least 2
    distinct applied voltages; a single-voltage design leaves k and
    (V - V0)^2 degenerate.

    The covariance is the HC3 sandwich (MacKinnon & White 1985), which
    holds when the residuals do not share one variance, as under the
    multiplicative noise of a capacitance bridge:
    (J^T J)^-1 J^T diag(r_i^2 / (1 - h_i)^2) J (J^T J)^-1, with h_i the
    leverage of sample i. With J = U S V^T, h_i = |U_i|^2 and it is
    V S^-1 (U^T diag(w) U) S^-1 V^T, so the condition number of J is
    never squared. A sample with leverage 1 raises IdentifiabilityError.

    The fit stops at the noise, once a step changes chi^2 by less than
    1e-6: with the residual variance, chi^2 = 2 cost / sigma^2 equals
    ndof = n - 4 at the minimum, so a relative cost reduction r is a chi^2
    change of r ndof, and ftol = 1e-6 / ndof. A chi^2 change of 1e-6 is
    a displacement of about 1e-3 sigma. Residuals, cost, Jacobian or
    covariance that overflow raise DomainError.
    """
    rows = calibration_rows(samples)
    if len(rows) < 4:
        raise IdentifiabilityError("need at least 4 calibration samples")
    z, v, dc = rows.T
    if v.min() == v.max():
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

    ndof = max(len(rows) - 4, 1)
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

    u, sv, vt = np.linalg.svd(res.jac, full_matrices=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        raise IdentifiabilityError(
            f"calibration design is rank-deficient (condition {sv[0] / max(sv[-1], 1e-300):.2e})"
        )
    # HC3: cov = H H^T, H = V S^-1 U^T diag(r_i / (1 - h_i)), h_i = |U_i|^2.
    free = 1.0 - np.einsum("ij,ij->i", u, u)
    if free.min() <= _LEVERAGE_FLOOR:
        raise IdentifiabilityError(
            f"calibration sample {int(np.argmin(free)) + 1} alone fixes a parameter "
            "(leverage 1); its uncertainty cannot be estimated")
    half = (vt.T / sv) @ (u.T * (res.fun / free))
    cov = half @ half.T * np.outer(scale, scale)
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
        residual_rms=k * math.sqrt(2.0 * res.cost / len(rows)),
    )


def estimate_v0(samples) -> float:
    """Prior for V0 from the (n, 3) calibration rows: the applied voltage
    with the smallest mean |dC|."""
    rows = calibration_rows(samples)
    volts, group = np.unique(rows[:, 1], return_inverse=True)
    dc = np.abs(rows[:, 2])
    means = [dc[group == i].mean() for i in range(volts.size)]
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
) -> np.ndarray:
    """Synthesize a calibration sweep from known system constants.

    Returns the (n, 3) rows (z_metal, v_applied, delta_c) that ``calibrate``
    takes: the whole z grid at each voltage in turn. ``noise_rel`` perturbs
    each dC reading by a Gaussian of that relative width (the capacitance
    bridge resolution).
    """
    z = np.asarray(z_grid, dtype=float)
    v = np.repeat(np.asarray(voltages, dtype=float), z.size)
    dc = _force_model(v, v0, np.tile(_series_at(z, radius, delta0)[0], len(voltages))) / k
    if noise_rel:
        dc = dc * (1.0 + noise_rel * np.random.default_rng(seed).standard_normal(dc.size))
    return calibration_rows(np.column_stack((np.tile(z, len(voltages)), v, dc)))
