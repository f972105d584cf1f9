"""Dielectric permittivity on the imaginary frequency axis.

Metals are described by their loss spectrum eps''(omega) (tabulated
optical data over the measured range, extended to low energy with a Drude
free-electron tail). The force integrals need eps(i xi), obtained through
the dispersion relation

    eps(i xi) = 1 + (2/pi) * integral_0^inf  omega eps''(omega)
                                             / (omega^2 + xi^2)  d omega.

The transform takes a whole array of xi at once and needs no adaptive
quadrature: the Drude segment below the splice and the 1/omega^3
continuation above the table have closed forms, and the table itself is
a trapezoid sum over its rows.

Everything in this module works in photon energies (eV); the conversion
to angular frequency happens once, at the force-integral boundary
(1 eV = 1.519e15 rad/s).

The bundled Au/Cu tables are synthetic Drude + interband-oscillator
spectra shaped like noble-metal data. They are placeholders so the
pipeline runs out of the box: replace them with measured optical
constants for quantitative work. The default Drude parameters
(Au: 9.0/0.035 eV, Cu: 8.9/0.030 eV) are conventional literature values,
shipped as editable registry entries. The registry (a JSON object) and
the tables (headed CSV) are read through ``casimir_mto.inputs``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, ValidationError
from .inputs import Cfg, read_json_object, read_table
from .records import Record

SPLICE_TOL = 1e-2          # allowed relative jump of eps'' at the splice
_TAIL_CUTOFF_EV = 1e5      # beyond this, the pure 1/omega^3 tail is analytic
# Largest Drude energy accepted, far above any metal's (Au: 9 eV plasma).
# Squares of energies near 1e154 eV overflow, and a plasma energy of 1e80 eV
# makes eps(i xi) overflow the reflection factors at micron separations.
DRUDE_EV_MAX = 1e3


class DrudeParams(Record):
    """Free-electron parameters: plasma and relaxation energies in eV."""

    plasma_ev: float
    relaxation_ev: float

    def __post_init__(self):
        if not 0 < self.plasma_ev <= DRUDE_EV_MAX:
            raise ValidationError(f"plasma energy must be in (0, {DRUDE_EV_MAX:g}] eV")
        if not 0 < self.relaxation_ev <= DRUDE_EV_MAX:
            raise ValidationError(f"relaxation energy must be in (0, {DRUDE_EV_MAX:g}] eV")


def drude_eps(xi_ev, params: DrudeParams):
    """Drude permittivity on the imaginary axis: 1 + wp^2/(xi (xi + gamma)).

    Accepts a scalar or array ``xi_ev`` (eV), all entries > 0.
    """
    xi = np.asarray(xi_ev, dtype=float)
    if np.any(xi <= 0):
        raise DomainError("imaginary frequency must be > 0")
    out = 1.0 + params.plasma_ev**2 / (xi * (xi + params.relaxation_ev))
    return float(out) if np.isscalar(xi_ev) else out


def drude_eps2(omega_ev, params: DrudeParams):
    """Drude loss spectrum on the real axis: wp^2 gamma / (w (w^2 + gamma^2))."""
    w = np.asarray(omega_ev, dtype=float)
    if np.any(w <= 0):
        raise DomainError("photon energy must be > 0")
    out = params.plasma_ev**2 * params.relaxation_ev / (w * (w**2 + params.relaxation_ev**2))
    return float(out) if np.isscalar(omega_ev) else out


class OpticalTable(Record):
    """Tabulated loss spectrum eps''(omega) over a measured energy range.

    At least one row; energies must be strictly increasing and positive,
    eps'' non-negative.
    """

    energy_ev: np.ndarray
    eps2: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energy_ev, dtype=float)
        y = np.asarray(self.eps2, dtype=float)
        object.__setattr__(self, "energy_ev", e)
        object.__setattr__(self, "eps2", y)
        if e.shape != y.shape or e.ndim != 1:
            raise ValidationError("energy and eps2 columns must be 1-D and equal length")
        if not e.size:
            raise ValidationError("optical table has no rows")
        if not np.all(e > 0):
            raise ValidationError("photon energies must be > 0")
        if not np.all(np.diff(e) > 0):
            raise ValidationError("photon energies must be strictly increasing")
        if not np.all(y >= 0):
            raise ValidationError("eps'' must be non-negative")

    @property
    def energy_range(self) -> tuple[float, float]:
        return float(self.energy_ev[0]), float(self.energy_ev[-1])


def load_optical_data(path) -> OpticalTable:
    """Read a loss-spectrum table: headed CSV ``energy_ev,eps2``
    (``inputs.read_table`` rules)."""
    rows, _ = read_table(path, ("energy_ev", "eps2"))
    return OpticalTable(rows[:, 0], rows[:, 1])


def _dispersion_drude_segment(drude: DrudeParams, xi: np.ndarray, hi: float) -> np.ndarray:
    """Integral of the Drude loss over [0, hi] against the KK kernel, in closed form.

    With a = wp^2 gamma, the integrand a / ((w^2 + gamma^2)(w^2 + xi^2)) has
    the antiderivative difference (atan(hi/gamma)/gamma - atan(hi/xi)/xi)
    / (xi^2 - gamma^2). Writing atan(hi/gamma) - atan(hi/xi) = atan(t),
    t = hi (xi - gamma) / (gamma xi + hi^2), leaves a sum of two positive
    terms, so nothing cancels at xi = gamma (where atan(t)/t -> 1).
    """
    g = drude.relaxation_ev
    t = hi * (xi - g) / (g * xi + hi * hi)
    ratio = np.ones_like(t)
    nz = t != 0.0
    ratio[nz] = np.arctan(t[nz]) / t[nz]
    bracket = math.atan(hi / g) + g * hi / (g * xi + hi * hi) * ratio
    return drude.plasma_ev**2 * g * bracket / (g * xi * (xi + g))


def _dispersion_tail(a3: float, xi: np.ndarray, hi: float) -> np.ndarray:
    """Integral of a3/omega^3 over [hi, inf) against the KK kernel.

    a3 continues the table as eps'' = a3 / omega^3. A short series replaces
    the closed form where xi << hi, which would cancel there.
    """
    if a3 == 0.0:
        return np.zeros_like(xi)
    out = a3 * (1.0 / (3 * hi**3) - xi**2 / (5 * hi**5) + xi**4 / (7 * hi**7))
    far = xi / hi >= 1e-3
    x = xi[far]
    out[far] = (a3 / x**2) * (1.0 / hi - np.arctan(x / hi) / x)
    return out


_TABLE_CHUNK = 64          # xi values per block of the table row sums


def _dispersion_table(table: OpticalTable, xi: np.ndarray, splice_ev: float) -> np.ndarray:
    """Trapezoid of the tabulated loss against the KK kernel, from the splice up.

    Each xi is one row sum of w e eps''(e) / (e^2 + xi^2) over the energies e
    with trapezoid weights w, taken a block of xi values at a time so that
    the (xi, e) block stays small.
    """
    e = table.energy_ev
    y = table.eps2
    if splice_ev > e[0]:
        i = int(np.searchsorted(e, splice_ev))
        ys = np.interp(splice_ev, e, y)
        e = np.concatenate([[splice_ev], e[i:]])
        y = np.concatenate([[ys], y[i:]])
    d = np.diff(e)
    w = 0.5 * (np.concatenate([d, [0.0]]) + np.concatenate([[0.0], d]))
    wey = w * e * y
    e2 = e * e
    out = np.empty_like(xi)
    for k in range(0, xi.size, _TABLE_CHUNK):
        x = xi[k:k + _TABLE_CHUNK, None]
        out[k:k + _TABLE_CHUNK] = np.sum(wey / (e2 + x * x), axis=-1)
    return out


def kk_to_imaginary_axis(
    table: OpticalTable | None,
    drude: DrudeParams,
    xi_ev,
    splice_ev: float | None = None,
):
    """Dispersion transform of the composite loss spectrum to eps(i xi).

    The Drude tail covers [0, splice] and is integrated in closed form; the
    table covers [splice, E_max] by the trapezoid rule; beyond the table the
    loss is continued as eps'' ~ 1/omega^3 matched at the last row, again
    in closed form. ``table=None`` selects a pure-Drude spectrum over the
    whole axis (the table-free configuration).

    ``xi_ev`` (eV) is a scalar or an array of any shape; a scalar gives a
    float, and every entry of an array equals the scalar call at that entry.

    Raises ConfigurationError for a splice outside the table (an empty
    table is rejected when the OpticalTable is made), DomainError for any
    xi <= 0.
    """
    xi = np.asarray(xi_ev, dtype=float).reshape(-1)
    if np.any(xi <= 0):
        raise DomainError("imaginary frequency must be > 0")
    if table is None:
        hi = _TAIL_CUTOFF_EV
        seg = _dispersion_drude_segment(drude, xi, hi)
        a3 = drude.plasma_ev**2 * drude.relaxation_ev * hi**2 / (hi**2 + drude.relaxation_ev**2)
        total = seg + _dispersion_tail(a3, xi, hi)
    else:
        lo, hi = table.energy_range
        if splice_ev is None:
            splice_ev = lo
        if not lo <= splice_ev <= hi:
            raise ConfigurationError(
                f"splice energy {splice_ev} eV outside tabulated range [{lo}, {hi}]"
            )
        seg = _dispersion_drude_segment(drude, xi, splice_ev)
        tab = _dispersion_table(table, xi, splice_ev)
        a3 = table.eps2[-1] * hi**3
        total = seg + tab + _dispersion_tail(float(a3), xi, hi)
    out = 1.0 + (2.0 / math.pi) * total
    return float(out[0]) if np.isscalar(xi_ev) else out.reshape(np.shape(xi_ev))


class DielectricModel:
    """A metal's permittivity evaluated on the imaginary frequency axis."""

    def eps(self, xi_ev):
        """eps(i xi) at ``xi_ev`` (eV); the force integrals pass arrays
        (``Tabulated`` through its sampler)."""
        raise NotImplementedError


class PerfectConductor(DielectricModel):
    """Ideal-metal marker: reflection coefficients are taken at their
    infinite-permittivity limit inside the force integrals, so there is no
    finite eps to evaluate."""

    def eps(self, xi_ev: float) -> float:
        raise DomainError(
            "perfect conductor has no finite permittivity; "
            "force integrals treat it as the ideal limit"
        )


class DrudeOnly(DielectricModel):
    """Free-electron metal with the closed-form Drude eps(i xi)."""

    def __init__(self, params: DrudeParams):
        self.params = params

    def eps(self, xi_ev):
        return drude_eps(xi_ev, self.params)


class Tabulated(DielectricModel):
    """Tabulated loss spectrum spliced onto a Drude low-energy tail.

    ``splice_ev`` defaults to the lowest tabulated energy. Construction
    verifies that the Drude and tabulated loss agree at the splice to
    within SPLICE_TOL.
    """

    def __init__(self, table: OpticalTable, drude: DrudeParams, splice_ev: float | None = None):
        lo, hi = table.energy_range
        self.table = table
        self.drude = drude
        self.splice_ev = lo if splice_ev is None else float(splice_ev)
        if not lo <= self.splice_ev <= hi:
            raise ConfigurationError(
                f"splice energy {self.splice_ev} eV outside tabulated range [{lo}, {hi}]"
            )
        mismatch = self.splice_mismatch()
        if mismatch > SPLICE_TOL:
            raise ValidationError(
                f"eps'' jumps by {mismatch:.1%} at the splice "
                f"({self.splice_ev} eV); check Drude parameters vs. table"
            )
        self._sampler: SampledDielectric | None = None

    def splice_mismatch(self) -> float:
        """Relative eps'' discontinuity where the Drude tail meets the table."""
        d = float(drude_eps2(self.splice_ev, self.drude))
        t = float(np.interp(self.splice_ev, self.table.energy_ev, self.table.eps2))
        return abs(d - t) / max(0.5 * (d + t), 1e-300)

    def eps(self, xi_ev):
        return kk_to_imaginary_axis(self.table, self.drude, xi_ev, self.splice_ev)

    def sampled(self) -> "SampledDielectric":
        """Cached fast interpolant of eps(i xi) (built on first use)."""
        if self._sampler is None:
            self._sampler = SampledDielectric.from_model(self)
        return self._sampler


# Chebyshev sampler: sampled xi range (eV), polynomial degree, theta cells
# of the Taylor table and the terms kept per cell (value plus six
# theta-derivatives).
_SAMPLED_LO_EV = 1e-6
_SAMPLED_HI_EV = 1e4
_CHEB_DEGREE = 192
_CELLS = 1024
_TAYLOR_TERMS = 7


class SampledDielectric(DielectricModel):
    """Chebyshev interpolant of log(eps(i xi) - 1) in log xi.

    Exact models cost a dispersion integral per evaluation; the force
    integrals query eps hundreds of times per separation, so pipelines
    evaluate through this interpolant. It is the degree-n polynomial
    through samples at the n + 1 = _CHEB_DEGREE + 1 Chebyshev-Lobatto
    points of log xi over the sampled range [_SAMPLED_LO_EV, _SAMPLED_HI_EV],
    written as a cosine series f(theta) = sum_k c_k cos(k theta) in
    t = cos(theta), t the mapped log xi (Trefethen,
    Approximation Theory and Approximation Practice, ch. 2-8). The c_k
    come from a DCT-I of the samples. Evaluation does not sum the series:
    one real inverse FFT tabulates f and its first six theta-derivatives at the
    centres of uniform theta cells, and eps at any xi is a 7-term Taylor
    step from its cell's centre. For the bundled tables this stays within
    5e-13 relative of the exact transform. Being smooth, it keeps the
    force integrals converging double-exponentially (a C^1 interpolant
    stalls the level-to-level error estimate). Power-law extrapolation
    beyond the sampled range, with the end slopes of the polynomial, keeps
    eps >= 1 everywhere. Built by ``from_model``.
    """

    def __init__(self, lx: np.ndarray, eps: np.ndarray):
        """``eps`` sampled at the Chebyshev-Lobatto points ``lx`` of log xi,
        ascending, that ``from_model`` makes; every sample must exceed 1."""
        # Imported here, so a process without a tabulated material never loads it.
        from numpy.fft import irfft, rfft

        e = np.asarray(eps, dtype=float)
        if not np.all(e > 1.0):
            raise ValidationError("sampled eps must exceed 1")
        degree = lx.size - 1
        self._mid = float(0.5 * (lx[-1] + lx[0]))
        self._half = float(0.5 * (lx[-1] - lx[0]))
        f = np.log(e - 1.0)[::-1]               # theta_j = pi j / degree
        c = rfft(np.concatenate([f, f[-2:0:-1]])).real / degree
        c[[0, -1]] *= 0.5
        # Column m of the table holds d^m f / d theta^m / m! at the cell
        # centres: the m-th derivative of cos(k theta) is Re((ik)^m e^{ik theta}),
        # and irfft sums those real parts (doubling every bin but k = 0).
        self._h = math.pi / _CELLS
        k = np.arange(degree + 1)
        m = np.arange(_TAYLOR_TERMS)[:, None]
        spectrum = np.zeros((_TAYLOR_TERMS, _CELLS + 1), dtype=complex)
        spectrum[:, :degree + 1] = _CELLS * c * (1j * k) ** m * np.exp(0.5j * self._h * k)
        spectrum[:, 0] *= 2
        derivs = irfft(spectrum, n=2 * _CELLS, axis=1)[:, :_CELLS]
        factorials = np.cumprod(np.maximum(m, 1), axis=0)
        self._table = np.ascontiguousarray((derivs / factorials).T)
        self._lx = (float(lx[0]), float(lx[-1]))
        self._ly = (float(f[-1]), float(f[0]))
        # d f / d log xi at t = -1 and t = +1.
        k2 = k * k * c
        self._slope = (float(np.sum(k2 * (-1.0) ** (k + 1))) / self._half,
                       float(np.sum(k2)) / self._half)

    @classmethod
    def from_model(cls, model: DielectricModel) -> "SampledDielectric":
        """Sample ``model`` at the _CHEB_DEGREE + 1 Chebyshev-Lobatto points
        of log xi over [_SAMPLED_LO_EV, _SAMPLED_HI_EV], with one array call
        to ``model.eps``. Raises ValidationError unless every sample
        exceeds 1."""
        a, b = math.log(_SAMPLED_LO_EV), math.log(_SAMPLED_HI_EV)
        t = -np.cos(np.pi * np.arange(_CHEB_DEGREE + 1) / _CHEB_DEGREE)
        lx = 0.5 * (a + b) + 0.5 * (b - a) * t
        xi = np.exp(lx)
        xi[[0, -1]] = _SAMPLED_LO_EV, _SAMPLED_HI_EV
        return cls(lx, model.eps(xi))

    def eps(self, xi_ev):
        """eps(i xi) at a scalar or array ``xi_ev`` (eV), all entries > 0."""
        xi = np.asarray(xi_ev, dtype=float)
        if not np.all(xi > 0):
            raise DomainError("imaginary frequency must be > 0")
        lx = np.log(np.minimum(xi, 1e300))
        theta = np.arccos(np.clip((lx - self._mid) / self._half, -1.0, 1.0))
        cell = np.minimum((theta * (1.0 / self._h)).astype(np.intp), _CELLS - 1)
        d = theta - (cell + 0.5) * self._h
        row = self._table[cell]
        ly = row[..., -1]
        for j in range(_TAYLOR_TERMS - 2, -1, -1):
            ly = ly * d + row[..., j]
        ly = np.where(
            xi < _SAMPLED_LO_EV, self._ly[0] + self._slope[0] * (lx - self._lx[0]),
            np.where(xi > _SAMPLED_HI_EV, self._ly[1] + self._slope[1] * (lx - self._lx[1]), ly),
        )
        out = 1.0 + np.exp(ly)
        return float(out) if np.isscalar(xi_ev) else out


def data_dir() -> Path:
    """Directory holding the bundled registry and tables."""
    return Path(resources.files("casimir_mto").joinpath("data"))


def default_registry_path() -> Path:
    env = os.environ.get("CASIMIR_DATA_DIR")
    if env:
        return Path(env) / "materials.json"
    return data_dir() / "materials.json"


def _registry_entry(name: str, entry, root: Path):
    """Check one registry entry; return a function that builds its model.

    Keys, variant, Drude numbers and the type of the table path are
    checked here; the table itself is read only when the model is built.
    """
    e = Cfg(entry, f"material {name!r}")
    variant = e.take("variant", None)
    e.take("label", None)  # a free-text note, read by nothing
    if variant not in ("perfect_conductor", "drude", "tabulated"):
        raise ConfigurationError(
            f"material {name!r}: unknown variant {variant!r} "
            "(expected perfect_conductor, drude or tabulated)"
        )
    if variant == "perfect_conductor":
        for key in ("plasma_ev", "relaxation_ev", "table", "splice_ev"):
            e.take(key, None)
        e.close()
        return PerfectConductor
    drude = DrudeParams(e.take_float("plasma_ev"), e.take_float("relaxation_ev"))
    table_path = e.take("table", None)
    splice = e.take_float("splice_ev", None)
    e.close()
    if variant == "drude":
        return lambda: DrudeOnly(drude)
    if not isinstance(table_path, str):
        raise ConfigurationError(f"material {name!r}: 'table' must be a path")
    return lambda: Tabulated(load_optical_data(root / table_path), drude, splice_ev=splice)


def load_registry(
    path: str | Path | None = None, names: Iterable[str] | None = None
) -> dict[str, DielectricModel]:
    """Build dielectric models from a materials registry document.

    JSON object mapping material names to entries with a ``variant`` of
    ``perfect_conductor``, ``drude`` or ``tabulated``; table paths resolve
    relative to the registry file, and an entry's ``label`` is a free-text
    note that nothing reads. Every entry is checked: unknown keys
    are rejected; Drude numbers and a table on a perfect conductor are
    accepted and unused.

    ``names`` selects the models to build: only their optical tables are
    read, and only they are returned (a name given twice gives one
    model), so a missing or broken table of an entry that is not named
    raises nothing. A name the registry lacks raises ConfigurationError
    listing the registry's names. ``None`` builds every entry.
    """
    reg_path = Path(path) if path is not None else default_registry_path()
    builders = {name: _registry_entry(name, entry, reg_path.parent)
                for name, entry in read_json_object(reg_path).items()}
    wanted = dict.fromkeys(builders if names is None else names)
    for name in wanted:
        if name not in builders:
            raise ConfigurationError(
                f"materials: unknown material {name!r}; registry has {sorted(builders)}"
            )
    return {name: builders[name]() for name in wanted}
