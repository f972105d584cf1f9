"""Surface-roughness averaging of forces and pressures.

Rough surfaces make the local separation a random variable. Topography
maps of the two facing surfaces are reduced to a discrete distribution of
separation offsets (the height deficits of the two surfaces add), and
forces are averaged as

    P(z) = sum_i w_i P(z + offset_i),      F(z) = sum_i w_i F(z + offset_i).

The distribution is zero-mean by construction; the separate mean contact
offset delta0 lives in the geometry, matching how calibration reports it.
Averages are one stacked Lifshitz call over all their separations' entries
(equal offsets merged), one result per entry, weighted here alone
(``_stacked_averages``). ``nominal_and_average`` gives a separation's plain
value from the same call, as the entry at offset zero.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .inputs import open_text
from .lifshitz import LifshitzResult, force_sphere_plane, pressure_plane_plane
from .records import Record

WEIGHT_SUM_TOL = 1e-12
# Above this many exact pairwise sums, fall back to gridded convolution.
_EXACT_PAIR_BUDGET = 1 << 16
# The convolution grid has 16 bins + 1 cells and np.convolve is quadratic
# in it: 1,000 bins take about 0.02 s on two 20x20 maps; 1e9 would ask for 128 GB.
_MAX_BINS = 1000


class RoughnessDistribution(Record):
    """Discrete separation-offset distribution: offsets (m) and weights."""

    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        off = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)
        if off.size == 0:
            raise ValidationError("distribution needs at least one entry")
        if off.shape != w.shape:
            raise ValidationError("offsets and weights must match in length")
        if not np.all(np.isfinite(off)):
            raise ValidationError("offsets must be finite")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be non-negative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")

    @classmethod
    def single(cls) -> "RoughnessDistribution":
        return cls(np.zeros(1), np.ones(1))

    @property
    def n_entries(self) -> int:
        return int(self.offsets.size)


class HeightMap(Record):
    """Topography scan: 2-D height grid (m) with its pixel pitch (m)."""

    grid: np.ndarray
    pixel_pitch: float

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "grid", g)
        if g.size == 0:
            raise ValidationError("height map must be non-empty")
        if not np.all(np.isfinite(g)):
            raise ValidationError("heights must be finite")
        if not 0 < self.pixel_pitch < math.inf:
            raise ValidationError("pixel pitch must be finite and > 0")


def load_heightmap(path) -> HeightMap:
    """Read a height map: whitespace-separated matrix of meters.

    Leading ``#`` comment lines carry metadata; one of them must define
    the pixel pitch, e.g. ``# pixel_pitch_m = 2.0e-7``. A ParseError
    names the file and its line.
    """
    path = Path(path)
    pitch = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(open_text(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                if key.strip() == "pixel_pitch_m":
                    try:
                        pitch = float(val)
                    except ValueError:
                        raise ParseError(f"{path}: bad pixel_pitch_m value {val!r}",
                                         line=lineno) from None
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"{path}: non-numeric height in {line!r}", line=lineno) from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"{path}: row has {len(row)} columns, expected {len(rows[0])}", line=lineno
            )
        rows.append(row)
    if pitch is None:
        raise ParseError(f"{path}: missing '# pixel_pitch_m = ...' header", line=1)
    if not rows:
        raise ValidationError(f"{path}: no height rows")
    return HeightMap(np.array(rows), pitch)


def _value_distribution(values: np.ndarray):
    """Unique values with relative frequencies."""
    vals, counts = np.unique(values.ravel(), return_counts=True)
    return vals, counts / counts.sum()


def _gridded(values, probs, pitch, lo):
    """Re-express a discrete distribution on a uniform grid of given pitch."""
    idx = np.rint((values - lo) / pitch).astype(int)
    n = idx.max() + 1
    w = np.zeros(n)
    np.add.at(w, idx, probs)
    return w


def weights_from_heightmaps(
    surface1: HeightMap,
    surface2: HeightMap | None = None,
    bins: int = 21,
) -> RoughnessDistribution:
    """Separation-offset distribution from one or two topography maps.

    The offset variable is the sum of the two surfaces' heights (deficits
    add across the gap); its distribution is the convolution of the two
    independent per-surface height distributions. With ``surface2=None``
    the single map is treated as the already-combined profile.

    When the offset variable takes at most ``bins`` distinct values the
    exact discrete distribution is returned (flat and stepped surfaces
    stay exact); otherwise it is histogrammed into ``bins`` midpoint-
    centered entries, 1 <= bins <= _MAX_BINS. The result is shifted to zero
    mean.
    """
    if not 1 <= bins <= _MAX_BINS:
        raise DomainError(f"bins must be in [1, {_MAX_BINS}], got {bins}")
    v1, p1 = _value_distribution(surface1.grid)
    if surface2 is None:
        sums, probs = v1, p1
    else:
        v2, p2 = _value_distribution(surface2.grid)
        if v1.size * v2.size <= _EXACT_PAIR_BUDGET:
            pair = v1[:, None] + v2[None, :]
            wts = p1[:, None] * p2[None, :]
            sums, inv = np.unique(pair.ravel(), return_inverse=True)
            probs = np.zeros(sums.size)
            np.add.at(probs, inv, wts.ravel())
        else:
            # Convolve on a shared uniform grid.
            span = (v1[-1] - v1[0]) + (v2[-1] - v2[0])
            pitch = max(span, 1e-30) / (16 * bins)
            w1 = _gridded(v1, p1, pitch, v1[0])
            w2 = _gridded(v2, p2, pitch, v2[0])
            probs = np.convolve(w1, w2)
            sums = v1[0] + v2[0] + pitch * np.arange(probs.size)
            keep = probs > 0
            sums, probs = sums[keep], probs[keep]

    if sums.size > bins:
        hist, edges = np.histogram(sums, bins=bins, weights=probs)
        mids = 0.5 * (edges[:-1] + edges[1:])
        keep = hist > 0
        sums, probs = mids[keep], hist[keep]

    probs = probs / probs.sum()
    sums = sums - np.dot(probs, sums)
    return RoughnessDistribution(sums, probs)


def _entries(z, dist: RoughnessDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separations z as a column, with the offsets and weights by increasing
    offset, equal offsets merged in a fixed order and zero weights dropped:
    an average is then invariant under entry permutation, weight splitting
    or zero-weight entries, bit for bit. Every shifted separation
    z_i + offset_j must be > 0."""
    z = np.asarray(z, dtype=float).reshape(-1, 1)
    bad = np.argwhere(z + dist.offsets <= 0)
    if bad.size:
        row, i = bad[0]
        raise DomainError(
            f"entry {i} (offset {dist.offsets[i]:.3e} m) shifts separation "
            f"to {z[row, 0] + dist.offsets[i]:.3e} m <= 0"
        )
    order = np.lexsort((dist.weights, dist.offsets))
    offsets = dist.offsets[order]
    first = np.flatnonzero(np.concatenate(([True], offsets[1:] > offsets[:-1])))
    weights = np.add.reduceat(dist.weights[order], first)
    keep = weights > 0
    return z, offsets[first][keep], weights[keep]


def _stacked_averages(integral, shifted: np.ndarray, weights: np.ndarray):
    """One ``integral`` call on a (separation, entry) array ``shifted``: the
    stacked result, and per row sum_i w_i v_i of the entry values v_i,
    exactly rounded (zero weights leave it unchanged), with estimate
    sum_i w_i |v_i| e_i / |sum_i w_i v_i|: eps >= 1 gives every entry one
    sign, so that is the weighted mean of the entries' estimates e_i."""
    result = integral(shifted)
    terms = weights * result.value
    value = np.array([math.fsum(row) for row in terms.tolist()])
    est = (np.abs(terms) * result.est_rel_error).sum(axis=1) / np.maximum(np.abs(value), 1e-300)
    return result, LifshitzResult(value, est, result.evaluations)


def nominal_and_average(integral, z, dist: RoughnessDistribution):
    """``integral`` at each separation of the array ``z`` and its average
    over ``dist``, from one stacked call: z itself is the zero offset's
    entry, or joins the stack at zero weight. ``evaluations`` of both count
    the nodes of the whole stack."""
    zs, offsets, weights = _entries(z, dist)
    if 0.0 not in offsets:
        offsets, weights = np.append(offsets, 0.0), np.append(weights, 0.0)
    k = int(np.flatnonzero(offsets == 0.0)[0])
    stacked, average = _stacked_averages(integral, zs + offsets, weights)
    nominal = LifshitzResult(stacked.value[:, k], stacked.est_rel_error[:, k], stacked.evaluations)
    return nominal, average


def _average(integral, z, dist: RoughnessDistribution) -> LifshitzResult:
    zs, offsets, weights = _entries(z, dist)
    average = _stacked_averages(integral, zs + offsets, weights)[1]
    if np.ndim(z):
        return average
    return LifshitzResult(float(average.value[0]), float(average.est_rel_error[0]),
                          average.evaluations)


def averaged_pressure(z, dist: RoughnessDistribution, m1, m2,
                      tol: float = 1e-6) -> LifshitzResult:
    """Roughness-averaged two-plane pressure: sum_i w_i P(z + offset_i).

    An array ``z`` gives one average per separation, from one stacked
    Lifshitz call over every separation's entries; ``evaluations`` counts
    the nodes of them all.
    """
    return _average(lambda s: pressure_plane_plane(s, m1, m2, tol=tol), z, dist)


def averaged_force(z, radius: float, dist: RoughnessDistribution,
                   m1, m2, tol: float = 1e-6) -> LifshitzResult:
    """Roughness-averaged sphere-plane force: sum_i w_i F(z + offset_i);
    an array ``z`` as for the pressure."""
    return _average(lambda s: force_sphere_plane(s, radius, m1, m2, tol=tol), z, dist)
