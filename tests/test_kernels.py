"""Wave-vector (s) integral of the Lifshitz formulas against independent oracles.

At fixed u and eps, the exp-sinh s-rule of ``lifshitz`` gives
integral_0^inf (u+s)^n sum_pol ... ds, which is u^(n+1) times the
integral over p in [1, inf) with p = 1 + s/u.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from casimir_mto.lifshitz import (
    _T_HI,
    _T_LO,
    _exp_sinh,
    _reflection_factors,
    _row_dot,
    _rule_sum,
    _tail,
)

LEVEL = 4


def _s_rule(kind, u, e1, e2):
    """One u row of the product rule; an eps of None is a perfect conductor."""
    s, ws = _exp_sinh(LEVEL, _T_LO, _T_HI)
    row = [None if e is None else np.array([e]) for e in (e1, e2)]
    return _rule_sum(kind, np.array([u]), *row, s, ws, [None])[0]


def pressure_inner(u, e1, e2):
    return _s_rule("pressure", u, e1, e2) / u**3


def force_inner(u, e1, e2):
    return _s_rule("force", u, e1, e2) / u**2


def ideal_pressure_series(u: float, terms: int = 200) -> float:
    """Series oracle for the ideal inner pressure integral:

    2 * sum_k exp(-ku) ((ku)^2 + 2ku + 2) / (k^3 u^3).
    """
    total = 0.0
    for k in range(1, terms + 1):
        a = k * u
        total += math.exp(-a) * (a * a + 2 * a + 2) / (k**3 * u**3)
    return 2.0 * total


def ideal_force_series(u: float, terms: int = 200) -> float:
    """Series oracle for the ideal inner force integral:

    -2 * sum_k exp(-ku) (ku + 1) / (k^3 u^2).
    """
    total = 0.0
    for k in range(1, terms + 1):
        a = k * u
        total += math.exp(-a) * (a + 1) / (k**3 * u**2)
    return -2.0 * total


@pytest.mark.parametrize("u", [0.05, 0.3, 1.0, 4.0])
def test_ideal_pressure_kernel_vs_series(u):
    val = pressure_inner(u, None, None)
    assert val == pytest.approx(ideal_pressure_series(u, terms=2000), rel=1e-9)


@pytest.mark.parametrize("u", [0.05, 0.3, 1.0, 4.0])
def test_ideal_force_kernel_vs_series(u):
    val = force_inner(u, None, None)
    assert val == pytest.approx(ideal_force_series(u, terms=2000), rel=1e-9)


def _raw_pressure_integrand(p, u, e1, e2):
    s1 = math.sqrt(e1 - 1 + p * p)
    s2 = math.sqrt(e2 - 1 + p * p)
    w = math.exp(-p * u)
    qte = (e1 - 1) / (s1 + p) ** 2 * (e2 - 1) / (s2 + p) ** 2 * w
    qtm = (
        (e1 - 1) * (p * p * (e1 + 1) - 1) / (e1 * p + s1) ** 2
        * (e2 - 1) * (p * p * (e2 + 1) - 1) / (e2 * p + s2) ** 2
        * w
    )
    return p * p * (qte / (1 - qte) + qtm / (1 - qtm))


def _raw_force_integrand(p, u, e1, e2):
    s1 = math.sqrt(e1 - 1 + p * p)
    s2 = math.sqrt(e2 - 1 + p * p)
    w = math.exp(-p * u)
    qte = (e1 - 1) / (s1 + p) ** 2 * (e2 - 1) / (s2 + p) ** 2 * w
    qtm = (
        (e1 - 1) * (p * p * (e1 + 1) - 1) / (e1 * p + s1) ** 2
        * (e2 - 1) * (p * p * (e2 + 1) - 1) / (e2 * p + s2) ** 2
        * w
    )
    return p * (math.log1p(-qte) + math.log1p(-qtm))


@pytest.mark.parametrize("u,e1,e2", [(0.2, 100.0, 5000.0), (1.0, 7.0, 3.0), (3.0, 2.0, 1e6)])
def test_metal_kernels_vs_scipy(u, e1, e2):
    ref_p, _ = quad(_raw_pressure_integrand, 1, 300 / u + 2, args=(u, e1, e2), limit=400)
    ref_f, _ = quad(_raw_force_integrand, 1, 300 / u + 2, args=(u, e1, e2), limit=400)
    vp = pressure_inner(u, e1, e2)
    vf = force_inner(u, e1, e2)
    assert vp == pytest.approx(ref_p, rel=1e-7)
    assert vf == pytest.approx(ref_f, rel=1e-7)


def test_vacuum_surface_kills_reflection():
    # eps = 1 is transparent: nothing to reflect, zero integrand.
    val = pressure_inner(1.0, 1.0, 1000.0)
    assert val == 0.0


@given(
    u=st.floats(0.01, 10.0),
    e1=st.floats(1.01, 1e6),
    e2=st.floats(1.01, 1e6),
    boost=st.floats(1.1, 100.0),
)
@settings(max_examples=40, deadline=None)
def test_stronger_dielectric_reflects_more(u, e1, e2, boost):
    """Raising either permittivity strengthens both inner integrals."""
    base = pressure_inner(u, e1, e2)
    more = pressure_inner(u, e1 * boost, e2)
    assert more >= base * (1 - 1e-9)
    fb = force_inner(u, e1, e2)
    fm = force_inner(u, e1 * boost, e2)
    assert abs(fm) >= abs(fb) * (1 - 1e-9)


# Single (u, s) nodes of the integrand against the textbook reflection
# coefficients r_TE = (s_j - p)/(s_j + p) and r_TM = (e p - s_j)/(e p + s_j),
# Q = r_1 r_2 per polarization (1 for a perfect conductor), in 30 digits.
NODE_EPS = [1.0, 1.0 + 2.0**-52, 1.0 + 1e-8, 7.0, 1e6, 1e15, 1e150]
NODE_US = [1e-12, 1e-3, 1.0, 30.0, 400.0]


def _textbook_node(kind, u, v, e1, e2, c=1.0):
    """The integrand at (c u, c v), with v = u + s, and its ideal-metal
    bound, in mpmath."""
    with mpmath.workdps(30):
        u, v = c * mpmath.mpf(u), c * mpmath.mpf(v)
        p = v / u

        def r(e):
            if e is None:
                return 1, 1
            e = mpmath.mpf(e)
            sj = mpmath.sqrt(e - 1 + p * p)
            return (sj - p) / (sj + p), (e * p - sj) / (e * p + sj)

        w = mpmath.exp(-v)
        qw = [a * b * w for a, b in zip(r(e1), r(e2))]
        if kind == "pressure":
            return v * v * sum(x / (1 - x) for x in qw), 2 * v * v * w / (1 - w)
        return v * sum(mpmath.log1p(-x) for x in qw), -2 * v * mpmath.log1p(-w)


# Scales c of entries that share a row's nodes (see lifshitz._stops).
NODE_SCALES = [None, 1.35, 3.0]


@pytest.mark.parametrize("kind", ["pressure", "force"])
@pytest.mark.parametrize("pair", ["real/real", "real/ideal", "ideal/ideal"])
def test_integrand_nodes_vs_textbook(kind, pair):
    """Error at most 1e-14 of the node's ideal-metal bound, plus a few units
    of 2^-52 times max(1, v): below that, Q w and 1 - Q w are not resolved
    in doubles (Q within rounding of 1 as v -> 0, or w below 2^-52 at large
    v, where log(1 - Q w) rounds to 0). The oracle takes v = u + s as
    rounded to a double, as the rule's nodes are. An entry at scale c on
    the same node is the textbook integrand at (c u, c v), with the same
    eps: the node of a separation c times as large at the same xi. Each
    node is the product rule on one u row and one s node of weight 1."""
    eps = {"real/real": list(itertools.product(NODE_EPS, NODE_EPS)),
           "real/ideal": [(e, None) for e in NODE_EPS],
           "ideal/ideal": [(None, None)]}[pair]
    scales = [c if c is None else np.array([c]) for c in NODE_SCALES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (e1, e2), u, s in itertools.product(eps, NODE_US, NODE_US):
            got = _rule_sum(kind, np.array([u]),
                            *(None if e is None else np.array([e]) for e in (e1, e2)),
                            np.array([s]), np.array([1.0]), scales)
            v = u + s
            for c, node in zip(NODE_SCALES, got[:, 0]):
                c = 1.0 if c is None else c
                want, ideal = _textbook_node(kind, u, v, e1, e2, c)
                bound = 1e-14 * ideal + 8 * 2.0**-52 * max(1.0, c * v)
                assert abs(node - want) <= bound, (c, u, s, e1, e2, node, want)


# The kernels write into their block's own temporaries; these are the same
# operations in the same order as plain expressions, which must give the
# same bits.
def _plain_reflection_factors(e, u, v, v2):
    a = (e - 1.0) * (u * u)
    k = np.sqrt(a + v2)
    return a / (k + v) ** 2, ((e - 1.0) * (e + 1.0) * v2 - a) / (e * v + k) ** 2


def _plain_tail(kind, v, lq):
    if kind == "pressure":
        g = [1.0 / np.expm1(v - x) for x in lq or [0.0]]
        return (v * v) * (g[0] + g[1] if lq else 2.0 * g[0])
    m = [np.expm1(x - v) for x in lq or [0.0]]
    return v * (np.log(m[0] * m[1]) if lq else 2.0 * np.log(-m[0]))


def _plain_log_q(e1, e2, u, v):
    q = [_plain_reflection_factors(e, u, v, v * v) for e in (e1, e2) if e is not None]
    q = q[0] if len(q) == 1 else [x * y for x, y in zip(*q)]
    with np.errstate(divide="ignore"):
        return [np.minimum(np.log(x), 0.0) for x in q]


def _blocks(rng):
    """(e1, e2, u) columns and an s row: random ones, and the node oracle's
    extremes (eps 1 to 1e150, u and s from 1e-12, v past 37)."""
    n = 48
    e1, e2 = (1.0 + 10.0 ** rng.uniform(-16, 150, (n, 1)) for _ in range(2))
    u, s = 10.0 ** rng.uniform(-12, 2.6, (n, 1)), 10.0 ** rng.uniform(-12, 2.6, 96)
    yield e1, e2, u, s
    grid = np.array(list(itertools.product(NODE_EPS, NODE_EPS, NODE_US)))
    yield grid[:, :1], grid[:, 1:2], grid[:, 2:], np.array([*NODE_US, 20.0, 37.5, 60.0])


@pytest.mark.parametrize("kind", ["pressure", "force"])
@pytest.mark.parametrize("pair", ["real/real", "real/ideal", "ideal/ideal"])
def test_in_place_kernels_keep_the_plain_bits(kind, pair, rng):
    for e1, e2, u, s in _blocks(rng):
        e1, e2 = {"real/real": (e1, e2), "real/ideal": (e1, None),
                  "ideal/ideal": (None, None)}[pair]
        v = u + s
        for e in (e1, e2):
            if e is not None:
                got = _reflection_factors(e, u, v, v * v)
                assert all(np.array_equal(a, b) for a, b in zip(got, _plain_reflection_factors(
                    e, u, v, v * v)))
        lq = _plain_log_q(e1, e2, u, v)
        with np.errstate(divide="ignore", over="ignore"):
            for c in (1.0, 1.35, 3.0):
                want = _plain_tail(kind, c * v, lq)
                assert np.array_equal(_tail(kind, c * v, lq), want)
                scales = [None if c == 1.0 else np.full(u.size, c)]
                rows = [None if e is None else e[:, 0] for e in (e1, e2)]
                got = _rule_sum(kind, u[:, 0], *rows, s, np.ones(s.size), scales)[0]
                assert np.array_equal(got, _row_dot(want, np.ones(s.size)))
