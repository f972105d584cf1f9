"""Wave-vector (s) integral of the Lifshitz formulas against independent oracles.

At fixed u and eps, the exp-sinh s-rule of ``lifshitz`` gives
integral_0^inf (u+s)^n sum_pol ... ds, which is u^(n+1) times the
integral over p in [1, inf) with p = 1 + s/u.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from casimir_mto.lifshitz import _T_HI, _T_LO, _exp_sinh, _rule_sum

LEVEL = 4


def _s_rule(kind, u, e1, e2):
    """One u row of the product rule; an eps of None is a perfect conductor."""
    s, ws = _exp_sinh(LEVEL, _T_LO, _T_HI)
    row = [None if e is None else np.array([e]) for e in (e1, e2)]
    return _rule_sum(kind, np.array([u]), *row, s, ws)


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

