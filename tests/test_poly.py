from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines.errors import NonSquarefree
from balines.poly import DensePoly

from oracles import compose_affine


def test_normalization_drops_leading_zeros():
    p = DensePoly.rational([1, 2, 0, 0])
    assert p.degree == 1
    assert DensePoly.rational([0, 0]).is_zero


def test_ring_ops():
    p = DensePoly.rational([1, 1])      # 1 + x
    q = DensePoly.rational([-1, 1])     # -1 + x
    assert p * q == DensePoly.rational([-1, 0, 1])
    assert p + q == DensePoly.rational([0, 2])
    assert (p - p).is_zero
    assert p.scale(F(3)) == DensePoly.rational([3, 3])


def test_divmod_exact():
    p = DensePoly.rational([-1, 0, 0, 1])  # x^3 - 1
    d = DensePoly.rational([-1, 1])        # x - 1
    q, r = p.divmod(d)
    assert r.is_zero
    assert q == DensePoly.rational([1, 1, 1])
    q2, r2 = p.divmod(DensePoly.rational([1, 1]))
    assert q2 * DensePoly.rational([1, 1]) + r2 == p


def test_gcd_and_squarefree():
    p = DensePoly.rational([-1, 1])
    sq = p * p * DensePoly.rational([1, 1])
    g = sq.gcd(sq.derivative())
    assert g == DensePoly.rational([-1, 1])
    with pytest.raises(NonSquarefree):
        sq.check_squarefree()
    DensePoly.rational([1, 0, 1]).check_squarefree()


def test_evaluation_and_derivative():
    p = DensePoly.rational([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(F(1, 2)) == F(3, 4)
    assert p.derivative() == DensePoly.rational([-2, 6])


def test_compose_affine():
    p = DensePoly.rational([0, 0, 1])  # x^2
    # (2x + 1)^2 = 1 + 4x + 4x^2
    assert compose_affine(p, F(2), F(1)) == DensePoly.rational([1, 4, 4])


_POLY = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 max_size=6).map(DensePoly)
_NONZERO = _POLY.filter(lambda p: not p.is_zero)


@settings(max_examples=150, deadline=None)
@given(_POLY, _NONZERO)
def test_divmod_law(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=100, deadline=None)
@given(_POLY, _POLY, _NONZERO)
def test_gcd_laws(a, b, h):
    g = a.gcd(b)
    assert g == b.gcd(a)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.leading() == 1
    assert (a % g).is_zero and (b % g).is_zero
    # a common factor comes out made monic, so g is the greatest divisor
    assert (a * h).gcd(b * h) == g * h.monic()
