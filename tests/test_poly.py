import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines import poly
from balines.errors import NonSquarefree
from balines.poly import DensePoly

from oracles import (compose_affine, frac_add, frac_derivative, frac_divmod, frac_gcd,
                     frac_monic, frac_mul, frac_of, frac_poly)


def test_normalization_drops_leading_zeros():
    p = DensePoly([1, 2, 0, 0])
    assert p.degree == 1
    assert DensePoly([0, 0]).is_zero


def test_ring_ops():
    p = DensePoly([1, 1])      # 1 + x
    q = DensePoly([-1, 1])     # -1 + x
    assert p * q == DensePoly([-1, 0, 1])
    assert p + q == DensePoly([0, 2])
    assert (p - p).is_zero
    assert p.scale(F(3)) == DensePoly([3, 3])


def test_divmod_exact():
    p = DensePoly([-1, 0, 0, 1])  # x^3 - 1
    d = DensePoly([-1, 1])        # x - 1
    q, r = p.divmod(d)
    assert r.is_zero
    assert q == DensePoly([1, 1, 1])
    q2, r2 = p.divmod(DensePoly([1, 1]))
    assert q2 * DensePoly([1, 1]) + r2 == p


def test_gcd_and_squarefree():
    p = DensePoly([-1, 1])
    sq = p * p * DensePoly([1, 1])
    g = sq.gcd(sq.derivative())
    assert g == DensePoly([-1, 1])
    with pytest.raises(NonSquarefree):
        sq.check_squarefree()
    DensePoly([1, 0, 1]).check_squarefree()


def test_evaluation_and_derivative():
    p = DensePoly([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(F(1, 2)) == F(3, 4)
    assert p.derivative() == DensePoly([-2, 6])


def test_compose_affine():
    p = DensePoly([0, 0, 1])  # x^2
    # (2x + 1)^2 = 1 + 4x + 4x^2
    assert compose_affine(p, F(2), F(1)) == DensePoly([1, 4, 4])


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


# --- the stored numerators and denominator against Fraction tuples ------------


def _assert_normal(p, ref):
    """p is in normal form and equals the Fraction tuple ref."""
    assert type(p.den) is int and p.den > 0
    assert all(type(a) is int for a in p.nums) and isinstance(p.nums, tuple)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.nums or p.den == 1
    assert frac_of(p) == ref


_RATIONALS = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                      max_size=6)


@st.composite
def _spelled(draw):
    """(DensePoly, Fraction tuple) for rationals with up to two trailing zeros,
    spelled as rationals or as integer numerators over a den that may be
    negative and may share a factor with every numerator."""
    cs = draw(_RATIONALS) + [F(0)] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        return DensePoly(cs), frac_poly(cs)
    den = math.lcm(*(c.denominator for c in cs)) * draw(st.sampled_from([-6, -1, 1, 2, 15]))
    return DensePoly([int(c * den) for c in cs], den), frac_poly(cs)


@settings(max_examples=300, deadline=None)
@given(_spelled(), _spelled(), st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_operations_match_the_fraction_reference(pa, pb, c):
    (a, ra), (b, rb) = pa, pb
    results = [(a, ra), (b, rb), (a + b, frac_add(ra, rb)), (a - b, frac_add(ra, rb, -1)),
               (-a, frac_add((), ra, -1)), (a * b, frac_mul(ra, rb)),
               (a.scale(c), frac_mul(ra, frac_poly([c]))), (c * a, frac_mul(ra, frac_poly([c]))),
               (a.derivative(), frac_derivative(ra)), (a.monic(), frac_monic(ra)),
               (a.gcd(b), frac_gcd(ra, rb))]
    if rb:
        results += zip(a.divmod(b), frac_divmod(ra, rb))
    for p, ref in results:
        _assert_normal(p, ref)
    assert a.coeffs == ra and a.degree == len(ra) - 1
    assert [a[k] for k in range(-1, len(ra) + 2)] == [F(0)] + list(ra) + [F(0), F(0)]
    if ra:
        assert a.leading() == ra[-1]
    else:
        with pytest.raises(ValueError):
            a.leading()
    assert (a == b) == (ra == rb)
    same = DensePoly(ra)  # the other spelling of a
    assert same == a and hash(same) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("nums", [[], [0], [1, 2]])
def test_zero_denominator_raises(nums):
    with pytest.raises(ZeroDivisionError):
        DensePoly(nums, 0)


def test_integer_input_stays_on_integers(monkeypatch):
    """Integer numerators, with or without den, and the ring operations on
    them build no Fraction."""
    def no_fraction(*args):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(poly, "Fraction", no_fraction)
    p, q = DensePoly([3, 0, 6], -9), DensePoly([1, 1])
    r = ((p * q + q - p).scale(4).derivative() * -q).monic()
    assert (r.nums, r.den) == ((-1, -1, 3, 3), 3)  # (x^3 + x^2 - x/3 - 1/3)
