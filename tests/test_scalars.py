from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balines.scalars import GaussianRational, I, frac_str, parse_frac


def test_field_arithmetic():
    a = GaussianRational(F(1, 2), F(-1, 3))
    b = GaussianRational(F(2), F(5))
    assert a + b == GaussianRational(F(5, 2), F(14, 3))
    assert a * b - b * a == GaussianRational()
    assert (a / b) * b == a
    assert a - a == GaussianRational()


def test_division_and_inverse():
    a = GaussianRational(F(3), F(4))
    inv = GaussianRational.of(1) / a
    assert a * inv == GaussianRational.of(1)
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational()


def test_conjugation_involution():
    a = GaussianRational(F(7, 5), F(-2, 9))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_real
    assert a.conjugate() * a == GaussianRational.of(a.norm2())


def test_powers():
    assert I ** 2 == GaussianRational.of(-1)
    assert I ** -1 == -I
    a = GaussianRational(F(1), F(1))
    assert a ** 4 == GaussianRational.of(-4)


def test_mixed_scalar_ops():
    a = GaussianRational(F(1, 2), F(1, 2))
    assert 2 * a == GaussianRational(F(1), F(1))
    assert a + F(1, 2) == GaussianRational(F(1), F(1, 2))
    assert 1 - a == GaussianRational(F(1, 2), F(-1, 2))


def test_rational_serialization():
    assert frac_str(F(-4, 3)) == "-4/3"
    assert frac_str(F(5)) == "5"
    assert parse_frac("-4/3") == F(-4, 3)
    assert parse_frac("7") == F(7)


_RATIONAL = st.fractions(min_value=-8, max_value=8, max_denominator=16)
_GAUSSIAN = st.builds(GaussianRational, _RATIONAL, _RATIONAL)


@settings(max_examples=200, deadline=None)
@given(_GAUSSIAN, _GAUSSIAN, _GAUSSIAN)
def test_field_axioms(a, b, c):
    zero, one = GaussianRational(), GaussianRational.of(1)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - b == a + (-b)
    assume(not a.is_zero)
    assert a * (one / a) == one
    assert (b / a) * a == b
    assert a ** -2 * a ** 2 == one


@settings(max_examples=200, deadline=None)
@given(_GAUSSIAN, _GAUSSIAN)
def test_conjugation_laws(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.is_real and norm.re == a.norm2() >= 0
    assert (norm.re == 0) == a.is_zero
