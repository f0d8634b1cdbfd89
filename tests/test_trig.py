import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines.darboux import darboux_levels
from balines.trig import TrigPoly, wronskian

from oracles import (bareiss_wronskian, coefficients, exact_div, is_real,
                     numeric_wronskian_sines, termwise_product, trig_value)


def test_sin_cos_values():
    with mp.workprec(200):
        phi = mp.mpf(3) / 7
        assert abs(trig_value(TrigPoly.sin(3), phi) - mp.sin(3 * phi)) < mp.mpf(2) ** -190
        assert abs(trig_value(TrigPoly.cos(2), phi) - mp.cos(2 * phi)) < mp.mpf(2) ** -190


def test_realness_criterion():
    assert is_real(TrigPoly.sin(4))
    assert is_real(TrigPoly.cos(5))
    assert not is_real(TrigPoly({1: 1}))
    assert is_real(TrigPoly({0: (F(1), F(1))})) is False


def test_realness_closed_under_products():
    a = TrigPoly.sin(1) * TrigPoly.cos(3) + TrigPoly.sin(2) ** 2
    b = TrigPoly.cos(1) - TrigPoly.sin(5).scale(F(7, 3))
    assert is_real(a) and is_real(b)
    assert is_real(a * b)
    assert is_real(wronskian([a, b]))


def test_pythagoras_exact():
    assert TrigPoly.sin(1) ** 2 + TrigPoly.cos(1) ** 2 == TrigPoly.const(1)


def test_derivative_matches_finite_differences():
    f = TrigPoly.sin(3) * TrigPoly.cos(2) + TrigPoly.cos(7).scale(F(1, 3))
    df = f.dphi()
    with mp.workprec(300):
        phi = mp.mpf(1) / 3
        h = mp.mpf(2) ** -40
        fd = (trig_value(f, phi + h) - trig_value(f, phi - h)) / (2 * h)
        assert abs(fd - trig_value(df, phi)) < mp.mpf(2) ** -70


def test_derivative_of_sin_is_k_cos():
    assert TrigPoly.sin(5).dphi() == TrigPoly.cos(5).scale(5)


def test_wronskian_single():
    assert wronskian([TrigPoly.sin(1)]) == TrigPoly.sin(1)


def test_wronskian_two_by_two():
    # 3 sin(phi) cos(3 phi) - cos(phi) sin(3 phi) = sin(4 phi) - 2 sin(2 phi)
    w = wronskian([TrigPoly.sin(1), TrigPoly.sin(3)])
    assert w == TrigPoly.sin(4) - TrigPoly.sin(2).scale(2)


def test_wronskian_matches_numeric_determinant():
    ks = [1, 2, 3]
    w = wronskian([TrigPoly.sin(k) for k in ks])
    assert not w.is_zero
    with mp.workprec(320):
        phi = mp.pi / 4
        det = numeric_wronskian_sines(ks, phi)
        assert abs(trig_value(w, phi) - det) < mp.mpf(2) ** -200


def test_wronskian_of_dependent_functions_vanishes():
    f = TrigPoly.sin(2)
    assert wronskian([f, f.scale(3)]).is_zero


def test_exact_division():
    a = TrigPoly.sin(3)
    b = TrigPoly.sin(1)
    q = exact_div(a, b)  # sin3/sin = 2cos2 + 1
    assert q == coefficients(TrigPoly.cos(2).scale(2) + TrigPoly.const(1))
    with pytest.raises(ValueError):
        exact_div(TrigPoly.cos(1), TrigPoly.sin(2))


def test_power_squares_only_while_bits_remain(monkeypatch):
    x = TrigPoly.sin(1) + TrigPoly.cos(2).scale(F(1, 3))
    squarings = []
    mul = TrigPoly.__mul__

    def counting(a, b):
        if a is b:
            squarings.append(a)
        return mul(a, b)

    monkeypatch.setattr(TrigPoly, "__mul__", counting)
    expected = TrigPoly.const(1)
    for k in range(26):
        squarings.clear()
        assert x ** k == expected
        assert len(squarings) == max(k.bit_length() - 1, 0), k
        expected = expected * x


def test_subs_power():
    assert TrigPoly.sin(3).subs_power(2) == TrigPoly.sin(6)


def test_subs_power_refuses_zero():
    # u -> u^0 would send every term to u^0 and keep only the last one
    for p in (TrigPoly.cos(1), TrigPoly.sin(1)):
        with pytest.raises(ValueError, match="q != 0"):
            p.subs_power(0)
    assert TrigPoly.cos(2).subs_power(-1) == TrigPoly.cos(2)


def _oracle_ladders():
    """(levels, q): every (m, mt) with m <= 6 at q = 1 and every (m, mt)
    with m <= 4 at q = 2, 3; n runs over 1..10 (even 2..10 when mt >= 1)
    up to m = 4 and over 1, 2 (2) above, plus the (6, 3, 10) ladder."""
    for q, top in ((1, 6), (2, 4), (3, 4)):
        for m in range(1, top + 1):
            nmax = 10 if m <= 4 else 2
            for mt in range(m + 1):
                for n in range(1 if mt == 0 else 2, nmax + 1, 1 if mt == 0 else 2):
                    yield darboux_levels(m, mt, n), q
    yield darboux_levels(6, 3, 10), 1


def test_wronskian_matches_bareiss_oracle():
    a = TrigPoly.sin(1) * TrigPoly.cos(3) + TrigPoly.sin(2) ** 2
    b = TrigPoly.cos(1) - TrigPoly.sin(5).scale(F(7, 3))
    cases = [[TrigPoly.sin(q * k) for k in levels]
             for levels, q in _oracle_ladders()]
    cases += [[a, b], [b, a, a * b],
              [TrigPoly.sin(2), TrigPoly.sin(3), TrigPoly.sin(2).scale(F(5, 7))]]
    for fs in cases:
        assert coefficients(wronskian(fs)) == bareiss_wronskian(fs)
    assert wronskian(cases[-1]).is_zero


# Sparse Laurent polynomials whose coefficients carry mixed denominators, and
# real sine/cosine combinations.
_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_SPARSE = st.dictionaries(
    st.integers(-7, 7), st.tuples(_RATIONAL, _RATIONAL),
    max_size=6).map(TrigPoly)
_REAL_TRIG = st.lists(
    st.tuples(st.sampled_from([TrigPoly.sin, TrigPoly.cos]), st.integers(0, 4),
              _RATIONAL), max_size=4).map(
    lambda terms: sum((f(k).scale(c) for f, k, c in terms), TrigPoly.zero()))
_TRIG = st.one_of(_SPARSE, _REAL_TRIG)
_SCALAR = st.one_of(_RATIONAL, st.integers(-5, 5), st.tuples(_RATIONAL, _RATIONAL))


def _assert_normal(p):
    """Nonzero terms over one positive denominator prime to all of them; the
    zero polynomial over 1."""
    assert p.den > 0
    assert all(re or im for re, im in p.terms.values())
    assert math.gcd(p.den, *(x for v in p.terms.values() for x in v)) == 1


def _assert_identical(p, q):
    _assert_normal(p)
    assert (p.terms, p.den, hash(p)) == (q.terms, q.den, hash(q))


@settings(max_examples=150, deadline=None)
@given(_TRIG, _TRIG, _TRIG, _SCALAR)
def test_normal_form_independent_of_route(a, b, c, s):
    _assert_identical((a * b) * c, a * (b * c))
    _assert_identical(a + b - b, a)
    _assert_identical((a + b).dphi(), a.dphi() + b.dphi())
    re, im = (F(s[0]), F(s[1])) if isinstance(s, tuple) else (F(s), F(0))
    norm = re * re + im * im
    if norm:
        _assert_identical(a.scale(s).scale((re / norm, -im / norm)), a)
        if not im:
            _assert_identical(a.scale(s).scale(1 / re), a)
    zero = TrigPoly.zero()
    for z in (a - a, a.scale(0), a * zero, zero.dphi(), (a + b) - (b + a),
              TrigPoly.const(5).dphi(), TrigPoly.sin(0), wronskian([a, a])):
        _assert_identical(z, zero)
        assert z.den == 1


def test_product_cancellation_drops_zeros():
    p = TrigPoly.sin(1) * TrigPoly.cos(1)
    assert p == TrigPoly.sin(2).scale(F(1, 2))
    assert sorted(p.terms) == [-2, 2]
    q = (TrigPoly({1: 1}) + TrigPoly.const(1)) * \
        (TrigPoly({1: 1}) - TrigPoly.const(1))
    assert (q.terms, q.den) == ({2: (1, 0), 0: (-1, 0)}, 1)
    assert (TrigPoly.sin(3) * TrigPoly.zero()).is_zero


@st.composite
def _cancelling_pairs(draw):
    """(a, b) = (g sin(k) u^j, h cos(k) u^j'), Gaussian g, h: the two term
    products landing on u^(j+j') cancel, since sin*cos = sin(2 phi)/2."""
    g = (draw(_RATIONAL), draw(_RATIONAL))
    h = (draw(_RATIONAL), draw(_RATIONAL))
    k = draw(st.integers(1, 5))
    j, jj = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return (TrigPoly.sin(k) * TrigPoly({j: g}),
            TrigPoly.cos(k) * TrigPoly({jj: h}))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(_TRIG, _TRIG), _cancelling_pairs()))
def test_product_matches_termwise_oracle(pair):
    a, b = pair
    p = a * b
    assert coefficients(p) == termwise_product(a, b)
    _assert_normal(p)


@settings(max_examples=100, deadline=None)
@given(_TRIG, _TRIG, _TRIG)
def test_product_commutes_and_distributes(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(_TRIG, _SCALAR)
def test_scale_and_derivative_match_termwise_oracle(a, c):
    assert coefficients(a.scale(c)) == termwise_product(a, TrigPoly.const(c))
    derivative = {}
    for l, v in coefficients(a).items():
        derivative.update(termwise_product(TrigPoly({l: v}),
                                           TrigPoly.const((0, l))))
    assert coefficients(a.dphi()) == derivative
