from fractions import Fraction as F

import mpmath as mp
import pytest

from balines.poly import DensePoly
from balines.config import build_am1n, build_two_mult
from balines.roots import poly_roots
from balines.symfunc import (cayley, e_values, ehat_values, elementary_from_power_sums,
                             poly_from_elementary, power_sums_from_elementary,
                             r_poly_from_ehat)

from paper import (OutOfRange, f_to_e, f_to_ehat, f_values, identity_a_lhs,
                   identity_a_rhs, identity_b_lhs, identity_b_rhs,
                   saalschutz_lhs, saalschutz_rhs)


def test_poly_from_elementary_examples():
    assert poly_from_elementary([F(-4, 3), F(1)], 2) == DensePoly([1, F(4, 3), 1])
    assert poly_from_elementary([], 0) == DensePoly([1])
    assert poly_from_elementary([F(-1), F(1)], 2) == DensePoly([1, 1, 1])


def test_f_to_e_examples():
    assert f_to_e([F(5, 6)], 2) == [F(-4, 3), F(1)]
    assert f_to_e([], 0) == []
    assert f_to_e([F(3, 4)], 2) == [F(-1), F(1)]


def test_f_to_e_odd_appends_minus_one_root():
    # the odd-n conversion must keep -1 as a root of the rebuilt polynomial
    for m, n in [(1, 3), (2, 5), (4, 7)]:
        e = f_to_e(f_values(m, n), n)
        p = poly_from_elementary(e, n)
        assert p(F(-1)) == 0


def test_f_to_ehat_examples():
    assert f_to_ehat([F(5, 6)]) == [F(1, 5)]
    assert f_to_ehat([F(1, 2)]) == [F(1)]
    # (m, n) = (2, 4) chain: values fixed by the numeric oracle below
    assert f_to_ehat(f_values(2, 4)) == [F(6, 5), F(3, 35)]


def test_f_to_ehat_numeric_oracle():
    # solve the u_i from f numerically, form elementary symmetric of 1/u - 1
    f = f_values(2, 4)
    got = f_to_ehat(f)
    with mp.workprec(256):
        # roots of t^2 - f1 t + f2
        f1, f2 = (mp.mpf(v.numerator) / v.denominator for v in f)
        disc = mp.sqrt(f1 ** 2 - 4 * f2)
        us = [(f1 + disc) / 2, (f1 - disc) / 2]
        vs = [1 / u - 1 for u in us]
        e1, e2 = vs[0] + vs[1], vs[0] * vs[1]
        assert abs(e1 - mp.mpf(6) / 5) < mp.mpf(2) ** -200
        assert abs(e2 - mp.mpf(3) / 35) < mp.mpf(2) ** -200
    assert got == [F(6, 5), F(3, 35)]


def test_f_to_ehat_degenerate():
    with pytest.raises(ValueError, match="top f value is zero"):
        f_to_ehat([F(1), F(0)])


def test_closed_form_values():
    assert e_values(2, 2) == [F(-4, 3), F(1)]
    assert e_values(1, 2) == [F(-1), F(1)]
    assert e_values(1, 1) == [F(-1)]
    assert ehat_values(2, 2) == [F(1, 5)]
    assert f_values(2, 2) == [F(5, 6)]


def test_symmetry_of_closed_form():
    # e_i = (-1)^n e_{n-i} with z_0 = 1
    for m in range(1, 7):
        for n in range(1, 13):
            e = [F(1)] + e_values(m, n)
            for i in range(0, n + 1):
                assert e[i] == (-1) ** n * e[n - i]


def test_identity_a_even_grid():
    for m in range(1, 7):
        for n in range(2, 13, 2):
            for r in range(1, n // 2 + 1):
                assert identity_a_lhs(m, n, r) == identity_a_rhs(m, n, r)


def test_identity_a_literal_is_even_only():
    with pytest.raises(OutOfRange):
        identity_a_rhs(2, 3, 1)


def test_identity_a_odd_via_conversion_chain():
    # odd n: the closed-form e values must come out of the f chart with the
    # appended root convention
    for m in range(1, 7):
        for n in range(1, 13):
            assert f_to_e(f_values(m, n), n) == e_values(m, n)


def test_identity_b_grid():
    for m in range(1, 7):
        for n in range(1, 13):
            for r in range(1, n // 2 + 1):
                assert identity_b_lhs(m, n, r) == identity_b_rhs(m, n, r)


def test_chain_f_to_ehat_reproduces_closed_form():
    for m in range(1, 7):
        for n in range(2, 13):
            assert f_to_ehat(f_values(m, n)) == ehat_values(m, n)


def test_r_poly_roots_are_slopes():
    # R for (m, n) = (2, 2) is alpha^2 - 1/5: roots +-1/sqrt(5)
    R = r_poly_from_ehat(ehat_values(2, 2), 2)
    assert R == DensePoly([F(-1, 5), 0, 1])
    R13 = r_poly_from_ehat(ehat_values(1, 3), 3)
    assert R13(F(0)) == 0 and R13(F(1)) == 0 and R13(F(-1)) == 0


def test_cayley_gives_the_stored_slope_polynomial():
    for m in range(1, 7):
        for n in range(1, 11):
            c = build_am1n(m, n, 64)
            assert cayley(c.P) == c.R, (m, n)


def test_cayley_of_two_mult_is_real_rooted():
    for m in range(1, 5):
        for mt in range(0, 5):
            for n in range(2, 17, 2):
                R = cayley(build_two_mult(m, mt, n, 64).P)
                assert R.degree == n and R.leading() == 1
                assert len(poly_roots(R, 64)) == n
                assert mt == 0 or R[0] != 0, (m, mt, n)


def test_cayley_maps_unit_circle_roots_to_slopes():
    # roots z = -1, i: phi = pi/2 and pi/4, slopes 0 and 1
    P = DensePoly([1, 1]) * DensePoly([1, 0, 1])
    assert cayley(P) == DensePoly([0, -1, 0, 1])


@pytest.mark.parametrize("coeffs", [[-1, 1], [1, -3, 2], [1, 2, 3]])
def test_cayley_refuses(coeffs):
    # P(1) = 0 (a root on the phi = 0 line) for the first two; the roots of
    # 3w^2 + 2w + 1 have modulus 1/sqrt(3), so R is not real
    with pytest.raises(ValueError):
        cayley(DensePoly(coeffs))


def test_newton_round_trip():
    e = [F(-8, 5), F(9, 5), F(-8, 5), F(1)]
    p = power_sums_from_elementary(e, 9)
    assert elementary_from_power_sums(p, 4) == e


def test_saalschutz_terminating():
    for a in (F(-2), F(-5), F(1, 2)):
        for b in (F(3), F(-7, 2)):
            for c in (F(4), F(9, 2)):
                for r in (1, 2, 3, 5):
                    assert saalschutz_lhs(a, b, c, r) == saalschutz_rhs(a, b, c, r)
