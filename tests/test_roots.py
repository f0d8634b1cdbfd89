from fractions import Fraction as F

import mpmath as mp
import pytest

from balines import config, roots
from balines.errors import NoConvergence, NonSquarefree
from balines.numeric import mpf_to_hex, working
from balines.poly import DensePoly
from balines.roots import poly_roots
from balines.symfunc import e_values, poly_from_elementary

from oracles import aberth_roots_reference, elementary_from_values, eval_numeric


def test_exact_imaginary_pair():
    roots = poly_roots(DensePoly.rational([1, 0, 1]), 128)
    with mp.workprec(160):
        assert len(roots) == 2
        assert abs(roots[0] - mp.mpc(0, 1)) < mp.mpf(2) ** -120
        assert abs(roots[1] - mp.mpc(0, -1)) < mp.mpf(2) ** -120


def test_quadratic_formula_oracle():
    # w^2 + 4/3 w + 1 has roots -2/3 +- i sqrt(5)/3, modulus 1
    p = DensePoly.rational([1, F(4, 3), 1])
    roots = poly_roots(p, 256)
    with mp.workprec(320):
        expected = mp.mpc(mp.mpf(-2) / 3, mp.sqrt(mp.mpf(5)) / 3)
        assert abs(roots[0] - expected) < mp.mpf(2) ** -240
        assert abs(roots[1] - mp.conj(expected)) < mp.mpf(2) ** -240
        for r in roots:
            assert abs(abs(r) - 1) < mp.mpf(2) ** -240


def test_cube_roots_of_unity():
    roots = poly_roots(DensePoly.rational([1, 1, 1]), 128)
    with mp.workprec(160):
        for r in roots:
            assert abs(r ** 3 - 1) < mp.mpf(2) ** -110
            assert abs(r - 1) > 1


def test_residual_bound_and_ordering():
    p = poly_from_elementary([F(-8, 5), F(9, 5), F(-8, 5), F(1)], 4)
    prec = 256
    roots = poly_roots(p, prec)
    with mp.workprec(prec + 64):
        scale = max(abs(mp.mpf(c.numerator) / c.denominator) for c in p.coeffs)
        for r in roots:
            assert abs(eval_numeric(p, r)) < mp.mpf(2) ** (-(prec - 16)) * scale
        args = [mp.arg(r) % (2 * mp.pi) for r in roots]
        assert args == sorted(args)


def test_nonsquarefree_rejected():
    p = DensePoly.rational([-1, 1]) * DensePoly.rational([-1, 1])
    with pytest.raises(NonSquarefree):
        poly_roots(p, 128)


def test_round_trip_elementary():
    cases = [[F(-4, 3), F(1)],
             e_values(3, 5),
             e_values(6, 10),
             [F(1, 7), F(-2, 3), F(5, 2)]]
    for e in cases:
        p = poly_from_elementary(e, len(e))
        roots = poly_roots(p, 256)
        with mp.workprec(320):
            back = elementary_from_values(roots)
            for want, got in zip(e, back):
                assert abs(got - mp.mpf(want.numerator) / want.denominator) \
                    < mp.mpf(2) ** -200


def test_determinism():
    p = poly_from_elementary([F(-3, 2), F(3, 2), F(-1)], 3)
    a = poly_roots(p, 192)
    b = poly_roots(p, 192)
    assert all(x == y for x, y in zip(a, b))


# (polynomial builder, precision): the P of am1n (2,25) and (6,16) and of
# twomult (4,2,16) and (3,0,14), then the polynomials of the tests above
AGREEMENT_CASES = [
    pytest.param(lambda: poly_from_elementary(e_values(2, 25), 25), 256, id="am1n-2-25"),
    pytest.param(lambda: poly_from_elementary(e_values(6, 16), 16), 256, id="am1n-6-16"),
    pytest.param(lambda: config.build_two_mult(4, 2, 16, 256).P, 256, id="twomult-4-2-16"),
    pytest.param(lambda: config.build_two_mult(3, 0, 14, 256).P, 256, id="twomult-3-0-14"),
    pytest.param(lambda: DensePoly.rational([1, 0, 1]), 128, id="imaginary-pair"),
    pytest.param(lambda: DensePoly.rational([1, F(4, 3), 1]), 256, id="quadratic"),
    pytest.param(lambda: DensePoly.rational([1, 1, 1]), 128, id="cube-roots"),
    pytest.param(lambda: poly_from_elementary([F(-8, 5), F(9, 5), F(-8, 5), F(1)], 4),
                 256, id="residual-bound"),
    pytest.param(lambda: poly_from_elementary(e_values(6, 10), 10), 256, id="e-6-10"),
    pytest.param(lambda: poly_from_elementary([F(-3, 2), F(3, 2), F(-1)], 3), 192,
                 id="determinism"),
]


@pytest.mark.parametrize("build,prec", AGREEMENT_CASES)
def test_agrees_with_reference_aberth(build, prec, monkeypatch):
    p = build()
    got = poly_roots(p, prec)
    want = aberth_roots_reference(p, prec)
    with mp.workprec(prec + 96):
        # 2^-300 at 256 bits
        assert max(abs(a - b) for a, b in zip(got, want)) < mp.mpf(2) ** -(prec + 44)
    # the stored line angles are bit-for-bit those of the reference roots
    with working(prec):
        phis = [mpf_to_hex(ln.phi) for ln in config._lines_from_poly_roots(p, prec)]
        monkeypatch.setattr(config, "poly_roots", aberth_roots_reference)
        ref = [mpf_to_hex(ln.phi) for ln in config._lines_from_poly_roots(p, prec)]
    assert phis == ref


def test_coefficient_beyond_double_range():
    # 10^400 is infinite as a double, so the iteration starts on the circle
    roots_ = poly_roots(DensePoly.rational([10 ** 400, 0, 1]), 256)
    with mp.workprec(352):
        big = mp.mpf(10) ** 200
        assert abs(roots_[0] - mp.mpc(0, big)) < mp.mpf(2) ** -250 * big
        assert abs(roots_[1] - mp.mpc(0, -big)) < mp.mpf(2) ** -250 * big


def test_roots_closer_than_double_resolution():
    # (x-1)(x-1-10^-30) is (x-1)^2 in doubles; at 352 bits the roots are
    # resolved only to about 2^-352 / 10^-30 ~ 2^-252, the reference too
    eps = F(1, 10 ** 30)
    p = DensePoly.rational([-1, 1]) * DensePoly.rational([-1 - eps, 1])
    got = poly_roots(p, 256)
    want = aberth_roots_reference(p, 256)
    with mp.workprec(352):
        assert abs(got[0] - 1) < mp.mpf(2) ** -240
        assert abs(got[1] - 1 - mp.mpf(10) ** -30) < mp.mpf(2) ** -240
        assert max(abs(a - b) for a, b in zip(got, want)) < mp.mpf(2) ** -240


def test_start_points_coinciding_in_doubles():
    # the Fujiwara circle has radius 2*10^-400, which is 0 as a double
    p = DensePoly.rational([F(1, 10 ** 800), 0, 1])
    got = poly_roots(p, 256)
    with mp.workprec(352):
        assert len(got) == 2
        for r in got:
            assert mp.isfinite(r)
            assert abs(r * r + mp.mpf(10) ** -800) < mp.mpf(2) ** -240


def test_tiny_roots_to_relative_accuracy():
    # each residual is measured against the largest term of p(x), 10^-800
    # here, not against max|coeff| = 1, which the start circle already meets
    got = poly_roots(DensePoly.rational([F(1, 10 ** 800), 0, 1]), 256)
    with mp.workprec(352):
        tiny = mp.mpf(10) ** -400
        assert abs(got[0] - mp.mpc(0, tiny)) < mp.mpf(2) ** -250 * tiny
        assert abs(got[1] - mp.mpc(0, -tiny)) < mp.mpf(2) ** -250 * tiny


@pytest.mark.parametrize("coeffs,rest", [([0, 1], []), ([0, 1, 1], [-1]),
                                         ([0, 1, 0, 1], [1j, -1j])])
def test_root_at_zero_is_exact(coeffs, rest):
    got = poly_roots(DensePoly.rational(coeffs), 128)
    with mp.workprec(192):
        assert got[0] == 0
        assert len(got) == 1 + len(rest)
        for r, want in zip(got[1:], rest):
            assert abs(r - want) < mp.mpf(2) ** -120


def test_no_convergence_names_sweeps_and_residual(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as err:
        poly_roots(config.build_am1n(2, 10, 256).P, 256)
    msg = str(err.value)
    assert "after 1 sweep(s)" in msg
    worst = float(msg.split("worst residual log2 ")[1].split()[0])
    target = float(msg.split("against target log2 ")[1].split()[0])
    assert worst > target
