import hashlib
import json
from fractions import Fraction as F

import mpmath as mp
import pytest

from balines import roots
from balines.config import Configuration, build_am1n, build_two_mult
from balines.errors import NoConvergence, NonSquarefree
from balines.poly import DensePoly
from balines.roots import poly_roots
from balines.symfunc import cayley, e_values, poly_from_elementary

from oracles import (aberth_roots_reference, eager_json, elementary_from_values,
                     eval_numeric, mpmath_newton_roots)


def test_exact_imaginary_pair():
    # x^2 + 1 has no real root: refused, not answered
    with pytest.raises(NoConvergence, match="isolated 0 of 2"):
        poly_roots(DensePoly([1, 0, 1]), 128)


def test_quadratic_formula_oracle():
    # 3x^2 - 4x - 1 has roots (2 -+ sqrt(7)) / 3
    roots_ = poly_roots(DensePoly([-1, -4, 3]), 256)
    with mp.workprec(320):
        s7 = mp.sqrt(mp.mpf(7))
        assert abs(roots_[0] - (2 - s7) / 3) < mp.mpf(2) ** -318
        assert abs(roots_[1] - (2 + s7) / 3) < mp.mpf(2) ** -318


def test_cube_roots_of_unity():
    # x^3 - 1 has one real root and a complex pair: refused
    with pytest.raises(NoConvergence, match="isolated 1 of 3"):
        poly_roots(DensePoly([-1, 0, 0, 1]), 128)


def test_residual_bound_and_ordering():
    # the slope polynomial of a palindromic z-chart polynomial
    p = cayley(poly_from_elementary([F(-8, 5), F(9, 5), F(-8, 5), F(1)], 4))
    prec = 256
    roots_ = poly_roots(p, prec)
    with mp.workprec(prec + 96):
        for r in roots_:
            scale = sum(abs(mp.mpf(c.numerator) / c.denominator) * abs(r) ** k
                        for k, c in enumerate(p.coeffs))
            assert abs(eval_numeric(p, r)) < mp.mpf(2) ** (-(prec + 64)) * scale
    assert len(roots_) == 4 and roots_ == sorted(roots_)


def test_nonsquarefree_rejected():
    p = DensePoly([-1, 1]) * DensePoly([-1, 1])
    with pytest.raises(NonSquarefree):
        poly_roots(p, 128)


def test_round_trip_elementary():
    # real-rooted polynomials from their elementary values: roots 1 and 1/3,
    # the slope polynomials of am1n (3, 5) and (6, 10), roots -2, 1/7, 5/2
    cases = [[F(-4, 3), F(1, 3)],
             [(-1) ** k * c for k, c in enumerate(reversed(build_am1n(3, 5).R.coeffs))][1:],
             [(-1) ** k * c for k, c in enumerate(reversed(build_am1n(6, 10).R.coeffs))][1:],
             [F(-9, 14), F(-59, 14), F(5, 7)]]
    for e in cases:
        p = poly_from_elementary(e, len(e))
        roots_ = poly_roots(p, 256)
        with mp.workprec(320):
            back = elementary_from_values(roots_)
            for want, got in zip(e, back):
                assert abs(got - mp.mpf(want.numerator) / want.denominator) \
                    < mp.mpf(2) ** -300


def test_determinism():
    p = cayley(poly_from_elementary([F(-3, 2), F(3, 2), F(-1)], 3))
    a = poly_roots(p, 192)
    b = poly_roots(p, 192)
    assert len(a) == 3 and all(x == y for x, y in zip(a, b))


# (polynomial builder, precision): z-chart polynomials with every root on the
# unit circle, the P of am1n (2,25) and (6,16) and of twomult (4,2,16) and
# (3,0,14), then small ones (z = +-i, the cube roots of unity other than 1, ...)
AGREEMENT_CASES = [
    pytest.param(lambda: poly_from_elementary(e_values(2, 25), 25), 256, id="am1n-2-25"),
    pytest.param(lambda: poly_from_elementary(e_values(6, 16), 16), 256, id="am1n-6-16"),
    pytest.param(lambda: build_two_mult(4, 2, 16, 256).P, 256, id="twomult-4-2-16"),
    pytest.param(lambda: build_two_mult(3, 0, 14, 256).P, 256, id="twomult-3-0-14"),
    pytest.param(lambda: DensePoly([1, 0, 1]), 128, id="imaginary-pair"),
    pytest.param(lambda: DensePoly([1, F(4, 3), 1]), 256, id="quadratic"),
    pytest.param(lambda: DensePoly([1, 1, 1]), 128, id="cube-roots"),
    pytest.param(lambda: poly_from_elementary([F(-8, 5), F(9, 5), F(-8, 5), F(1)], 4),
                 256, id="residual-bound"),
    pytest.param(lambda: poly_from_elementary(e_values(6, 10), 10), 256, id="e-6-10"),
    pytest.param(lambda: poly_from_elementary([F(-3, 2), F(3, 2), F(-1)], 3), 192,
                 id="determinism"),
]


def _chart_angles(P, precision):
    """The mult-1 angles that the exact chart builds from cayley(P), for a
    monic P, through a twomult record with mtilde = 0 whose e gives P."""
    n = P.degree
    c = Configuration(kind="twomult", precision=precision, m=1, mtilde=0, n=n,
                      e=tuple((-1) ** i * P[n - i] for i in range(1, n + 1)))
    assert c.P == P
    return [ln.phi for ln in c.lines if ln.phi != 0]


def _reference_angles(P, precision):
    """arg(z)/2 in [0, pi) for the roots z of P, by the complex Aberth
    reference at the given precision, sorted."""
    with mp.workprec(precision + 96):
        phis = [(mp.arg(z) + (2 * mp.pi if mp.arg(z) < 0 else 0)) / 2
                for z in aberth_roots_reference(P, precision)]
    return sorted(phis)


def _ulps(a, b, bits):
    """|a - b| in units in the last place of a at the given bits."""
    with mp.workprec(2 * bits):
        return abs(a - b) / mp.ldexp(1, int(mp.floor(mp.log(abs(a), 2))) + 1 - bits)


@pytest.mark.parametrize("build,prec", AGREEMENT_CASES)
def test_agrees_with_reference_aberth(build, prec):
    P = build()
    got = _chart_angles(P, prec)
    bits = prec + 64
    # the complex Aberth reference at the same precision, and at twice it
    for ref in (_reference_angles(P, prec), _reference_angles(P, 2 * prec)):
        assert len(ref) == len(got)
        assert max(_ulps(a, b, bits) for a, b in zip(got, ref)) <= 1


def test_precision_covers_cancellation():
    # an evaluation of the slope polynomial of am1n (1, 80) near some of its
    # roots loses about 27 bits to cancellation
    got = [ln.phi for ln in build_am1n(1, 80, 64).lines]
    ref = [ln.phi for ln in build_am1n(1, 80, 192).lines]
    assert len(got) == 81
    assert max(_ulps(a, b, 128) for a, b in zip(got[1:], ref[1:])) <= 1


def test_coefficient_beyond_double_range():
    # 10^400 is infinite as a double, so the float phase is skipped
    roots_ = poly_roots(DensePoly([-10 ** 400, 0, 1]), 256)
    with mp.workprec(352):
        big = mp.mpf(10) ** 200
        assert abs(roots_[0] + big) < mp.mpf(2) ** -320 * big
        assert abs(roots_[1] - big) < mp.mpf(2) ** -320 * big


def test_roots_closer_than_double_resolution():
    # (x-1)(x-1-10^-30) is squarefree, but no grid point separates its roots
    eps = F(1, 10 ** 30)
    p = DensePoly([-1, 1]) * DensePoly([-1 - eps, 1])
    with pytest.raises(NoConvergence, match="isolated 0 of 2"):
        poly_roots(p, 256)


def test_tiny_roots_to_relative_accuracy():
    # the brackets (2^-e, tan(pi / 24)) are bisected geometrically first
    got = poly_roots(DensePoly([-F(1, 10 ** 800), 0, 1]), 256)
    with mp.workprec(352):
        tiny = mp.mpf(10) ** -400
        assert abs(got[0] + tiny) < mp.mpf(2) ** -320 * tiny
        assert abs(got[1] - tiny) < mp.mpf(2) ** -320 * tiny


@pytest.mark.parametrize("coeffs,rest", [([0, 1], []), ([0, 1, 1], [-1]),
                                         ([0, -1, 0, 1], [-1, 1])])
def test_root_at_zero_is_exact(coeffs, rest):
    got = poly_roots(DensePoly(coeffs), 128)
    assert [r for r in got if r == 0] == [0]
    assert [int(r) for r in got if r != 0] == rest
    with mp.workprec(192):
        for r, want in zip([r for r in got if r != 0], rest):
            assert abs(r - want) < mp.mpf(2) ** -190


def test_repeated_root_at_zero_rejected():
    with pytest.raises(NonSquarefree):
        poly_roots(DensePoly([0, 0, 1, 1]), 128)


def test_dyadic_roots():
    # sample points are odd over 2^(64 + v), 2^v the largest power of two
    # dividing the leading coefficient, so they are never roots
    p = (DensePoly([F(-1, 2), 1]) * DensePoly([F(-3, 4), 1])
         * DensePoly([F(-5, 8), 1]))
    got = poly_roots(p, 128)
    assert len(got) == 3
    for r, want in zip(got, (0.5, 0.625, 0.75)):
        assert abs(r - want) < mp.mpf(2) ** -(128 + 64)


def test_no_convergence_names_sweeps_and_residual(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as err:
        poly_roots(build_am1n(2, 10, 256).R, 256)
    msg = str(err.value)
    assert "after 1 step(s)" in msg
    step = float(msg.split("step log2 ")[1].split()[0])
    target = float(msg.split("against target log2 ")[1].split()[0])
    assert step > target


# am1n (m, n) and twomult (m, mt, n) records whose slope polynomials the
# full-width mpmath Newton of tests/oracles.py refines too
NEWTON_GRID = ([("am1n", m, 0, n) for m in (1, 2, 4) for n in (3, 10, 25)]
               + [("twomult", m, mt, n)
                  for m, mt, n in ((1, 0, 4), (2, 1, 8), (4, 2, 16), (3, 3, 6))])


def _sha(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_agrees_with_full_width_mpmath_newton(prec):
    # the precision-doubling Newton on integers against Newton in mpmath
    # with every step at full width: roots within 2^-(p + 64) of each
    # other, and the same configuration JSON bytes
    for kind, m, mt, n in NEWTON_GRID:
        c = build_am1n(m, n, prec) if kind == "am1n" else build_two_mult(m, mt, n, prec)
        got = poly_roots(c.R, prec)
        want = mpmath_newton_roots(c.R, prec)
        assert len(got) == len(want) == c.R.degree
        with mp.workprec(2 * prec + 128):
            for a, b in zip(got, want):
                assert abs(a - b) <= mp.ldexp(abs(b), -(prec + 64)), (kind, m, mt, n)
        assert _sha(c.to_json_dict()) == _sha(eager_json(c, mpmath_newton_roots))


def test_at_most_two_full_width_passes_per_root(monkeypatch):
    # Newton starts from the float seed at about 106 bits and doubles the
    # bits of x each step, so only the last two Horner passes of a root
    # run at full width
    passes = []  # [full width, passes at it, passes] per root
    horner, refine = roots._horner, roots._refine

    def counting_refine(c, lo, hi, slo, x, t, width, full, precision):
        passes.append([full, 0, 0])
        return refine(c, lo, hi, slo, x, t, width, full, precision)

    def counting_horner(c, x, t):
        passes[-1][1] += abs(x).bit_length() >= passes[-1][0]
        passes[-1][2] += 1
        return horner(c, x, t)

    monkeypatch.setattr(roots, "_refine", counting_refine)
    monkeypatch.setattr(roots, "_horner", counting_horner)
    R = build_am1n(2, 25, 256).R
    got = poly_roots(R, 256)
    assert len(passes) == len([r for r in got if r != 0]) == R.degree - (R[0] == 0)
    assert all(1 <= at_full <= 2 < total for _, at_full, total in passes)


def test_coefficients_beyond_double_range(monkeypatch):
    # R of am1n (1, 80) times 2^1100 is R once its content is divided out;
    # with 1 added to its leading coefficient (its roots move by about
    # 2^-1100) the floats are scaled back into double range, so that every
    # root still has a float seed, and 64 bits reach the 192-bit roots of R
    R = build_am1n(1, 80, 64).R
    big = R.scale(F(2) ** 1100)
    assert poly_roots(big, 64) == poly_roots(R, 64)
    want = poly_roots(R, 192)
    seeds = []
    seed = roots._seed
    monkeypatch.setattr(roots, "_seed", lambda *a: seeds.append(seed(*a)) or seeds[-1])
    got = poly_roots(big + DensePoly([0] * 80 + [1]), 64)
    assert len(got) == len(want) == len(seeds) == 80 and None not in seeds
    with mp.workprec(256):
        for a, b in zip(got, want):
            assert abs(a - b) <= mp.ldexp(abs(b), -128)
