from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines.certify import certify_ba
from balines.config import Multiplicities, angle_multiset_distance, build_am1n
from balines.errors import NoConvergence
from balines.locus import _Fixed, _float_seed, _newton, solve_general_locus
from balines.numeric import working
from oracles import mpmath_locus_newton


def gradient_norm(c):
    """max_j |m_j sum_{i != j} m_i cot(phi_j - phi_i)| over every line, by
    mp.cot at the configuration's working precision."""
    with working(c.precision):
        return max(abs(lj.mult * mp.fsum(li.mult * mp.cot(lj.phi - li.phi)
                                         for li in c.lines if li is not lj))
                   for lj in c.lines)


def test_two_equal_lines_orthogonal():
    c = solve_general_locus((1, 1), 128)
    with working(128):
        assert abs(c.lines[1].phi - mp.pi / 2) < mp.mpf(2) ** -90


def test_equal_multiplicities_return_the_equispaced_start():
    c = solve_general_locus([1] * 13, 256)
    with working(256):
        assert [ln.phi for ln in c.lines] == [mp.pi * k / 13 for k in range(13)]


def test_start_within_rounding_of_the_critical_point_is_returned():
    # one weight off by 2^-270, which no float holds, so the kernel gets it
    # as a Fraction: the Newton step from the equispaced start is below
    # 2^-256, so solve_general_locus would return the start as it is
    fixed = _Fixed((1, 1, 1, 1 + Fraction(1, 2**270)), 256)
    assert fixed.is_critical([fixed.pi * k // 4 for k in range(4)])


def test_start_with_a_step_above_the_precision_is_refined():
    # off by 2^-250: the gradient at the start (about 2^-250) is below the
    # tolerance 2^-224, but the step (about 2^-252) is above 2^-256, and
    # Newton moves the start to a critical point
    fixed = _Fixed((1, 1, 1, 1 + Fraction(1, 2**250)), 256)
    start = [fixed.pi * k // 4 for k in range(4)]
    assert max(abs(v) for v in fixed.system(start)[0]) < fixed.tol
    assert not fixed.is_critical(start)
    psis, gnorm = _newton(fixed, start)
    assert psis != start and gnorm < fixed.tol
    assert fixed.is_critical(psis)


def test_reproduces_heavy_line_family():
    for m, n in [(1, 2), (2, 2), (3, 4)]:
        c = solve_general_locus([m] + [1] * n, 256)
        ref = build_am1n(m, n, 256)
        assert angle_multiset_distance(c, ref) < mp.mpf(2) ** -(256 - 40)


def test_arbitrary_multiplicities_residuals():
    c = solve_general_locus((2, 3, 1, 1), 256)
    first = [r for r in certify_ba(c).residuals if r.k == 1 and r.form == "polar-first"]
    assert len(first) == len(c.lines)
    assert all(r.relative() < mp.mpf(2) ** -(256 - 32) for r in first)


def test_real_multiplicities_accepted():
    # certify_ba takes integer multiplicities only; the gradient is the
    # first condition at k = 1 weighted by m_j
    c = solve_general_locus((1.5, 2.5, 1.0), 128)
    assert len(c.lines) == 3
    assert gradient_norm(c) < mp.mpf(2) ** -(128 - 32)


@pytest.mark.parametrize("mults", [(3, 1, 1, 1, 1, 1, 1), (1, 2, 3, 4), (2, 3, 1, 1),
                                   (2, 1, 1), (4,) + (1,) * 16])
def test_gradient_at_rounding_level(mults):
    # 64 bits past the contract of 2^-(p-32): one Newton step after the
    # contract is met lands on the rounding level of the working precision
    # (without it, 2,1,1 and 4,1^16 stop near 2^-(p-11) and 2^-(p-15))
    c = solve_general_locus(mults, 256)
    assert gradient_norm(c) <= mp.mpf(2) ** -(256 + 32)


# The bench loci, the 2,1^n loci that once took seconds, a heavy weight and
# six distinct ones.
AGREEMENT_LOCI = [(1,) * 13, (2,) + (1,) * 6, (3,) + (1,) * 10, (4,) + (1,) * 16,
                  (3,) + (1,) * 6, (2, 3, 1, 1), (1, 2, 3, 4), (2,) + (1,) * 8,
                  (2,) + (1,) * 12, (2,) + (1,) * 16, (1000, 1, 1), (6, 5, 4, 3, 2, 1)]


@pytest.mark.parametrize("precision", [128, 256, 512])
@pytest.mark.parametrize("mults", AGREEMENT_LOCI, ids=lambda m: ",".join(map(str, m)))
def test_fixed_point_phase_matches_mpmath(mults, precision):
    # both phases start from the same float seed; they agree to about
    # 2^-(p+62) and the gradient ends near 2^-(p+53) at worst (1000,1,1)
    n = len(mults)
    fixed = _Fixed(mults, precision)
    seed = _float_seed(mults, [fixed.pi * j // n / fixed.one for j in range(n)])
    psis, gnorm = _newton(fixed, [fixed.from_float(v) for v in seed])
    ref, _ = mpmath_locus_newton(mults, seed, precision)
    with mp.workprec(2 * precision):
        assert max(abs(mp.ldexp(a, -fixed.frac) - b)
                   for a, b in zip(psis, ref)) <= mp.mpf(2) ** -(precision + 48)
    assert gnorm <= fixed.one >> (precision + 48)


@pytest.mark.parametrize("mults", [(1e-20, 1, 1), (1, 1e-10, 1e10, 1),
                                   (1000, 1, 1), (1.5, 2.5, 1.0)])
def test_extreme_weights(mults):
    c = solve_general_locus(mults, 128)
    assert sorted(ln.mult for ln in c.lines) == sorted(mults)
    assert gradient_norm(c) < mp.mpf(2) ** -(128 - 32)


def test_weight_below_working_precision_does_not_converge():
    # the pull of a weight of 1e-200 on the other two lines is far below
    # rounding, so the Hessian is singular at working precision
    with pytest.raises(NoConvergence):
        solve_general_locus((1e-200, 1, 1), 128)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=6))
def test_integer_multiplicities_reach_a_critical_point(mults):
    c = solve_general_locus(mults, 128)
    assert gradient_norm(c) < mp.mpf(2) ** -(128 - 32)


def test_multiplicities_validation():
    with pytest.raises(ValueError):
        Multiplicities(())
    with pytest.raises(ValueError):
        Multiplicities((1, 0))
    with pytest.raises(ValueError):
        solve_general_locus((2,), 128)


@pytest.mark.parametrize("bad", [True, Fraction(3, 2), "2", float("nan"), float("inf")])
def test_multiplicities_take_what_a_file_stores(bad):
    # the rule Configuration.from_json_dict applies to a line's mult: a bool
    # would be saved as true, and a Fraction cannot be saved at all
    with pytest.raises(ValueError, match="is not a positive finite number"):
        Multiplicities((bad, 1, 1))
    with pytest.raises(ValueError, match="is not a positive finite number"):
        solve_general_locus((bad, 1, 1), 128)
