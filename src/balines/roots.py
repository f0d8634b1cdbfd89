"""Certified real roots of a rational polynomial.

The lines of the exact families are the real roots of their slope
polynomial R(alpha), alpha = cot phi (``symfunc.cayley``).  Exact
integer-Horner signs at rational points next to cot((g + 1/2) pi / G),
g < G = 4n + 4 (doubled up to a cap), and at powers of two beyond every
root and below every nonzero one change deg p times only when p has deg p
simple real roots, one per bracket with a sign change (Collins and Akritas
1976).  Newton's method refines each root in its bracket, seeded in floats
and finished in mpmath at precision + 96 bits, plus the bits an evaluation
near the root loses to cancellation, until a step is at most
2^-(precision + 72) of the root; steps out of the bracket, and all steps
while its ends differ in scale by more than 4, bisect it.  A root at 0 is
taken off exactly; unisolated roots raise NonSquarefree or NoConvergence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import mpmath as mp

from .errors import NoConvergence, NonSquarefree
from .numeric import check_precision, log2_abs, to_mp
from .poly import DensePoly

# G = 4n + 4 sample points at first, doubled at most this many times
_DOUBLINGS = 4
# Newton steps per root in each phase
_MAX_ITER = 100
# the float phase stops once a step is below this fraction of the root
_SEED_TOL = 2.0 ** -40


def _root_exponent(c: List[int]) -> int:
    """e with |x| < 2^e for every root x of sum c[k] x^k, from Fujiwara's
    bound |x| <= 2 max_k |c[n-k] / c[n]|^(1/k) on the bit lengths."""
    top = abs(c[-1]).bit_length() - 1
    return 1 + max((-((top - abs(a).bit_length()) // k)
                    for k, a in enumerate(reversed(c[:-1]), 1) if a), default=0)


def _sign(c: List[int], x: Fraction) -> int:
    """Sign of sum c[k] x^k, exactly: Horner on b^n p(a/b)."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for ck in reversed(c):
        acc = acc * a + ck * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _isolate(c: List[int]) -> List[Tuple[Fraction, Fraction, int]]:
    """(lo, hi, sign of p at lo), one bracket per root of sum c[k] x^k
    (c[0] != 0), or fewer when too few signs change at the cap."""
    big, small = Fraction(2) ** _root_exponent(c), Fraction(2) ** -_root_exponent(c[::-1])
    # an odd numerator over 2^s with 2^s not dividing c[n] is never a root
    s = 64 + (c[-1] & -c[-1]).bit_length()
    G = 4 * len(c)  # 4n + 4
    for _ in range(_DOUBLINGS + 1):
        grid = {Fraction(int(math.ldexp(1 / math.tan((g + 0.5) * math.pi / G), 64))
                         << (s - 64) | 1, 1 << s) for g in range(G)}
        points = sorted({-big, -small, small, big}
                        | {x for x in grid if small < abs(x) < big})
        signs = [_sign(c, x) for x in points]
        brackets = [(lo, hi, a) for lo, hi, a, b
                    in zip(points, points[1:], signs, signs[1:]) if a != b]
        if len(brackets) == len(c) - 1:
            return brackets
        G *= 2
    return brackets


def _horner(coeffs, x):
    """(p(x), p'(x)) by one Horner pass, in the arithmetic of x."""
    v = d = 0 * x
    for a in reversed(coeffs):
        d = d * x + v
        v = v * x + a
    return v, d


def _wide(lo, hi) -> bool:
    """Whether the ends of a bracket of one sign differ in scale by more than 4."""
    return 0 < 4 * lo < hi or lo < 4 * hi < 0


def _mid(lo, hi):
    """Bisection point: geometric for a wide bracket, else arithmetic."""
    if _wide(lo, hi):
        return (lo * hi) ** 0.5 * (1 if lo > 0 else -1)
    return (lo + hi) / 2


def _refine(coeffs, lo, hi, slo, x, tol, limit):
    """Newton's method from x for the root of p = sum coeffs[k] x^k in
    (lo, hi), where p(lo) has the sign slo and p(hi) the other.
    Returns (x, last Newton step, steps taken) after the first step of at
    most tol |x| or after limit steps."""
    for k in range(1, limit + 1):
        v, d = _horner(coeffs, x)
        if v == 0:
            return x, v, k
        if (v > 0) == (slo > 0):
            lo = x
        else:
            hi = x
        step = v / d if d else hi - lo  # with no slope, a step out of the bracket
        if abs(step) <= tol * abs(x):
            return x - step, step, k
        x = x - step
        if not lo < x < hi or _wide(lo, hi):
            x = _mid(lo, hi)
    return x, step, k


def poly_roots(p: DensePoly, precision: int = 256) -> List[mp.mpf]:
    """The deg(p) real roots of a rational p in increasing order, each to a
    relative error far below 2^-(precision + 64)."""
    check_precision(precision)
    if p.degree <= 0:
        return []
    den = math.lcm(*(a.denominator for a in p.coeffs))
    c = [a.numerator * (den // a.denominator) for a in p.coeffs]
    roots = []
    if c[0] == 0:
        c, roots = c[1:], [mp.mpf(0)]
        if c[0] == 0:
            raise NonSquarefree("a repeated root at 0")
    brackets = _isolate(c)
    if len(brackets) < len(c) - 1:
        p.check_squarefree()
        raise NoConvergence(f"isolated {len(brackets)} of {len(c) - 1} real roots")
    # floats for the seeds unless a coefficient is beyond their range
    fcoeffs = ([float(a) for a in c]
               if max(abs(a) for a in c).bit_length() < 1000 else None)
    with mp.workprec(max(abs(a) for a in c).bit_length()):
        mcoeffs = [mp.mpf(a) for a in c]  # exact
    tol = mp.mpf(2) ** -(precision + 72)
    for lo, hi, slo in brackets:
        seed, extra = None, 0
        if fcoeffs:
            flo, fhi = float(lo), float(hi)
            x = _refine(fcoeffs, flo, fhi, slo, _mid(flo, fhi), _SEED_TOL, _MAX_ITER)[0]
            if lo < x < hi:  # converged, or as close as float noise allows
                # the bits one evaluation of p near the root loses to cancellation
                size = _horner([abs(a) for a in fcoeffs], abs(x))[0]
                seed, extra = x, max(0, math.frexp(size / abs(x * _horner(fcoeffs, x)[1]))[1])
        with mp.workprec(precision + 96 + extra):
            lo, hi = to_mp(lo), to_mp(hi)
            x = _mid(lo, hi) if seed is None else mp.mpf(seed)
            x, step, k = _refine(mcoeffs, lo, hi, slo, x, tol, _MAX_ITER)
        if abs(step) > tol * abs(x):
            raise NoConvergence(
                f"Newton's method stalled at precision {precision} on the root "
                f"in [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}]: step log2 "
                f"{log2_abs(step):.1f} against target log2 "
                f"{log2_abs(tol * x):.1f} after {k} step(s)")
        roots.append(x)
    return sorted(roots)
