"""Certified real roots of a rational polynomial.

The lines of the exact families are the real roots of their slope
polynomial R(alpha), alpha = cot phi (``symfunc.cayley``).  Exact
integer-Horner signs at dyadic points next to cot((g + 1/2) pi / G),
g < G = 4n + 4 (doubled up to a cap), and at powers of two beyond every
root and below every nonzero one change deg p times only when p has deg p
simple real roots, one per bracket with a sign change (Collins and Akritas
1976).  The points are integers over one power of two.  Newton's method
refines each root in its bracket, seeded in floats (the coefficients
scaled into double range by a power of two), then run on integers X / 2^t:
one fixed-point Horner pass for p and p' per step, with the bits of X
doubled from step to step up to precision + 96, plus the bits an
evaluation near the root loses to cancellation, until a step at that full
width is at most 2^-(precision + 72) of the root; steps out of the
bracket, and all steps while its ends differ in scale by more than 4,
bisect it.  A root at 0 is taken off exactly; unisolated roots raise
NonSquarefree or NoConvergence.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import NoConvergence, NonSquarefree
from .numeric import check_precision, order_keys
from .poly import DensePoly

# G = 4n + 4 sample points at first, doubled at most this many times
_DOUBLINGS = 4
# Newton steps per root in each phase
_MAX_ITER = 100
# the float phase stops once a step is below this fraction of the root
_SEED_TOL = 2.0 ** -40
# float seeds need coefficients within this many bits of each other
_FLOAT_SPREAD = 1000


def _root_exponent(c: List[int]) -> int:
    """e with |x| < 2^e for every root x of sum c[k] x^k, from Fujiwara's
    bound |x| <= 2 max_k |c[n-k] / c[n]|^(1/k) on the bit lengths."""
    top = abs(c[-1]).bit_length() - 1
    return 1 + max((-((top - abs(a).bit_length()) // k)
                    for k, a in enumerate(reversed(c[:-1]), 1) if a), default=0)


def _sign(c: List[int], a: int, s: int) -> int:
    """Sign of sum c[k] (a / 2^s)^k, exactly: Horner on 2^(sn) p(a / 2^s)."""
    acc = shift = 0
    for ck in reversed(c):
        acc = acc * a + (ck << shift)
        shift += s
    return (acc > 0) - (acc < 0)


def _isolate(c: List[int]) -> Tuple[int, List[Tuple[int, int, int]]]:
    """s and (lo, hi, sign of p at lo), ends over 2^s, one bracket per root
    of sum c[k] x^k (c[0] != 0), or fewer when too few signs change at the
    cap."""
    e, e_small = _root_exponent(c), _root_exponent(c[::-1])
    # an odd numerator over 2^s0 with 2^s0 not dividing c[n] is never a root
    s0 = 64 + (c[-1] & -c[-1]).bit_length()
    s = max(s0, e_small, -e)
    big, small = 1 << (s + e), 1 << (s - e_small)
    G = 4 * len(c)  # 4n + 4
    for _ in range(_DOUBLINGS + 1):
        grid = {(int(math.ldexp(1 / math.tan((g + 0.5) * math.pi / G), 64))
                 << (s0 - 64) | 1) << (s - s0) for g in range(G)}
        points = sorted({-big, -small, small, big}
                        | {x for x in grid if small < abs(x) < big})
        signs = [_sign(c, x, s) for x in points]
        brackets = [(lo, hi, a) for lo, hi, a, b
                    in zip(points, points[1:], signs, signs[1:]) if a != b]
        if len(brackets) == len(c) - 1:
            return s, brackets
        G *= 2
    return s, brackets


def _wide(lo, hi) -> bool:
    """Whether the ends of a bracket of one sign differ in scale by more than 4."""
    return 0 < 4 * lo < hi or lo < 4 * hi < 0


def _float_horner(coeffs: List[float], x: float) -> Tuple[float, float]:
    """(p(x), p'(x)) by one Horner pass in floats."""
    v = d = 0.0
    for a in reversed(coeffs):
        d = d * x + v
        v = v * x + a
    return v, d


def _seed(coeffs: List[float], lo: int, hi: int, s: int, slo: int):
    """(x, t, extra): Newton's method in floats for the root of
    sum coeffs[k] x^k in (lo, hi) / 2^s, where p(lo) has the sign slo and
    p(hi) the other, from the bracket's midpoint to the first step of at
    most _SEED_TOL |x| (or _MAX_ITER steps), as x / 2^t with t >= s, and
    the bits one evaluation of p near it loses to cancellation; None when
    the float phase ends outside the bracket or overflows."""
    flo, fhi = lo / (1 << s), hi / (1 << s)
    seed = (flo + fhi) / 2
    for _ in range(_MAX_ITER):
        if _wide(flo, fhi):
            seed = math.copysign(math.sqrt(flo * fhi), flo)
        v, d = _float_horner(coeffs, seed)
        if v == 0:
            break
        if (v > 0) == (slo > 0):
            flo = seed
        else:
            fhi = seed
        step = v / d if d else fhi - flo  # with no slope, a step out of the bracket
        if abs(step) <= _SEED_TOL * abs(seed):
            seed -= step
            break
        seed -= step
        if not flo < seed < fhi:
            seed = (flo + fhi) / 2
    size = _float_horner([abs(a) for a in coeffs], abs(seed))[0]
    slope = abs(seed * _float_horner(coeffs, seed)[1])
    if not (size < math.inf and 0 < slope < math.inf):
        return None
    man, exp = math.frexp(seed)
    x, t = int(math.ldexp(man, 53)), 53 - exp
    if t < s:
        x, t = x << (s - t), s
    if not lo << (t - s) < x < hi << (t - s):
        return None
    return x, t, max(0, math.frexp(size / slope)[1])


def _horner(c: List[int], x: int, t: int) -> Tuple[int, int]:
    """(p(x / 2^t), p'(x / 2^t)) as integers over 2^t, by one Horner pass
    that truncates every product; p is off by less than
    sum_{k < n} |x / 2^t|^k units of 2^-t, whatever the size of c."""
    v = d = 0
    for a in reversed(c):
        d = (d * x >> t) + v
        v = (v * x >> t) + (a << t)
    return v, d


def _exact(x: int, t: int):
    """x / 2^t as an mpf, without rounding."""
    return mp.mp.make_mpf(from_man_exp(x, -t))


def _refine(c: List[int], lo: int, hi: int, slo: int, x: int, t: int,
            width: int, full: int, precision: int):
    """Newton's method for the root of p = sum c[k] x^k in (lo, hi), where
    p(lo) has the sign slo and p(hi) the other, from x; lo, hi and x are
    integers over 2^t.  Each step evaluates p and p' with x widened to
    `width` significant bits, then doubles `width` up to `full`.  Returns
    (root, t), the root over 2^t, after the first full-width step of at
    most 2^-(precision + 72) |x|; raises NoConvergence after _MAX_ITER
    steps."""
    ends = lo, hi, t
    tol_bits = precision + 72
    for k in range(1, _MAX_ITER + 1):
        grow = width - abs(x).bit_length()
        if grow > 0:
            x, lo, hi, t = x << grow, lo << grow, hi << grow, t + grow
        v, d = _horner(c, x, t)
        if v == 0:
            step = 0
        else:
            if (v > 0) == (slo > 0):
                lo = x
            else:
                hi = x
            step = (v << t) // d if d else hi - lo  # with no slope, out of the bracket
        if width == full and abs(step) << tol_bits <= abs(x):
            return x - step, t
        x -= step
        if not lo < x < hi or _wide(lo, hi):
            # bisect, at one more bit: geometrically while the bracket is wide
            if _wide(lo, hi):
                x = (math.isqrt(lo * hi) << 1) * (1 if lo > 0 else -1)
            else:
                x = lo + hi
            lo, hi, t = lo << 1, hi << 1, t + 1
        width = min(2 * width, full)
    lo, hi, s = ends
    step_log2 = math.log2(abs(step)) - t if step else -math.inf
    raise NoConvergence(
        f"Newton's method stalled at precision {precision} on the root "
        f"in [{mp.nstr(_exact(lo, s), 8)}, {mp.nstr(_exact(hi, s), 8)}]: step log2 "
        f"{step_log2:.1f} against target log2 "
        f"{math.log2(abs(x)) - t - tol_bits:.1f} after {k} step(s)")


def poly_roots(p: DensePoly, precision: int = 256) -> List[mp.mpf]:
    """The deg(p) real roots of a rational p in increasing order, each to a
    relative error far below 2^-(precision + 64)."""
    check_precision(precision)
    if p.degree <= 0:
        return []
    c = list(p.nums)
    # without its content, a power of two in c[n] does not widen every
    # sample point (see _isolate)
    content = math.gcd(*c)
    c = [a // content for a in c]
    roots = []
    if c[0] == 0:
        c, roots = c[1:], [mp.mpf(0)]
        if c[0] == 0:
            raise NonSquarefree("a repeated root at 0")
    s, brackets = _isolate(c)
    if len(brackets) < len(c) - 1:
        p.check_squarefree()
        raise NoConvergence(f"isolated {len(brackets)} of {len(c) - 1} real roots")
    # floats for the seeds, scaled by a power of two to at most 1 in
    # magnitude (which leaves the float Newton steps as they are), unless
    # the coefficients spread beyond double range
    sizes = [abs(a).bit_length() for a in c if a]
    fcoeffs = None
    if max(sizes) - min(sizes) < _FLOAT_SPREAD:
        fcoeffs = [a / (1 << max(sizes)) for a in c]
    for lo, hi, slo in brackets:
        seeded = _seed(fcoeffs, lo, hi, s, slo) if fcoeffs else None
        if seeded:
            x, t, extra = seeded
            # the seed holds about 53 - extra bits, which one step doubles
            # when it evaluates at 106 - extra bits
            width = max(53, 106 - extra)
        else:  # the bracket's midpoint
            x, t, extra, width = lo + hi, s + 1, 0, 64
        x, t = _refine(c, lo << (t - s), hi << (t - s), slo, x, t, width,
                       precision + 96 + extra, precision)
        roots.append(_exact(x, t))
    return [r for _, r in sorted(zip(order_keys(roots), roots))]  # distinct roots
