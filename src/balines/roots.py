"""Simultaneous (Aberth-type) polynomial root finding in mpmath complex.

Inputs are exact DensePoly instances with rational or Gaussian-rational
coefficients, assumed squarefree (checked).  Start points sit on a circle
of Fujiwara-bound radius with a fixed deterministic jitter.  The slow global
phase of Aberth's method runs from there in double precision (Python
``complex``); the mpmath Aberth iteration then starts from those seeds,
where it converges cubically, and alone decides acceptance.  When a seed is
not finite (a coefficient outside the double range) or two seeds coincide,
the mpmath iteration starts from the circle itself.  Reruns give identical
output at identical precision.
"""

from __future__ import annotations

import cmath
from typing import List, Optional

import mpmath as mp

from .errors import NoConvergence
from .poly import DensePoly
from .numeric import check_precision, log2_abs, to_mp, working

_MAX_ITER = 400
# deterministic angular jitter, a fixed irrational multiple per index
_JITTER = 0.01234567
# the double-precision phase stops once every step is below this fraction
# of its point's modulus, or after _SEED_SWEEPS sweeps
_SEED_TOL = 2.0 ** -40
_SEED_SWEEPS = 100


def fujiwara_bound(coeffs_mp) -> mp.mpf:
    """Upper bound on root moduli: 2 * max_k |a_{n-k}/a_n|^{1/k}."""
    n = len(coeffs_mp) - 1
    an = abs(coeffs_mp[-1])
    best = mp.mpf(0)
    for k in range(1, n + 1):
        c = abs(coeffs_mp[n - k]) / an
        if c > 0:
            best = max(best, c ** (mp.mpf(1) / k))
    return 2 * best if best > 0 else mp.mpf(1)


def _polyval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _largest_term(sizes, x):
    """max_k |a_k| |x|^k, given sizes[k] = |a_k|."""
    r, power, best = abs(x), 1, 0
    for a in sizes:
        best = max(best, a * power)
        power *= r
    return best


def _aberth_step(dcoeffs, xs, pvs):
    """One Jacobi sweep of Aberth's method, in the arithmetic of xs: the
    points minus their offsets, given the values pvs of p at xs.  Each
    1/(x_i - x_j) is formed once per unordered pair and negated for (j, i);
    every sum still accumulates its terms in the order j = 0..n-1.
    """
    n = len(xs)
    sums = [0 * x for x in xs]
    for i in range(n):
        x = xs[i]
        for j in range(i + 1, n):
            d = 1 / (x - xs[j])
            sums[i] += d
            sums[j] -= d
    out = []
    for x, pv, s in zip(xs, pvs, sums):
        dv = _polyval(dcoeffs, x)
        if dv == 0:
            out.append(x - (0.5 + 0.5j))
            continue
        w = pv / dv
        denom = 1 - w * s
        out.append(x - (w if denom == 0 else w / denom))
    return out


def _usable(xs) -> bool:
    return all(cmath.isfinite(x) for x in xs) and len(set(xs)) == len(xs)


def _double_seeds(coeffs, start) -> Optional[List[complex]]:
    """Aberth's method in double precision from the start points, or None
    when a point leaves the double range or two points coincide."""
    cs = [complex(c) for c in coeffs]
    dcs = [k * c for k, c in enumerate(cs)][1:]
    xs = [complex(x) for x in start]
    for _ in range(_SEED_SWEEPS):
        if not _usable(xs):
            return None
        new = _aberth_step(dcs, xs, [_polyval(cs, x) for x in xs])
        try:
            done = all(abs(b - a) <= _SEED_TOL * abs(a) for a, b in zip(xs, new))
        except OverflowError:  # abs() of a complex beyond the double range
            return None
        xs = new
        if done:
            break
    return xs if _usable(xs) else None


def poly_roots(p: DensePoly, precision: int = 256) -> List[mp.mpc]:
    """All deg(p) roots, ordered by (principal argument in [0, 2pi), modulus).

    Each residual |p(x)| is driven below 2^-(precision+48) times
    max_k |a_k| |x|^k, the largest term of p(x), so tiny and huge roots are
    fixed to the same relative accuracy as roots on the unit circle (with
    extra guard bits internally).  A root at 0 is taken off exactly.  Raises
    NonSquarefree when p has a repeated root and NoConvergence when
    iteration stalls.
    """
    check_precision(precision)
    p.check_squarefree()
    if p.degree <= 0:
        return []
    # p = w q with q(0) != 0 when a_0 = 0, since p is squarefree
    zero_root = p.coeffs[0] == 0
    exact = p.coeffs[1:] if zero_root else p.coeffs
    n = len(exact) - 1
    with working(precision, guard=96):
        coeffs = [to_mp(c) for c in exact]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        sizes = [abs(c) for c in coeffs]
        tol = mp.mpf(2) ** (-(precision + 48))
        # tol times a lower bound on every largest term: the k = 0 term
        # bounds it when |x| <= 1, the k = n term when |x| >= 1
        floor = tol * min(sizes[0], sizes[-1])

        radius = fujiwara_bound(coeffs)
        xs = [radius * mp.exp(mp.mpc(0, 1) * (2 * mp.pi * k / n + _JITTER * (k + 1)))
              for k in range(n)]
        seeds = _double_seeds(coeffs, xs)
        if seeds is not None:
            xs = [mp.mpc(x) for x in seeds]

        sweeps = 0
        while True:
            pvs = [_polyval(coeffs, x) for x in xs]
            # a target is formed only when the floor does not decide; written
            # so that a NaN residual counts as not converged
            if all(abs(v) < floor or abs(v) < tol * _largest_term(sizes, x)
                   for v, x in zip(pvs, xs)):
                break
            if sweeps == _MAX_ITER:
                worst, target = max(((log2_abs(v), log2_abs(tol * _largest_term(sizes, x)))
                                     for v, x in zip(pvs, xs)),
                                    key=lambda wt: wt[0] - wt[1])
                raise NoConvergence(
                    f"root iteration stalled at precision {precision}: worst "
                    f"residual log2 {worst:.1f} against target log2 "
                    f"{target:.1f} after {sweeps} sweep(s)")
            xs = _aberth_step(dcoeffs, xs, pvs)
            sweeps += 1

        # Newton polish, then deterministic ordering
        for _ in range(3):
            xs = [x - _polyval(coeffs, x) / _polyval(dcoeffs, x) for x in xs]
        if zero_root:
            xs.append(mp.mpc(0))

        def key(z):
            a = mp.arg(z)
            if a < 0:
                a += 2 * mp.pi
            return (a, abs(z))

        xs.sort(key=key)
        return xs
