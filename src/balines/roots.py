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

    Residuals |p(root)| are driven below 2^-(precision-16) * max|coeff|
    (with extra guard bits internally).  Raises NonSquarefree when p has a
    repeated root and NoConvergence when iteration stalls.
    """
    check_precision(precision)
    p.check_squarefree()
    n = p.degree
    if n <= 0:
        return []
    with working(precision, guard=96):
        coeffs = [to_mp(c) for c in p.coeffs]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        scale = max(abs(c) for c in coeffs)
        target = mp.mpf(2) ** (-(precision + 48)) * scale

        radius = fujiwara_bound(coeffs)
        xs = [radius * mp.exp(mp.mpc(0, 1) * (2 * mp.pi * k / n + _JITTER * (k + 1)))
              for k in range(n)]
        seeds = _double_seeds(coeffs, xs)
        if seeds is not None:
            xs = [mp.mpc(x) for x in seeds]

        sweeps = 0
        while True:
            pvs = [_polyval(coeffs, x) for x in xs]
            # written so that a NaN residual counts as not converged
            if all(abs(v) < target for v in pvs):
                break
            if sweeps == _MAX_ITER:
                worst = max(log2_abs(v) for v in pvs)
                raise NoConvergence(
                    f"root iteration stalled at precision {precision}: worst "
                    f"residual log2 {worst:.1f} against target log2 "
                    f"{log2_abs(target):.1f} after {sweeps} sweep(s)")
            xs = _aberth_step(dcoeffs, xs, pvs)
            sweeps += 1

        # Newton polish, then deterministic ordering
        for _ in range(3):
            xs = [x - _polyval(coeffs, x) / _polyval(dcoeffs, x) for x in xs]

        def key(z):
            a = mp.arg(z)
            if a < 0:
                a += 2 * mp.pi
            return (a, abs(z))

        xs.sort(key=key)
        return xs
