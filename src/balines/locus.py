"""Real locus configurations from the variational principle.

For positive multiplicities m_0..m_n the function

    F(psi) = sum_{i<j} m_i m_j log sin(psi_j - psi_i),   psi_0 = 0,

is strictly concave on the ordered region 0 < psi_1 < ... < psi_n < pi and
blows down to -inf at its boundary, so it has a unique critical point
(Stieltjes' electrostatic equilibrium); the first-order conditions there are
exactly the k = 1 existence conditions.

Newton's method finds it without evaluating F, in two phases that share one
damped-Newton loop: damped Newton in floats from the equispaced angles, then
Newton in fixed point from there (from the equispaced angles if the floats
fail).  The fixed-point phase keeps angles, weights m_i m_j, cots, gradient
and negated Hessian as Python ints with F = precision + 64 fraction bits:
one cos/sin per line, cot(psi_i - psi_j) by the addition formula with one
integer division per pair, and a square-root-free Cholesky solve with
shifts.  A step must keep the angles ordered and lower the gradient
max-norm.  A phase ends once it accepts a step of at most 2^-(bits/2), bits
being 53 for the floats and F for the ints, since Newton's next step would
be below rounding; the fixed-point phase also needs the norm below
2^-(precision - 32).  An equispaced start that already meets the rule to
the requested precision (equal multiplicities) is returned as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_pi, to_fixed

from .config import Configuration, Multiplicities, general_from_angles
from .errors import NoConvergence
from .numeric import GUARD_BITS, check_precision, working

_MAX_STEPS = 50
_HALVINGS = 60


def _ldl_solve(a, b):
    """Solve a x = b for symmetric positive definite a by square-root-free
    Cholesky (a = L D L^T).  A pivot that is not positive means a is singular
    at this precision: ArithmeticError."""
    n = len(b)
    low = [[0] * n for _ in range(n)]
    d, y = [], []  # y solves L y = b
    for j in range(n):
        piv = a[j][j] - sum(low[j][k] ** 2 * d[k] for k in range(j))
        if not piv > 0:  # also catches NaN
            raise ArithmeticError("Hessian is singular at working precision")
        d.append(piv)
        y.append(b[j] - sum(low[j][k] * y[k] for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                       for k in range(j))) / piv
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = y[i] / d[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))
    return x


class _Floats:
    """Phase 1 arithmetic: doubles.  `system` gives the gradient g and the
    negated Hessian A of F in psi_1..psi_n, with c_ji = cot(psi_i - psi_j):

        g_j = -sum_{i != j} m_i m_j c_ji,
        A_ji = -m_i m_j (1 + c_ji^2),   A_jj = -sum_{i != j} A_ji (i = 0 too).
    """

    pi = math.pi
    fine = 2.0 ** -(53 // 2)
    tol = math.inf

    def __init__(self, mults):
        self.mults = [float(v) for v in mults]

    def system(self, psis):
        mults, n = self.mults, len(self.mults)
        g = []
        a = [[0.0] * (n - 1) for _ in range(n - 1)]
        for j in range(1, n):
            gj = diag = 0.0
            for i in range(n):
                if i == j:
                    continue
                c = 1 / math.tan(psis[i] - psis[j])
                w = mults[i] * mults[j]
                gj -= w * c
                h = w * (1 + c * c)
                diag += h
                if i:
                    a[j - 1][i - 1] = -h
            g.append(gj)
            a[j - 1][j - 1] = diag
        return g, a

    solve = staticmethod(_ldl_solve)

    @staticmethod
    def half(step):
        return [v / 2 for v in step]


class _Fixed:
    """Phase 2 arithmetic: every angle, weight m_i m_j, cot, gradient entry
    and Hessian entry is a Python int with `frac` = precision + GUARD_BITS
    fraction bits.  `system` is the system of `_Floats`; the weights of real
    multiplicities are their exact products rounded down once."""

    def __init__(self, mults, precision: int):
        frac = self.frac = precision + GUARD_BITS
        self.one = 1 << frac
        self.pi = to_fixed(mpf_pi(frac + 10), frac)
        self.fine = 1 << (frac - frac // 2)
        self.tol = 1 << (GUARD_BITS + 32)  # 2^-(precision - 32)
        self.exact = 1 << GUARD_BITS  # 2^-precision
        ratios = [Fraction(v) for v in mults]
        self.weights = [[(a.numerator * b.numerator << frac) // (a.denominator * b.denominator)
                         for b in ratios] for a in ratios]

    def system(self, psis):
        frac, one, weights = self.frac, self.one, self.weights
        n = len(psis)
        cs = [[to_fixed(v, frac) for v in mpf_cos_sin(from_man_exp(p, -frac), frac + 10)]
              for p in psis]
        grad = [0] * n  # 2 frac fraction bits
        diag = [0] * n
        a = [[0] * (n - 1) for _ in range(n - 1)]
        for j, (cj, sj) in enumerate(cs):
            plus, minus = cj + sj, cj - sj
            for i in range(j + 1, n):
                ci, si = cs[i]
                # cos and sin of psi_i - psi_j times 2^(2 frac), by three products
                k1 = cj * (ci + si)
                den = k1 - ci * plus
                if den <= 0:
                    raise ArithmeticError(f"lines {j} and {i} meet at working precision")
                cot = ((k1 - si * minus) << frac) // den
                w = weights[i][j]
                gw = w * cot
                grad[j] -= gw
                grad[i] += gw
                h = w * (one + (cot * cot >> frac)) >> frac
                diag[j] += h
                diag[i] += h
                if j:
                    a[j - 1][i - 1] = a[i - 1][j - 1] = -h
        for j in range(1, n):
            a[j - 1][j - 1] = diag[j]
        return [v >> frac for v in grad[1:]], a

    def solve(self, a, b):
        """`_ldl_solve` with shifts: L has `frac` fraction bits, and e[k] =
        L[j][k] d[k] is formed once per row."""
        frac = self.frac
        n = len(b)
        low = [[0] * n for _ in range(n)]
        d, y = [], []
        for j in range(n):
            lj = low[j]
            e = [lj[k] * d[k] >> frac for k in range(j)]
            piv = a[j][j] - (sum(lj[k] * e[k] for k in range(j)) >> frac)
            if piv <= 0:
                raise ArithmeticError("Hessian is singular at working precision")
            d.append(piv)
            y.append(b[j] - (sum(lj[k] * y[k] for k in range(j)) >> frac))
            for i in range(j + 1, n):
                li = low[i]
                li[j] = (a[i][j] - (sum(li[k] * e[k] for k in range(j)) >> frac) << frac) // piv
        x = [0] * n
        for i in reversed(range(n)):
            x[i] = ((y[i] << frac) // d[i]
                    - (sum(low[k][i] * x[k] for k in range(i + 1, n)) >> frac))
        return x

    @staticmethod
    def half(step):
        return [v >> 1 for v in step]

    def from_float(self, x: float) -> int:
        num, den = x.as_integer_ratio()
        return (num << self.frac) // den

    def is_critical(self, psis) -> bool:
        """Whether psis meet the stopping rule to the requested precision:
        gradient max-norm below tol and a Newton step of at most
        2^-precision."""
        g, a = self.system(psis)
        if not max(abs(v) for v in g) < self.tol:
            return False
        try:
            step = self.solve(a, g)
        except ArithmeticError:
            return False
        return max(abs(v) for v in step) <= self.exact


def _newton(kernel, psis):
    """Damped Newton from psis in the arithmetic of `kernel`.  Returns
    (psis, gradient max-norm) once it accepts a step of at most kernel.fine
    at a norm below kernel.tol, when no step lowers the norm, or after the
    step budget."""
    g, a = kernel.system(psis)
    gnorm = max(abs(v) for v in g)
    if not gnorm < math.inf:
        raise ArithmeticError("gradient is not finite")
    for _ in range(_MAX_STEPS):
        step = kernel.solve(a, g)
        small = max(abs(v) for v in step) <= kernel.fine
        for _ in range(_HALVINGS):
            cand = [psis[0]] + [p + v for p, v in zip(psis[1:], step)]
            if all(lo < hi for lo, hi in zip(cand, cand[1:])) and cand[-1] < kernel.pi:
                cg, ca = kernel.system(cand)
                cnorm = max(abs(v) for v in cg)
                if cnorm < gnorm:  # a NaN norm is never accepted
                    psis, g, a, gnorm = cand, cg, ca, cnorm
                    break
            if small:  # the norm is at rounding level already
                return psis, gnorm
            step = kernel.half(step)
        else:
            break
        if small and gnorm < kernel.tol:
            break
    return psis, gnorm


def _float_seed(mults, start):
    """Phase 1: damped Newton in floats from the float angles start; None
    when the floats overflow, divide by zero, turn non-finite or cannot
    factor the Hessian."""
    try:
        return _newton(_Floats(mults), start)[0]
    except ArithmeticError:
        return None


def solve_general_locus(mults, precision: int = 256) -> Configuration:
    """Unique critical configuration for the given multiplicities.

    Accepts a Multiplicities instance or any sequence of positive reals
    (length >= 2); the first entry sits on the line psi_0 = 0.  Converges to
    gradient max-norm below 2^-(precision - 32), else raises NoConvergence."""
    if not isinstance(mults, Multiplicities):
        mults = Multiplicities(tuple(mults))
    if len(mults) < 2:
        raise ValueError("need at least two multiplicities")
    check_precision(precision)
    n = len(mults)

    fixed = _Fixed(mults, precision)
    start = [fixed.pi * j // n for j in range(n)]
    with working(precision):
        if fixed.is_critical(start):
            return general_from_angles(list(mults), [mp.pi * j / n for j in range(n)],
                                       precision)
        seed = _float_seed(mults, [v / fixed.one for v in start])
        psis = start if seed is None else [fixed.from_float(v) for v in seed]
        try:
            psis, gnorm = _newton(fixed, psis)
        except ArithmeticError as ex:
            raise NoConvergence(f"locus solver failed: {ex}") from None
        if not gnorm < fixed.tol:
            raise NoConvergence("locus solver stalled at gradient norm "
                                f"{mp.nstr(mp.ldexp(gnorm, -fixed.frac), 5)}")
        return general_from_angles(list(mults), [mp.ldexp(v, -fixed.frac) for v in psis],
                                   precision)
