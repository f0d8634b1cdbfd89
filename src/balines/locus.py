"""Real locus configurations from the variational principle.

For positive multiplicities m_0..m_n the function

    F(psi) = sum_{i<j} m_i m_j log sin(psi_j - psi_i),   psi_0 = 0,

is strictly concave on the ordered region 0 < psi_1 < ... < psi_n < pi and
blows down to -inf at its boundary, so it has a unique critical point
(Stieltjes' electrostatic equilibrium); the first-order conditions there are
exactly the k = 1 existence conditions.

Newton's method finds it without evaluating F: damped Newton in floats from
the equispaced angles, then Newton in mpmath from there (from the equispaced
angles if the floats fail), both on one gradient/Hessian kernel over a cot
table.  A step must keep the angles ordered and lower the gradient max-norm.
A phase ends once it accepts a step of at most 2^-(bits/2), bits being the
precision of its arithmetic, since Newton's next step would be below
rounding; the mpmath phase also needs the norm below 2^-(precision - 32).
An equispaced start that already meets the rule to the requested precision
(equal multiplicities) is returned as it is.
"""

from __future__ import annotations

import math

import mpmath as mp

from .config import Configuration, Multiplicities, general_from_angles
from .errors import NoConvergence
from .numeric import check_precision, to_mp, working

_MAX_STEPS = 50
_HALVINGS = 60


def _cot_table(psis) -> list:
    """rows[j][i] = cot(psi_i - psi_j) in mpmath, one cos/sin per unordered
    pair since the table is antisymmetric; the angles are ordered, so no
    sine vanishes."""
    n = len(psis)
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            cos, sin = mp.cos_sin(psis[i] - psis[j])
            rows[j][i] = cos / sin
            rows[i][j] = -rows[j][i]
    return rows


def _float_cot_table(psis) -> list:
    """rows[j][i] = cot(psi_i - psi_j) in floats, like `_cot_table`."""
    return [[0.0 if i == j else 1 / math.tan(b - a) for i, b in enumerate(psis)]
            for j, a in enumerate(psis)]


def _newton_system(mults, rows):
    """Gradient g and negated Hessian A of F in psi_1..psi_n, from the cot
    table rows[j][i] = cot(psi_i - psi_j), in the arithmetic of the table:

        g_j = m_j sum_{i != j} m_i cot(psi_j - psi_i),
        A_ji = -m_i m_j (1 + cot^2),   A_jj = -sum_{i != j} A_ji (i = 0 too).
    """
    n = len(mults)
    g = []
    a = [[0] * (n - 1) for _ in range(n - 1)]
    for j in range(1, n):
        gj = diag = 0
        for i in range(n):
            if i == j:
                continue
            c = rows[j][i]
            w = mults[i] * mults[j]
            gj -= w * c
            h = w * (1 + c * c)
            diag += h
            if i:
                a[j - 1][i - 1] = -h
        g.append(gj)
        a[j - 1][j - 1] = diag
    return g, a


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


def _newton(mults, psis, table, pi, bits, tol):
    """Damped Newton from psis in the arithmetic of `table`, whose rounding
    unit is 2^-bits.  Returns (psis, gradient max-norm) once it accepts a
    step of at most 2^-(bits/2) at a norm below tol, when no step lowers the
    norm, or after the step budget."""
    fine = 2.0 ** -(bits // 2)
    g, a = _newton_system(mults, table(psis))
    gnorm = max(abs(v) for v in g)
    if not gnorm < math.inf:
        raise ArithmeticError("gradient is not finite")
    for _ in range(_MAX_STEPS):
        step = _ldl_solve(a, g)
        small = max(abs(v) for v in step) <= fine
        t = 1
        for _ in range(_HALVINGS):
            cand = [psis[0]] + [p + t * v for p, v in zip(psis[1:], step)]
            if all(lo < hi for lo, hi in zip(cand, cand[1:])) and cand[-1] < pi:
                cg, ca = _newton_system(mults, table(cand))
                cnorm = max(abs(v) for v in cg)
                if cnorm < gnorm:  # a NaN norm is never accepted
                    psis, g, a, gnorm = cand, cg, ca, cnorm
                    break
            if small:  # the norm is at rounding level already
                return psis, gnorm
            t /= 2
        else:
            break
        if small and gnorm < tol:
            break
    return psis, gnorm


def _float_seed(mults, start):
    """Phase 1: damped Newton in floats from the equispaced angles; start
    itself when the floats overflow, divide by zero, turn non-finite or
    cannot factor the Hessian."""
    try:
        seed, _ = _newton([float(v) for v in mults], [float(v) for v in start],
                          _float_cot_table, math.pi, 53, math.inf)
        return [mp.mpf(v) for v in seed]
    except ArithmeticError:
        return start


def _start_is_critical(mults, tol, precision: int) -> bool:
    """Whether the equispaced angles pi*j/n already meet the stopping rule
    to the requested precision: gradient max-norm below tol and a Newton
    step of at most 2^-precision.  Their cot table is circulant, so it takes
    n - 1 cots, and the Hessian is formed only once the gradient passes.
    Equal multiplicities start at the critical point."""
    n = len(mults)
    cots = [None] + [mp.cot(mp.pi * k / n) for k in range(1, n)]
    rows = [[cots[(i - j) % n] for i in range(n)] for j in range(n)]
    for j in range(1, n):
        others = [i for i in range(n) if i != j]
        gj = mults[j] * mp.fdot([mults[i] for i in others], [rows[j][i] for i in others])
        if not abs(gj) < tol:
            return False
    g, a = _newton_system(mults, rows)
    try:
        step = _ldl_solve(a, g)
    except ArithmeticError:
        return False
    return max(abs(v) for v in step) <= mp.mpf(2) ** -precision


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

    with working(precision):
        tol = mp.mpf(2) ** (-(precision - 32))
        mvals = [to_mp(v) for v in mults]
        start = [mp.pi * j / n for j in range(n)]
        if _start_is_critical(mvals, tol, precision):
            return general_from_angles(list(mults), start, precision)
        psis = _float_seed(mults, start)
        try:
            psis, gnorm = _newton(mvals, psis, _cot_table, mp.pi, mp.mp.prec, tol)
        except ArithmeticError as ex:
            raise NoConvergence(f"locus solver failed: {ex}") from None
        if not gnorm < tol:
            raise NoConvergence(
                f"locus solver stalled at gradient norm {mp.nstr(gnorm, 5)}")
        return general_from_angles(list(mults), psis, precision)
