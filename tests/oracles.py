"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the code paths it checks: dimensions come
from the raw definition (one normal-derivative condition per line and order,
full coefficient vector, no free-index reduction), symmetric functions from
direct products over numeric roots, Wronskians from closed-form derivative
matrices and a numeric determinant, or from fraction-free elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import mpmath as mp


# --- tiny self-contained rank routines -----------------------------------------


def echelon_rank_exact(rows: List[List[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col] / m[row][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def rank_mod_prime(rows: List[List[int]], p: int) -> int:
    """Rank of an integer matrix over the field of p elements."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def echelon_rank_numeric(rows, precision: int = 512) -> int:
    m = [[mp.mpf(x) for x in r] for r in rows]
    if not m:
        return 0
    scale = max((abs(x) for r in m for x in r), default=mp.mpf(0))
    if scale == 0:
        return 0
    cutoff = scale * mp.mpf(2) ** (-(precision // 2))
    live_r = list(range(len(m)))
    live_c = list(range(len(m[0])))
    rank = 0
    while live_r and live_c:
        best, br, bc = mp.mpf(0), None, None
        for r in live_r:
            for c in live_c:
                if abs(m[r][c]) > best:
                    best, br, bc = abs(m[r][c]), r, c
        if best <= cutoff:
            break
        pv = m[br][bc]
        for r in live_r:
            if r != br:
                f = m[r][bc] / pv
                for c in live_c:
                    m[r][c] -= f * m[br][c]
        live_r.remove(br)
        live_c.remove(bc)
        rank += 1
    return rank


# --- polynomial helpers -----------------------------------------------------------


def eval_numeric(p, x):
    """p(x) with each exact coefficient converted next to the mpmath point x."""
    from balines.numeric import to_mp

    acc = x * 0
    for c in reversed(p.coeffs):
        acc = acc * x + to_mp(c)
    return acc


# --- rational polynomials as tuples of Fractions ---------------------------------
# A DensePoly is read here only through its nums and den; the arithmetic below
# is schoolbook arithmetic on Fraction coefficients, lowest degree first, with
# no trailing zero, and shares no code with poly.py.


def frac_poly(cs) -> Tuple[Fraction, ...]:
    """The coefficients cs as Fractions without trailing zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_of(p) -> Tuple[Fraction, ...]:
    """A DensePoly's coefficients from its nums and den, as stored."""
    return tuple(Fraction(a, p.den) for a in p.nums)


def frac_add(a, b, sign: int = 1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return frac_poly(x + sign * y for x, y in zip(a, b))


def frac_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_poly(out)


def frac_derivative(a):
    return frac_poly(k * x for k, x in enumerate(a) if k)


def frac_monic(a):
    return frac_poly(x / a[-1] for x in a) if a else a


def frac_divmod(a, b):
    """(quotient, remainder) of long division by a nonzero b."""
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(b) - 1] / b[-1]
        quot[k] = q
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    return frac_poly(quot), frac_poly(rem)


def frac_gcd(a, b):
    """The monic gcd by Euclid's algorithm; () for two zeros."""
    while b:
        a, b = b, frac_divmod(a, b)[1]
    return frac_monic(a)


def compose_affine(p, a, b):
    """p(a*x + b) by Horner over polynomials."""
    from balines.poly import DensePoly

    lin = DensePoly([b, a])
    acc = DensePoly.zero()
    for c in reversed(p.coeffs):
        acc = acc * lin + DensePoly([c])
    return acc


# --- quasi-invariant dimensions from the raw definition -------------------------


def _falling(a: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= a - j
    return out


def _condition_row(d: int, alpha, order: int):
    """Coefficients of the linear functional
    (d/dx + alpha d/dy)^order (x^(d-i) y^i) evaluated at (-alpha, 1)."""
    row = []
    for i in range(d + 1):
        a, b = d - i, i
        acc = None
        for t in range(order + 1):
            xa = a - (order - t)
            yb = b - t
            if xa < 0 or yb < 0:
                continue
            term = (math.comb(order, t) * _falling(a, order - t) * _falling(b, t)
                    * alpha ** t * (-alpha) ** xa)
            acc = term if acc is None else acc + term
        row.append(acc if acc is not None else 0 * alpha)
    return row


def brute_force_qi_dimension(lines: Sequence[Tuple[int, Optional[object]]],
                             d: int, precision: int = 512) -> int:
    """dim of degree-d quasi-invariants for lines given as (mult, slope);
    slope None denotes the vertical-chart line (0, 1).

    Builds the full (sum of mults) x (d+1) condition matrix and subtracts its
    rank: exact over the rationals when every slope is rational, otherwise
    full-pivot elimination at `precision` bits."""
    rows = []
    exact = all(a is None or isinstance(a, (int, Fraction)) for _, a in lines)
    with mp.workprec(precision + 64):
        for mult, alpha in lines:
            for s in range(1, int(mult) + 1):
                order = 2 * s - 1
                if alpha is None:
                    row = [_falling(i, order) if i == order else 0
                           for i in range(d + 1)]
                    row = [Fraction(v) if exact else mp.mpf(v) for v in row]
                else:
                    a = Fraction(alpha) if exact else mp.mpf(alpha)
                    row = _condition_row(d, a, order)
                rows.append(row)
        if exact:
            return (d + 1) - echelon_rank_exact(rows)
        return (d + 1) - echelon_rank_numeric(rows, precision)


def config_to_oracle_lines(config, precision: int = 512) -> List[Tuple[int, Optional[object]]]:
    """(mult, slope) pairs for the brute-force oracle; the phi = 0 line maps
    to the vertical-chart (0, 1) line, slopes are exact when available."""
    out = []
    with mp.workprec(precision + 64):
        for ln in config.lines:
            if ln.phi == 0:
                out.append((int(ln.mult), None))
            elif isinstance(ln.alpha_exact, Fraction):
                out.append((int(ln.mult), ln.alpha_exact))
            else:
                out.append((int(ln.mult), mp.cot(ln.phi)))
    return out


def stepwise_numeric_series(c, D: int) -> Tuple[List[int], List[int]]:
    """([b_0 .. b_D], degrees eliminated) of a chart without groups, by the
    upward schedule alone: the rank settled at d - 2 is the only lower bound
    at d, and qi_dimension_numeric runs at every degree where it falls short
    of min(n, |S_d| - [d even])."""
    from balines.quasi import (cos_sin_table, free_indices, m1n_chart,
                               qi_dimension_numeric)

    m, n = m1n_chart(c)[:2]
    table = cos_sin_table(c)
    ranks, out, eliminated = [], [], []
    for d in range(D + 1):
        free = len(free_indices(d, m))
        bound = min(n, free - (d % 2 == 0))
        if (ranks[d - 2] if d >= 2 else 0) >= bound:
            out.append(free - bound)
        else:
            out.append(qi_dimension_numeric(c, d, table))
            eliminated.append(d)
        ranks.append(free - out[-1])
    return out, eliminated


def r_by_tolerance(c) -> int:
    """Distinct squared slopes among the multiplicity-1 lines off phi = 0,
    from the numeric slopes: sorted, two neighbours count as one square when
    they agree to 2^-(p/2) relative."""
    from balines.numeric import working

    with working(c.precision):
        tol = mp.mpf(2) ** (-(c.precision // 2))
        sq = sorted(mp.cot(ln.phi) ** 2 for ln in c.lines if ln.mult == 1 and ln.phi != 0)
        return 1 + sum(abs(b - a) > tol * max(1, abs(b)) for a, b in zip(sq, sq[1:]))


def qi_dimension_exact(c, d: int, table=None) -> int:
    """dim of the degree-d quasi-invariants of an exact chart, degree by
    degree: |S_d| less the Bareiss rank (quasi.rank_exact) of the system
    quasi.assemble_system builds, off the power table when one is passed."""
    from balines.quasi import assemble_system, rank_exact

    system = assemble_system(c, d, table)
    return len(system.free) - rank_exact(system.matrix)


def remainder_map_matrix(R, d: int, m: int):
    """Degree-d remainder-map matrix by one polynomial division per column:
    column i, for each i the heavy line leaves free, holds the coefficients
    of ((d-i) a^(d-1-i) - i a^(d+1-i)) mod R; one row per power below deg R."""
    from balines.poly import DensePoly

    cols = []
    for i in range(d + 1):
        if i % 2 == 1 and i <= 2 * m - 1:
            continue
        coeffs = [Fraction(0)] * (d + 2)
        if i < d:
            coeffs[d - 1 - i] += d - i
        if i > 0:
            coeffs[d + 1 - i] -= i
        rem = DensePoly(coeffs) % R
        cols.append([rem[k] for k in range(R.degree)])
    return tuple(zip(*cols))


# --- eager line charts ------------------------------------------------------------


def eager_json(config, find_roots=None) -> dict:
    """to_json_dict of an am1n or twomult record whose lines are found at
    once from its exact data, as the constructions did before the chart was
    built on first read: the phi = 0 line, the phi = pi/2 line when mtilde
    is positive, then acot(alpha) (+ pi for alpha < 0) for every real root
    alpha of cayley(P) by find_roots (poly_roots by default), sorted by
    angle."""
    import dataclasses

    from balines.config import INF, Line
    from balines.numeric import working
    from balines.roots import poly_roots
    from balines.symfunc import cayley

    alphas = (find_roots or poly_roots)(cayley(config.P), config.precision)
    with working(config.precision, guard=96):
        phis = [mp.acot(a) + (mp.pi if a < 0 else 0) for a in alphas]
    with working(config.precision):
        lines = [Line(mult=config.m, phi=mp.mpf(0), alpha_exact=INF)]
        if config.mtilde:
            lines.append(Line(mult=config.mtilde, phi=mp.pi / 2,
                              alpha_exact=Fraction(0)))
        lines += [Line(mult=1, phi=+phi) for phi in phis]
        lines.sort(key=lambda ln: ln.phi)
    return dataclasses.replace(config, chart=tuple(lines)).to_json_dict()


def numeric_chart(config):
    """The same lines as a general chart, which carries no exact data, so
    that a Hilbert series of it takes the numeric route."""
    from balines.config import general_from_angles

    return general_from_angles([ln.mult for ln in config.lines],
                               [ln.phi for ln in config.lines], config.precision)


def line_z(line):
    """Unit-circle coordinate e^{2i phi} of a line at the working precision."""
    return mp.exp(mp.mpc(0, 2) * line.phi)


def mult1_lines(config) -> list:
    return [ln for ln in config.lines if ln.mult == 1]


def slope_lines(config) -> list:
    """Lines with a finite slope, i.e. everything except phi = 0."""
    from balines.config import INF

    return [ln for ln in config.lines if not (ln.phi == 0 or ln.alpha_exact is INF)]


# --- reference root finder ----------------------------------------------------------


def aberth_roots_reference(p, precision: int):
    """All roots of a squarefree DensePoly by Aberth's method run entirely in
    mpmath at precision + 96 bits, from points on the Fujiwara circle with a
    fixed angular jitter; then three Newton steps and the (argument in
    [0, 2pi), modulus) order.  No double-precision phase."""
    from balines.numeric import to_mp

    n = p.degree
    with mp.workprec(precision + 96):
        coeffs = [to_mp(c) for c in p.coeffs]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        target = mp.mpf(2) ** (-(precision + 48)) * max(abs(c) for c in coeffs)

        def value(cs, x):
            acc = mp.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        bound = max((abs(coeffs[n - k]) / abs(coeffs[n])) ** (mp.mpf(1) / k)
                    for k in range(1, n + 1))
        radius = 2 * bound if bound > 0 else mp.mpf(1)
        xs = [radius * mp.exp(mp.mpc(0, 1) * (2 * mp.pi * k / n + 0.01234567 * (k + 1)))
              for k in range(n)]
        for _ in range(400):
            offsets = []
            worst = mp.mpf(0)
            for i, x in enumerate(xs):
                pv = value(coeffs, x)
                worst = max(worst, abs(pv))
                dv = value(dcoeffs, x)
                if dv == 0:
                    offsets.append(mp.mpc(0.5, 0.5))
                    continue
                w = pv / dv
                s = mp.mpc(0)
                for j, y in enumerate(xs):
                    if j != i:
                        s += 1 / (x - y)
                denom = 1 - w * s
                offsets.append(w if denom == 0 else w / denom)
            xs = [x - o for x, o in zip(xs, offsets)]
            if worst < target:
                break
        else:
            raise AssertionError("reference Aberth iteration did not converge")
        for _ in range(3):
            xs = [x - value(coeffs, x) / value(dcoeffs, x) for x in xs]

        def key(z):
            a = mp.arg(z)
            return (a + 2 * mp.pi if a < 0 else a, abs(z))

        return sorted(xs, key=key)


# --- reference Newton refinement --------------------------------------------------


def _newton_horner(coeffs, x):
    """(p(x), p'(x)) by one Horner pass, in the arithmetic of x."""
    v = d = 0 * x
    for a in reversed(coeffs):
        d = d * x + v
        v = v * x + a
    return v, d


def _newton_wide(lo, hi) -> bool:
    return 0 < 4 * lo < hi or lo < 4 * hi < 0


def _newton_mid(lo, hi):
    if _newton_wide(lo, hi):
        return (lo * hi) ** 0.5 * (1 if lo > 0 else -1)
    return (lo + hi) / 2


def _newton_refine(coeffs, lo, hi, slo, x, tol, limit=100):
    """Newton's method from x in (lo, hi), in the arithmetic of x: (x, last
    step) after the first step of at most tol |x| or after limit steps; a
    step out of the bracket, or any step while its ends differ in scale by
    more than 4, bisects it."""
    step = None
    for _ in range(limit):
        v, d = _newton_horner(coeffs, x)
        if v == 0:
            return x, v
        if (v > 0) == (slo > 0):
            lo = x
        else:
            hi = x
        step = v / d if d else hi - lo
        if abs(step) <= tol * abs(x):
            return x - step, step
        x = x - step
        if not lo < x < hi or _newton_wide(lo, hi):
            x = _newton_mid(lo, hi)
    return x, step


def mpmath_newton_roots(p, precision: int):
    """The real roots of a squarefree rational p with deg p real roots, in
    increasing order, by Newton's method in mpmath with every step at the
    full precision + 96 + extra bits, extra being the bits one evaluation
    near the root loses to cancellation: the brackets of balines.roots,
    each refined from a float Newton seed (from its midpoint when the float
    phase ends outside it) until a step is at most 2^-(precision + 72) of
    the root.  A root at 0 is taken off exactly; the coefficients must be
    within double range."""
    from balines.roots import _isolate

    den = math.lcm(*(a.denominator for a in p.coeffs))
    c = [a.numerator * (den // a.denominator) for a in p.coeffs]
    roots = []
    if c[0] == 0:
        c, roots = c[1:], [mp.mpf(0)]
    s, brackets = _isolate(c)
    assert len(brackets) == len(c) - 1, "not isolated"
    fcoeffs = [float(a) for a in c]
    with mp.workprec(max(abs(a) for a in c).bit_length()):
        mcoeffs = [mp.mpf(a) for a in c]
    tol = mp.mpf(2) ** -(precision + 72)
    for lo, hi, slo in brackets:
        lo, hi = Fraction(lo, 1 << s), Fraction(hi, 1 << s)
        flo, fhi = float(lo), float(hi)
        x = _newton_refine(fcoeffs, flo, fhi, slo, _newton_mid(flo, fhi), 2.0 ** -40)[0]
        seed, extra = None, 0
        if lo < x < hi:
            size = _newton_horner([abs(a) for a in fcoeffs], abs(x))[0]
            seed = x
            extra = max(0, math.frexp(size / abs(x * _newton_horner(fcoeffs, x)[1]))[1])
        with mp.workprec(precision + 96 + extra):
            mlo = mp.mpf(lo.numerator) / lo.denominator
            mhi = mp.mpf(hi.numerator) / hi.denominator
            x = _newton_mid(mlo, mhi) if seed is None else mp.mpf(seed)
            x, step = _newton_refine(mcoeffs, mlo, mhi, slo, x, tol)
            assert abs(step) <= tol * abs(x), "reference Newton did not converge"
        roots.append(x)
    return sorted(roots)


# --- symmetric functions over numeric roots --------------------------------------


def elementary_from_values(values) -> list:
    """e_1..e_k by direct product expansion, any numeric type."""
    coeffs = [mp.mpf(1)]
    for v in values:
        nxt = [mp.mpf(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c * v
        coeffs = nxt
    return coeffs[1:]


def numeric_wronskian_sines(ks: Sequence[int], phi):
    """det of the derivative matrix of sin(k phi) via the closed form
    d^i/dphi^i sin(k phi) = k^i sin(k phi + i pi/2)."""
    n = len(ks)
    mat = mp.matrix(n, n)
    for i in range(n):
        for j, k in enumerate(ks):
            mat[i, j] = mp.mpf(k) ** i * mp.sin(k * phi + i * mp.pi / 2)
    return mp.det(mat)


# --- Laurent polynomials as {l: (re, im)} dicts of Fractions -----------------
# A TrigPoly is read only through its terms and den; the Gaussian-rational
# arithmetic below is the oracles' own and shares no code with trig.py.


def coefficients(p) -> dict:
    """{l: (re, im)} of a TrigPoly as Fractions."""
    return {l: (Fraction(re, p.den), Fraction(im, p.den))
            for l, (re, im) in p.terms.items()}


def trig_value(p, phi):
    """p(phi) as an mpc: the sum of its terms at u = e^{i phi}."""
    u = mp.exp(mp.mpc(0, 1) * phi)
    acc = mp.mpc(0)
    for l, (re, im) in p.terms.items():
        acc += mp.mpc(re, im) * u ** l
    return acc / p.den


def is_real(p) -> bool:
    """Whether p is real on the real phi axis: c_{-l} = conj(c_l)."""
    return all(p.terms.get(-l) == (re, -im) for l, (re, im) in p.terms.items())


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gdiv(x, y):
    norm = Fraction(y[0] * y[0] + y[1] * y[1])
    return _gmul(x, (y[0] / norm, -y[1] / norm))


def _laurent_add(a, b, sign=1):
    out = dict(a)
    for l, (re, im) in b.items():
        r0, i0 = out.get(l, (0, 0))
        out[l] = (r0 + sign * re, i0 + sign * im)
    return {l: c for l, c in out.items() if c != (0, 0)}


def _laurent_mul(a, b):
    out = {}
    for l1, c1 in a.items():
        for l2, c2 in b.items():
            re, im = _gmul(c1, c2)
            r0, i0 = out.get(l1 + l2, (0, 0))
            out[l1 + l2] = (r0 + re, i0 + im)
    return {l: c for l, c in out.items() if c != (0, 0)}


def _laurent_div(a, b):
    """a / b by long division from the top frequency down; ValueError when b
    does not divide a."""
    if not b:
        raise ZeroDivisionError("Laurent division by zero")
    top, q, rem = max(b), {}, dict(a)
    # an exact quotient has no frequency below min(a) - min(b)
    while rem and max(rem) - top >= min(a) - min(b):
        shift = max(rem) - top
        q[shift] = _gdiv(rem[max(rem)], b[top])
        rem = _laurent_add(rem, _laurent_mul({shift: q[shift]}, b), -1)
    if rem:
        raise ValueError("inexact Laurent division")
    return q


def exact_div(a, b) -> dict:
    """a / b for TrigPolys in the Laurent ring, as {l: (re, im)};
    ValueError when b does not divide a."""
    return _laurent_div(coefficients(a), coefficients(b))


def termwise_product(a, b) -> dict:
    """Coefficients of the TrigPoly product a*b as {l: (re, im)}, one
    Gaussian-rational product per pair of terms, zero sums dropped."""
    return _laurent_mul(coefficients(a), coefficients(b))


def bareiss_wronskian(fs) -> dict:
    """Wronskian det[d^i f_j / dphi^i], i = 0..len(fs)-1, of TrigPolys, as
    {l: (re, im)}, by fraction-free (Bareiss) elimination over the Laurent
    ring: every division by the previous pivot is an exact `_laurent_div`."""
    if not fs:
        raise ValueError("wronskian of an empty list")
    n = len(fs)
    rows = [[coefficients(f) for f in fs]]
    for _ in range(n - 1):
        rows.append([{l: (-l * im, l * re) for l, (re, im) in f.items() if l}
                     for f in rows[-1]])
    m = [[rows[i][j] for j in range(n)] for i in range(n)]

    sign = 1
    prev = {0: (1, 0)}
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return {}
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _laurent_add(_laurent_mul(m[k][k], m[i][j]),
                                   _laurent_mul(m[i][k], m[k][j]), -1)
                m[i][j] = _laurent_div(num, prev)
            m[i][k] = {}
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else {l: (-re, -im) for l, (re, im) in det.items()}


# --- the Darboux factorization and eigen checks as TrigPoly products ---------
# The route darboux.py took before it moved to the chart w = u^2: the same
# identities expanded by TrigPoly products and powers of cos and sin.


def trigpoly_factorization_rhs(chain, config):
    """nu^-1 Q cos^(mt(mt+1)/2) sin^(m(m+1)/2) with Q = q_trig(config)."""
    from balines.darboux import nu_constant, q_trig
    from balines.trig import TrigPoly

    m, mt = chain.m, chain.mt
    return (q_trig(config) * TrigPoly.cos(1) ** (mt * (mt + 1) // 2)
            * TrigPoly.sin(1) ** (m * (m + 1) // 2)).scale(1 / nu_constant(chain))


def trigpoly_eigen_lhs(config):
    """sin cos Q'' + 2 (m cos^2 - mt sin^2) Q' + n(2(m+mt)+n) sin cos Q."""
    from balines.darboux import q_trig
    from balines.trig import TrigPoly

    m, mt, n = config.m, config.mtilde or 0, config.n
    Q = q_trig(config)
    Q1 = Q.dphi()
    Q2 = Q1.dphi()
    sc = TrigPoly.sin(1) * TrigPoly.cos(1)
    coeff = (TrigPoly.cos(1) ** 2).scale(m) - (TrigPoly.sin(1) ** 2).scale(mt)
    return sc * Q2 + coeff * Q1 * 2 + sc.scale(n * (2 * (m + mt) + n)) * Q


def trigpoly_verify_factorization(chain, config) -> bool:
    """darboux.verify_factorization on the TrigPoly route."""
    from balines.darboux import _check_chain_matches
    from balines.trig import require_identity

    _check_chain_matches(chain, config)
    return require_identity(chain.W, trigpoly_factorization_rhs(chain, config),
                            "Wronskian factorization")


def trigpoly_verify_eigen(config) -> bool:
    """darboux.verify_eigen on the TrigPoly route."""
    from balines.errors import MissingExactData
    from balines.trig import TrigPoly, require_identity

    if config.m is None or config.n is None:
        raise MissingExactData("eigen check needs the (m, mt, n) parameters")
    return require_identity(trigpoly_eigen_lhs(config), TrigPoly.zero(),
                            "eigenfunction equation")


def series_times_denominator(coeffs: Sequence[int], deg: int) -> List[int]:
    """Coefficients of (sum b_k t^k) * (1 - t^2)^2 through degree `deg`."""
    b = list(coeffs)

    def at(k):
        return b[k] if 0 <= k < len(b) else 0

    return [at(k) - 2 * at(k - 2) + at(k - 4) for k in range(deg + 1)]


# --- the two-multiplicity family, its ODE and the q-expansion, as first written ---


def _two_mult_recurrence(m: int, mt: int, n: int, sign: int) -> List[Fraction]:
    """e_n..e_0 (descending) from the three-term recurrence and seeds.  The
    leading coefficient (m + mt + n - k - 1)(k + 1) is at least 1 for
    m >= 1, mt >= 0 and 1 <= k < n."""
    N = n + m + mt - 1
    e = {n: Fraction(1), n - 1: Fraction(sign * (m - mt) * n, N)}
    for k in range(1, n):
        val = ((m + mt + k - 1) * (k - n - 1) * e[n - k + 1]
               + (n - 2 * k) * (m - mt) * e[n - k])
        e[n - k - 1] = Fraction(-val, (m + mt + n - k - 1) * (k + 1))
    return [e[j] for j in range(1, n + 1)]


def fraction_two_mult_ode_residual(m: int, mt: int, n: int, P):
    """w(w^2-1) P'' - ((n-1)(w^2-1) - m(w+1)^2 - mt(w-1)^2) P'
    - (n(m+mt) w + n(m-mt)) P, by DensePoly products on Fractions."""
    from balines.poly import DensePoly

    P1 = P.derivative()
    P2 = P1.derivative()
    w = DensePoly([0, 1])
    one = DensePoly([1])
    wsq = w * w - one
    term2 = (wsq.scale(Fraction(n - 1))
             - ((w + one) * (w + one)).scale(Fraction(m))
             - ((w - one) * (w - one)).scale(Fraction(mt)))
    rhs = DensePoly([n * (m - mt), n * (m + mt)]) * P
    return (w * wsq) * P2 - term2 * P1 - rhs


def fraction_am1n_ode_residual(m: int, n: int, P):
    """w(w-1) P'' - ((n-1)(w-1) - m(w+1)) P' - mn P, by DensePoly products
    on Fractions."""
    from balines.poly import DensePoly

    P1 = P.derivative()
    P2 = P1.derivative()
    w = DensePoly([0, 1])
    one = DensePoly([1])
    term2 = (w - one).scale(Fraction(n - 1)) - (w + one).scale(Fraction(m))
    return (w * (w - one)) * P2 - term2 * P1 - P.scale(Fraction(m * n))


def mpf_reduce_angle_mod_pi(phi):
    """phi mod pi in [0, pi) in mpf arithmetic at the working precision:
    floor(phi/pi), then phi - k pi, rounded once when |k| <= 1 and twice
    otherwise; the rule the package followed before it reduced on ints."""
    pi = mp.pi
    k = mp.floor(phi / pi)
    out = phi - k * pi
    if out >= pi:
        out -= pi
    if out < 0:
        out += pi
    return out


def mpf_t_q_expand_angles(c, q: int) -> list:
    """(mult, phi) of c's q-expansion, sorted by phi, in mpf arithmetic: each
    phi reduced mod pi and divided by q, plus r pi/q, at precision + 128
    bits, then rounded to precision + 64 bits, with pi subtracted from a
    result that reaches pi."""
    from balines.numeric import GUARD_BITS, working

    with working(c.precision + GUARD_BITS):
        step = mp.pi / q
        wide = []
        for ln in c.lines:
            base = mpf_reduce_angle_mod_pi(ln.phi) / q
            wide += [(ln.mult, base + r * step) for r in range(q)]
    with working(c.precision):
        pi = mp.pi
        out = []
        for mult, phi in wide:
            phi = mp.mpf(phi)
            out.append((mult, phi - pi if phi >= pi else phi))
        out.sort(key=lambda t: t[1])
    return out


def _mpf_matched_distance(pairs_a, pairs_b):
    """Max circular distance after sorting both (phi, mult) lists; inf on a
    multiplicity mismatch."""
    worst = mp.mpf(0)
    for (phi1, m1), (phi2, m2) in zip(sorted(pairs_a), sorted(pairs_b)):
        if m1 != m2:
            return mp.inf
        d = abs(phi1 - phi2)
        worst = max(worst, min(d, abs(mp.pi - d)))
    return worst


def mpf_angle_multiset_distance(c1, c2):
    """config.angle_multiset_distance in mpf arithmetic at the lower working
    precision: c1 rotated to put each of its lines on c2's first and reduced
    mod pi, and c1 as stored, each matched to c2 as stored."""
    from balines.numeric import working

    if len(c1) != len(c2):
        return mp.inf
    if sorted(ln.mult for ln in c1.lines) != sorted(ln.mult for ln in c2.lines):
        return mp.inf
    with working(min(c1.precision, c2.precision)):
        b = [(ln.phi, ln.mult) for ln in c2.lines]
        best = _mpf_matched_distance([(ln.phi, ln.mult) for ln in c1.lines], b)
        for ref in c1.lines:
            delta = c2.lines[0].phi - ref.phi
            a = [(mpf_reduce_angle_mod_pi(ln.phi + delta), ln.mult) for ln in c1.lines]
            best = min(best, _mpf_matched_distance(a, b))
        return best


# --- existence conditions in the unit-circle chart --------------------------------


def polar_condition_residual(lines, j: int, k: int, family: str):
    """(value, scale) of the first or locus condition at line j and order k,
    summed in z = e^{2i phi} with complex powers and division; scale is the
    largest summand magnitude, floored at 1."""
    zs = [mp.expj(2 * ln.phi) for ln in lines]
    zj = zs[j]
    total = mp.mpc(0)
    scale = mp.mpf(1)
    for i, (ln, zi) in enumerate(zip(lines, zs)):
        if i == j:
            continue
        if family == "first":
            term = ln.mult * ((zi + zj) / (zi - zj)) ** (2 * k - 1)
        else:
            num = ln.mult * (ln.mult + 1) * zi * (zi + zj) ** (2 * k - 1)
            term = num / (zi - zj) ** (2 * k + 1)
        scale = max(scale, abs(term))
        total += term
    return total, scale


def cartesian_condition_value(lines, j: int, k: int, family: str):
    """The first or locus condition at line j and order k in its Cartesian
    form at x = (-sin phi_j, cos phi_j): the sum over i != j of
    m_i cos^(2k-1) / sin^(2k-1) or m_i (m_i + 1) cos^(2k-1) / sin^(2k+1)
    of phi_j - phi_i, by mp.cos and mp.sin."""
    total = mp.mpf(0)
    for i, ln in enumerate(lines):
        if i == j:
            continue
        diff = lines[j].phi - ln.phi
        cos, sin = mp.cos(diff), mp.sin(diff)
        if family == "first":
            total += ln.mult * (cos / sin) ** (2 * k - 1)
        else:
            total += ln.mult * (ln.mult + 1) * cos ** (2 * k - 1) / sin ** (2 * k + 1)
    return total


# --- the existence-condition kernel in mpmath ----------------------------------


def mpf_certificate(lines, threshold):
    """(verdict, {(j, k, form): (value, scale)}) of the existence conditions
    at the ambient mpmath precision: a cot table by mp.cos_sin of every
    angle difference, odd powers by repeated multiplication with c^2, the
    locus weight (m + 1)(1 + c^2)/4, and pass iff every |value| / scale is
    below the threshold, scale being the largest summand magnitude floored
    at 1."""
    n = len(lines)
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            cos, sin = mp.cos_sin(lines[i].phi - lines[j].phi)
            rows[j][i] = cos / sin
            rows[i][j] = -rows[j][i]
    out = {}
    for j, lj in enumerate(lines):
        kmax = int(lj.mult)
        first, locus = [mp.mpf(0)] * kmax, [mp.mpf(0)] * kmax
        first_scale, locus_scale = [mp.mpf(1)] * kmax, [mp.mpf(1)] * kmax
        for i, ln in enumerate(lines):
            if i == j:
                continue
            c = rows[j][i]
            c2 = c * c
            weight = (ln.mult + 1) * (1 + c2) / 4
            term = ln.mult * c
            for k in range(kmax):
                first[k] += term
                locus[k] += term * weight
                first_scale[k] = max(first_scale[k], abs(term))
                locus_scale[k] = max(locus_scale[k], abs(term * weight))
                term *= c2
        for k in range(kmax):
            out[j, k + 1, "polar-first"] = (first[k], first_scale[k])
            out[j, k + 1, "polar-locus"] = (locus[k], locus_scale[k])
    worst = max(abs(v) / s for v, s in out.values())
    return ("pass" if worst < threshold else "fail"), out


# --- the fixed-point kernel and decision as loops over every term ---------------


def loop_sums(mults, phis, orders, frac: int):
    """certify._sums with each condition's sum, bound and largest |term|
    accumulated term by term in the pair loop: for each pair, each of its
    two lines and each order, six running values updated in Python."""
    from mpmath.libmp import mpf_cos_sin, to_fixed

    from balines.certify import _INPUT_ERROR, ConditionResidual
    from balines.errors import CollisionError

    one = 1 << frac
    e = _INPUT_ERROR
    eta = e * (one << 2) + 2 * e * e
    cs = []
    for phi in phis:
        c, s = (to_fixed(v, frac) for v in mpf_cos_sin(phi._mpf_, frac + 10))
        cs.append((c, s, c + s, c - s))
    acc = [[[0] * 6 for _ in range(kmax)] for kmax in orders]
    n = len(cs)
    for j in range(n):
        cj, sj, aj, bj = cs[j]
        mj, oj, acc_j = mults[j], orders[j], acc[j]
        for i in range(j + 1, n):
            oi = orders[i]
            top = oi if oi > oj else oj
            if not top:
                continue
            ci, si, ai, _ = cs[i]
            k1 = cj * ai
            den = k1 - ci * aj
            gap = (den if den > 0 else -den) - eta
            if gap <= 0:
                raise CollisionError(f"lines {i} and {j} are collinear")
            p = ((k1 - si * bj) << frac) // den
            size = p if p > 0 else -p
            b = 2 + (eta * (one + size + 1) >> (gap.bit_length() - 1))
            cot2 = (p * p) >> frac
            err2 = (((size << 1) + b) * b >> frac) + 2
            over = cot2 + err2
            powers, bounds = [p], [b]
            for _ in range(top):
                b = ((size * err2 + over * b) >> frac) + 2
                p = (p * cot2) >> frac
                size = p if p > 0 else -p
                powers.append(p)
                bounds.append(b)
            for sums, m, sign in ((acc_j, mults[i], 1), (acc[i], mj, -1)):
                w = m * (m + 1)
                sm, sw = sign * m, sign * w
                for k in range(len(sums)):
                    s = sums[k]
                    term = sm * powers[k]
                    s[0] += term
                    s[1] += m * bounds[k]
                    s[2] = max(s[2], abs(term))
                    term = sw * (powers[k] + powers[k + 1])
                    s[3] += term
                    s[4] += w * (bounds[k] + bounds[k + 1])
                    s[5] = max(s[5], abs(term))
    return [ConditionResidual(j, k + 1, "polar-" + form, -frac - shift, *s[at:at + 3])
            for j, sums in enumerate(acc) for k, s in enumerate(sums)
            for form, shift, at in (("first", 0, 0), ("locus", 2, 3))]


def _scale_range(s):
    """Lower and upper bounds on a condition's scale, max(1, largest summand)."""
    one = 1 << -s.exp
    return max(one, s.top - s.error), max(one, s.top + s.error)


def loop_decide(sums, threshold):
    """(verdict, worst, max_bound_log2) as three separate passes: all() and
    any() of the threshold tests for the verdict, a cross-multiplication loop
    for the worst condition, and max over a list of log2 differences."""
    sign, man, exp, _ = threshold._mpf_
    man = -man if sign else man

    def below(x: int, y: int) -> bool:  # x < threshold * y
        return (x << -exp) < man * y if exp < 0 else x < (man * y) << exp

    lo_hi = [_scale_range(s) for s in sums]
    if all(below(abs(s.total) + s.error, lo) for s, (lo, _) in zip(sums, lo_hi)):
        verdict = "pass"
    elif any(not below(abs(s.total) - s.error, hi) for s, (_, hi) in zip(sums, lo_hi)):
        verdict = "fail"
    else:
        verdict = ""
    worst, num, den = None, 0, 1
    for s in sums:
        a, b = s.ratio()
        if a * den > num * b:
            worst, num, den = s, a, b
    bounds = [(s.error, _scale_range(s)[0]) for s in sums if s.error]
    max_bound = max((math.log2(b) - math.log2(lo) for b, lo in bounds),
                    default=float("-inf"))
    return verdict, worst, max_bound


# --- the locus Newton phase in mpmath ------------------------------------------


def mpmath_locus_newton(mults, seed, precision: int):
    """(angles, gradient max-norm) of damped Newton for the log-sine energy
    in mpmath at precision + 64 bits, from the float angles seed: a cot
    table by mp.cos_sin of every angle difference, the gradient g and
    negated Hessian A of balines.locus, and its loop and generic
    square-root-free Cholesky solve.  Its stopping rule is locus's: a step
    of at most 2^-((precision + 64)/2) at a norm below 2^-(precision - 32)."""
    from balines.locus import _ldl_solve, _newton
    from balines.numeric import GUARD_BITS, to_mp, working

    def system(psis):
        g = []
        a = [[0] * (n - 1) for _ in range(n - 1)]
        for j in range(1, n):
            gj = diag = 0
            for i in range(n):
                if i == j:
                    continue
                cos, sin = mp.cos_sin(psis[i] - psis[j])
                c = cos / sin
                w = m[i] * m[j]
                gj -= w * c
                h = w * (1 + c * c)
                diag += h
                if i:
                    a[j - 1][i - 1] = -h
            g.append(gj)
            a[j - 1][j - 1] = diag
        return g, a

    n = len(mults)
    with working(precision):
        m = [to_mp(v) for v in mults]
        kernel = SimpleNamespace(
            system=system, solve=_ldl_solve, half=lambda step: [v / 2 for v in step],
            pi=+mp.pi, fine=mp.mpf(2) ** -((precision + GUARD_BITS) // 2),
            tol=mp.mpf(2) ** -(precision - 32))
        return _newton(kernel, [mp.mpf(v) for v in seed])
