"""Graded dimensions of quasi-invariant algebras for type-(m, 1^n) arrangements.

A homogeneous polynomial sum_i c_i x^(d-i) y^i is quasi-invariant when the
heavy line (0, 1) kills the coefficients with odd index <= 2m - 1 and every
slope-alpha line imposes one linear functional: the derivative along (1, alpha)
restricted to the line is t^(d-1) g(alpha) for a polynomial g depending
linearly on the coefficients.  The joint kernel over all lines therefore
equals {c : R(alpha) divides g_c(alpha)} where R is the monic polynomial with
the slopes as roots, so dimensions reduce to exact ranks of rational
remainder-map matrices.  A full-pivot numeric rank serves configurations
carrying only numeric charts.

Column i of the degree-d matrix is col_d(i) = (d-i) alpha^(d-1-i) -
i alpha^(d+1-i) mod R, i in S_d (free_indices), n = deg R.  A Hilbert series
reads its ranks off one pass per parity of d, on the embedding of
degree d - 2 into degree d by multiplication with the invariant x^2 + y^2
(the quasi-invariants are a module over the invariants):

    (1 + alpha^2) col_(d-2)(i) = col_d(i) + col_d(i+2),   i in S_(d-2),

both sides being (d-2-i) alpha^(d-3-i) + (d-2-2i) alpha^(d-1-i) -
i alpha^(d+1-i).  S_(d-2) with the indices d - 1 and d that are free is S_d,
and the change of basis is unit triangular on the lowest index, so the span
V_d of the degree-d columns is (1 + alpha^2) V_(d-2) plus the span of the
two new columns col_d(d) = -d alpha and col_d(d-1) = 1 - (d-1) alpha^2.
The subspaces W_d = (1 + alpha^2)^(K - d//2) V_d (K = D//2) therefore grow:
W_d = W_(d-2) plus at most two vectors, one echelon basis per parity.

Over Q, dim W_d = dim V_d, the rank itself: the slopes are real, so
1 + alpha^2 shares no root with R and is a unit mod R.  Over F_p,
p = RANK_PRIME, it may share one, and multiplication can only shrink a
span, so dim W_d is at most the rank mod p of the degree-d matrix, itself a
lower bound on its rank over Q (a minor nonzero mod p is nonzero).  The
rank is also at most n, and at even d at most |S_d| - 1: (x^2 + y^2)^(d/2)
is quasi-invariant (with f(alpha) = sum_i c_i alpha^(d-i),
g = (1 + alpha^2) f' - d alpha f, which vanishes for f = (1 + alpha^2)^(d/2)),
and its odd coefficients are 0.  So a series keeps the ranks of the pass
over F_p only if they meet min(n, |S_d| - [d even]) at every degree, and
else takes those of the pass over Q, on integer vectors kept primitive.
Generic charts keep the F_p ranks; am1n charts, whose Gorenstein kernels
hold some degrees below the bound, take the Q run, as does an R not
integral at p, whose pass mod p proves nothing.  The per-degree system
(assemble_system) and its Bareiss rank (rank_exact) are the reference the
pass is tested against; a series calls neither.

The numeric route works on bounded rows in fixed point.  Row j of degree d,
multiplied by sin^d phi_j (row scaling leaves the rank unchanged), has
entries num_d(i) = (d-i) cos^(d-1-i) sin^(i+1) - i cos^(d+1-i) sin^(i-1),
forms of degree d in (cos, sin) that are at most d in magnitude: row
equilibration in closed form (van der Sluis 1969).  One more factor of sin
would shrink the rows of lines near the heavy one until their part of the
rank fell under the cutoff.  A series builds one table of cos^k and sin^k
per slope line, as Python ints with precision + GUARD_BITS fraction bits,
grown only as far as the highest degree it eliminates, and the full-pivot
elimination runs on those ints with the margin rule of rank_numeric.  The
embedding holds exactly for these rows: with alpha_j = cot phi_j,
(1 + alpha_j^2) sin^2 phi_j = 1, so

    num_(d-2)(i) = num_d(i) + num_d(i+2),   i in S_(d-2),

that is M_(d-2) = M_d T for a 0/1 matrix T with at most two ones in each row
and column, ||T||_2 <= 2.  So the rank at d is at least the rank at d - 2,
and sigma_r(M_d) >= sigma_r(M_(d-2)) / 2 for every r: a rank decided with
the 2^64 margin at d - 2 stays decided at d (the fixed-point rows differ
from the exact ones by rounding far below the cutoff).  The same identity
bounds the rank going down.  T is unit triangular on the lowest index, and
S_d is S_(d-2) plus the free indices among d - 1 and d, so the columns of
M_(d-2) and the new columns of M_d span the column space of M_d:

    rank_(d-2) >= rank_d - (|S_d| - |S_(d-2)|),   and so
    rank_d >= rank_t - (|S_t| - |S_d|)   for d < t of one parity.

A series therefore eliminates first, for each parity, at t, the highest
degree 0 < t <= D whose bound |S_t| - [t even] is not capped by n.  Its
pivots clear the margin, so its rank is a proven lower bound, and the upper
bound is exact: wherever the rank read down from t meets the bound, that
degree's rank is proven.  On a generic chart the rank at t is its bound,
which read down gives every lower degree of the parity its bound
|S_d| - [d even], so the series takes two eliminations (degrees 23 and 24
of 0..52 for m = 4, n = 20).  Above t the rank settled at d - 2 carries up,
and once it reaches n every later degree of that parity is read off the
bound.  A rank-deficient chart such as am1n, whose Gorenstein kernels hold
some degrees below the bound, is eliminated at each degree where neither
lower bound reaches the upper one.

r, the number of distinct squared slopes, is exact on a chart with groups:
a root a of R has -a among the roots exactly when it is a root of
G = gcd(R(alpha), R(-alpha)), and G's roots pair off as +-a but for a root
0, so r = deg R - (deg G - [R(0) = 0]) / 2.  Only a chart without groups
reads numbers: equal cot^2 is equal sin^2 on (0, pi), so r counts distinct
squares of the fixed-point sines read as cos_sin_table reads them, sorted
neighbours a <= b being one when b - a <= 2^-(p/2) b.  Every slope line is
2^-(p/2) or more from the line at phi = 0 (the load check), so each square
is good to about 2^-(p/2 + 60) relative, far inside that tolerance.

The closed-form numerator of the one-heavy-line family serves
`hilbert --check-closed-form`.  The paper's per-degree segment formulas for
b_i, the membership test of one polynomial and the invariants x^2 + y^2 and
the squared defining polynomial are test oracles, in tests/paper.py.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_cos_sin, to_fixed

from .config import INF, Configuration, integer_mults
from .errors import IllConditioned, MissingExactData, TailMismatch
from .numeric import GUARD_BITS, angle_gap, check_precision
from .poly import DensePoly


# --- linear algebra kernels ---------------------------------------------------


def rank_exact(rows: Sequence[Sequence[Fraction]]) -> int:
    """Row rank over the rationals of a matrix of ints or Fractions.

    Each row is scaled to integers, then fraction-free elimination (Bareiss
    1968) runs on them: after k pivots every live entry is a (k+1)-minor of
    the scaled input, so each division is exact."""
    m = [list(_integer_row(r)) for r in rows]
    if not m or not m[0]:
        return 0
    rank, prev = 0, 1
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank][col:]
        pv = top[0]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r][col:] = [(pv * x - f * y) // prev for x, y in zip(m[r][col:], top)]
        prev = pv
        rank += 1
        if rank == len(m):
            break
    return rank


def _integer_row(row) -> Sequence[int]:
    """A row of ints or Fractions times the lcm of its denominators; a row
    of ints is returned as it is."""
    if all(isinstance(x, int) for x in row):
        return row
    lcm = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (lcm // x.denominator) for x in row]


def rank_numeric(rows: Sequence[Sequence[int]], precision: int) -> int:
    """Numeric rank of a fixed-point matrix by full-pivot elimination with an
    explicit margin rule.

    Entries are ints carrying F = precision + GUARD_BITS fraction bits.
    Pivoting stops when the remaining submatrix maximum falls to 2^-(p/2)
    times max(largest initial entry, 1); the decision is accepted only when
    the last accepted pivot exceeds the first discarded one by 2^64, else
    IllConditioned.  Each multiplier is at most 1 in magnitude, so on rows
    bounded by a small integer every update rounds by about 2^-F, far below
    the cutoff."""
    frac = check_precision(precision) + GUARD_BITS
    m = [list(r) for r in rows]
    scale0 = max((abs(x) for r in m for x in r), default=0)
    if scale0 == 0:
        return 0
    # the functionals have integer coefficients of order the degree, so unit
    # scale is the natural floor; without it an all-noise matrix (e.g. an
    # exactly-zero slope entering through a numeric chart) looks full rank
    cutoff = max(scale0, 1 << frac) >> (precision // 2)
    rank, last = 0, None
    while m and m[0]:
        best, br = max((max(map(abs, r)), k) for k, r in enumerate(m))
        if best <= cutoff:
            if last is not None and best > 0 and last < best << 64:
                raise IllConditioned(
                    f"rank margin {mp.nstr(mp.mpf(last) / best, 5)} below 2^64")
            return rank
        top = m.pop(br)
        bc = next(j for j, x in enumerate(top) if abs(x) == best)
        pv = top.pop(bc)
        for r in m:
            x = r.pop(bc)
            if x:
                f = (x << frac) // pv
                r[:] = [a - ((f * b) >> frac) for a, b in zip(r, top)]
        rank += 1
        last = best
    return rank


# --- the per-line functional --------------------------------------------------


def free_indices(d: int, m: int) -> List[int]:
    """Coefficient indices surviving the heavy-line constraints."""
    return [i for i in range(d + 1) if not (i % 2 == 1 and i <= 2 * m - 1)]


@dataclass(frozen=True)
class QISystem:
    """Assembled degree-d system: surviving coefficient indices and the
    remainder-map matrix (one row per power of alpha below deg R), each
    column multiplied by the positive integer in column_scale so that every
    entry is an int; column scaling leaves the rank unchanged."""

    free: Tuple[int, ...]
    matrix: Tuple[Tuple[int, ...], ...]
    column_scale: Tuple[int, ...]


# alpha^k mod R for k = 0, 1, ..., each as (numerators, denominator) of its
# deg R coefficients.
PowerTable = Sequence[Tuple[Sequence[int], int]]


def power_table(R: DensePoly, top: int) -> PowerTable:
    """alpha^k mod R for k = 0..top, by shift and reduce against R made
    monic and read as its numerators over its denominator, so a scaled R
    gives the same table."""
    R = R.monic()
    n, den_r = R.degree, R.den
    low = R.nums[:n]
    nums, den = [int(j == 0) for j in range(n)], 1
    table = []
    for _ in range(top + 1):
        table.append((tuple(nums), den))
        if not n:
            continue
        lead, nums = nums[-1], [0] + nums[:-1]
        if lead:
            nums = [x * den_r - lead * r for x, r in zip(nums, low)]
            g = math.gcd(den * den_r, *nums)
            nums, den = [x // g for x in nums], den * den_r // g
    return table


def assemble_system(c: Configuration, d: int,
                    table: Optional[PowerTable] = None) -> QISystem:
    """Exact quasi-invariance system of degree d over the rationals.

    Column i is (d-i) alpha^(d-1-i) - i alpha^(d+1-i) mod R, read off the
    power table (built here through alpha^(d+1) unless a longer one is
    passed) and scaled to integers by the product of its two denominators."""
    m, _, R = m1n_chart(c)
    if R is None:
        raise MissingExactData("quasi-invariant system needs an exact type-(m, 1^n) chart")
    if table is None:
        table = power_table(R, d + 1)
    S = free_indices(d, m)
    cols, scales = [], []
    for i in S:
        xs, dx = table[max(d - 1 - i, 0)]
        ys, dy = table[d + 1 - i]
        cols.append([(d - i) * x * dy - i * y * dx for x, y in zip(xs, ys)])
        scales.append(dx * dy)
    return QISystem(free=tuple(S), matrix=tuple(zip(*cols)), column_scale=tuple(scales))


def m1n_chart(c: Configuration) -> Tuple[int, int, Optional[DensePoly]]:
    """(heavy multiplicity m, number of slope lines n, slope polynomial R) of
    a type-(m, 1^n) chart, MissingExactData on any other.  A chart with groups
    has the groups (INF, m) and (R, 1); its lines are not read.  A chart
    without groups (R None) has one heavy line, at phi = 0, or all lines of
    multiplicity 1 and one at phi = 0 to play the heavy one.  ValueError on a
    multiplicity that is not a positive integer."""
    if c.groups:
        if len(c.groups) != 2 or c.groups[1][1] != 1:
            raise MissingExactData("quasi-invariant system needs an exact type-(m, 1^n) chart")
        (_, m), (R, _) = c.groups
        if not (isinstance(m, int) and m >= 1):
            raise ValueError(f"multiplicity {m!r} is not a positive integer")
        return m, R.degree, R
    integer_mults(c)
    heavy = [ln for ln in c.lines if ln.mult != 1]
    if len(heavy) > 1:
        raise MissingExactData(
            "quasi-invariant system needs type (m, 1^n): at most one heavy line")
    if heavy and not (heavy[0].phi == 0 or heavy[0].alpha_exact is INF):
        raise MissingExactData("the heavy line must sit at phi = 0")
    if not heavy and all(ln.phi != 0 for ln in c.lines):
        raise MissingExactData("no line at phi = 0 to play the heavy role")
    return int(heavy[0].mult) if heavy else 1, len(_slope_lines(c)), None


def _slope_lines(c: Configuration) -> List:
    """The slope lines of a type-(m, 1^n) chart: multiplicity 1, off phi = 0."""
    return [ln for ln in c.lines if ln.mult == 1 and ln.phi != 0]


# cos^k phi and sin^k phi (k = 0, 1, ...) of every slope line, as ints
# carrying precision + GUARD_BITS fraction bits; the lists grow in place.
CosSinTable = Sequence[Tuple[List[int], List[int]]]


def cos_sin_table(c: Configuration) -> CosSinTable:
    """Fixed-point powers cos^k and sin^k, k = 0, 1, of the slope lines'
    angles, by one cos/sin evaluation per line; qi_dimension_numeric grows
    them in place, by repeated multiplication, as far as the degree it
    eliminates.

    Two slope lines closer (mod pi) than rank_numeric's cutoff 2^-(p/2)
    times its margin 2^64, or times 2^(p/4) below 256 bits where 2^64 would
    reach past 1, raise IllConditioned: their rows differ by about their
    angle gap, so the rank they add could fall under the cutoff while the
    pivots before it clear the margin, and the rank would come out short
    without a refusal."""
    frac = check_precision(c.precision) + GUARD_BITS
    light = _slope_lines(c)
    if len(light) > 1:
        bits = min(64, c.precision // 4) - c.precision // 2
        gap, _, e = angle_gap([ln.phi for ln in light], c.precision)
        if gap < 1 << (bits - e):
            gap = mp.mp.make_mpf(from_man_exp(gap, e))
            raise IllConditioned(f"rank margin: two slope lines are 2^{mp.nstr(mp.log(gap, 2), 5)} "
                                 f"apart, closer than 2^{bits}")
    return [tuple([1 << frac, to_fixed(v, frac)]
                  for v in mpf_cos_sin(ln.phi._mpf_, frac)) for ln in light]


def qi_dimension_numeric(c: Configuration, d: int,
                         table: Optional[CosSinTable] = None) -> int:
    """Same dimension from the numeric chart by the fixed-point full-pivot
    rank.  Row j is the slope line's functional times sin^d phi_j, so entry
    i is (d-i) cos^(d-1-i) sin^(i+1) - i cos^(d+1-i) sin^(i-1), a form of
    degree d in (cos, sin) and at most d in magnitude; the cos/sin table,
    built here unless one is passed, is grown in place through power d."""
    if table is None:
        table = cos_sin_table(c)
    frac = c.precision + GUARD_BITS
    for pair in table:
        for powers in pair:  # x^k = x^(k-1) x
            while len(powers) <= d:
                powers.append((powers[-1] * powers[1]) >> frac)
    S = free_indices(d, m1n_chart(c)[0])
    rows = [[(((d - i) * cs[d - 1 - i] * sn[i + 1] if i < d else 0)
              - (i * cs[d + 1 - i] * sn[i - 1] if i else 0)) >> frac for i in S]
            for cs, sn in table]
    return len(S) - rank_numeric(rows, c.precision)


# --- Hilbert series -----------------------------------------------------------


@dataclass(frozen=True)
class HilbertSeries:
    m: int
    n: int
    coeffs: Tuple[int, ...]  # b_0 .. b_D
    numerator: Tuple[int, ...]  # N(t) with P(t) = N(t) / (t^2 - 1)^2

    def to_json_dict(self) -> dict:
        gor, M = is_gorenstein(self)
        return {
            "m": self.m,
            "n": self.n,
            "coefficients": list(self.coeffs),
            "numerator": list(self.numerator),
            "gorenstein": gor,
            "M": M,
        }

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["degree", "b"])
            for d, b in enumerate(self.coeffs):
                writer.writerow([d, b])


def hilbert_coefficients(c: Configuration, D: int) -> List[int]:
    """[b_0 .. b_D], by the passes over F_p and then Q on a chart with
    groups, else numerically, the rank read off its bounds where they meet
    and eliminated at that degree alone elsewhere (see the module docstring)."""
    m, n, R = m1n_chart(c)
    if D < 2 * m + 2 * n + 2:
        raise ValueError(f"need D >= {2 * m + 2 * n + 2}")
    free = [len(free_indices(d, m)) for d in range(D + 1)]
    bound = [min(n, f - (d % 2 == 0)) for d, f in enumerate(free)]
    if R is not None:
        ranks = _parity_ranks(R.monic(), m, D, RANK_PRIME)
        if ranks != bound:
            ranks = _parity_ranks(R.monic(), m, D)
        return [f - r for f, r in zip(free, ranks)]
    cos_sin, proven, ranks = cos_sin_table(c), [0] * (D + 1), [None] * (D + 1)

    def rank(d):
        return free[d] - qi_dimension_numeric(c, d, cos_sin)

    # per parity, the highest degree t whose bound |S_t| - [t even] is not
    # capped by n: its rank bounds every lower degree from below
    tops = {d % 2: d for d in range(1, D + 1) if free[d] - (d % 2 == 0) <= n}
    for t in sorted(tops.values()):
        ranks[t] = rank(t)
        for d in range(t % 2, t, 2):
            proven[d] = ranks[t] - (free[t] - free[d])
    for d in range(D + 1):
        if ranks[d] is None:
            lower = max(proven[d], ranks[d - 2] if d >= 2 else 0)
            ranks[d] = bound[d] if lower >= bound[d] else rank(d)
    return [f - r for f, r in zip(free, ranks)]


# Prime modulus of the first pass: a minor that is nonzero mod p is nonzero
# over Z, so a rank mod p is a lower bound on the rank over Q.
RANK_PRIME = 2 ** 61 - 1


def _parity_ranks(R: DensePoly, m: int, D: int,
                  p: Optional[int] = None) -> List[int]:
    """dim W_d for d = 0..D (see the module docstring), from vectors of
    n = deg R ints: reduced mod p when p is given, and all 0, which proves
    nothing, when p divides the monic R's denominator; over Q (p None) kept
    primitive, which gives the rank itself.  A full basis takes no more
    vectors."""
    if p is not None and R.den % p == 0:
        return [0] * (D + 1)
    n, den, low = R.degree, R.den, R.nums[:R.degree]
    if p:  # den 1: R's coefficients mod p
        den, low = 1, [a * pow(R.den, -1, p) % p for a in low]

    def reduce(v):  # mod p; over Q, where only spans count, the primitive part
        g = 1 if p else math.gcd(*v) or 1
        return [x % p for x in v] if p else [x // g for x in v]

    def times_alpha(v):  # den alpha v mod R, exact
        return [den * a - v[-1] * r for a, r in zip([0] + v, low)] if v else v

    # (g, den alpha g, den^2 alpha^2 g) for g = (1 + alpha^2)^j, j = 0..D//2
    powers, g = [], [int(j == 0) for j in range(n)]
    for _ in range(D // 2 + 1):
        ag = times_alpha(g)
        a2g = times_alpha(ag)
        powers.append((g, ag, a2g))
        g = reduce([den * den * x + y for x, y in zip(g, a2g)])

    def free(i):  # whether i <= d is in S_d
        return i % 2 == 0 or i >= 2 * m

    bases, ranks = ([], []), []
    for d in range(D + 1):
        basis = bases[d % 2]
        if len(basis) < n:
            g, ag, a2g = powers[D // 2 - d // 2]
            new = [reduce([-d * x for x in ag])] if free(d) else []  # col_d(d) = -d alpha
            if free(d - 1):  # col_d(d - 1) = 1 - (d - 1) alpha^2
                new.append(reduce([den * den * x - (d - 1) * y for x, y in zip(g, a2g)]))
            for v in new:
                for piv, b in basis:
                    f = v[piv]
                    if f and p:  # b[piv] = 1
                        v = [(x - f * y) % p for x, y in zip(v, b)]
                    elif f:
                        v = reduce([b[piv] * x - f * y for x, y in zip(v, b)])
                piv = next((j for j, x in enumerate(v) if x), None)
                if piv is not None:  # pivot 1 mod p
                    inv = pow(v[piv], -1, p) if p else 1
                    basis.append((piv, [x * inv % p for x in v] if p else v))
        ranks.append(len(basis))
    return ranks


def hilbert_rational_form(coeffs: Sequence[int], m: int, n: int) -> HilbertSeries:
    """Splice the computed coefficients and the linear tail into N(t)/(t^2-1)^2.

    Verifies the tail law b_i = i + 1 - m - n on every stored i past the
    cutoff (TailMismatch otherwise)."""
    coeffs = [int(v) for v in coeffs]
    D = len(coeffs) - 1
    if D < 2 * m + 2 * n + 2:
        raise ValueError(f"need coefficients through degree {2 * m + 2 * n + 2}")
    cutoff = 2 * m + 2 * n - 1
    for i in range(cutoff, D + 1):
        if coeffs[i] != i + 1 - m - n:
            raise TailMismatch(f"b_{i} = {coeffs[i]} violates the tail law "
                               f"{i + 1 - m - n}")

    def b(i: int) -> int:
        if i < 0:
            return 0
        if i <= D:
            return coeffs[i]
        return i + 1 - m - n

    deg_n = 2 * m + 2 * n + 2
    numer = [b(k) - 2 * b(k - 2) + b(k - 4) for k in range(deg_n + 1)]
    while numer and numer[-1] == 0:
        numer.pop()
    if not numer or numer[0] != 1:
        raise TailMismatch("numerator must have constant term b_0 = 1")
    return HilbertSeries(m=m, n=n, coeffs=tuple(coeffs), numerator=tuple(numer))


def am1n_hilbert_numerator(m: int, n: int) -> List[int]:
    """Closed-form numerator for the distinguished one-heavy-line family:
    1 - t^2 + t^(n+1) + t^(n+2) + t^(2m+n) + t^(2m+n+1) - t^(2m+2n) + t^(2m+2n+2)."""
    deg = 2 * m + 2 * n + 2
    out = [0] * (deg + 1)
    for expo, coef in [(0, 1), (2, -1), (n + 1, 1), (n + 2, 1), (2 * m + n, 1),
                       (2 * m + n + 1, 1), (2 * m + 2 * n, -1), (deg, 1)]:
        out[expo] += coef
    return out


def is_gorenstein(h: HilbertSeries) -> Tuple[bool, Optional[int]]:
    """(True, M) iff the numerator is an exact palindrome; then
    P(1/t) = t^M P(t) with M = 4 - deg N."""
    numer = list(h.numerator)
    if numer != numer[::-1]:
        return False, None
    return True, 4 - (len(numer) - 1)


def r_parameter(c: Configuration) -> int:
    """Number r of distinct squared slopes among the slope lines.  A random
    record counts its stored slopes (no lines built); any other chart with
    groups reads r exactly off R; only a chart without groups compares
    numeric squared sines (see the module docstring)."""
    if c.alphas is not None:
        return len({a * a for a in c.alphas})
    _, n, R = m1n_chart(c)
    if R is not None:
        mirror = DensePoly([-a if k % 2 else a for k, a in enumerate(R.nums)], R.den)
        return n - (R.gcd(mirror).degree - (R.nums[0] == 0)) // 2
    frac = c.precision + GUARD_BITS
    sines = [to_fixed(mpf_cos_sin(ln.phi._mpf_, frac)[1], frac) for ln in _slope_lines(c)]
    sq = sorted(s * s for s in sines)
    return len(sq[:1]) + sum((b - a) << c.precision // 2 > b for a, b in zip(sq, sq[1:]))
