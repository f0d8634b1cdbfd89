"""Darboux-Crum chains and their exact trigonometric-polynomial identities.

A chain for parameters (m, mt, n) consists of functions chi_j = sin(k_j phi)
with the level ladder

    k_j = j                      j = 1 .. m - mt
    k_{m-mt+j} = m - mt + 2j     j = 1 .. mt - 1
    k_m = mt + m + n

(for mt = 0 the ladder degenerates to 1..m-1 plus m+n).  Its Wronskian W
reproduces, exactly as Laurent-polynomial identities:

  factorization:  W = nu^-1 * Q(phi) * cos^(mt(mt+1)/2) * sin^(m(m+1)/2)
  potential:      -2 (log W)'' equals the singular potential of the arrangement
  eigenfunction:  Q solves its second-order equation with eigenvalue
                  n (2(m + mt) + n)

where Q(phi) = (prod (u^2 - z_j)) u^-n is assembled from the exact elementary
symmetric values of the configuration.

The factorization and the eigenfunction equation are computed in the chart
w = u^2 = e^(2 i phi).  There Q = u^-n P(w) with P = config.P, and cos, sin
and their products are powers of u times polynomials in w, so each of these
sides is a power of u times one polynomial in w on P's integer numerators,
put into TrigPoly normal form once (the proofs are in the verify_*
docstrings).  The normal form is unique: it is the TrigPoly that the
products of cos, sin and Q would give, and a failure reports the same
difference.

The potential identity is a consequence of the factorization (the proof is in
chain_report's docstring), so chain_report expands it only when the
factorization fails.  The q-scaling W_q(phi) = q^(m(m-1)/2) W_1(q phi) holds
for any functions by the chain rule; chain_report still computes it, since a
verdict on it that no computation backs would check nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .config import Configuration, _two_mult_ode_residual
from .errors import IdentityFailed, InvalidOrder, MissingExactData
from .poly import DensePoly
from .trig import _I_POWERS, TrigPoly, _normal, require_identity, wronskian


def darboux_levels(m: int, mt: int, n: int) -> List[int]:
    """Strictly increasing frequency ladder of length m (empty for m = 0).

    With 0 <= mt <= m and n >= 0 both branches give m levels, each run
    increasing and its top below the last level m + mt + n."""
    for name, value in (("m", m), ("mt", mt)):
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {name}={value}")
    if m < mt:
        raise InvalidOrder(f"need m >= mt, got m={m} < mt={mt}; "
                           "rotate the configuration by pi/2 first")
    if n < 0 or (mt >= 1 and n % 2 != 0):
        raise ValueError("the two-multiplicity ladder needs even n >= 0")
    if m == 0:
        return []
    if mt == 0:
        return list(range(1, m)) + [m + n]
    return (list(range(1, m - mt + 1)) + [m - mt + 2 * j for j in range(1, mt)]
            + [mt + m + n])


@dataclass(frozen=True)
class DarbouxChain:
    m: int
    mt: int
    n: int
    q: int
    levels: Tuple[int, ...]
    chis: Tuple[TrigPoly, ...]
    W: TrigPoly


def build_chain(m: int, mt: int, n: int, q: int = 1) -> DarbouxChain:
    """Chain with frequencies q * k_j and its exact Wronskian."""
    if q < 1:
        raise ValueError("need q >= 1")
    levels = darboux_levels(m, mt, n)
    chis = tuple(TrigPoly.sin(q * k) for k in levels)
    W = wronskian(list(chis)) if chis else TrigPoly.const(1)
    return DarbouxChain(m=m, mt=mt, n=n, q=q, levels=tuple(levels),
                        chis=chis, W=W)


def nu_constant(chain: DarbouxChain) -> Fraction:
    """nu = 2^(-mt(mt+1)/2 - m(m-1)/2) (-1)^(m(m-1)/2) prod_{p>q} (k_p - k_q)^-1."""
    m, mt = chain.m, chain.mt
    expo = mt * (mt + 1) // 2 + m * (m - 1) // 2
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    nu = Fraction(sign, 2 ** expo)
    for b in range(len(chain.levels)):
        for a in range(b):
            nu /= chain.levels[b] - chain.levels[a]
    return nu


def _exact_p(config: Configuration) -> DensePoly:
    """config.P; MissingExactData when the configuration has no e values."""
    P = config.P
    if P is None:
        raise MissingExactData("configuration carries no exact e values")
    return P


def q_trig(config: Configuration) -> TrigPoly:
    """Q(phi) = sum_k (-1)^k e_k u^(n - 2k) from the exact elementary values,
    read off config.P = sum_k (-1)^k e_k w^(n - k): its w^j numerator is the
    u^(2j - n) numerator of Q, over the same denominator."""
    P = _exact_p(config)
    return _normal({2 * j - config.n: (a, 0) for j, a in enumerate(P.nums)}, P.den)


def _check_chain_matches(chain: DarbouxChain, config: Configuration) -> None:
    if chain.q != 1:
        raise ValueError("identity checks run on the q = 1 chain")
    m = config.m
    mt = config.mtilde or 0
    if (chain.m, chain.mt) != (m, mt) or chain.n != config.n:
        raise ValueError(f"chain ({chain.m},{chain.mt},{chain.n}) does not "
                         f"match configuration ({m},{mt},{config.n})")


def verify_factorization(chain: DarbouxChain, config: Configuration) -> bool:
    """W = nu^-1 Q(phi) cos^a sin^b, a = mt(mt+1)/2, b = m(m+1)/2, exactly,
    with Q = q_trig(config); ValueError first when the chain is not config's
    q = 1 chain.

    The right side is formed in the chart w = u^2.  There Q = u^-n P(w)
    (q_trig), cos = (u + u^-1)/2 = u^-1 (w + 1)/2 and sin = (u - u^-1)/(2i)
    = u^-1 (w - 1)/(2i), so

        nu^-1 Q cos^a sin^b = u^-(n+a+b) P(w) (w + 1)^a (w - 1)^b i^-b / (2^(a+b) nu):

    the w^k coefficient of the integer product of P's numerators with the
    binomial rows of (w + 1)^a and (w - 1)^b, times i^-b / nu over
    2^(a+b) P.den, is the u^(2k-n-a-b) coefficient of the right side."""
    _check_chain_matches(chain, config)
    m, mt = chain.m, chain.mt
    a, b = mt * (mt + 1) // 2, m * (m + 1) // 2
    prod = (_exact_p(config) * DensePoly([math.comb(a, j) for j in range(a + 1)], 1)
            * DensePoly([(-1) ** (b - j) * math.comb(b, j) for j in range(b + 1)], 1))
    inv = 1 / nu_constant(chain)
    re, im = (inv.numerator * x for x in _I_POWERS[-b % 4])
    shift = config.n + a + b
    rhs = _normal({2 * k - shift: (c * re, c * im) for k, c in enumerate(prod.nums)},
                  (prod.den * inv.denominator) << (a + b))
    return require_identity(chain.W, rhs, "Wronskian factorization")


def verify_potential(chain: DarbouxChain, config: Configuration) -> bool:
    """-2 (log W)'' equals the singular potential, after clearing denominators:

    -2 (W'' W - W'^2) sin^2 cos^2 Q^2
        = W^2 [ m(m+1) cos^2 Q^2 + mt(mt+1) sin^2 Q^2
                + 2 sin^2 cos^2 (Q'^2 - Q'' Q) ]."""
    _check_chain_matches(chain, config)
    m, mt = chain.m, chain.mt
    W = chain.W
    Q = q_trig(config)
    W1, Q1 = W.dphi(), Q.dphi()
    W2, Q2 = W1.dphi(), Q1.dphi()
    sin2 = TrigPoly.sin(1) ** 2
    cos2 = TrigPoly.cos(1) ** 2
    Qsq = Q * Q
    lhs = (W2 * W - W1 * W1) * sin2 * cos2 * Qsq * (-2)
    inner = (cos2 * Qsq).scale(m * (m + 1)) + (sin2 * Qsq).scale(mt * (mt + 1)) \
        + (sin2 * cos2 * (Q1 * Q1 - Q2 * Q)) * 2
    rhs = W * W * inner
    return require_identity(lhs, rhs, "transformed potential")


def verify_eigen(config: Configuration) -> bool:
    """sin cos Q'' + 2 (m cos^2 - mt sin^2) Q' + n(2(m+mt)+n) sin cos Q = 0
    with Q = q_trig(config).

    The left side is i u^-n R(u^2) with R = _two_mult_ode_residual(m, mt,
    n, P), for every m, mt, n and every P.  Proof: in the chart w = u^2,
    Q = u^-n P(w) (q_trig) and d/dphi = 2i theta with theta = w d/dw.  As
    theta u^-n = -(n/2) u^-n, Q' = 2i u^-n (theta - n/2) P and
    Q'' = -4 u^-n (theta - n/2)^2 P.  With sin cos = (w - w^-1)/(4i),
    cos^2 = (w + 2 + w^-1)/4 and sin^2 = -(w - 2 + w^-1)/4 the left side is
    i u^-n w^-1 S(w), where, with N = n(2(m+mt)+n) the eigenvalue,

        S = (w^2 - 1)(theta - n/2)^2 P + (m(w+1)^2 + mt(w-1)^2)(theta - n/2) P
            - (N/4)(w^2 - 1) P.

    Expand theta P = w P', theta^2 P = w^2 P'' + w P' and collect:

        S = w [w (w^2 - 1) P'' - ((n-1)(w^2 - 1) - m(w+1)^2 - mt(w-1)^2) P'
               - (n(m+mt) w + n(m-mt)) P] = w R,

    since the P terms are -(n/2)[m(w+1)^2 + mt(w-1)^2 + (m+mt)(w^2 - 1)]
    = -n w ((m+mt) w + m - mt).  So the w^k coefficient r_k/den of R is the
    u^(2k-n) coefficient i r_k/den of the left side."""
    m, mt, n = config.m, config.mtilde or 0, config.n
    if m is None or n is None:
        raise MissingExactData("eigen check needs the (m, mt, n) parameters")
    R = _two_mult_ode_residual(m, mt, n, _exact_p(config))
    lhs = _normal({2 * k - n: (0, r) for k, r in enumerate(R.nums)}, R.den)
    return require_identity(lhs, TrigPoly.zero(), "eigenfunction equation")


def q_scaling_check(chain: DarbouxChain, q: int) -> bool:
    """W_q(phi) = q^(m(m-1)/2) W_1(q phi) as exact TrigPolys."""
    if chain.q != 1:
        raise ValueError("scaling check starts from the q = 1 chain")
    if q < 1:
        raise ValueError("need q >= 1")
    scaled = build_chain(chain.m, chain.mt, chain.n, q=q)
    expected = chain.W.subs_power(q).scale(Fraction(q) ** (chain.m * (chain.m - 1) // 2))
    return require_identity(scaled.W, expected, f"q = {q} frequency scaling")


def chain_report(chain: DarbouxChain, config: Configuration,
                 q_values: Tuple[int, ...] = (2, 3)) -> dict:
    """Run the identity checks; report per-identity outcomes.

    The potential is read off the factorization when that passes, and
    expanded by verify_potential only when it fails.  Proof: let a =
    mt(mt+1)/2, b = m(m+1)/2, and W = K Q c^a s^b with c = cos, s = sin and
    K any constant.  In the ring of trigonometric polynomials with ' = d/dphi,

        (GH)''(GH) - ((GH)')^2 = H^2 (G''G - G'^2) + G^2 (H''H - H'^2),
        (c^a)''c^a - ((c^a)')^2 = -a c^(2a-2) (s^2 + c^2) = -a c^(2a-2),
        (s^b)''s^b - ((s^b)')^2 = -b s^(2b-2),

    where a term whose coefficient a or b is 0 is absent.  Hence

        W''W - W'^2 = K^2 [c^(2a) s^(2b) (Q''Q - Q'^2)
                           - a c^(2a-2) s^(2b) Q^2 - b c^(2a) s^(2b-2) Q^2],

    and multiplying by -2 s^2 c^2 Q^2 gives, with W^2 = K^2 Q^2 c^(2a) s^(2b),
    2a = mt(mt+1) and 2b = m(m+1),

        -2 (W''W - W'^2) s^2 c^2 Q^2
            = W^2 [m(m+1) c^2 Q^2 + mt(mt+1) s^2 Q^2 + 2 s^2 c^2 (Q'^2 - Q''Q)],

    which is verify_potential's identity: -2 (log W)'' = 2 (Q'^2 - QQ'')/Q^2
    + 2a/c^2 + 2b/s^2 with its denominators cleared.  Every step is an
    identity of Laurent polynomials in u = e^(i phi), true for any K
    (K = nu^-1 here) and any Q, so it needs no division and no nonvanishing
    assumption.  verify_factorization checks W = nu^-1 Q c^a s^b exactly with
    the same Q = q_trig(config) and the same (m, mt) as verify_potential, so
    its pass proves the potential's.  Each check computes that Q itself, and
    verify_factorization raises the ValueError of a chain that is not
    config's q = 1 chain.  The q-scaling checks always run (see the module
    docstring).
    """
    out = {
        "m": chain.m, "mt": chain.mt, "n": chain.n,
        "levels": list(chain.levels),
        "nu": str(nu_constant(chain)),
    }

    def run(name, fn):
        try:
            fn()
            out[name] = "exact-pass"
        except IdentityFailed as ex:
            out[name] = f"fail: {ex}"

    run("factorization", lambda: verify_factorization(chain, config))
    if out["factorization"] == "exact-pass":
        out["potential"] = "exact-pass"
    else:
        run("potential", lambda: verify_potential(chain, config))
    run("eigen", lambda: verify_eigen(config))
    for q in q_values:
        run(f"q_scaling_{q}", lambda q=q: q_scaling_check(chain, q))
    return out
