from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines.config import build_am1n, build_two_mult
from balines.darboux import (build_chain, chain_report, darboux_levels,
                             nu_constant, q_scaling_check, q_trig,
                             verify_eigen, verify_factorization,
                             verify_potential)
from balines.errors import IdentityFailed, InvalidOrder
from balines.numeric import working
from balines.poly import DensePoly
from balines.trig import TrigPoly, wronskian

from oracles import (mult1_lines, slope_lines, trig_value, trigpoly_eigen_lhs,
                     trigpoly_factorization_rhs, trigpoly_verify_eigen,
                     trigpoly_verify_factorization)


def test_level_ladders():
    assert darboux_levels(3, 2, 2) == [1, 3, 7]
    assert darboux_levels(1, 0, 2) == [3]
    assert darboux_levels(2, 0, 2) == [1, 4]
    assert darboux_levels(1, 1, 2) == [4]
    assert darboux_levels(4, 3, 2) == [1, 3, 5, 9]
    assert darboux_levels(2, 0, 1) == [1, 3]


def test_levels_reject_bad_order():
    with pytest.raises(InvalidOrder):
        darboux_levels(1, 2, 2)
    with pytest.raises(ValueError):
        darboux_levels(2, 1, 3)  # odd n in the two-multiplicity family


def test_levels_refuse_negative_multiplicities():
    # the signs are checked before the order, and each names its field
    with pytest.raises(ValueError, match="need mt >= 0"):
        darboux_levels(2, -1, 3)
    with pytest.raises(ValueError, match="need m >= 0") as err:
        darboux_levels(-1, 0, 2)
    assert not isinstance(err.value, InvalidOrder)


def test_chain_wronskians():
    assert build_chain(1, 0, 2).W == TrigPoly.sin(3)
    ch = build_chain(2, 0, 1)
    assert ch.W == wronskian([TrigPoly.sin(1), TrigPoly.sin(3)])
    ch3 = build_chain(3, 2, 2, q=2)
    assert ch3.chis == (TrigPoly.sin(2), TrigPoly.sin(6), TrigPoly.sin(14))
    assert not ch3.W.is_zero


def test_top_frequency_bookkeeping():
    for m, mt, n in [(2, 0, 3), (3, 2, 2), (4, 4, 6)]:
        ch = build_chain(m, mt, n)
        assert max(ch.W.terms) == sum(ch.levels)
        # the factorization's right side carries the same top frequency
        assert n + m * (m + 1) // 2 + mt * (mt + 1) // 2 == sum(ch.levels)


def test_nu_values():
    assert nu_constant(build_chain(1, 0, 2)) == F(1)
    assert nu_constant(build_chain(2, 0, 1)) == F(-1, 4)
    assert nu_constant(build_chain(1, 1, 2)) == F(1, 2)
    assert nu_constant(build_chain(2, 1, 2)) == F(-1, 16)


def test_q_trig_values():
    assert q_trig(build_am1n(1, 2, 128)) == \
        TrigPoly.cos(2).scale(2) + TrigPoly.const(1)
    assert q_trig(build_two_mult(1, 1, 2, 128)) == TrigPoly.cos(2).scale(2)


def test_factorization_triple_angle():
    # sin(3 phi) = (2 cos(2 phi) + 1) sin(phi)
    assert verify_factorization(build_chain(1, 0, 2), build_am1n(1, 2, 128))


def test_factorization_examples():
    assert verify_factorization(build_chain(2, 0, 1), build_am1n(2, 1, 128))
    assert verify_factorization(build_chain(1, 1, 2), build_two_mult(1, 1, 2, 128))
    assert verify_factorization(build_chain(3, 2, 4), build_two_mult(3, 2, 4, 128))


def test_factorization_fails_on_mismatch():
    ch = build_chain(1, 0, 2)
    wrong = build_am1n(1, 4, 128)
    with pytest.raises(ValueError):
        verify_factorization(ch, wrong)
    # matched shape but wrong exact data fails with the difference attached
    from dataclasses import replace
    cfg = build_am1n(1, 2, 128)
    bad = replace(cfg, e=(F(-1, 2), F(1)))
    with pytest.raises(IdentityFailed) as err:
        verify_factorization(ch, bad)
    assert err.value.difference is not None
    assert not err.value.difference.is_zero


def test_potential_identity():
    assert verify_potential(build_chain(1, 0, 2), build_am1n(1, 2, 128))
    assert verify_potential(build_chain(2, 1, 2), build_two_mult(2, 1, 2, 128))


def test_potential_numeric_spot_check():
    # -2 (log W)'' at phi = 0.37 equals the explicit singular sum
    m, mt, n = 3, 2, 4
    cfg = build_two_mult(m, mt, n, 256)
    ch = build_chain(m, mt, n)
    with working(256):
        phi = mp.mpf("0.37")
        W, W1, W2 = ch.W, ch.W.dphi(), ch.W.dphi().dphi()
        wv, w1, w2 = (trig_value(t, phi) for t in (W, W1, W2))
        lhs = -2 * (w2 * wv - w1 ** 2) / wv ** 2
        rhs = m * (m + 1) / mp.sin(phi) ** 2 + mt * (mt + 1) / mp.cos(phi) ** 2
        for ln in mult1_lines(cfg):
            rhs += 2 / mp.sin(phi - ln.phi) ** 2
        assert abs(lhs - rhs) < mp.mpf(2) ** -200


def test_eigen_identity():
    assert verify_eigen(build_am1n(1, 2, 128))
    assert verify_eigen(build_two_mult(1, 1, 2, 128))
    assert verify_eigen(build_two_mult(3, 2, 4, 128))


def test_q_scaling():
    ch = build_chain(1, 0, 2)
    assert q_scaling_check(ch, 2)  # sin(6 phi) vs sin(3 * 2 phi)
    ch2 = build_chain(2, 0, 1)
    assert q_scaling_check(ch2, 2)
    ch3 = build_chain(2, 1, 2)
    assert q_scaling_check(ch3, 3)


def test_wronskian_zero_set_matches_angles():
    # zeros of W on (0, pi), beyond the boundary factors at 0 and pi/2,
    # are exactly the slope-line angles of the matching arrangement
    m, mt, n = 2, 1, 4
    cfg = build_two_mult(m, mt, n, 256)
    ch = build_chain(m, mt, n)
    with working(256):
        for ln in slope_lines(cfg):
            assert abs(trig_value(ch.W, ln.phi)) < mp.mpf(2) ** -200


def test_chain_report_all_pass():
    cfg = build_two_mult(2, 2, 4, 128)
    rep = chain_report(build_chain(2, 2, 4), cfg)
    assert rep["factorization"] == "exact-pass"
    assert rep["potential"] == "exact-pass"
    assert rep["eigen"] == "exact-pass"
    assert rep["q_scaling_2"] == "exact-pass"


def test_m1n_family_odd_n():
    # the single-heavy-line family allows odd n
    for m, n in [(2, 1), (3, 3), (4, 7)]:
        cfg = build_am1n(m, n, 128)
        ch = build_chain(m, 0, n)
        assert verify_factorization(ch, cfg)
        assert verify_potential(ch, cfg)
        assert verify_eigen(cfg)


def test_trivial_chain_m_zero():
    assert darboux_levels(0, 0, 0) == []
    ch = build_chain(0, 0, 0)
    assert ch.W == TrigPoly.const(1)
    # free operator: -2 (log 1)'' vanishes identically
    assert ch.W.dphi().is_zero


@pytest.mark.parametrize("m, n, nu, terms", [
    (1, 2, "1", (3, 12, 3)),
    (2, 3, "-1/8", (6, 21, 4)),
    (3, 4, "-1/240", (10, 31, 4)),
])
def test_chain_report_failure_strings(m, n, nu, terms):
    # every e shifted by 1/7: each identity that reads Q fails, and its
    # report names the number of terms of the nonzero difference
    from dataclasses import replace
    cfg = build_am1n(m, n, 128)
    bad = replace(cfg, e=tuple(v + F(1, 7) for v in cfg.e))
    rep = chain_report(build_chain(m, 0, n), bad)
    assert rep["nu"] == nu
    assert rep["factorization"] == \
        f"fail: Wronskian factorization: difference has {terms[0]} terms"
    assert rep["potential"] == \
        f"fail: transformed potential: difference has {terms[1]} terms"
    assert rep["eigen"] == f"fail: eigenfunction equation: difference has {terms[2]} terms"
    assert rep["q_scaling_2"] == rep["q_scaling_3"] == "exact-pass"


def _count_potential_calls(monkeypatch):
    import balines.darboux as darboux
    calls = []
    full = darboux.verify_potential

    def counted(chain, config):
        calls.append((chain.m, chain.mt, chain.n))
        return full(chain, config)

    monkeypatch.setattr(darboux, "verify_potential", counted)
    return calls


def test_chain_report_expands_potential_only_when_factorization_fails(monkeypatch):
    calls = _count_potential_calls(monkeypatch)
    cfg = build_am1n(3, 4, 128)
    rep = chain_report(build_chain(3, 0, 4), cfg)
    assert rep["factorization"] == rep["potential"] == "exact-pass"
    assert calls == []
    from dataclasses import replace
    bad = replace(cfg, e=tuple(v + F(1, 7) for v in cfg.e))
    rep = chain_report(build_chain(3, 0, 4), bad)
    assert rep["factorization"].startswith("fail: ")
    assert rep["potential"].startswith("fail: transformed potential")
    assert calls == [(3, 0, 4)]


def test_potential_fallback_computes_when_only_nu_is_wrong(monkeypatch):
    # 3 nu breaks the factorization but not the potential, which does not
    # see the constant: the fallback must expand it and pass
    import balines.darboux as darboux
    calls = _count_potential_calls(monkeypatch)
    nu = darboux.nu_constant
    monkeypatch.setattr(darboux, "nu_constant", lambda chain: 3 * nu(chain))
    rep = chain_report(build_chain(3, 0, 4), build_am1n(3, 4, 128))
    assert rep["nu"] == "-1/80"
    assert rep["factorization"].startswith("fail: Wronskian factorization: ")
    assert rep["potential"] == "exact-pass"
    assert rep["eigen"] == "exact-pass"
    assert calls == [(3, 0, 4)]


def _darboux_bench_grid():
    """The (m, mt, n) items of the benchmark's darboux cycle: for m <= 4
    every (m, mt) with half of its n on a checkerboard, then three m = 5
    items and (6, 3, 10)."""
    def ns(mt):
        return list(range(1, 11)) if mt == 0 else list(range(2, 11, 2))

    items = [(m, mt, n) for m in range(1, 5) for mt in range(m + 1)
             for i, n in enumerate(ns(mt)) if (m + mt + i) % 2 == 0]
    items += [(5, mt, ns(mt)[(3 * mt) % len(ns(mt))]) for mt in (0, 2, 4)]
    return items + [(6, 3, 10)]


def test_full_potential_expansion_on_the_bench_grid():
    # chain_report reads the potential off the factorization; the full
    # expansion must agree on every item where it does so
    grid = _darboux_bench_grid()
    assert len(grid) == 50
    for m, mt, n in grid:
        cfg = build_two_mult(m, mt, n, 128) if mt else build_am1n(m, n, 128)
        chain = build_chain(m, mt, n)
        assert verify_factorization(chain, cfg), (m, mt, n)
        assert verify_potential(chain, cfg), (m, mt, n)


def _outcome(check):
    """("exact-pass", zero) when check() passes, else the IdentityFailed
    message and difference."""
    try:
        check()
    except IdentityFailed as ex:
        return str(ex), ex.difference
    return "exact-pass", TrigPoly.zero()


@st.composite
def _parameters_and_p(draw):
    """(m, mt, n) of a valid ladder and any P of degree at most n over a
    common denominator, zero included: nearly never a solution."""
    m = draw(st.integers(0, 4))
    mt = draw(st.integers(0, m))
    n = draw(st.integers(0, 4)) * (2 if mt else 1)
    nums = draw(st.lists(st.integers(-60, 60), min_size=0, max_size=n + 1))
    return m, mt, n, DensePoly(nums, draw(st.integers(1, 36)))


@settings(max_examples=300, deadline=None)
@given(_parameters_and_p())
def test_chart_checks_equal_the_trigpoly_expansions(case):
    # both sides in the w = u^2 chart are the TrigPoly expansions' normal
    # forms, so outcome, message and difference all agree, for any P
    m, mt, n, P = case
    cfg = SimpleNamespace(m=m, mtilde=mt, n=n, P=P)
    chain = build_chain(m, mt, n)
    eigen = _outcome(lambda: verify_eigen(cfg))
    assert eigen == _outcome(lambda: trigpoly_verify_eigen(cfg))
    assert eigen[1] == trigpoly_eigen_lhs(cfg)
    factor = _outcome(lambda: verify_factorization(chain, cfg))
    assert factor == _outcome(lambda: trigpoly_verify_factorization(chain, cfg))
    assert chain.W - factor[1] == trigpoly_factorization_rhs(chain, cfg)


def test_chain_reports_equal_the_trigpoly_route_on_the_bench_grid(monkeypatch):
    # every bench item, and each with one e shifted by 1/7, reports the same
    # dict on the chart route and on the TrigPoly route
    import balines.darboux as darboux

    cases = []
    for m, mt, n in _darboux_bench_grid():
        cfg = build_two_mult(m, mt, n, 128) if mt else build_am1n(m, n, 128)
        e = list(cfg.e)
        e[(m + mt + n) % n] += F(1, 7)
        chain = build_chain(m, mt, n)
        cases += [(chain, cfg), (chain, replace(cfg, e=tuple(e)))]
    reports = [chain_report(chain, cfg) for chain, cfg in cases]
    assert sum(r["eigen"] != "exact-pass" for r in reports) == 50
    monkeypatch.setattr(darboux, "verify_factorization", trigpoly_verify_factorization)
    monkeypatch.setattr(darboux, "verify_eigen", trigpoly_verify_eigen)
    assert [chain_report(chain, cfg) for chain, cfg in cases] == reports
