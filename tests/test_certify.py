from fractions import Fraction as F

import mpmath as mp
import pytest

from balines import certify
from balines.certify import (certify_ba, default_threshold, first_condition_residual_lines,
                             ode_residual_am1n, ode_residual_two_mult)
from balines.cli import main
from balines.config import (Configuration, Line, build_am1n, build_two_mult,
                            general_from_angles, perturb_line,
                            random_type_m1n, t_q_expand)
from balines.errors import CollisionError, IllConditioned, MissingExactData
from balines.locus import solve_general_locus
from balines.numeric import GUARD_BITS, log2_abs, working
from balines.poly import DensePoly
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from oracles import (cartesian_condition_value, fraction_am1n_ode_residual,
                     fraction_two_mult_ode_residual, loop_decide, loop_sums,
                     mpf_certificate, polar_condition_residual)


def residuals(c):
    """certify_ba's residuals of c by (j, k, form)."""
    return {(r.j, r.k, r.form): r for r in certify_ba(c).residuals}


def test_symmetry_kills_heavy_line_conditions():
    res = residuals(build_am1n(2, 2, 256))
    for k in (1, 2):
        assert res[0, k, "polar-first"].relative() < mp.mpf(2) ** -220
        assert res[0, k, "polar-locus"].relative() < mp.mpf(2) ** -220


def test_construction_satisfies_first_conditions():
    res = residuals(build_am1n(2, 2, 256))
    assert res[1, 1, "polar-first"].relative() < mp.mpf(2) ** -220


def test_perturbed_configuration_fails():
    res = residuals(perturb_line(build_am1n(2, 2, 256), 1, 0.01))
    assert res[1, 1, "polar-first"].relative() > mp.mpf("1e-4")


def test_locus_conditions_on_families():
    for m, n in [(2, 3), (4, 5)]:
        res = residuals(build_am1n(m, n, 256))
        for j in range(1, n + 1):
            assert res[j, 1, "polar-locus"].relative() < mp.mpf(2) ** -220
    tm = build_two_mult(2, 2, 4, 256)
    res = residuals(tm)
    for j, ln in enumerate(tm.lines):
        for k in range(1, ln.mult + 1):
            assert res[j, k, "polar-locus"].relative() < mp.mpf(2) ** -220


def test_cartesian_polar_agreement():
    # the real cot kernel against the complex-z sums and the Cartesian sums,
    # which are -1 (first) and -4 (locus) times the kernel's; differences are
    # measured against the largest summand, since the residuals of the exact
    # configuration are rounding noise
    base = build_am1n(3, 4, 256)
    tol = mp.mpf(2) ** -200
    for c in (base, perturb_line(base, 1, 1e-2)):
        res = certify_ba(c).residuals
        assert len(res) == 2 * sum(ln.mult for ln in c.lines)
        with working(256):
            for r in res:
                family = r.form.split("-")[1]
                value, scale = polar_condition_residual(c.lines, r.j, r.k, family)
                assert abs(r.scale - scale) <= tol * scale
                assert abs(abs(r.value) - abs(value)) <= tol * scale
                assert abs(r.relative() - abs(value) / scale) <= tol
                factor = 1 if family == "first" else 4
                cartesian = cartesian_condition_value(c.lines, r.j, r.k, family)
                assert abs(cartesian + factor * r.value) <= tol * factor * scale


def test_two_orthogonal_lines_cartesian_zero():
    with working(128):
        c = general_from_angles([1, 1], [0, mp.pi / 2], 128)
    assert certify_ba(c).max_residual < mp.mpf(2) ** -100


def test_tq_expansion_certifies():
    c = t_q_expand(build_am1n(2, 2, 256), 3)
    first = [r for r in certify_ba(c).residuals if r.form == "polar-first"]
    assert len(first) == sum(ln.mult for ln in c.lines)
    assert all(r.relative() < mp.mpf(2) ** -200 for r in first)


def test_certificate_pass_and_fail():
    with working(256):
        thr = mp.mpf(2) ** -200
    cert = certify_ba(build_am1n(4, 5, 256), threshold=thr)
    assert cert.passed
    cert2 = certify_ba(t_q_expand(build_two_mult(2, 1, 4, 256), 2), threshold=thr)
    assert cert2.passed
    cert3 = certify_ba(random_type_m1n(2, 2, seed=11, precision=256), threshold=thr)
    assert not cert3.passed
    payload = cert3.to_json_dict()
    assert payload["verdict"] == "fail"
    assert payload["max_residual_log2"] > -40


def test_scale_covariance():
    # multiplying all z by a unimodular constant preserves polar residuals
    c = build_am1n(2, 2, 192)
    with working(192):
        theta = mp.mpf(1) / 7
        rotated = general_from_angles([ln.mult for ln in c.lines],
                                      [ln.phi + theta for ln in c.lines], 192)
        a, b = residuals(c), residuals(rotated)
        for j in range(3):
            key = (j, 1, "polar-first")
            assert abs(abs(a[key].value) - abs(b[key].value)) < mp.mpf(2) ** -150


def test_precision_scaling():
    # doubling the mantissa must shrink residuals by far more than 2^64
    lo = certify_ba(build_am1n(3, 4, 128))
    hi = certify_ba(build_am1n(3, 4, 256))
    assert lo.passed and hi.passed
    ratio_log2 = (mp.log(lo.max_residual, 2) - mp.log(hi.max_residual, 2))
    assert ratio_log2 > 64


def test_ode_residual_am1n_zero():
    for m in range(1, 9):
        for n in range(1, 9):
            assert ode_residual_am1n(build_am1n(m, n, 64)).is_zero


def test_ode_residual_wrong_poly_nonzero():
    c = build_am1n(2, 2, 128)
    wrong = replace(c, e=(F(-1), F(1)))
    assert wrong.P == DensePoly([1, 1, 1])
    assert not ode_residual_am1n(wrong).is_zero


def test_ode_residual_am1n_is_w_plus_1_times_the_am1n_residual():
    # the two-multiplicity residual at mt = 0 against the am1n ODE evaluated
    # by DensePoly products, on the built P and with e_1 or e_n moved by 1/7
    for m in range(1, 5):
        for n in range(1, 7):
            c = build_am1n(m, n, 64)
            e = list(c.e)
            for edit in ((), (0,), (n - 1,)):
                moved = replace(c, e=tuple(v + F(1, 7) if i in edit else v
                                           for i, v in enumerate(e)))
                want = DensePoly([1, 1]) * fraction_am1n_ode_residual(m, n, moved.P)
                assert ode_residual_am1n(moved) == want, (m, n, edit)
                assert want.is_zero == (not edit)


def test_ode_residual_two_mult_zero():
    assert ode_residual_two_mult(build_two_mult(1, 1, 2, 128)).is_zero
    assert ode_residual_two_mult(build_two_mult(3, 2, 4, 128)).is_zero


def test_ode_residual_wrong_branch_nonzero():
    from balines.config import _two_mult_recurrence

    c = build_two_mult(3, 1, 4, 192)
    bad_e = _two_mult_recurrence(3, 1, 4, -c.e_branch_sign)
    bad = replace(c, e=tuple(bad_e))
    assert not ode_residual_two_mult(bad).is_zero


def test_exactly_one_sign_branch_solves_ode():
    # the integer residual equals the Fraction one on both branches, zero
    # or not
    from balines.config import _two_mult_ode_residual, _two_mult_recurrence
    from balines.symfunc import poly_from_elementary

    for m in range(1, 7):
        for mt in range(0, 5):
            for n in range(2, 17, 2):
                zero = []
                for sign in (-1, 1):
                    P = poly_from_elementary(_two_mult_recurrence(m, mt, n, sign), n)
                    residual = _two_mult_ode_residual(m, mt, n, P)
                    assert residual == fraction_two_mult_ode_residual(m, mt, n, P)
                    if residual.is_zero:
                        zero.append(sign)
                # m = mt has a zero seed, so both signs give the same P
                assert len(zero) == (2 if m == mt else 1), (m, mt, n)


def test_ode_requires_exact_data():
    c = random_type_m1n(2, 2, seed=1)
    with pytest.raises(MissingExactData):
        ode_residual_am1n(c)


def test_certify_refuses_non_integer_multiplicities():
    c = solve_general_locus((2.5, 1, 1), 128)
    with pytest.raises(ValueError, match="2.5 is not a positive integer"):
        certify_ba(c)


# --- the fixed-point kernel against the mpf oracle ----------------------------


@pytest.mark.parametrize("family, m, mt, n, q", [
    ("am1n", 6, 0, 10, 1), ("am1n", 6, 0, 10, 2), ("am1n", 6, 0, 10, 3),
    ("am1n", 6, 0, 10, 4), ("twomult", 4, 2, 6, 1)])
def test_bound_covers_the_rounding(family, m, mt, n, q):
    # the mpf kernel at twice the precision stands for the exact sums; a
    # pass leaves residual plus bound below the threshold times the lowest
    # scale the bound allows
    base = build_am1n(m, n, 256) if family == "am1n" else build_two_mult(m, mt, n, 256)
    c = t_q_expand(base, q)
    cert = certify_ba(c)
    assert cert.passed and cert.fraction_bits == 256 + GUARD_BITS
    with mp.workprec(512):
        _, exact = mpf_certificate(c.lines, cert.threshold)
        assert set(exact) == {(r.j, r.k, r.form) for r in cert.residuals}
        for r in cert.residuals:
            value, scale = exact[r.j, r.k, r.form]
            assert abs(r.value - value) <= r.bound, (r.j, r.k, r.form)
            assert abs(r.scale - scale) <= r.bound, (r.j, r.k, r.form)
            assert abs(r.value) + r.bound < cert.threshold * (r.scale - r.bound)
    assert cert.max_bound_log2 < -300


def test_bound_covers_amplified_rounding():
    # a line 2^-a from another makes cot about 2^a, and its odd powers up to
    # the fifth amplify the rounding of the stored cos and sin; the bound
    # still covers the error, and is within 2^8 of the worst one
    ratios = []
    for a in (30, 60, 90):
        for mults in ([3, 3, 1, 2], [1, 4, 2, 1]):
            with mp.workprec(400):
                phis = [mp.mpf(0), mp.mpf(2) ** -a, mp.mpf(1) / 3, mp.mpf(2)]
            c = general_from_angles(mults, phis, 256)
            cert = certify_ba(c)
            with mp.workprec(1024):
                _, exact = mpf_certificate(c.lines, cert.threshold)
                ratios += [abs(r.value - exact[r.j, r.k, r.form][0]) / r.bound
                           for r in cert.residuals]
    assert 2 ** -8 < max(ratios) <= 1


def test_verdicts_equal_the_oracle_on_perturbed_lines():
    with working(256):
        thr = mp.mpf(2) ** -224
    bases = [build_am1n(m, n, 256) for m in range(1, 7) for n in (1, 4, 7, 10)]
    bases += [build_two_mult(m, mt, n, 256) for m in (1, 4) for mt in (0, 2, 4)
              for n in (2, 6)]
    cases = [perturb_line(b, 1, 1e-2) for b in bases]
    rep = t_q_expand(build_am1n(2, 2, 256), 2)
    cases += [perturb_line(rep, i, d) for i in range(len(rep.lines))
              for d in (1e-2, 1e-67, -1e-80)]
    verdicts = set()
    for c in cases:
        with working(256):
            want, _ = mpf_certificate(c.lines, thr)
        got = certify_ba(c, threshold=thr)
        assert got.verdict == want
        verdicts.add(want)
    assert verdicts == {"pass", "fail"}


def test_threshold_within_a_bound_doubles_the_fraction_bits():
    # at the worst relative residual itself, that condition can neither pass
    # nor fail verified; with F doubled the bound is far smaller than the
    # distance to the true residual, as the 4p-bit oracle confirms
    c = t_q_expand(build_am1n(3, 4, 256), 2)
    first = certify_ba(c)
    thr = first.max_residual
    cert = certify_ba(c, threshold=thr)
    assert cert.fraction_bits == 2 * (256 + GUARD_BITS)
    with mp.workprec(1024):
        want, _ = mpf_certificate(c.lines, thr)
    assert cert.verdict == want
    assert cert.max_bound_log2 < -600


def test_undecidable_threshold_raises_ill_conditioned(tmp_path, capsys):
    # two lines at 0 and 1/2: each condition is one summand of magnitude
    # above 1, so every relative residual is exactly 1, and a threshold of 1
    # stays inside the bound at every precision
    c = general_from_angles([1, 1], [0, mp.mpf(1) / 2], 256)
    with pytest.raises(IllConditioned):
        certify_ba(c, threshold=1)
    path = tmp_path / "two.json"
    c.save(str(path))
    assert main(["certify", "--input", str(path), "--threshold-log2", "0"]) == 3
    assert "rounding bound" in capsys.readouterr().err
    assert main(["certify", "--input", str(path), "--threshold-log2", "1"]) == 1


@pytest.mark.parametrize("near", [1, "pi"])
def test_near_collinear_lines_collide(near):
    # a chart that skips construction's distinct-angle check: the sine of the
    # angle difference, 2^-330, is below its rounding bound at 320 fraction
    # bits; pi - 2^-330 is that close to the line at 0
    with mp.workprec(400):
        second = (mp.pi if near == "pi" else 1) - mp.mpf(2) ** -330
        lines = (Line(mult=1, phi=mp.mpf(0)), Line(mult=1, phi=mp.mpf(1)),
                 Line(mult=1, phi=second))
    c = Configuration(kind="general", precision=256, chart=lines)
    with pytest.raises(CollisionError, match="collinear"):
        certify_ba(c)


def residual_log2s(cert):
    """residual_log2 of each condition as the 53-bit mpf quotient gives it."""
    with mp.workprec(53):
        return [log2_abs(r.relative()) for r in cert.residuals]


def test_certificate_json_ignores_the_working_precision():
    # 3 of the 20 residual_log2s of am1n (2, 3) at q = 2 move with the
    # ambient precision when divided there; the other cases reach an exactly
    # zero residual (am1n (2, 1)), quotients below 2^-1022 (1024 bits) and
    # sums of more than 53 bits (a failing certificate)
    certs = [certify_ba(t_q_expand(build_am1n(2, 3, 256), 2)),
             certify_ba(build_am1n(2, 1, 256)), certify_ba(build_am1n(2, 3, 1024)),
             certify_ba(perturb_line(build_am1n(3, 3, 256), 2, 1e-2))]
    for cert in certs:
        payload = cert.to_json_dict()
        with mp.workprec(512):
            assert cert.to_json_dict() == payload
        got = [r["residual_log2"] for r in payload["per_condition"]]
        assert got == residual_log2s(cert)
    _, zero, tiny, wide = certs
    assert float("-inf") in residual_log2s(zero)
    assert any(r.total and r.relative() < mp.mpf(2) ** -1022 for r in tiny.residuals)
    assert all(abs(r.total).bit_length() > 53 for r in wide.residuals)


def test_max_residual_log2_is_the_largest_residual_log2():
    # on these two, residual_log2s from numerators rounded to 53 bits
    # before the division have a largest other than log2_abs(max_residual)
    for cfg in (perturb_line(build_am1n(6, 4, 256), 1, 1e-2),
                perturb_line(build_two_mult(4, 2, 4, 256), 0, 3e-3)):
        payload = certify_ba(cfg).to_json_dict()
        log2s = [r["residual_log2"] for r in payload["per_condition"]]
        assert payload["max_residual_log2"] == max(log2s)


def test_residual_log2_is_the_quotient_rounded_once():
    # oracle: the exact quotient of the kernel's integers as a Fraction,
    # rounded once to 53 bits by mp.fdiv, which takes both ints exactly
    # (mp.mpf(int) would round the numerator first); a numerator rounded
    # to 53 bits before the division misses it on am1n (2, 3), (2, 10) and
    # (6, 10)
    cfgs = [perturb_line(build_am1n(m, n, 256), 1, 1e-2)
            for m in range(1, 7) for n in (3, 6, 10)]
    cfgs += [perturb_line(build_two_mult(m, mt, 6, 256), 1, 1e-2)
             for m in (1, 4) for mt in (0, 2)]
    # an exactly zero residual, quotients below 2^-1022 and sums of more
    # than 53 bits, as in the test above
    cfgs += [build_am1n(2, 1, 256), build_am1n(2, 3, 1024),
             perturb_line(build_am1n(3, 3, 256), 2, 1e-2)]
    for cfg in cfgs:
        cert = certify_ba(cfg)
        want = [log2_abs(mp.fdiv(q.numerator, q.denominator, prec=53))
                for q in (F(*r.ratio()) for r in cert.residuals)]
        got = [r["residual_log2"] for r in cert.to_json_dict()["per_condition"]]
        assert got == want, cfg.digest()


def test_certificate_reports_its_bound():
    payload = certify_ba(build_am1n(2, 3, 256)).to_json_dict()
    assert payload["fraction_bits"] == 256 + GUARD_BITS
    assert -330 < payload["max_bound_log2"] < -300
    assert payload["max_residual_log2"] < payload["threshold_log2"]


def test_bound_covers_inputs_pushed_to_their_error(monkeypatch):
    # the stored cos and sin of two lines 2^-40 apart, of multiplicities 4
    # and 5, each pushed nearly _INPUT_ERROR units off, in every one of the
    # 16 directions: the odd powers of cot, about 2^40, amplify the input
    # error; the error of every sum stays within its bound, and the worst
    # one within 2^3 of it (a bound without the error of c^2 in the odd
    # powers falls below the error here)
    with mp.workprec(400):
        phis = [mp.mpf(0), mp.mpf(2) ** -40, mp.mpf(1) / 3, mp.mpf(2)]
    c = general_from_angles([4, 5, 1, 2], phis, 256)
    with mp.workprec(1024):
        _, exact = mpf_certificate(c.lines, default_threshold(256))
    plain = certify.to_fixed
    calls = []

    def pushed(v, frac):
        # within _INPUT_ERROR units of the true value: v is within 2^-10
        # units of it, and the push is at most _INPUT_ERROR - 2^-8
        i = len(calls) % (2 * len(c.lines))
        calls.append(i)
        if i >= 4:
            return plain(v, frac)
        with mp.workprec(frac + 64):
            w = mp.ldexp(mp.mp.make_mpf(v), frac)
            margin = certify._INPUT_ERROR - mp.mpf(2) ** -8
            up = signs >> i & 1
            return int(mp.floor(w + margin) if up else mp.ceil(w - margin))

    monkeypatch.setattr(certify, "to_fixed", pushed)
    worst = 0
    for signs in range(16):
        calls.clear()
        cert = certify_ba(c)
        assert cert.fraction_bits == 256 + GUARD_BITS
        with mp.workprec(1024):
            for r in cert.residuals:
                err = abs(r.value - exact[r.j, r.k, r.form][0])
                assert err <= r.bound, (signs, r.j, r.k, r.form)
                worst = max(worst, err / r.bound)
    assert worst > 2 ** -3


# --- the kernel and the decision pass against their term-by-term loops --------


@st.composite
def _kernel_inputs(draw):
    """(mults, phis, orders, frac): 2 to 30 lines at distinct thousandths in
    [-3, 6], so some lie outside [0, pi), multiplicities 1 to 6, and orders
    as certify_ba passes them (the multiplicities), as
    first_condition_residual_lines does (k at one line, 0 elsewhere) or any
    from 0 to 6."""
    n = draw(st.integers(2, 30))
    mults = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    nums = draw(st.lists(st.integers(-3000, 6000), min_size=n, max_size=n, unique=True))
    with mp.workprec(320):
        phis = [mp.mpf(k) / 1000 for k in nums]
    how = draw(st.sampled_from(["mults", "one", "any"]))
    if how == "mults":
        orders = mults
    elif how == "one":
        j = draw(st.integers(0, n - 1))
        k = draw(st.integers(1, mults[j]))
        orders = [k if i == j else 0 for i in range(n)]
    else:
        orders = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return mults, phis, orders, draw(st.sampled_from([80, 128, 256 + GUARD_BITS]))


@settings(max_examples=80, deadline=None)
@given(_kernel_inputs())
def test_sums_equal_the_loop(args):
    assert certify._sums(*args) == loop_sums(*args)


def _in_real_units(r):
    """(j, k, form) and total, error and top of a residual times 2^exp, exactly."""
    unit = F(2) ** r.exp
    return r[:3], r.total * unit, r.error * unit, r.top * unit


@settings(max_examples=60, deadline=None)
@given(_kernel_inputs(), st.data())
def test_sums_equal_the_loop_at_weights_below_one(args, data):
    # float multiplicities in quarters from 1/4 to 6, at least one below 1:
    # the kernel sums ints, and in real units its residual is the loop's on
    # the same values as Fractions
    _, phis, _, frac = args
    quarters = [data.draw(st.integers(1, 24)) for _ in phis]
    quarters[data.draw(st.integers(0, len(phis) - 1))] = data.draw(st.integers(1, 3))
    j = data.draw(st.integers(0, len(phis) - 1))
    k = data.draw(st.integers(1, 4))
    lines = [Line(mult=q / 4, phi=phi) for q, phi in zip(quarters, phis)]
    orders = [k if i == j else 0 for i in range(len(lines))]
    with mp.workprec(frac):
        got = first_condition_residual_lines(lines, j, k)
    want = loop_sums([F(q, 4) for q in quarters], phis, orders, frac)[2 * k - 2]
    assert all(isinstance(x, int) for x in got[4:])
    assert _in_real_units(got) == _in_real_units(want)


def test_first_condition_residual_at_multiplicity_one_half():
    # a loadable chart may carry multiplicity 0.5; the residual is the loop's
    # on the Fraction 1/2, exactly
    c = general_from_angles([0.5, 2, 1], [0, mp.mpf(1) / 2, 2], 256)
    with working(256):
        got = first_condition_residual_lines(c.lines, 1, 1)
        want = loop_sums([F(1, 2), 2, 1], [ln.phi for ln in c.lines], [0, 1, 0], mp.mp.prec)[0]
    assert all(isinstance(x, int) for x in got[4:])
    assert _in_real_units(got) == _in_real_units(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.data(), st.integers(300, 330), st.booleans())
def test_near_collinear_pairs_raise_as_the_loop_does(n, data, gap_bits, wrap):
    # one line moved 2^-gap_bits (or pi less that) off another: below the
    # rounding bound of the sine at 320 fraction bits from about 2^-317
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    with mp.workprec(400):
        phis = [mp.mpf(k) / (n + 1) for k in range(n)]
        phis[b] = phis[a] + (mp.pi if wrap else 0) - mp.mpf(2) ** -gap_bits
    args = ([1 + k % 3 for k in range(n)], phis, [1 + k % 3 for k in range(n)],
            256 + GUARD_BITS)
    try:
        want = loop_sums(*args)
    except CollisionError as err:
        with pytest.raises(CollisionError) as got:
            certify._sums(*args)
        assert str(got.value) == str(err)
    else:
        assert certify._sums(*args) == want


@st.composite
def _residuals_and_threshold(draw):
    """Conditions of small integers, so that many straddle a threshold
    man * 2^exp with exp from -8 to 3: of either family, with any total,
    error and top."""
    frac = draw(st.integers(4, 12))
    sums = []
    for j in range(draw(st.integers(0, 12))):
        shift = draw(st.sampled_from([0, 2]))
        big = 1 << (frac + 3)
        sums.append(certify.ConditionResidual(
            j, 1, ("polar-first", "", "polar-locus")[shift], -frac - shift,
            draw(st.integers(-big, big)), draw(st.integers(0, 64)),
            draw(st.integers(0, big))))
    thr = mp.mp.make_mpf(from_man_exp(draw(st.integers(1, 7)), draw(st.integers(-8, 3))))
    return sums, thr


def _decisions_agree(sums, thr):
    """_decide against loop_decide: the same verdict and bound, and the
    same condition object as the worst; returns the verdict."""
    got, want = certify._decide(sums, thr), loop_decide(sums, thr)
    assert (got[0], got[2]) == (want[0], want[2])
    assert got[1] is want[1]
    return got[0]


@settings(max_examples=400, deadline=None)
@given(_residuals_and_threshold())
def test_decision_pass_equals_the_loops(args):
    _decisions_agree(*args)


def test_decision_pass_equals_the_loops_on_charts():
    # undecided at the worst residual itself (threshold below 1), at
    # threshold 1 on two lines whose every residual is 1, and decided
    # either way at 2^-3, 2^3 and the default
    c = t_q_expand(build_am1n(3, 4, 256), 2)
    two = general_from_angles([1, 1], [0, mp.mpf(1) / 2], 256)
    pert = perturb_line(build_am1n(3, 3, 256), 2, 1e-2)
    frac = 256 + GUARD_BITS
    verdicts = []
    for chart, thr in [(c, certify_ba(c).max_residual), (two, mp.mpf(1)),
                       (two, mp.mpf(2) ** -3), (two, mp.mpf(8)), (pert, mp.mpf(2) ** -3),
                       (c, default_threshold(256)), (pert, default_threshold(256))]:
        mults = [ln.mult for ln in chart.lines]
        sums = certify._sums(mults, [ln.phi for ln in chart.lines], mults, frac)
        verdicts.append(_decisions_agree(sums, thr))
    assert verdicts == ["", "", "fail", "pass", "pass", "pass", "fail"]
