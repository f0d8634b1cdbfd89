import mpmath as mp
import pytest

from balines.certify import (cartesian_condition_residual, certify_ba,
                             first_condition_residual,
                             locus_condition_residual, ode_residual_am1n,
                             ode_residual_two_mult)
from balines.config import (build_am1n, build_two_mult, general_from_angles,
                            perturb_line, random_type_m1n, t_q_expand)
from balines.errors import MissingExactData
from balines.numeric import working
from balines.poly import DensePoly
from dataclasses import replace

from oracles import polar_condition_residual


def test_symmetry_kills_heavy_line_conditions():
    c = build_am1n(2, 2, 256)
    with working(256):
        for k in (1, 2):
            assert first_condition_residual(c, 0, k).relative() < mp.mpf(2) ** -220
            assert locus_condition_residual(c, 0, k).relative() < mp.mpf(2) ** -220


def test_construction_satisfies_first_conditions():
    c = build_am1n(2, 2, 256)
    with working(256):
        assert first_condition_residual(c, 1, 1).relative() < mp.mpf(2) ** -220


def test_perturbed_configuration_fails():
    c = perturb_line(build_am1n(2, 2, 256), 1, 0.01)
    with working(256):
        assert first_condition_residual(c, 1, 1).relative() > mp.mpf("1e-4")


def test_locus_conditions_on_families():
    for m, n in [(2, 3), (4, 5)]:
        c = build_am1n(m, n, 256)
        with working(256):
            for j in range(1, n + 1):
                assert locus_condition_residual(c, j, 1).relative() < mp.mpf(2) ** -220
    tm = build_two_mult(2, 2, 4, 256)
    with working(256):
        for j, ln in enumerate(tm.lines):
            for k in range(1, ln.mult + 1):
                assert locus_condition_residual(tm, j, k).relative() < mp.mpf(2) ** -220


def test_cartesian_polar_agreement():
    # the real cot kernel against the complex-z sums; differences are
    # measured against the largest summand, since the residuals of the exact
    # configuration are rounding noise
    base = build_am1n(3, 4, 256)
    tol = mp.mpf(2) ** -200
    for c in (base, perturb_line(base, 1, 1e-2)):
        with working(256):
            for j, ln in enumerate(c.lines):
                for k in range(1, ln.mult + 1):
                    for family, polar in (("first", first_condition_residual),
                                          ("locus", locus_condition_residual)):
                        value, scale = polar_condition_residual(c.lines, j, k, family)
                        for res in (polar(c, j, k),
                                    cartesian_condition_residual(c, j, k, family)):
                            assert abs(res.scale - scale) <= tol * scale
                            assert abs(abs(res.value) - abs(value)) <= tol * scale
                            assert abs(res.relative() - abs(value) / scale) <= tol


def test_two_orthogonal_lines_cartesian_zero():
    with working(128):
        c = general_from_angles([1, 1], [0, mp.pi / 2], 128)
        assert cartesian_condition_residual(c, 0, 1).relative() < mp.mpf(2) ** -100


def test_tq_expansion_certifies():
    c = t_q_expand(build_am1n(2, 2, 256), 3)
    with working(256):
        for j, ln in enumerate(c.lines):
            for k in range(1, ln.mult + 1):
                assert cartesian_condition_residual(c, j, k, "first").relative() < mp.mpf(2) ** -200


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
        for j in range(3):
            a = first_condition_residual(c, j, 1)
            b = first_condition_residual(rotated, j, 1)
            assert abs(abs(a.value) - abs(b.value)) < mp.mpf(2) ** -150


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
    wrong = replace(c, P=DensePoly.rational([1, 1, 1]))
    assert not ode_residual_am1n(wrong).is_zero


def test_ode_residual_two_mult_zero():
    assert ode_residual_two_mult(build_two_mult(1, 1, 2, 128)).is_zero
    assert ode_residual_two_mult(build_two_mult(3, 2, 4, 128)).is_zero


def test_ode_residual_wrong_branch_nonzero():
    from balines.config import _two_mult_recurrence
    from balines.symfunc import poly_from_elementary

    c = build_two_mult(3, 1, 4, 192)
    bad_e = _two_mult_recurrence(3, 1, 4, -c.e_branch_sign)
    bad = replace(c, e=tuple(bad_e), P=poly_from_elementary(bad_e, 4))
    assert not ode_residual_two_mult(bad).is_zero


def test_exactly_one_sign_branch_solves_ode():
    from balines.config import _two_mult_ode_residual, _two_mult_recurrence
    from balines.symfunc import poly_from_elementary

    for m in range(1, 5):
        for mt in range(0, 5):
            for n in (2, 4, 6, 8):
                zero = [sign for sign in (-1, 1)
                        if _two_mult_ode_residual(m, mt, n, poly_from_elementary(
                            _two_mult_recurrence(m, mt, n, sign), n)).is_zero]
                # m = mt has a zero seed, so both signs give the same P
                assert len(zero) == (2 if m == mt else 1), (m, mt, n)


def test_ode_requires_exact_data():
    c = random_type_m1n(2, 2, seed=1)
    with pytest.raises(MissingExactData):
        ode_residual_am1n(c)
