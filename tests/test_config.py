import json
import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath.libmp import from_man_exp, mpf_pi, round_down, round_nearest, round_up

from balines.config import (INF, Configuration, Line, _two_mult_ode_residual,
                            angle_multiset_distance, build_am1n, build_two_mult,
                            from_alphas, general_from_angles, perturb_line,
                            random_type_m1n, t_q_expand)
from balines.errors import CollisionError
from balines.numeric import (GUARD_BITS, angle_gap, hex_to_mpf, mod_pi, mpf_to_hex, order_keys,
                             to_mp, working)
from balines.poly import DensePoly
from balines.symfunc import e_from_ehat, e_values, ehat_values, poly_from_elementary

from balines.locus import solve_general_locus

from oracles import (_two_mult_recurrence, elementary_from_values, eval_numeric, line_z,
                     mpf_angle_multiset_distance, mpf_reduce_angle_mod_pi,
                     mpf_t_q_expand_angles, mult1_lines, slope_lines)


def test_am1n_2_2_exact_data():
    c = build_am1n(2, 2, 256)
    assert c.e == (F(-4, 3), F(1))
    assert c.ehat == (F(1, 5),)
    with working(256):
        for ln in mult1_lines(c):
            assert abs(abs(line_z(ln)) - 1) < mp.mpf(2) ** -240
            # slopes are +-1/sqrt(5)
            assert abs(mp.cot(ln.phi) ** 2 - mp.mpf(1) / 5) < mp.mpf(2) ** -240


def test_am1n_1_2_is_dihedral():
    c = build_am1n(1, 2, 256)
    assert c.e == (F(-1), F(1))
    with working(256):
        angles = sorted(ln.phi for ln in slope_lines(c))
        assert abs(angles[0] - mp.pi / 3) < mp.mpf(2) ** -240
        assert abs(angles[1] - 2 * mp.pi / 3) < mp.mpf(2) ** -240
        for ln in slope_lines(c):
            assert abs(line_z(ln) ** 3 - 1) < mp.mpf(2) ** -230


def test_am1n_1_1_orthogonal_pair():
    c = build_am1n(1, 1, 128)
    assert c.e == (F(-1),)
    with working(128):
        (line,) = slope_lines(c)
        assert abs(line.phi - mp.pi / 2) < mp.mpf(2) ** -110
        assert abs(line_z(line) + 1) < mp.mpf(2) ** -110


def test_am1n_angle_symmetry():
    # arrangement symmetric about phi = 0: z_i z_{n-i+1} = 1
    for m, n in [(2, 4), (3, 5), (1, 6)]:
        c = build_am1n(m, n, 192)
        with working(192):
            zs = [line_z(ln) for ln in slope_lines(c)]
            zs.sort(key=lambda z: mp.arg(z) % (2 * mp.pi))
            for z, zbar in zip(zs, reversed(zs)):
                assert abs(z * zbar - 1) < mp.mpf(2) ** -160


def test_am1n_f_values_match_angles():
    from paper import f_values

    for m, n in [(2, 4), (3, 6), (1, 5), (6, 10)]:
        c = build_am1n(m, n, 256)
        with working(256):
            us = sorted(mp.sin(ln.phi) ** 2 for ln in slope_lines(c)
                        if ln.phi < mp.pi / 2 - mp.mpf(2) ** -10)
            fs = elementary_from_values(us)
            for want, got in zip(f_values(m, n), fs):
                wantv = mp.mpf(want.numerator) / want.denominator
                assert abs(got - wantv) < mp.mpf(2) ** -(256 - 40)


def test_am1n_r_poly_vanishes_on_slopes():
    for m, n in [(2, 2), (1, 4), (3, 5)]:
        c = build_am1n(m, n, 256)
        with working(256):
            scale = max(abs(mp.mpf(v.numerator) / v.denominator) for v in c.R.coeffs)
            for ln in slope_lines(c):
                assert abs(eval_numeric(c.R, mp.cot(ln.phi))) < mp.mpf(2) ** -(256 - 32) * scale


def test_two_mult_1_1_2_is_square_dihedral():
    c = build_two_mult(1, 1, 2, 192)
    assert c.e == (F(0), F(1))
    with working(192):
        angles = sorted(ln.phi for ln in c.lines)
        expect = [0, mp.pi / 4, mp.pi / 2, 3 * mp.pi / 4]
        for a, b in zip(angles, expect):
            assert abs(a - b) < mp.mpf(2) ** -150


def test_two_mult_seed_values():
    c = build_two_mult(3, 2, 4, 192)
    # e_n = z_0^n exactly, e_{n-1} = +-(m - mt) n / (n + m + mt - 1)
    assert c.e[-1] == F(1)
    assert abs(c.e[-2]) == F((3 - 2) * 4, 4 + 3 + 2 - 1)
    assert c.e_branch_sign in (-1, 1)


def test_two_mult_branch_sign_reported():
    # the branch test must pick the sign that flips the statement's value
    for m, mt, n in [(2, 1, 2), (3, 1, 4), (4, 2, 6)]:
        c = build_two_mult(m, mt, n, 192)
        assert c.e_branch_sign == -1
        assert c.e[-2] == F(-(m - mt) * n, n + m + mt - 1)


def test_two_mult_branch_is_the_only_ode_branch():
    # off m = mt the sign -1 branch satisfies the ODE and the sign 1 branch
    # does not, on mt below, at and above m
    for m in range(1, 7):
        for mt in range(0, m + 6):
            for n in range(2, 21, 2):
                sign = build_two_mult(m, mt, n, 64).e_branch_sign
                assert sign == (1 if m == mt else -1)
                if m != mt:
                    other = poly_from_elementary(_two_mult_recurrence(m, mt, n, 1), n)
                    assert not _two_mult_ode_residual(m, mt, n, other).is_zero


def test_two_mult_closed_form_is_the_recurrence_ode_branch():
    # e from ehat_values(m, n, mt) and e_from_ehat is the three-term
    # recurrence's branch of the recorded sign, and its P solves the ODE;
    # with mt = 0 the transform gives am1n's closed-form e
    for m in range(1, 9):
        for mt in range(0, m + 6):
            for n in range(2, 41, 2):
                c = build_two_mult(m, mt, n, 64)
                assert list(c.e) == _two_mult_recurrence(m, mt, n, c.e_branch_sign), (m, mt, n)
                assert _two_mult_ode_residual(m, mt, n, c.P).is_zero, (m, mt, n)
        for n in range(2, 41, 2):
            assert e_from_ehat(ehat_values(m, n), n) == e_values(m, n), (m, n)


# A builder's arguments that are no record's integer fields, each with the
# field its message names: the builders refuse what Configuration.load
# refuses, with the same rule.
REFUSED_BUILDS = {
    "twomult-m-true": (build_two_mult, (True, 0, 2), "integer m >= 1"),
    "twomult-n-4.0": (build_two_mult, (2, 1, 4.0), "integer n >= 2"),
    "twomult-mt--1": (build_two_mult, (2, -1, 4), "integer mtilde >= 0"),
    "twomult-n-3": (build_two_mult, (2, 1, 3), "needs even n >= 2"),
    "am1n-n-true": (build_am1n, (2, True), "integer n >= 1"),
    "am1n-m-2.0": (build_am1n, (2.0, 3), "integer m >= 1"),
    "am1n-m-0": (build_am1n, (0, 3), "integer m >= 1"),
}


@pytest.mark.parametrize("name", REFUSED_BUILDS)
def test_builders_refuse_what_load_refuses(tmp_path, name):
    build, args, message = REFUSED_BUILDS[name]
    with pytest.raises(ValueError, match=message):
        build(*args)
    fields = dict(zip(("m", "mtilde", "n") if build is build_two_mult else ("m", "n"), args))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**build(*[4] * len(args)).to_json_dict(), **fields}))
    with pytest.raises(ValueError, match=message):
        Configuration.load(str(path))


def test_two_mult_mt0_equals_am1n():
    for m, n in [(1, 2), (3, 4)]:
        a = build_two_mult(m, 0, n, 192)
        b = build_am1n(m, n, 192)
        assert angle_multiset_distance(a, b) < mp.mpf(2) ** -150
        assert a.e == b.e


def test_two_mult_mt1_equals_am1n_plus_one():
    a = build_two_mult(2, 1, 2, 256)
    b = build_am1n(2, 3, 256)
    assert angle_multiset_distance(a, b) < mp.mpf(2) ** -200


def test_two_mult_rejects_odd_n():
    with pytest.raises(ValueError):
        build_two_mult(2, 1, 3, 128)


def test_tq_single_line():
    base = general_from_angles([1], [0], 128)
    c = t_q_expand(base, 2)
    with working(128):
        angles = sorted(ln.phi for ln in c.lines)
        assert abs(angles[0]) < mp.mpf(2) ** -100
        assert abs(angles[1] - mp.pi / 2) < mp.mpf(2) ** -100


def test_tq_dihedral_six():
    c = t_q_expand(build_am1n(1, 2, 192), 2)
    assert len(c.lines) == 6
    with working(192):
        angles = sorted(ln.phi for ln in c.lines)
        for k, a in enumerate(angles):
            assert abs(a - k * mp.pi / 6) < mp.mpf(2) ** -150


def test_tq_records_the_total_q():
    c = t_q_expand(t_q_expand(build_am1n(2, 3, 128), 2), 3)
    assert c.q == 6 and sum(ln.mult == 2 for ln in c.lines) == 6
    assert c.e == t_q_expand(build_am1n(2, 3, 128), 6).e
    loaded = Configuration.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert loaded.q == 6 and loaded.to_json_dict() == c.to_json_dict()


def test_tq_identity_for_q1():
    c = build_am1n(2, 2, 128)
    assert t_q_expand(c, 1) is c


def test_tq_exact_polynomial():
    c = t_q_expand(build_am1n(1, 2, 192), 2)
    assert c.P == DensePoly([1, 0, 1, 0, 1])  # P(w^2) = w^4 + w^2 + 1
    with working(192):
        base = build_am1n(1, 2, 192)
        for ln in slope_lines(base):
            for s in (1, 2):
                z = mp.exp(mp.mpc(0, 2) * (ln.phi + mp.pi * s) / 2)
                assert abs(eval_numeric(c.P, z)) < mp.mpf(2) ** -150


def test_tq_heavy_orbits_tile_dihedral_mirrors():
    # the 0-line and pi/2-line orbits land on even and odd multiples of
    # pi/(2q) respectively, for even and odd q alike
    for q in (2, 3, 4):
        c = t_q_expand(build_two_mult(2, 1, 2, 128), q)
        assert len(c.lines) == 4 * q
        with working(128):
            step = mp.pi / (2 * q)
            for ln in c.lines:
                if ln.mult == 1:
                    continue
                ratio = ln.phi / step
                parity = 0 if ln.mult == 2 else 1
                assert abs(ratio - mp.nint(ratio)) < mp.mpf(2) ** -100
                assert int(mp.nint(ratio)) % 2 == parity
    assert len(t_q_expand(build_am1n(1, 3, 128), 2).lines) == 8


def expansion_tuples(c, q):
    """(mult, libmp value) of each line of c's q-expansion, in order."""
    return [(ln.mult, ln.phi._mpf_) for ln in t_q_expand(c, q).lines]


def oracle_expansion_tuples(c, q):
    return [(mult, phi._mpf_) for mult, phi in mpf_t_q_expand_angles(c, q)]


@pytest.mark.parametrize("precision", [128, 256])
def test_tq_expansion_equals_the_mpf_oracle(precision):
    # bit for bit also where the expansion reduces a stored angle mod pi (a
    # loaded angle below 0, above pi, or in (3, pi)) and where an expanded
    # angle rounds to pi: the last copy of the line at pi rounded down to
    # precision + GUARD_BITS bits does, and moves to 0
    bits = precision + GUARD_BITS
    near_pi = mp.mp.make_mpf(mpf_pi(bits, round_down))
    charts = [t_q_expand(build_am1n(2, 3, precision), 2),
              t_q_expand(build_two_mult(2, 1, 4, precision), 3),
              Configuration(kind="general", precision=precision,
                            chart=(Line(1, mp.mpf(0.5)), Line(2, mp.mpf(1)),
                                   Line(1, near_pi)))]
    for phis in ([-0.5, 1, 2], [1, 2, 4], [0.5, 1, 3.1]):
        d = general_from_angles([1, 1, 2], [0.5, 1, 2], precision).to_json_dict()
        for line, phi in zip(d["lines"], phis):
            line["phi_hex"] = mpf_to_hex(mp.mpf(phi))
        charts.append(Configuration.from_json_dict(d))
    for c in charts:
        for q in (2, 3, 4):
            assert expansion_tuples(c, q) == oracle_expansion_tuples(c, q)
    assert t_q_expand(charts[2], 3).lines[0].phi == 0


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_tq_angles_within_one_ulp(precision):
    # each expanded angle against (phi + pi*s)/q mod pi at twice the stored
    # precision: within one unit in the last place, and the phi = 0 line's
    # copy at exactly 0 (not a rounding residue near 0 or pi)
    bits = precision + GUARD_BITS
    for family, m, mt, n in [("am1n", 2, 0, 3), ("am1n", 4, 0, 5), ("am1n", 6, 0, 6),
                             ("twomult", 2, 1, 4), ("twomult", 3, 0, 6),
                             ("twomult", 4, 3, 2)]:
        base = (build_am1n(m, n, precision) if family == "am1n"
                else build_two_mult(m, mt, n, precision))
        for q in (2, 3, 4, 7, 11):
            assert expansion_tuples(base, q) == oracle_expansion_tuples(base, q)
            got = sorted(ln.phi for ln in t_q_expand(base, q).lines)
            with mp.workprec(2 * bits):
                ref = []
                for ln in base.lines:
                    for s in range(1, q + 1):
                        r = (ln.phi + mp.pi * s) / q
                        r -= mp.floor(r / mp.pi) * mp.pi
                        ref.append(0 if min(r, mp.pi - r) < mp.mpf(2) ** (16 - 2 * bits)
                                   else r)
                ref.sort()
                for a, r in zip(got, ref):
                    if r == 0:
                        assert a == 0, (family, m, mt, n, q)
                    else:
                        ulp = mp.mpf(2) ** (mp.frexp(r)[1] - bits)
                        assert abs(a - r) <= ulp, (family, m, mt, n, q, a, r)


def test_random_r_expansion():
    c = from_alphas(2, [F(1, 2), F(-1, 3)], seed=1)
    assert c.R == DensePoly([F(-1, 6), F(-1, 6), F(1)])
    # R is formed on integers and made monic; it must be the Fraction product
    for m, n, seed in [(1, 1, 1), (2, 5, 3), (4, 20, 1)]:
        c = random_type_m1n(m, n, seed)
        want = DensePoly([1])
        for a in c.alphas:
            want = want * DensePoly([-a, F(1)])
        assert c.R == want and c.R.leading() == 1


def test_random_determinism_and_distinctness():
    a = random_type_m1n(2, 2, seed=7)
    b = random_type_m1n(2, 2, seed=7)
    assert [ln.alpha_exact for ln in mult1_lines(a)] == \
           [ln.alpha_exact for ln in mult1_lines(b)]
    big = random_type_m1n(3, 8, seed=3)
    alphas = [ln.alpha_exact for ln in mult1_lines(big)]
    assert len(set(alphas)) == 8
    assert all(a != 0 for a in alphas)
    assert all(abs(x.numerator) <= 50 and x.denominator <= 50 for x in alphas)


def test_random_collision_rejection():
    with pytest.raises(CollisionError):
        from_alphas(1, [F(1, 2), F(2, 4)])


@pytest.mark.parametrize("build", [
    lambda: from_alphas(0, [F(1)]),
    lambda: from_alphas(F(3, 2), [F(1)]),
    lambda: general_from_angles([True, 1], [0, 1]),
], ids=["from_alphas-zero", "from_alphas-fraction", "general-bool"])
def test_constructors_refuse_what_a_file_cannot_store(build):
    with pytest.raises(ValueError, match="is not a positive finite number"):
        build()


def test_from_alphas_takes_only_an_integer_m():
    # a random record whose m is not an int, 2.0 included, is refused at
    # load, so the builder refuses it too, with the loader's message
    with pytest.raises(ValueError, match="random needs an integer m >= 1, not 2.0"):
        from_alphas(2.0, [F(1), F(2)], 128)


def test_serialization_bit_exact_round_trip(tmp_path):
    for c in [build_am1n(3, 4, 256), build_two_mult(2, 1, 4, 192),
              random_type_m1n(2, 3, 5), t_q_expand(build_am1n(2, 2, 128), 3),
              build_am1n(1, 40, 64)]:
        d = c.to_json_dict()
        path = tmp_path / "c.json"
        c.save(str(path))
        assert path.read_text() == json.dumps(d, indent=2, sort_keys=True)
        c2 = Configuration.from_json_dict(d)
        assert c2.to_json_dict() == d
        assert c2.e == c.e and c2.ehat == c.ehat
        assert c2.P == c.P and c2.R == c.R
        assert all(a.phi == b.phi for a, b in zip(c.lines, c2.lines))


@pytest.mark.parametrize("own,other", [
    (lambda: build_am1n(2, 2, 128), lambda: build_am1n(3, 2, 128)),
    (lambda: build_two_mult(3, 1, 4, 128), lambda: build_two_mult(2, 1, 4, 128)),
    (lambda: random_type_m1n(2, 3, 5, 128), lambda: random_type_m1n(2, 3, 6, 128)),
    (lambda: t_q_expand(build_am1n(2, 2, 128), 2),
     lambda: t_q_expand(build_am1n(3, 2, 128), 2)),
    # one angle moved by 2^-40, far above the 2^-64 threshold at 128 bits
    (lambda: build_am1n(2, 2, 128),
     lambda: perturb_line(build_am1n(2, 2, 128), 1, 2.0 ** -40)),
])
def test_load_rejects_angles_of_another_arrangement(own, other):
    data = own().to_json_dict()
    for line, foreign in zip(data["lines"], other().to_json_dict()["lines"]):
        line["phi_hex"] = foreign["phi_hex"]
    with pytest.raises(ValueError, match="vanishes at only"):
        Configuration.from_json_dict(data)


# (configuration, edit of its JSON) that makes the record contradict its lines
_CONTRADICTIONS = {
    "heavy-mult": (lambda: build_am1n(2, 3, 128), lambda d: d["lines"][0].update(mult=4)),
    "m": (lambda: build_am1n(2, 3, 128), lambda d: d.update(m=4)),
    "n": (lambda: build_am1n(2, 3, 128), lambda d: d["lines"][1].update(mult=2)),
    "e": (lambda: build_am1n(2, 3, 128), lambda d: d["e"].__setitem__(0, "-1")),
    "mtilde": (lambda: build_two_mult(2, 1, 4, 128), lambda d: d.update(mtilde=2)),
    "lost-mtilde-line": (lambda: build_two_mult(2, 1, 4, 128),
                         lambda d: d["lines"].pop(next(i for i, ln in enumerate(d["lines"])
                                                       if ln["alpha"] == "0"))),
}


@pytest.mark.parametrize("name", sorted(_CONTRADICTIONS))
def test_load_rejects_a_record_its_lines_contradict(name):
    build, edit = _CONTRADICTIONS[name]
    data = build().to_json_dict()
    edit(data)
    with pytest.raises(ValueError, match="the record has|not those of"):
        Configuration.from_json_dict(data)


# (family, parameters, q): the exact families and their q-expansions
_GROUPED = ([("am1n", (m, n), q) for m, n in [(3, 5), (2, 1), (1, 4)] for q in (1, 2, 3, 4)]
            + [("twomult", (m, mt, n), q) for m, mt, n in [(2, 0, 4), (2, 1, 4), (1, 1, 2),
                                                          (1, 2, 2), (3, 2, 4)]
               for q in (1, 2, 3, 4)]
            + [("random", (2, 4, 3), 1), ("random", (1, 3, 8), 1)])


@pytest.mark.parametrize("family,params,q", _GROUPED)
def test_groups_are_the_lines_by_multiplicity(family, params, q):
    build = {"am1n": build_am1n, "twomult": build_two_mult, "random": random_type_m1n}
    c = t_q_expand(build[family](*params, precision=128), q)
    (inf, m), *finite = c.groups
    assert inf is INF and [ln.mult for ln in c.lines if ln.phi == 0] == [m]
    assert sum(A.degree for A, _ in finite) == len(c.lines) - 1
    assert len({mult for _, mult in finite}) == len(finite)
    with working(128):
        for A, mult in finite:
            slopes = [mp.cot(ln.phi) for ln in c.lines if ln.mult == mult and ln.phi != 0]
            assert len(slopes) == A.degree, mult
            for a in slopes:
                scale = max(abs(to_mp(v)) * max(1, abs(a)) ** k
                            for k, v in enumerate(A.coeffs))
                assert abs(eval_numeric(A, a)) < mp.mpf(2) ** -96 * scale, (mult, a)


def test_charts_without_exact_data_have_no_groups():
    # a q-expanded random chart has no e, and the numeric Hilbert inputs
    # are random files with every finite slope stripped
    c = random_type_m1n(2, 4, 3, 128)
    assert t_q_expand(c, 2).groups == ()
    data = c.to_json_dict()
    for line in data["lines"]:
        if line["alpha"] != "inf":
            line["alpha"] = None
    assert Configuration.from_json_dict(data).groups == ()
    assert solve_general_locus((2, 1, 1), 128).groups == ()


def test_the_pi_half_line_keeps_its_stored_slope():
    # both are degree-1 groups alpha; only twomult stores the slope 0
    alpha = DensePoly([0, 1])
    am, tm = build_am1n(2, 1, 128), build_two_mult(2, 2, 2, 128)
    assert am.groups[1] == (alpha, 1) and (alpha, 2) in tm.groups
    assert [ln["alpha"] for ln in am.to_json_dict()["lines"]] == ["inf", None]
    assert [ln["alpha"] for ln in tm.to_json_dict()["lines"]
            if ln["mult"] == 2] == ["inf", "0"]


def _set_alpha(index, alpha):
    return lambda d: d["lines"][index].update(alpha=alpha)


# (configuration, edit of its JSON) that stores a slope its line does not have
_FOREIGN_SLOPES = {
    "twomult-pi-half": (lambda: build_two_mult(2, 1, 4, 128),
                        lambda d: next(ln for ln in d["lines"] if ln["alpha"] == "0")
                        .update(alpha="5")),
    "general-finite": (lambda: general_from_angles([2, 1, 1], [0, 1, 2], 128),
                       _set_alpha(1, "3")),
    "general-inf-off-zero": (lambda: general_from_angles([2, 1, 1], [0, 1, 2], 128),
                             _set_alpha(2, "inf")),
    "qexpanded-inf-off-zero": (lambda: t_q_expand(build_am1n(2, 2, 128), 2),
                               _set_alpha(1, "inf")),
}


@pytest.mark.parametrize("name", sorted(_FOREIGN_SLOPES))
def test_load_rejects_a_stored_slope_off_its_line(name):
    build, edit = _FOREIGN_SLOPES[name]
    data = build().to_json_dict()
    edit(data)
    with pytest.raises(ValueError, match="is not cot phi"):
        Configuration.from_json_dict(data)


@pytest.mark.parametrize("k", [70, 120])
def test_a_line_near_the_heavy_one_loads_back(k):
    # slope 2^k puts a line 2^-k from phi = 0; its cot, formed by dividing by
    # a sine of 2^-k, keeps too few bits for the slope polynomial's check
    c = from_alphas(2, [F(2 ** k), F(1), F(-1, 3), F(2, 5)], 256)
    assert Configuration.from_json_dict(c.to_json_dict()) == c


def test_loaded_two_mult_carries_its_slope_polynomial():
    c = build_two_mult(3, 2, 6, 128)
    loaded = Configuration.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert loaded.R == c.R and loaded.R.degree == 6 and loaded.ehat is None


_CONFIGS = st.one_of(
    st.builds(build_am1n, st.integers(1, 4), st.integers(1, 6),
              st.sampled_from([64, 128, 256])),
    st.builds(build_two_mult, st.integers(1, 3), st.integers(0, 3),
              st.sampled_from([2, 4, 6]), st.sampled_from([64, 192])),
    st.builds(random_type_m1n, st.integers(1, 4), st.integers(1, 6),
              st.integers(0, 10 ** 6), st.sampled_from([64, 256])),
    st.lists(st.tuples(st.sampled_from([1, 2, 3, 1.5]), st.integers(0, 999)),
             min_size=2, max_size=6, unique_by=lambda t: t[1]).map(
        lambda lines: general_from_angles([mu for mu, _ in lines],
                                          [k / 318 for _, k in lines], 128)),
)


@settings(max_examples=40, deadline=None)
@given(_CONFIGS)
def test_json_round_trip_is_bit_exact(c):
    text = json.dumps(c.to_json_dict(), sort_keys=True)
    loaded = Configuration.from_json_dict(json.loads(text))
    assert json.dumps(loaded.to_json_dict(), sort_keys=True) == text
    assert loaded == c and hash(loaded) == hash(c)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["", "-"]), st.integers(0, 2 ** 400), st.integers(-2000, 2000))
def test_hex_round_trip_is_exact_at_any_sign(sign, half, exp):
    """An odd mantissa of any length, negative included, loads back to the
    same value at the ambient 53 bits."""
    man = 2 * half + 1
    text = f"{sign}0x{man:x}p{exp}"
    assert mp.mp.prec == 53
    value = hex_to_mpf(text)
    assert value._mpf_ == (int(sign == "-"), man, exp, man.bit_length())
    assert mpf_to_hex(value) == text


def test_perturb_line():
    c = build_am1n(2, 2, 128)
    p = perturb_line(c, 1, 0.01)
    assert p.kind == "general"
    assert p.e is None
    with working(128):
        assert abs(p.lines[1].phi - c.lines[1].phi) > mp.mpf("0.009")


def test_angle_distance_detects_difference():
    a = build_am1n(2, 2, 128)
    b = random_type_m1n(2, 2, seed=2, precision=128)
    assert angle_multiset_distance(a, b) > mp.mpf("1e-3")


def test_random_single_line():
    c = random_type_m1n(1, 1, seed=123)
    (ln,) = slope_lines(c)
    assert isinstance(ln.alpha_exact, F) and ln.alpha_exact != 0


# --- angles ordered and separated as integers ---------------------------------


@st.composite
def _mpf_lists(draw):
    """mpfs of mantissas up to 2^330 and exponents -1100 to 40: zeros,
    negatives, values far below 2^-1000 and repeats of earlier ones."""
    xs = [mp.mp.make_mpf(from_man_exp(draw(st.integers(-2 ** 330, 2 ** 330)),
                                      draw(st.integers(-1100, 40))))
          for _ in range(draw(st.integers(0, 20)))]
    if xs:
        xs += [xs[i] for i in draw(st.lists(st.integers(0, len(xs) - 1), max_size=5))]
    if draw(st.booleans()):
        xs.append(mp.mpf(0))
    return draw(st.permutations(xs))


@settings(max_examples=300, deadline=None)
@given(_mpf_lists())
def test_order_keys_order_as_the_mpfs(xs):
    keys = order_keys(xs)
    assert sorted(range(len(xs)), key=keys.__getitem__) == \
        sorted(range(len(xs)), key=xs.__getitem__)
    assert all((x == y) == (a == b) for x, a in zip(xs, keys) for y, b in zip(xs, keys))


def test_order_keys_do_not_grow_with_the_exponents():
    # 2^-1000000000 next to 1/3 and -7: keys about as wide as 1/3's
    # mantissa plus the 30 bits of the exponents' spread
    with mp.workprec(300):
        xs = [mp.mpf(2) ** -1000000000, mp.mpf(1) / 3, mp.mpf(-7), mp.mpf(0)]
    keys = order_keys(xs)
    assert max(k.bit_length() for k in keys) < 300 + 32
    assert sorted(range(4), key=keys.__getitem__) == [2, 3, 0, 1]


def test_angle_gap_is_exact_on_whole_turns():
    # 1/3 and 2/3 (at p + GUARD_BITS bits) moved by whole turns of the
    # working pi (p + GUARD_BITS bits, rounded to nearest) are their exact
    # difference apart, and 0 and that pi are the same line
    p = 256
    with mp.workprec(p + GUARD_BITS):
        third, two_thirds = mp.mpf(1) / 3, mp.mpf(2) / 3
    with mp.workprec(2000):
        pi = mp.mp.make_mpf(mpf_pi(p + GUARD_BITS, round_nearest))
        want = angle_gap([third, two_thirds], p)
        for k1, k2 in [(0, -1), (3, -7), (-2, 5)]:
            assert angle_gap([third + k1 * pi, two_thirds + k2 * pi], p) == want
        gap, at, e = want
        assert mp.ldexp(gap, e) == two_thirds - third and mp.ldexp(at, e) == third
        assert angle_gap([mp.mpf(0), pi], p)[0] == 0


@pytest.mark.parametrize("turns", [0, 1, -2])
def test_separation_is_exact_at_the_tolerance_mod_pi(turns):
    # a gap of exactly 2^-(p/2) is allowed, 2^-300 less is a collision,
    # wherever the pair sits mod pi
    p = 256
    with mp.workprec(2000):
        pi = mp.mp.make_mpf(mpf_pi(p + GUARD_BITS, round_nearest))
        a = mp.mpf(1) + turns * pi
        lines = [Line(1, mp.mpf(0)), Line(1, a), Line(1, a + mp.mpf(2) ** -(p // 2))]
    record = Configuration(kind="general", precision=p, chart=tuple(lines)).to_json_dict()
    Configuration.from_json_dict(record)
    with mp.workprec(2000):
        lines[2] = Line(1, lines[2].phi - mp.mpf(2) ** -300)
    record = Configuration(kind="general", precision=p, chart=tuple(lines)).to_json_dict()
    with pytest.raises(CollisionError, match="coincide near phi = 1.0"):
        Configuration.from_json_dict(record)


# --- one exact reduction of angles mod pi -------------------------------------


def _reduction_angles(bits, seed):
    """Angles in [-pi, 2pi) of at most bits bits: 0, +-2^-700, 3, the
    working pi rounded down and up, its negatives and doubles, and seeded
    floats and bits-bit mpfs."""
    rng = random.Random(seed)
    with mp.workprec(bits):
        special = [mp.mpf(0), mp.mpf(-0.0), mp.mpf(2) ** -700, -mp.mpf(2) ** -700, mp.mpf(3)]
        for rnd in (round_down, round_up):
            pi = mp.mp.make_mpf(mpf_pi(bits, rnd))
            special += [pi, -pi, 2 * pi - mp.mpf(2) ** (3 - bits)]
        lo, width = -mp.pi, 3 * mp.pi
        floats = [rng.uniform(-math.pi, 2 * math.pi) for _ in range(150)]
        wide = [lo + width * mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in range(150)]
        return special + [mp.mpf(x) for x in floats] + [+x for x in wide]


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_mod_pi_equals_the_mpf_reduction_below_two_turns(precision):
    # where |floor(phi/pi)| <= 1 the mpf reduction rounds phi - k pi once,
    # as mod_pi rounds the exact residue once: bit for bit the same
    bits = precision + GUARD_BITS
    for phi in _reduction_angles(bits, precision):
        with mp.workprec(bits):
            want = mpf_reduce_angle_mod_pi(phi)
        assert mod_pi(phi, bits)._mpf_ == want._mpf_, mpf_to_hex(phi)


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_mod_pi_within_one_ulp_of_the_reduction_at_twice_the_precision(precision):
    # angles up to 2^(precision/2 - 1) against phi - floor(phi/pi) pi at
    # twice the working precision, pi the working pi: the residue is
    # exact, so one rounding leaves it within one ulp (mod pi, as one that
    # rounds to pi is 0)
    bits = precision + GUARD_BITS
    rng = random.Random(precision)
    pi = mp.mp.make_mpf(mpf_pi(bits, round_nearest))
    for _ in range(300):
        with mp.workprec(bits):
            phi = mp.ldexp(mp.mpf(rng.getrandbits(bits)) / 2 ** bits,
                           rng.randint(2, precision // 2 - 1)) * rng.choice((-1, 1))
        got = mod_pi(phi, bits)
        assert 0 <= got < pi
        with mp.workprec(2 * bits + precision):
            ref = phi - mp.floor(phi / pi) * pi
            ulp = mp.ldexp(1, max(mp.frexp(ref)[1], 2) - bits)
            assert min(abs(got - ref), abs(got + pi - ref)) <= ulp, mpf_to_hex(phi)


def test_mod_pi_refuses_a_huge_angle_at_once():
    # 2^(precision/2) is refused as angle_gap refuses it; 2^(10^12) is
    # refused before any int of 10^12 bits is built
    p = 256
    mod_pi(mp.mp.make_mpf(from_man_exp(2 ** (p // 2) - 1, 0)), p + GUARD_BITS)
    for exp in (p // 2, 10 ** 12):
        phi = mp.mp.make_mpf(from_man_exp(1, exp))
        with pytest.raises(ValueError, match=f"an angle of 2\\^{p // 2} or more"):
            mod_pi(phi, p + GUARD_BITS)
        with pytest.raises(ValueError, match=f"an angle of 2\\^{p // 2} or more"):
            general_from_angles([1], [phi], p)


def _stored_moved(c, turns):
    """c as a general chart with each line's angle moved by its number of
    turns of pi, stored as it is, outside [0, pi)."""
    with mp.workprec(c.precision + GUARD_BITS):
        lines = tuple(Line(ln.mult, ln.phi + k * mp.pi) for ln, k in zip(c.lines, turns))
    return Configuration(kind="general", precision=c.precision, chart=lines)


def test_angle_multiset_distance_equals_the_mpf_oracle():
    # the test pairs, the bench's five am1n-shaped loci and a chart stored
    # outside [0, pi): the same mpf as the reduction in mpf arithmetic
    base = build_am1n(2, 3, 256)
    pairs = [(build_two_mult(m, 0, n, 192), build_am1n(m, n, 192)) for m, n in [(1, 2), (3, 4)]]
    pairs += [(build_two_mult(2, 1, 2, 256), build_am1n(2, 3, 256)),
              (build_am1n(2, 2, 128), random_type_m1n(2, 2, seed=2, precision=128)),
              (_stored_moved(base, [0, 1, 0, -1]), base),
              (build_am1n(2, 2, 128), build_am1n(3, 2, 128)),
              (build_am1n(2, 2, 128), build_am1n(2, 3, 128))]
    for mults in [(1, 1, 1), (2, 1, 1), (3, 1, 1, 1, 1), (1,) * 13, (2,) + (1,) * 6,
                  (3,) + (1,) * 10, (4,) + (1,) * 16, (3,) + (1,) * 6]:
        pairs.append((solve_general_locus(mults, 256), build_am1n(mults[0], len(mults) - 1, 256)))
    values = [angle_multiset_distance(a, b) for a, b in pairs]
    assert values == [mpf_angle_multiset_distance(a, b) for a, b in pairs]
    assert values[5:7] == [mp.inf, mp.inf]
    assert all(v in (0, mp.mpf(2) ** -318, mp.mpf(2) ** -319) for v in values[-5:])


def test_angle_multiset_distance_is_exact_mod_pi():
    # one line of the (1, 1^4) locus is one unit of 2^-319 off build_am1n,
    # and no rotation hides it (the mpf oracle reads 0 there, its rotated
    # angles rounded); a chart stored outside [0, pi) is compared mod pi
    # whichever side it is on (the mpf oracle, which leaves the second
    # chart unreduced, reads pi/2 there)
    locus, ref = solve_general_locus((1,) * 5, 256), build_am1n(1, 4, 256)
    assert angle_multiset_distance(locus, ref) == mp.mpf(2) ** -319
    assert mpf_angle_multiset_distance(locus, ref) == 0
    base = build_am1n(2, 3, 256)
    moved = _stored_moved(base, [0, 1, 0, -1])
    assert angle_multiset_distance(base, moved) == angle_multiset_distance(moved, base) \
        == mp.mpf(2) ** -320
    assert mpf_angle_multiset_distance(base, moved) > 1
