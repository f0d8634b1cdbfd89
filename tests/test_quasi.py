from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines import quasi
from balines.cli import main
from balines.config import (Configuration, Line, build_am1n, build_two_mult,
                            from_alphas, random_type_m1n, t_q_expand)
from balines.errors import (CollisionError, IllConditioned, MissingExactData,
                             TailMismatch)
from balines.locus import solve_general_locus
from balines.quasi import (am1n_hilbert_numerator, assemble_system,
                           hilbert_coefficients, hilbert_rational_form,
                           is_gorenstein, qi_dimension_numeric, r_parameter,
                           rank_exact, rank_numeric)
from balines.numeric import GUARD_BITS

from oracles import (brute_force_qi_dimension, config_to_oracle_lines,
                     echelon_rank_exact, numeric_chart, qi_dimension_exact,
                     r_by_tolerance, rank_mod_prime, remainder_map_matrix,
                     series_times_denominator, stepwise_numeric_series)
from paper import (OutOfRange, expand_numerator, is_quasi_invariant,
                   is_symmetric_slope_chart, product_invariant,
                   radial_invariant, segment_oracles, segment_prediction)


def test_orthogonal_pair_degree_two():
    c = from_alphas(1, [F(0)])
    assert qi_dimension_exact(c, 2) == 2  # x^2 and y^2
    assert is_quasi_invariant(c, [F(1), F(0), F(0)])  # x^2
    assert is_quasi_invariant(c, [F(0), F(0), F(1)])  # y^2
    assert not is_quasi_invariant(c, [F(0), F(1), F(0)])  # xy


def test_exceptional_configuration_degree_six():
    c = build_am1n(2, 2, 256)
    assert qi_dimension_exact(c, 6) == 4


def test_generic_configuration_degree_six():
    c = random_type_m1n(2, 2, seed=1)
    assert qi_dimension_exact(c, 6) == 3


def test_brute_force_oracle_confirms_dimensions():
    # independent full-system solver at 512 bits, before trusting the ranks
    for m, n in [(1, 1), (2, 2), (1, 2)]:
        c = build_am1n(m, n, 512)
        lines = config_to_oracle_lines(c, 512)
        for d in range(0, 13):
            assert brute_force_qi_dimension(lines, d, 512) == \
                qi_dimension_exact(c, d), (m, n, d)


def test_exact_equals_numeric():
    for cfg in [build_am1n(2, 3, 256), build_am1n(4, 6, 256),
                random_type_m1n(3, 4, seed=9)]:
        for d in range(0, 15):
            assert qi_dimension_exact(cfg, d) == qi_dimension_numeric(cfg, d)


@pytest.mark.parametrize("precision", [64, 128, 256, 512])
def test_fixed_point_series_equals_exact_series(precision):
    # am1n charts are rank-deficient at some degrees (their Gorenstein
    # kernels), so there the numeric route eliminates below the bound
    charts = [random_type_m1n(m, n, seed, precision)
              for m, n, seed in [(1, 4, 2), (2, 7, 5), (3, 10, 1), (1, 16, 3)]]
    charts += [build_am1n(m, n, precision) for m in range(1, 5) for n in range(1, 9)]
    for c in charts:
        m, n = quasi.m1n_chart(c)[:2]
        D = 2 * m + 2 * n + 4
        assert hilbert_coefficients(numeric_chart(c), D) == \
            hilbert_coefficients(c, D), (c.kind, m, n, c.seed)


@pytest.mark.parametrize("m, n, seed", [(4, 20, 1), (5, 30, 2)])
def test_fixed_point_series_at_scale(m, n, seed):
    # large enough that unscaled monomial columns fail the margin rule
    c = random_type_m1n(m, n, seed, 256)
    D = 2 * m + 2 * n + 4
    assert hilbert_coefficients(numeric_chart(c), D) == hilbert_coefficients(c, D)


def test_fixed_point_series_with_a_line_near_the_heavy_one():
    # slope 2^k puts a line 2^-k from the heavy line: its row keeps an entry
    # near 1 only when scaled by sin^d, one more factor of sin pushes its
    # share of the rank under the cutoff from k = 100 on
    for k in (20, 60, 100, 120):
        c = from_alphas(2, [F(2 ** k), F(1), F(-1, 3), F(2, 5)], 256)
        assert hilbert_coefficients(numeric_chart(c), 16) == \
            hilbert_coefficients(c, 16), k


def _record_numeric_degrees(monkeypatch) -> list:
    """Degrees at which hilbert_coefficients calls qi_dimension_numeric."""
    degrees, dim = [], quasi.qi_dimension_numeric
    monkeypatch.setattr(quasi, "qi_dimension_numeric",
                        lambda c, d, table=None: degrees.append(d) or dim(c, d, table))
    return degrees


def test_numeric_series_eliminates_only_below_the_bound(monkeypatch):
    # the highest degree t of each parity whose bound |S_t| - [t even] is
    # not capped by n (23 and 24 here) reaches that bound, and the embedding
    # by x^2 + y^2 reads every lower degree of its parity down from it;
    # above t the rank at d - 2 already meets the bound n
    m, n, D = 4, 20, 52
    c = numeric_chart(random_type_m1n(m, n, 1, 256))
    degrees = _record_numeric_degrees(monkeypatch)
    widths, rank = [], quasi.rank_numeric
    monkeypatch.setattr(quasi, "rank_numeric",
                        lambda rows, precision: widths.append(len(rows[0])) or
                        rank(rows, precision))
    tables, build = [], quasi.cos_sin_table
    monkeypatch.setattr(quasi, "cos_sin_table",
                        lambda c: tables.append(build(c)) or tables[-1])
    bs = hilbert_coefficients(c, D)
    assert degrees == [23, 24] and widths == [20, 21]
    # one cos/sin table, whose powers reach the last eliminated degree only
    (table,) = tables
    assert {len(powers) for pair in table for powers in pair} == {25}
    assert bs == hilbert_coefficients(random_type_m1n(m, n, 1, 256), D)
    # am1n (3, 6) is short of the bound at t = 7 and 8 (its Gorenstein
    # kernels), too short to read any lower degree down: every degree the
    # upward schedule eliminates is eliminated, t first
    degrees.clear()
    hilbert_coefficients(numeric_chart(build_am1n(3, 6, 256)), 22)
    assert degrees == [7, 8, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14, 16, 18]


def test_numeric_series_matches_the_stepwise_schedule(monkeypatch):
    # the downward bound only removes eliminations: the same coefficients as
    # the upward schedule, at a subset of its degrees
    charts = [random_type_m1n(m, n, seed, 256)
              for m in range(1, 4) for n in range(2, 6) for seed in (1, 2, 3)]
    charts += [random_type_m1n(3, 14, 1, 256), random_type_m1n(4, 20, 1, 256)]
    # rank-deficient below the bound (Gorenstein kernels), so the
    # per-degree eliminations run there
    charts += [build_am1n(m, n, 256) for m in range(1, 5) for n in range(1, 9)]
    charts += [build_two_mult(m, 1, n, 256) for m in range(1, 5) for n in (2, 4, 6)]
    charts += [from_alphas(2, [F(2 ** k), F(1), F(-1, 3), F(2, 5)], 256)
               for k in (20, 60, 100, 120)]
    charts = [numeric_chart(c) for c in charts]
    charts.append(solve_general_locus((2, 1, 1), 256))
    degrees = _record_numeric_degrees(monkeypatch)
    for k, c in enumerate(charts):
        m, n = quasi.m1n_chart(c)[:2]
        D = 2 * m + 2 * n + 4
        want, stepwise = stepwise_numeric_series(c, D)
        degrees.clear()
        assert hilbert_coefficients(c, D) == want, k
        assert set(degrees) <= set(stepwise) and len(set(degrees)) == len(degrees), k


def test_nearly_equal_slopes_are_refused_on_the_numeric_route():
    # slopes 1 and 1 + 2^-125 lie 2^-126 apart in angle; their rows differ
    # by about that much, under the cutoff 2^-128 after elimination, and the
    # numeric rank came out one short at degree 18 without a refusal
    c = from_alphas(2, [F(1), 1 + F(1, 2 ** 125), F(-1, 3), F(2, 5), F(7)], 256)
    assert hilbert_coefficients(c, 18)[18] == 12
    with pytest.raises(IllConditioned, match="^rank margin: two slope lines"):
        hilbert_coefficients(numeric_chart(c), 18)
    with pytest.raises(IllConditioned):
        qi_dimension_numeric(c, 18)


@pytest.mark.parametrize("turns", [0, -1, 2])
def test_slope_gap_is_measured_mod_pi(turns):
    # the close pair of the test above, one of them stored turns * pi away:
    # the same gap, 2^-126 and a real log2, whichever way it is stored
    c = numeric_chart(from_alphas(2, [F(1), 1 + F(1, 2 ** 125), F(-1, 3), F(2, 5), F(7)], 256))
    lines = list(c.lines)
    with mpmath.workprec(2000):
        near = [i for i, ln in enumerate(lines) if abs(ln.phi - mpmath.pi / 4) < 2 ** -100]
        assert len(near) == 2
        lines[near[1]] = Line(1, lines[near[1]].phi + turns * mpmath.mp.make_mpf(
            mpmath.libmp.mpf_pi(256 + quasi.GUARD_BITS, mpmath.libmp.round_nearest)))
    moved = Configuration(kind="general", precision=256, chart=tuple(lines))
    with pytest.raises(IllConditioned, match=r"two slope lines are 2\^-126\.0 apart"):
        quasi.cos_sin_table(moved)


def test_slope_gap_is_printed_to_five_digits():
    # slopes 1 and 1 + 3 * 2^-125 lie about 3 * 2^-126 apart in angle
    c = numeric_chart(from_alphas(2, [F(1), 1 + F(3, 2 ** 125), F(-1, 3), F(2, 5), F(7)], 256))
    with pytest.raises(IllConditioned, match=r"two slope lines are 2\^-124\.42 apart, "):
        quasi.cos_sin_table(c)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_twomult_with_a_light_line_at_pi_half(m):
    # mtilde = 1 makes the pi/2 line the slope root alpha = 0 of alpha R
    for n in (2, 4, 6):
        c = build_two_mult(m, 1, n, 256)
        D = 2 * m + 2 * (n + 1) + 4
        assert hilbert_coefficients(c, D) == \
            hilbert_coefficients(numeric_chart(c), D), (m, n)
        assert is_quasi_invariant(c, product_invariant(c))


@pytest.mark.parametrize("base", [lambda: build_am1n(1, 3, 256),
                                  lambda: build_two_mult(1, 1, 2, 256)])
def test_q_expansions_of_multiplicity_one_take_the_exact_route(base):
    # at q = 2 every line of these has multiplicity 1: one slope group
    c = t_q_expand(base(), 2)
    assert len(c.groups) == 2
    m, n = quasi.m1n_chart(c)[:2]
    assert (m, n) == (1, len(c.lines) - 1)
    D = 2 * m + 2 * n + 4
    assert hilbert_coefficients(c, D) == hilbert_coefficients(numeric_chart(c), D)


_FRAC = 256 + GUARD_BITS  # fraction bits of the fixed-point rows at 256 bits


def test_rank_numeric_margin_rule():
    # the pivot after 2^-100 sits 2^40 below it, under the cutoff 2^-128
    # but within the 2^64 margin: refuse rather than guess
    with pytest.raises(IllConditioned, match="^rank margin"):
        rank_numeric([[1 << (_FRAC - 100), 0], [0, 1 << (_FRAC - 140)]], 256)
    assert rank_numeric([[1 << _FRAC, 0], [0, 1 << (_FRAC - 140)]], 256) == 1
    assert rank_numeric([[0, 0], [0, 0]], 256) == 0
    assert rank_numeric([], 256) == 0


@st.composite
def _planted_integer_matrices(draw):
    """Small-integer rows from a random basis plus integer combinations."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=1, max_size=5))
    weights = st.lists(entry, min_size=len(basis), max_size=len(basis))
    planted = [[sum(w * b[j] for w, b in zip(ws, basis)) for j in range(ncols)]
               for ws in draw(st.lists(weights, max_size=3))]
    return draw(st.permutations(basis + planted))


@settings(max_examples=200, deadline=None)
@given(_planted_integer_matrices())
def test_rank_numeric_matches_exact_rank(rows):
    fixed = [[x << _FRAC for x in r] for r in rows]
    assert rank_numeric(fixed, 256) == rank_exact(rows)


def test_numeric_handles_locus_output():
    lc = solve_general_locus((2, 1, 1), 256)
    ref = build_am1n(2, 2, 256)
    for d in range(0, 13):
        assert qi_dimension_numeric(lc, d) == qi_dimension_exact(ref, d)


def test_hilbert_coefficients_examples():
    assert hilbert_coefficients(build_am1n(1, 1, 128), 8) == \
        [1, 0, 2, 2, 3, 4, 5, 6, 7]
    assert hilbert_coefficients(build_am1n(2, 2, 128), 10) == \
        [1, 0, 1, 1, 2, 2, 4, 4, 5, 6, 7]


def test_hilbert_random_differs_at_critical_degree():
    bs = hilbert_coefficients(random_type_m1n(2, 2, seed=1), 10)
    assert bs[6] == 3
    assert bs[:6] == [1, 0, 1, 0, 1, 2]


def test_low_degree_structure():
    # degrees <= n alternate 1, 0, 1, 0, ...
    for m, n in [(2, 4), (1, 5), (3, 3)]:
        bs = hilbert_coefficients(build_am1n(m, n, 128), 2 * m + 2 * n + 2)
        for k in range(n + 1):
            assert bs[k] == (1 if k % 2 == 0 else 0)
        assert bs[0] == 1 and bs[1] == 0


def test_rational_form_and_numerators():
    bs = hilbert_coefficients(build_am1n(2, 2, 128), 10)
    h = hilbert_rational_form(bs, 2, 2)
    assert list(h.numerator) == am1n_hilbert_numerator(2, 2)
    h11 = hilbert_rational_form(hilbert_coefficients(build_am1n(1, 1, 128), 8), 1, 1)
    assert list(h11.numerator) == [1, 0, 0, 2, 0, 0, 1]  # 1 + 2t^3 + t^6
    # multiplying back by (1 - t^2)^2 recovers the numerator: independent check
    assert series_times_denominator(bs, 10)[:11] == \
        [am1n_hilbert_numerator(2, 2)[k] if k <= 10 else 0 for k in range(11)]


def test_rational_form_tail_mismatch():
    bs = hilbert_coefficients(build_am1n(1, 1, 128), 8)
    bad = list(bs)
    bad[7] += 1
    with pytest.raises(TailMismatch):
        hilbert_rational_form(bad, 1, 1)


def test_expand_numerator_inverts_rational_form():
    for m, n in [(1, 1), (2, 2), (3, 4)]:
        numer = am1n_hilbert_numerator(m, n)
        bs = expand_numerator(numer, 2 * m + 2 * n + 6)
        h = hilbert_rational_form(bs, m, n)
        assert list(h.numerator) == numer


def test_gorenstein_verdicts():
    h11 = hilbert_rational_form(hilbert_coefficients(build_am1n(1, 1, 128), 8), 1, 1)
    assert is_gorenstein(h11) == (True, -2)
    for m, n in [(2, 2), (4, 6), (3, 5)]:
        numer = am1n_hilbert_numerator(m, n)
        h = hilbert_rational_form(expand_numerator(numer, 2 * m + 2 * n + 4), m, n)
        assert is_gorenstein(h) == (True, 2 - 2 * m - 2 * n)
    hr = hilbert_rational_form(
        hilbert_coefficients(random_type_m1n(2, 2, seed=1), 10), 2, 2)
    assert is_gorenstein(hr) == (False, None)


def test_monotone_stabilization():
    for cfg, m, n in [(build_am1n(2, 3, 128), 2, 3),
                      (random_type_m1n(1, 4, seed=3), 1, 4)]:
        bs = hilbert_coefficients(cfg, 2 * m + 2 * n + 4)
        for i in range(2 * m + 2 * n - 1, len(bs) - 2):
            assert bs[i + 2] - bs[i] == 2


def test_universal_invariants_members():
    for cfg in [build_am1n(2, 2, 128), build_am1n(1, 4, 128),
                random_type_m1n(2, 3, seed=4), random_type_m1n(3, 2, seed=8)]:
        assert is_quasi_invariant(cfg, radial_invariant())
        assert is_quasi_invariant(cfg, product_invariant(cfg))
        assert not is_quasi_invariant(cfg, [F(1), F(0), F(2)])  # x^2 + 2y^2


def test_non_integer_heavy_multiplicity_is_refused():
    # truncating 2.5 to 2 would answer with the series of m = 2; from_alphas
    # refuses the value as Configuration.load refuses it in a random record
    c = solve_general_locus((2.5, 1, 1), 128)
    for compute in (lambda: hilbert_coefficients(c, 12), lambda: r_parameter(c)):
        with pytest.raises(ValueError, match="2.5 is not a positive integer"):
            compute()
    with pytest.raises(ValueError, match="random needs an integer m >= 1, not 2.5"):
        from_alphas(2.5, [F(1), F(2)], 128)


def test_r_parameter():
    assert r_parameter(build_am1n(2, 2, 128)) == 1
    assert r_parameter(from_alphas(2, [F(1, 2), F(-1, 3)])) == 2
    assert r_parameter(build_am1n(1, 4, 128)) == 2
    assert r_parameter(from_alphas(1, [F(1, 2), F(-1, 2), F(3)])) == 2
    lc = solve_general_locus((2, 1, 1), 192)
    assert r_parameter(lc) == 1


def test_r_parameter_is_zero_without_a_slope_line():
    # one heavy line and nothing else: the numeric count (a general chart)
    # and the stored-slope count (a random record) both find no squared slope
    from balines.config import general_from_angles

    assert r_parameter(general_from_angles([2], [0], 128)) == 0
    assert r_parameter(from_alphas(2, [], 128)) == 0


def test_r_parameter_reads_no_numeric_slope_on_a_chart_with_groups(monkeypatch):
    # r comes off R exactly by the gcd rule; the tolerance count on the
    # lines found at 512 bits agrees
    charts = [build_two_mult(m, 1, n, 512) for m in range(1, 5) for n in (2, 4, 6)]
    charts += [t_q_expand(build_am1n(1, n, 512), 2) for n in range(1, 7)]
    charts += [t_q_expand(build_two_mult(1, 1, 2, 512), 2)]
    charts += [build_am1n(m, n, 512) for m, n in [(2, 5), (3, 6)]]
    charts += [Configuration.from_json_dict(random_type_m1n(2, 6, seed, 512).to_json_dict())
               for seed in (1, 2)]
    charts += [Configuration.from_json_dict(from_alphas(
        1, [F(1, 2), F(-1, 2), F(3), F(0), F(-3), F(5, 7)], 512).to_json_dict())]
    want = [r_by_tolerance(c) for c in charts]

    def refuse(*args):
        raise AssertionError("r needs no numeric slope")

    monkeypatch.setattr(quasi, "mpf_cos_sin", refuse)
    assert all(c.groups and c.alphas is None for c in charts)
    assert [r_parameter(c) for c in charts] == want


def _numeric_copy(c):
    """c as a general chart of its lines alone, with no slope but the
    infinite one, so that r is counted on numeric sines."""
    lines = [{**ln, "alpha": "inf" if ln["alpha"] == "inf" else None}
             for ln in c.to_json_dict()["lines"]]
    return Configuration.from_json_dict(
        {"kind": "general", "precision_bits": c.precision, "lines": lines})


@pytest.mark.parametrize("precision", [128, 256, 512])
def test_r_parameter_on_numeric_sines_is_the_tolerance_count(precision):
    # pairs of slopes +-a, a slope 0 and lines near the heavy one: the count
    # of squared sines agrees with the squared cotangents to 2^-(p/2)
    charts = [build_two_mult(m, 1, n, precision) for m in range(1, 4) for n in (2, 4, 6)]
    charts += [build_am1n(m, n, precision) for m, n in [(1, 4), (2, 5), (3, 6)]]
    charts += [t_q_expand(build_am1n(1, 3, precision), 2)]
    charts += [from_alphas(1, [F(1, 2), F(-1, 2), F(3), F(0), F(-3), F(5, 7)], precision),
               from_alphas(2, [F(1, 2), F(-1, 2), F(3), F(-3), F(5, 7)], precision),
               from_alphas(1, [F(10 ** 9), F(-10 ** 9), F(1, 10 ** 9)], precision),
               random_type_m1n(2, 6, 1, precision)]
    numeric = [_numeric_copy(c) for c in charts]
    assert not any(c.groups for c in numeric)
    assert [r_parameter(c) for c in numeric] == [r_by_tolerance(c) for c in numeric]
    assert [r_parameter(c) for c in numeric] == [r_parameter(c) for c in charts]


@pytest.mark.parametrize("precision", [128, 256])
@pytest.mark.parametrize("shift,r", [(-4, 2), (6, 1)])
def test_r_parameter_reads_squares_to_half_the_precision(precision, shift, r):
    # lines at pi/4 and 3pi/4 + delta, whose squared sines differ by 2 delta
    # relative: two squares above the tolerance 2^-(p/2), one below it
    from balines.config import general_from_angles

    with mpmath.workprec(precision + GUARD_BITS):
        delta = mpmath.mpf(2) ** -(precision // 2 + shift)
        c = general_from_angles([2, 1, 1], [0, mpmath.pi / 4, 3 * mpmath.pi / 4 + delta],
                                precision)
    assert r_parameter(c) == r_by_tolerance(c) == r


def test_symmetry_detection():
    assert is_symmetric_slope_chart(build_am1n(3, 4, 128))
    assert is_symmetric_slope_chart(from_alphas(2, [F(1, 2), F(-1, 2)]))
    assert not is_symmetric_slope_chart(from_alphas(2, [F(1, 2), F(-1, 3)]))
    assert is_symmetric_slope_chart(from_alphas(2, [F(1, 2), F(-1, 2), F(0)]))


def test_segment_prediction_out_of_range():
    with pytest.raises(OutOfRange):
        segment_prediction("odd_window_distinct_slopes", 1, 4, r=3)
    with pytest.raises(OutOfRange):
        segment_prediction("sym_low_window", 2, 2, symmetric=False)
    with pytest.raises(ValueError):
        segment_prediction("no_such_formula", 1, 1)


def test_segment_oracles_match_am1n():
    for m, n in [(1, 2), (2, 2), (2, 5), (3, 4)]:
        c = build_am1n(m, n, 128)
        D = 2 * m + 2 * n + 4
        bs = hilbert_coefficients(c, D)
        preds = segment_oracles(m, n, r=r_parameter(c), symmetric=True,
                                am1n=True, D=D)
        assert "exceptional_even_window" in preds
        for name, seg in preds.items():
            for d, v in seg.items():
                assert bs[d] == v, (name, d)


def test_segment_oracles_match_random_samples():
    for m, n in [(1, 3), (2, 4), (3, 2)]:
        for seed in range(1, 6):
            c = random_type_m1n(m, n, seed=seed)
            D = 2 * m + 2 * n + 4
            bs = hilbert_coefficients(c, D)
            preds = segment_oracles(m, n, r=r_parameter(c),
                                    symmetric=is_symmetric_slope_chart(c),
                                    am1n=False, D=D)
            for name, seg in preds.items():
                for d, v in seg.items():
                    assert bs[d] == v, (m, n, seed, name, d)


def test_rank_exact_small_cases():
    assert rank_exact([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_exact([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_exact([]) == 0
    assert rank_exact([[]]) == 0
    assert rank_exact([[F(0)] * 3] * 4) == 0
    assert rank_exact([[F(0), F(-2, 3), F(5)]]) == 1
    assert rank_exact([[F(0), F(0), F(0)]]) == 0


def test_rank_exact_falls_back_when_p_divides_a_minor():
    # rank 1 mod 2^61 - 1, the modulus of the modular pass, but 2 over Q:
    # the exact elimination the pass falls back to must not work mod p
    rows = [[2 ** 61 - 1, 0], [0, 1]]
    assert rank_mod_prime(rows, quasi.RANK_PRIME) == 1
    assert rank_exact([[F(x) for x in r] for r in rows]) == 2


_ENTRY = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.sampled_from([F(quasi.RANK_PRIME), F(-2 * quasi.RANK_PRIME, 3)]))


@st.composite
def _planted_rank_matrices(draw):
    """Rows from a random basis plus rational combinations of it, shuffled."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    basis = draw(st.lists(row, min_size=1, max_size=5))
    weights = st.lists(_ENTRY, min_size=len(basis), max_size=len(basis))
    planted = [[sum((w * b[j] for w, b in zip(ws, basis)), F(0))
                for j in range(ncols)]
               for ws in draw(st.lists(weights, max_size=3))]
    return draw(st.permutations(basis + planted))


@settings(max_examples=300, deadline=None)
@given(_planted_rank_matrices())
def test_rank_exact_matches_oracle(rows):
    assert rank_exact(rows) == echelon_rank_exact(rows)


def test_exact_needs_rational_data():
    lc = solve_general_locus((2, 1, 1), 128)
    with pytest.raises(MissingExactData):
        qi_dimension_exact(lc, 4)


def _unscaled(system):
    """The assembled matrix with each integer column divided by its scale."""
    assert all(type(x) is int for row in system.matrix for x in row)
    assert all(s > 0 for s in system.column_scale)
    return tuple(tuple(F(x, s) for x, s in zip(row, system.column_scale))
                 for row in system.matrix)


def test_power_table_assembly_matches_polynomial_division():
    for c in [build_am1n(3, 5, 128), random_type_m1n(2, 4, seed=3)]:
        m, n = c.m, c.n
        for d in range(2 * m + 2 * n + 5):
            want = remainder_map_matrix(c.R, d, m)
            scaled = assemble_system(c, d, quasi.power_table(c.R.scale(F(3)), d + 1))
            assert _unscaled(assemble_system(c, d)) == want, d
            assert _unscaled(scaled) == want, d
            assert len(scaled.free) - rank_exact(scaled.matrix) == qi_dimension_exact(c, d)


def test_exact_hilbert_series_at_scale():
    m, n = 4, 20
    bs = hilbert_coefficients(random_type_m1n(m, n, seed=1), 2 * m + 2 * n + 4)
    h = hilbert_rational_form(bs, m, n)  # raises TailMismatch off the tail law
    assert bs[2 * (m + n - 1)] == m + n - 1
    assert is_gorenstein(h) == (False, None)


def test_assembled_system_shape():
    c = build_am1n(2, 2, 128)
    sys6 = assemble_system(c, 6)
    assert sys6.free == (0, 2, 4, 5, 6)
    assert len(sys6.matrix) == 2  # one row per power below deg R
    assert len(sys6.free) - rank_exact(sys6.matrix) == 4


def _record_passes(monkeypatch) -> list:
    """The modulus of each rank pass run from now on, None for the pass over Q."""
    passes, run = [], quasi._parity_ranks
    monkeypatch.setattr(quasi, "_parity_ranks",
                        lambda R, m, D, p=None: passes.append(p) or run(R, m, D, p))
    return passes


def _bareiss_series(c, D):
    """[b_0 .. b_D] from Bareiss elimination at every degree."""
    table = quasi.power_table(c.R, D + 1)
    systems = [assemble_system(c, d, table) for d in range(D + 1)]
    return [len(s.free) - rank_exact(s.matrix) for s in systems]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=5),
                min_size=1, max_size=10, unique=True))
def test_modular_pass_matches_per_degree_bareiss(m, slopes):
    # small slopes give symmetric pairs and slope 0, whose extra kernels
    # hold some degrees below the bound; generic slopes meet it everywhere
    c = from_alphas(m, slopes)
    D = 2 * m + 2 * len(slopes) + 4
    want = _bareiss_series(c, D)
    assert hilbert_coefficients(c, D) == want
    R, p = c.R.monic(), quasi.RANK_PRIME
    # -1 is not a square mod 2^61 - 1, so 1 + alpha^2 is a unit mod (R, p)
    # for rational slopes, and the pass gives the rank mod p itself
    assert quasi._parity_ranks(R, m, D, p) == [
        rank_mod_prime(assemble_system(c, d).matrix, p) for d in range(D + 1)]
    # over Q it gives the rank at every degree
    assert quasi._parity_ranks(R, m, D) == [
        len(quasi.free_indices(d, m)) - b for d, b in enumerate(want)]


@pytest.mark.parametrize("slopes, proven", [
    ([F(2), F(1, 2), F(-3), F(7, 3)], "some"),  # 1 + 2^2 = 0 mod 5
    ([F(1, 5), F(1, 2), F(-3), F(7, 3)], "none"),  # R not 5-integral
])
def test_small_prime_takes_the_fallbacks(monkeypatch, slopes, proven):
    # -1 = 2^2 mod 5, so 1 + alpha^2 splits and can share a root with R,
    # and an R that is not 5-integral proves nothing mod 5: either way the
    # ranks mod 5 fall short of the bound, and the pass over Q decides
    c = from_alphas(2, slopes)
    D = 2 * 2 + 2 * len(slopes) + 4
    want = hilbert_coefficients(c, D)
    assert want == _bareiss_series(c, D)
    monkeypatch.setattr(quasi, "RANK_PRIME", 5)
    passes = _record_passes(monkeypatch)
    assert hilbert_coefficients(c, D) == want
    assert passes == [5, None]


@pytest.mark.parametrize("slopes", [
    [F(1), F(4), F(-2), F(5, 7)],  # 1 = 4 = -2 mod 3
    [F(1, 3), F(1, 2), F(-3), F(7, 5)],  # R not 3-integral
    [F(1), F(3, 2), F(5)],  # distinct mod 3
])
def test_prime_three_gives_the_same_series(monkeypatch, slopes):
    # mod 3 the new column col_d(d) = -d alpha is 0 whenever 3 divides d;
    # the ranks mod 3 of these charts fall short of the bound, even on
    # slopes distinct mod 3, and the pass over Q decides
    c = from_alphas(3, slopes)
    D = 2 * 3 + 2 * len(slopes) + 4
    want = _bareiss_series(c, D)
    monkeypatch.setattr(quasi, "RANK_PRIME", 3)
    passes = _record_passes(monkeypatch)
    assert hilbert_coefficients(c, D) == want
    assert passes == [3, None]


def test_series_runs_no_per_degree_elimination(monkeypatch):
    # the passes decide every rank: neither the per-degree system nor its
    # Bareiss rank runs, on a chart that takes the pass over Q or not, on an
    # R that is not integral at the default prime, nor at RANK_PRIME = 5
    charts = [build_am1n(3, 4, 128), random_type_m1n(3, 5, seed=2),
              from_alphas(2, [F(1, quasi.RANK_PRIME), F(1, 2), F(-3), F(7, 3)])]
    small = [from_alphas(2, [F(2), F(1, 2), F(-3), F(7, 3)]),
             from_alphas(2, [F(1, 5), F(1, 2), F(-3), F(7, 3)])]
    want = [_bareiss_series(c, 2 * c.m + 2 * c.n + 4) for c in charts + small]

    def refuse(*args):
        raise AssertionError("a series needs no per-degree elimination")

    monkeypatch.setattr(quasi, "assemble_system", refuse)
    monkeypatch.setattr(quasi, "rank_exact", refuse)
    passes = _record_passes(monkeypatch)
    got = [hilbert_coefficients(c, 2 * c.m + 2 * c.n + 4) for c in charts]
    assert passes == [quasi.RANK_PRIME, None, quasi.RANK_PRIME,
                      quasi.RANK_PRIME, None]
    monkeypatch.setattr(quasi, "RANK_PRIME", 5)
    got += [hilbert_coefficients(c, 2 * c.m + 2 * c.n + 4) for c in small]
    assert got == want


def test_random_charts_need_no_bareiss(monkeypatch):
    # guards the pass mod p: on generic charts it proves every rank, and the
    # pass over Q never runs
    passes = _record_passes(monkeypatch)
    for m in range(1, 5):
        for n in range(1, 13):
            for seed in (1, 2, 3):
                hilbert_coefficients(random_type_m1n(m, n, seed), 2 * m + 2 * n + 4)
    assert passes == [quasi.RANK_PRIME] * 144


@pytest.mark.parametrize("m, n", [(4, 20), (2, 40), (6, 40)])
def test_exact_am1n_series_at_scale(m, n):
    # every am1n chart takes the pass over Q: its Gorenstein kernels hold
    # some degrees below the bound
    bs = hilbert_coefficients(build_am1n(m, n, 128), 2 * m + 2 * n + 4)
    assert list(hilbert_rational_form(bs, m, n).numerator) == am1n_hilbert_numerator(m, n)


def test_hilbert_random_builds_no_lines(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the exact route needs no angles")

    monkeypatch.setattr(mpmath, "acot", refuse)
    assert main(["hilbert", "--random", "--m", "2", "--n", "4", "--seed", "3"]) == 0
    assert '"gorenstein": false' in capsys.readouterr().out


def test_slopes_too_close_for_a_chart_still_have_a_series():
    c = from_alphas(2, [F(1), 1 + F(1, 2 ** 130), F(-1, 3), F(2, 5)], 256)
    bs = hilbert_coefficients(c, 16)
    assert bs == _bareiss_series(c, 16)
    hilbert_rational_form(bs, 2, 4)  # the tail law holds
    assert r_parameter(c) == 4
    with pytest.raises(CollisionError):
        c.lines
