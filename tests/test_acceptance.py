"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line with the scope it covered.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import mpmath as mp

from balines.certify import certify_ba, ode_residual_am1n, ode_residual_two_mult
from balines.config import (angle_multiset_distance, build_am1n,
                            build_two_mult, perturb_line, random_type_m1n,
                            t_q_expand)
from balines.darboux import (build_chain, q_scaling_check, verify_eigen,
                             verify_factorization, verify_potential)
from balines.locus import solve_general_locus
from balines.numeric import log2_abs, working
from balines.poly import DensePoly
from balines.quasi import (am1n_hilbert_numerator, hilbert_coefficients,
                           hilbert_rational_form, is_gorenstein,
                           qi_dimension_numeric, r_parameter)
from balines.symfunc import e_values, ehat_values, r_poly_from_ehat

from oracles import (brute_force_qi_dimension, config_to_oracle_lines,
                     qi_dimension_exact)
from paper import (expand_numerator, f_to_e, f_to_ehat, f_values,
                   identity_a_lhs, identity_a_rhs, identity_b_lhs,
                   identity_b_rhs, segment_oracles, slope_recurrence)

PRECISION = 256
AM1N_GRID = [(m, n) for m in range(1, 5) for n in range(1, 7)]
RANDOM_GRID = [(m, n) for m in range(1, 4) for n in range(2, 6)]
RANDOM_SEEDS = list(range(1, 21))

_cache = {}


def am1n_data(m, n):
    key = ("am1n", m, n)
    if key not in _cache:
        cfg = build_am1n(m, n, PRECISION)
        coeffs = hilbert_coefficients(cfg, 2 * m + 2 * n + 4)
        _cache[key] = (cfg, coeffs)
    return _cache[key]


def random_data(m, n, seed):
    key = ("random", m, n, seed)
    if key not in _cache:
        cfg = random_type_m1n(m, n, seed, PRECISION)
        coeffs = hilbert_coefficients(cfg, 2 * m + 2 * n + 4)
        _cache[key] = (cfg, coeffs)
    return _cache[key]


def test_criterion_1_closed_form_hilbert_series():
    t0 = time.time()
    for m, n in AM1N_GRID:
        _, coeffs = am1n_data(m, n)
        D = 2 * m + 2 * n + 4
        expected = expand_numerator(am1n_hilbert_numerator(m, n), D)
        assert coeffs == expected, (m, n)
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    print(f"\n[criterion 1] PASS: closed-form Hilbert series matched exactly "
          f"for (m,n) in 1..4 x 1..6 in {elapsed:.1f}s")


def test_criterion_2_gorenstein_dichotomy():
    failures = []
    for m, n in AM1N_GRID:
        _, coeffs = am1n_data(m, n)
        series = hilbert_rational_form(coeffs, m, n)
        gor, M = is_gorenstein(series)
        if not (gor and M == 2 - 2 * m - 2 * n):
            failures.append(("am1n", m, n, gor, M))
        if coeffs[2 * (m + n - 1)] != m + n:
            failures.append(("am1n-critical", m, n))
    for m, n in RANDOM_GRID:
        for seed in RANDOM_SEEDS:
            _, coeffs = random_data(m, n, seed)
            series = hilbert_rational_form(coeffs, m, n)
            gor, _ = is_gorenstein(series)
            if gor:
                failures.append(("random-gorenstein", m, n, seed))
            if coeffs[2 * (m + n - 1)] != m + n - 1:
                failures.append(("random-critical", m, n, seed))
    assert not failures, failures
    n_random = len(RANDOM_GRID) * len(RANDOM_SEEDS)
    print(f"\n[criterion 2] PASS: Gorenstein with M = 2-2m-2n on every "
          f"distinguished configuration; non-Gorenstein with critical "
          f"coefficient m+n-1 on all {n_random} random samples")


def _certify_grid():
    key = "certify-grid"
    if key not in _cache:
        bases = []
        for m in range(1, 7):
            for n in range(1, 11):
                bases.append(build_am1n(m, n, PRECISION))
        for m in range(1, 5):
            for mt in range(0, 5):
                for n in (2, 4, 6):
                    bases.append(build_two_mult(m, mt, n, PRECISION))
        _cache[key] = bases
    return _cache[key]


def test_criterion_3_ba_certification():
    with working(PRECISION):
        threshold = mp.mpf(2) ** -224
    bases = _certify_grid()

    def log2s_agree(cert):
        # each residual_log2 is log2 of the 53-bit mpf quotient |value| / scale
        with mp.workprec(53):
            want = [log2_abs(r.relative()) for r in cert.residuals]
        return [r["residual_log2"] for r in cert.to_json_dict()["per_condition"]] == want

    count = 0
    for base in bases:
        for q in range(1, 5):
            cfg = t_q_expand(base, q)
            cert = certify_ba(cfg, threshold=threshold)
            assert cert.passed, (base.kind, base.m, base.mtilde, base.n, q)
            assert log2s_agree(cert), (base.kind, base.m, base.mtilde, base.n, q)
            count += 1
    # perturbing one angle flips the verdict, on every base configuration
    for base in bases:
        perturbed = perturb_line(base, 1, 1e-2)
        cert = certify_ba(perturbed, threshold=threshold)
        assert not cert.passed, (base.kind, base.m, base.mtilde, base.n)
        assert log2s_agree(cert), (base.kind, base.m, base.mtilde, base.n)
    # and on every single angle of three representatives
    reps = [build_am1n(2, 2, PRECISION), build_two_mult(2, 1, 4, PRECISION),
            t_q_expand(build_am1n(2, 2, PRECISION), 2)]
    for rep in reps:
        for idx in range(len(rep.lines)):
            cert = certify_ba(perturb_line(rep, idx, 1e-2), threshold=threshold)
            assert not cert.passed, (rep.kind, idx)
    print(f"\n[criterion 3] PASS: {count} configurations certified at "
          f"threshold 2^-224 (precision 256); every tested perturbation "
          f"flipped the verdict")


def test_criterion_4_exact_ode_residuals():
    for m in range(1, 7):
        for n in range(1, 11):
            assert ode_residual_am1n(build_am1n(m, n, 64)).is_zero, (m, n)
    for m in range(1, 5):
        for mt in range(0, 5):
            for n in (2, 4, 6):
                cfg = build_two_mult(m, mt, n, 128)
                assert ode_residual_two_mult(cfg).is_zero, (m, mt, n)
    print("\n[criterion 4] PASS: both characterizing ODEs have identically "
          "zero residual polynomials over the full grids")


def test_criterion_5_symmetric_function_identities():
    for m in range(1, 7):
        for n in range(1, 13):
            for r in range(1, n // 2 + 1):
                if n % 2 == 0:
                    assert identity_a_lhs(m, n, r) == identity_a_rhs(m, n, r)
                assert identity_b_lhs(m, n, r) == identity_b_rhs(m, n, r)
            # conversion chain: f values -> e values (both parities) and
            # f values -> ehat values, all exact
            assert f_to_e(f_values(m, n), n) == e_values(m, n)
            assert f_to_ehat(f_values(m, n)) == ehat_values(m, n)
    print("\n[criterion 5] PASS: binomial-sum identities and the conversion "
          "chain hold as exact rational equalities for m <= 6, n <= 12")


def test_slope_recurrence_builds_both_families():
    # the k = 1 light-line conditions fix R (README, "One closed form for
    # both families"); its product solution is ehat_values(m, n, mt)
    charts = [(build_am1n, m, 0, n) for m in range(1, 9) for n in range(1, 31)]
    charts += [(build_two_mult, m, mt, n) for m in range(1, 6) for mt in range(0, m + 1)
               for n in range(2, 21, 2)]
    for build, m, mt, n in charts:
        R = DensePoly(slope_recurrence(m, n, mt))
        assert R == r_poly_from_ehat(ehat_values(m, n, mt), n), (m, mt, n)
        built = build(m, n, 64) if build is build_am1n else build(m, mt, n, 64)
        assert built.R == R, (build.__name__, m, mt, n)
    print(f"\n[slope recurrence] PASS: R and ehat on {len(charts)} am1n and "
          "twomult charts")


def test_criterion_6_darboux_identities():
    combos = []
    for m in range(1, 5):
        for mt in range(0, m + 1):
            for n in (2, 4, 6):
                combos.append((m, mt, n))
        for n in range(1, 9):
            combos.append((m, 0, n))
    checked = set()
    for m, mt, n in combos:
        if (m, mt, n) in checked:
            continue
        checked.add((m, mt, n))
        cfg = (build_two_mult(m, mt, n, 128) if mt >= 1
               else build_am1n(m, n, 128))
        chain = build_chain(m, mt, n)
        assert verify_factorization(chain, cfg), (m, mt, n)
        assert verify_potential(chain, cfg), (m, mt, n)
        assert verify_eigen(cfg), (m, mt, n)
        for q in (2, 3):
            assert q_scaling_check(chain, q), (m, mt, n, q)
    print(f"\n[criterion 6] PASS: factorization, potential, eigenfunction, "
          f"and q-scaling identities exact on {len(checked)} chains "
          f"(tolerance zero)")


def test_criterion_7_optimizer_consistency():
    with working(PRECISION):
        tol = mp.mpf(2) ** -216
    cases = [(m, n) for m in range(1, 5) for n in range(1, 7)]
    cases += [(2, 8), (2, 12), (2, 16)]
    for m, n in cases:
        t0 = time.time()
        found = solve_general_locus([m] + [1] * n, PRECISION)
        ref = build_am1n(m, n, PRECISION)
        dist = angle_multiset_distance(found, ref)
        elapsed = time.time() - t0
        assert dist < tol, (m, n, float(dist))
        assert elapsed < 10, (m, n, elapsed)
    print("\n[criterion 7] PASS: variational solver reproduces every "
          "distinguished angle multiset within 2^-216 at precision 256, "
          "under 10 s per instance")


def test_criterion_8_segment_formula_oracles():
    checked = 0
    for m, n in AM1N_GRID:
        cfg, coeffs = am1n_data(m, n)
        preds = segment_oracles(m, n, r=r_parameter(cfg), symmetric=True,
                                am1n=True, D=len(coeffs) - 1)
        for name, seg in preds.items():
            for d, v in seg.items():
                assert coeffs[d] == v, ("am1n", m, n, name, d)
                checked += 1
    for m, n in RANDOM_GRID:
        for seed in RANDOM_SEEDS:
            cfg, coeffs = random_data(m, n, seed)
            preds = segment_oracles(m, n, r=r_parameter(cfg), symmetric=False,
                                    am1n=False, D=len(coeffs) - 1)
            for name, seg in preds.items():
                for d, v in seg.items():
                    assert coeffs[d] == v, ("random", m, n, seed, name, d)
                    checked += 1
    print(f"\n[criterion 8] PASS: {checked} per-degree segment predictions "
          f"all match the computed coefficients")


def test_criterion_9_oracle_equivalence():
    # independent 512-bit full-system solver first, on the pinned cases
    for m, n in [(1, 1), (2, 2), (1, 2)]:
        cfg = build_am1n(m, n, 512)
        lines = config_to_oracle_lines(cfg, 512)
        for d in range(0, 13):
            assert brute_force_qi_dimension(lines, d, 512) == \
                qi_dimension_exact(cfg, d), (m, n, d)
    # exact and numeric ranks agree on every (configuration, degree) pair
    pairs = 0
    for m, n in AM1N_GRID:
        cfg, coeffs = am1n_data(m, n)
        for d in range(len(coeffs)):
            assert qi_dimension_numeric(cfg, d) == coeffs[d], ("am1n", m, n, d)
            pairs += 1
    for m, n in RANDOM_GRID:
        for seed in RANDOM_SEEDS:
            cfg, coeffs = random_data(m, n, seed)
            for d in range(len(coeffs)):
                assert qi_dimension_numeric(cfg, d) == coeffs[d], \
                    ("random", m, n, seed, d)
                pairs += 1
    print(f"\n[criterion 9] PASS: 512-bit brute-force solver confirmed the "
          f"pinned dimensions; exact and numeric ranks agree on {pairs} "
          f"(configuration, degree) pairs")
