import math
from itertools import combinations

import numpy as np
import pytest

from btd1 import BlockTermDecomposition, compose, random_btd
from btd1 import uniqueness
from btd1.linalg import DEFAULT_RANK_TOL, DimensionError, numerical_rank, rng
from btd1.minors import build_Q2, n_sym, q2_null_dim
from btd1.uniqueness import (
    SUBSET_CAP,
    KRankResult,
    check_deterministic_uniqueness,
    check_necessary,
    generic_bounds,
    k_prime_rank,
    k_rank,
    parameter_count_S,
)

from helpers import (
    check_rank_only_uniqueness,
    loop_k_prime_rank,
    nonuniqueness_family_2x8x7,
    q2_rank_instances,
    shared_columns_instance,
    two_term_alternatives,
)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_d_values_equal_one_svd_per_term(field):
    # the stacked SVD per complement width against one numerical_rank per
    # term: unequal sizes, repeated widths, shared C-columns (every d_r is
    # 1 there), a clamped K and a single term (d = K)
    cases = [
        random_btd((3, 9, 10), (1, 2, 3, 4), field=field, seed=1),
        random_btd((4, 10, 10), (2, 2, 3, 3), field=field, seed=2),
        random_btd((3, 8, 6), (2, 3, 4), field=field, seed=3),
        random_btd((3, 5, 5), (3,), field=field, seed=4),
        shared_columns_instance(4, seed=5, field=field),
    ]
    for d in cases:
        k_dim = d.terms[0][1].shape[0]
        want = [
            k_dim - numerical_rank(np.hstack([c for p, (_, c) in enumerate(d.terms) if p != r]).T)
            if d.R > 1
            else k_dim
            for r in range(d.R)
        ]
        assert uniqueness._d_values(d) == want


def test_check_necessary_duplicate_term():
    gen = rng(0)
    b = gen.standard_normal((5, 2))
    c = gen.standard_normal((6, 2))
    a = gen.standard_normal((3, 2))
    d = BlockTermDecomposition(a, ((b, c), (b, c)))
    vec_ok, ab_ok, ac_ok = check_necessary(d)
    assert not vec_ok


def test_check_necessary_generic_true():
    d = random_btd((3, 6, 6), (2, 2), seed=1)
    assert check_necessary(d) == (True, True, True)


def test_check_necessary_2x8x7():
    # all three hold although the overall decomposition is not unique
    d = random_btd((2, 8, 7), (3, 3, 3), seed=2)
    assert check_necessary(d) == (True, True, True)


def test_k_rank_basics():
    assert k_rank(np.eye(4)).value == 4
    a = np.column_stack([np.ones(3), 2 * np.ones(3), np.array([1.0, 0, 0])])
    res = k_rank(a)
    assert res.value == 1 and res.exact
    gen = rng(3)
    blocks = [gen.standard_normal((8, 2)) for _ in range(3)]
    assert k_prime_rank(blocks).value == 3
    a = gen.standard_normal((4, 3))
    a[:, 1] = 0.0
    assert k_rank(a) == KRankResult(0)


def test_k_rank_cap_gives_lower_bound(monkeypatch):
    gen = rng(4)
    a = gen.standard_normal((10, 12))
    monkeypatch.setattr(uniqueness, "SUBSET_CAP", 20)
    res = k_rank(a)
    assert not res.exact
    assert res.value <= 10


def test_subset_rank_stops_at_row_count(monkeypatch):
    # any two 4 x 2 blocks fill the 4 rows and no three fit, so k' = 2 is
    # exact without testing the triples, which the cap would not cover
    gen = rng(30)
    blocks = [gen.standard_normal((4, 2)) for _ in range(3)]
    monkeypatch.setattr(uniqueness, "SUBSET_CAP", 6)
    assert k_prime_rank(blocks) == KRankResult(2, exact=True)
    # with single columns the stop is the k-rank's bound min(columns, rows):
    # a cap of 25 covers the subsets of up to 3 of 5 columns
    monkeypatch.setattr(uniqueness, "SUBSET_CAP", 25)
    assert k_rank(gen.standard_normal((3, 5))) == KRankResult(3, exact=True)


def _subset_rank_cases():
    gen = rng(31)
    # 364 triples of 14 columns fill two chunks; the one dependent triple,
    # (11, 12, 13), is the last
    a = gen.standard_normal((6, 14))
    a[:, 13] = a[:, 11] - 2 * a[:, 12]
    yield "late triple", [a[:, i : i + 1] for i in range(14)]
    # the same columns with a pair that fails at k = 2
    b = a.copy()
    b[:, 9] = 3 * b[:, 4]
    yield "parallel pair", [b[:, i : i + 1] for i in range(14)]
    yield "generic", [c[:, None] for c in gen.standard_normal((5, 9)).T]
    # blocks of widths 1 to 3: subsets of one size group by width
    mixed = [gen.standard_normal((9, 1 + i % 3)) for i in range(11)]
    yield "mixed widths", mixed
    dependent = list(mixed)
    dependent[10] = np.hstack([mixed[7][:, :1], mixed[8][:, :2]])
    yield "mixed widths, dependent", dependent
    zero = list(mixed)
    zero[6] = np.zeros((9, 1))
    yield "zero column block", zero


@pytest.mark.parametrize("cap", [5, 60, 400, 2000, SUBSET_CAP])
def test_stacked_subset_ranks_equal_the_loop(cap, monkeypatch):
    monkeypatch.setattr(uniqueness, "SUBSET_CAP", cap)
    for name, blocks in _subset_rank_cases():
        want = loop_k_prime_rank(blocks, cap=cap)
        assert k_prime_rank(blocks) == want, name
        if all(b.shape[1] == 1 for b in blocks) and all(b.any() for b in blocks):
            assert k_rank(np.hstack(blocks)) == want, name


def test_k_rank_takes_one_stacked_svd_per_size(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # 5 x 9: k = 1..5 (9, 36, 84, 126 and 126 subsets), none past the row
    # count
    assert k_rank(rng(32).standard_normal((5, 9))) == KRankResult(5)
    assert calls == [(9, 5, 1), (36, 5, 2), (84, 5, 3), (126, 5, 4), (126, 5, 5)]
    # 6 x 14: k = 1..6, each in stacks of at most 256 subsets
    calls.clear()
    assert k_rank(rng(33).standard_normal((6, 14))) == KRankResult(6)
    want = []
    for k in range(1, 7):
        n = math.comb(14, k)
        want += [256] * (n // 256) + [n % 256] * (n % 256 > 0)
    assert [c[0] for c in calls] == want


def test_main_theorem_3xJx15_narrow_j():
    # conditions (a) and (e) hold: the first factor matrix is unique
    d = random_btd((3, 9, 15), (2, 2, 2, 3, 3, 4), seed=5)
    rep = check_deterministic_uniqueness(d)
    assert rep.assumptions["t3_full_rank"]
    assert rep.assumptions["Q2_dim_ok"]
    assert rep.conditions["a"] and rep.conditions["e"]
    assert not rep.conditions["b"] and not rep.conditions["c"]
    # binom(16, 2) - 15 = 105 > 101
    k_dim = 15
    q = 15
    sizes = (2, 2, 2, 3, 3, 4)
    pairs = sum(sizes[i] * sizes[j] for i in range(6) for j in range(i + 1, 6))
    assert (k_dim + 1) * k_dim // 2 - q == 105
    assert pairs - 4 == 101
    assert rep.statements["S4_first_fm_unique"]
    assert not rep.statements["S5_overall_unique"]


def test_main_theorem_3xJx15_wide_j():
    d = random_btd((3, 14, 15), (2, 2, 2, 3, 3, 4), seed=6)
    rep = check_deterministic_uniqueness(d)
    assert rep.conditions["c"]
    assert rep.statements["S5_overall_unique"]
    assert rep.statements["S2_overall_by_evd"]


def test_main_theorem_shared_columns_subtensor_assumption_fails():
    # the two-term sum admits alternatives; the null space of its minor
    # matrix is larger than every compatible block-size count
    d2 = shared_columns_instance(2, seed=7)
    t2 = compose(d2)
    # compress to the essential third dimension (rank 4)
    from btd1 import compress_third_mode

    compressed, mixing, rank = compress_third_mode(t2)
    assert rank == 4
    q2 = build_Q2(compressed)
    null_dim = q2.shape[1] - numerical_rank(q2, tol=1e-8)
    assert null_dim == 5
    # every admissible (d_1, d_2) tuple gives sum binom(d+1, 2) <= 4 < 5
    best = max(1 + 1, 3 + 1, 1 + 3)
    assert best == 4 < null_dim
    # the compressed tensor's own decomposition: unfold(t2, 3) = M C.T and
    # unfold(compressed, 3) = unfold(t2, 3) mixing^+, so C_r becomes
    # (mixing^+).T C_r
    mix_pinv = np.linalg.pinv(mixing)
    d_c = BlockTermDecomposition(d2.A, tuple((b, mix_pinv.T @ c) for b, c in d2.terms))
    rebuilt = compose(d_c).values
    assert np.linalg.norm(rebuilt - compressed.values) < 1e-12 * np.linalg.norm(compressed.values)
    rep = check_deterministic_uniqueness(d_c)
    assert rep.assumptions == {
        "t3_full_rank": True,
        "d_r_positive": [True, True],
        "F_rank_ok": False,
        "Q2_dim_ok": False,
    }


def test_main_theorem_statement_logic_consistency():
    for seed in range(6):
        d = random_btd((3, 8, 8), (2, 3, 4), seed=seed)
        rep = check_deterministic_uniqueness(d)
        cond = rep.conditions
        stmt = rep.statements
        base = (
            rep.assumptions["t3_full_rank"]
            and all(rep.assumptions["d_r_positive"])
            and (rep.assumptions["F_rank_ok"] or rep.assumptions["Q2_dim_ok"])
        )
        expected_s5 = base and (
            (cond["a"] and cond["b"]) or (cond["a"] and cond["c"]) or cond["d"]
        )
        assert stmt["S5_overall_unique"] == expected_s5


def test_rank_only_uniqueness_branches():
    # generic full-column-rank A
    d = random_btd((4, 8, 8), (2, 3), seed=8)
    assert check_rank_only_uniqueness(d) is True
    # proportional columns in A: k_A = 1
    gen = rng(9)
    a = gen.standard_normal((4, 2))
    a[:, 1] = 2 * a[:, 0]
    bad = BlockTermDecomposition(a, tuple((gen.standard_normal((8, 2)), gen.standard_normal((8, 2))) for _ in range(2)))
    assert check_rank_only_uniqueness(bad) is False
    # k_A = r_A < R with enough block structure (the case-3 regime)
    d3 = random_btd((4, 8, 9), (2, 2, 2, 2, 2), seed=10)
    assert check_rank_only_uniqueness(d3) is True


def test_parameter_count():
    assert parameter_count_S((2, 8, 7), (3, 3, 3)) == (111, 112, True)
    # single rank-1 term
    i_dim, j_dim, k_dim = 3, 4, 5
    s, ijk, ok = parameter_count_S((i_dim, j_dim, k_dim), (1,))
    assert s == i_dim - 1 + j_dim + k_dim - 1
    assert ok
    # growing a size until the count flips
    flipped = False
    for l in range(1, 8):
        s, ijk, ok = parameter_count_S((2, 8, 8), (l, l, l))
        if not ok:
            flipped = True
            break
    assert flipped
    with pytest.raises(DimensionError, match=r"term sizes must not exceed min\(J, K\)"):
        parameter_count_S((3, 4, 5), (2, 5))


def test_generic_bounds_8_8_50():
    for r, expect_row3, expect_row8 in ((8, True, True), (9, False, True), (48, False, True), (49, False, False)):
        sizes = [1] * (r - 1) + [2]
        rows = generic_bounds((8, 8, 50), sizes)
        assert rows["row3"] is expect_row3
        assert rows["row8"] is expect_row8


def test_generic_bounds_335():
    rows = generic_bounds((3, 3, 5), (1, 1, 1, 2))
    # row 7 does not apply (unequal sizes); the K-inequality of row 5 is
    # tight: sum of all but the smallest plus one equals 5
    assert rows["row7"] is False
    sizes = sorted((1, 1, 1, 2))
    assert sum(sizes[1:]) + 1 == 5 <= 5
    assert rows["row6_count_ok"] is True
    assert rows["parameter_count"] is True


def test_generic_bounds_first_factor_path_2x8x7():
    rows = generic_bounds((2, 8, 7), (3, 3, 3))
    assert rows["first_fm_inequality"] is True or rows["first_fm_inequality"] == True
    assert rows["first_fm_upon_verification"]
    # overall uniqueness is not granted by any row for this configuration
    for key in ("row1", "row2", "row2_swapped", "row3", "row5", "row7", "row8"):
        assert not rows[key]


def test_nonuniqueness_family_2x8x7_reconstructs_with_rank3_terms():
    gen = rng(11)
    for trial in range(10):
        p1, p2 = gen.standard_normal(2)
        alt, t_hat, e_mats = nonuniqueness_family_2x8x7(p1, p2, seed=trial)
        recon = compose(alt)
        err = np.linalg.norm(recon.values - t_hat.values) / np.linalg.norm(t_hat.values)
        assert err < 1e-10
        for e in e_mats:
            assert _max_minor4(e) < 1e-10
            assert numerical_rank(e, tol=1e-8) <= 3


def test_nonuniqueness_family_2x8x7_origin_member():
    alt, t_hat, _ = nonuniqueness_family_2x8x7(0.0, 0.0, seed=3)
    assert np.linalg.norm(compose(alt).values - t_hat.values) < 1e-12


def _max_minor4(m):
    best = 0.0
    for rows in combinations(range(m.shape[0]), 4):
        sub = m[list(rows)]
        for cols in combinations(range(m.shape[1]), 4):
            best = max(best, abs(np.linalg.det(sub[:, list(cols)])))
    return best


def test_two_term_alternatives():
    gen = rng(12)
    args = [gen.standard_normal(5) for _ in range(2)]
    args += [gen.standard_normal(7) for _ in range(4)]
    args += [gen.standard_normal(7) for _ in range(4)]
    t2, base, alt1, alt2 = two_term_alternatives(*args)
    for alt in (alt1, alt2):
        err = np.linalg.norm(compose(alt).values - t2.values) / np.linalg.norm(t2.values)
        assert err < 1e-12
    # the difference term has rank exactly 2
    for alt in (alt1, alt2):
        ranks = sorted(numerical_rank(e) for e in alt.term_matrices())
        assert ranks == [2, 3]
    # the three decompositions are mutually distinct as term sets
    def term_set(d):
        return [e / np.linalg.norm(e) for e in d.term_matrices()]

    for x, y in ((base, alt1), (base, alt2), (alt1, alt2)):
        sims = [
            max(
                abs(np.vdot(e1.ravel(), e2.ravel()))
                for e2 in term_set(y)
            )
            for e1 in term_set(x)
        ]
        assert min(sims) < 0.999


def test_k_rank_never_exceeds_rank():
    gen = rng(14)
    for _ in range(20):
        a = gen.standard_normal((5, int(gen.integers(2, 7))))
        if gen.uniform() < 0.3 and a.shape[1] >= 2:
            a[:, -1] = a[:, 0] * 2.0
        res = k_rank(a)
        assert res.value <= numerical_rank(a)
    # equality on a generic matrix
    a = rng(15).standard_normal((6, 4))
    assert k_rank(a).value == numerical_rank(a) == 4


def test_claimed_statements_consistent_with_solver():
    # where the checker claims overall uniqueness and EVD computability, the
    # solver indeed recovers the generated decomposition
    from btd1 import SolverOptions, decompose as solve

    for dims, sizes in (
        ((3, 9, 10), (1, 2, 3, 4)),
        ((3, 8, 8), (2, 3, 4)),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4)),
    ):
        d = random_btd(dims, sizes, seed=16)
        rep = check_deterministic_uniqueness(d)
        assert rep.statements["S5_overall_unique"]
        assert rep.statements["S2_overall_by_evd"]
        report = solve(compose(d), SolverOptions(seed=0))
        from btd1 import match_decompositions

        _, _, err_a, err_t = match_decompositions(d, report.decomposition)
        assert err_a < 1e-6 and err_t < 1e-6


def test_single_term_report():
    # a single term has an empty complementary block stack: d_1 = K
    d = random_btd((3, 4, 4), (3,), seed=20)
    rep = check_deterministic_uniqueness(d)
    assert rep.assumptions["d_r_positive"] == [True]
    assert rep.necessary["vecE_fcr"]


def test_report_serialization():
    d = random_btd((3, 8, 8), (2, 3, 4), seed=13)
    rep = check_deterministic_uniqueness(d)
    payload = rep.to_dict()
    assert "generic" not in payload
    assert payload["statements"]["S5_overall_unique"] in (True, False, "not_evaluated")
    import json

    json.dumps(payload)


def test_report_notes_the_fold_only_when_it_ran():
    # the 2x8x7 example at tol = 3e-5 has an eigenvalue of Q2^H Q2 the
    # Gram route cannot place, so the refined null vectors rank Q2 (the
    # name predates them, when a QR fold did); at the default tolerance the
    # Gram route decides and the report has no notes
    d = q2_rank_instances()["2x8x7"]
    assert check_deterministic_uniqueness(d).notes == ()
    rep = check_deterministic_uniqueness(d, tol=3e-5)
    folds = [n for n in rep.notes if n.startswith("Q2 rank from the refined null vectors: ")]
    assert len(folds) == 1 and "above the cut" in folds[0]
    t = compose(d)
    formed_null = n_sym(7) - numerical_rank(build_Q2(t), 3e-5)
    assert rep.assumptions["Q2_dim_ok"] is (formed_null == q2_null_dim(uniqueness._d_values(d)))


@pytest.mark.parametrize("name", sorted(q2_rank_instances()))
def test_checker_q2_count_matches_the_formed_matrix(name):
    # the checker ranks Q2 from its Gram matrix without forming it; the
    # verdict is the one a formed Q2 gives
    d = q2_rank_instances()[name]
    t = compose(d)
    k_dim = t.dims[2]
    formed_null = n_sym(k_dim) - numerical_rank(build_Q2(t), DEFAULT_RANK_TOL)
    want = formed_null == q2_null_dim(uniqueness._d_values(d))
    rep = check_deterministic_uniqueness(d)
    assert rep.assumptions["Q2_dim_ok"] is want
