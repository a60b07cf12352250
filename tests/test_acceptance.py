"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary (see conftest).  Tolerances are fixed here and are
not calibrated anywhere else.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from btd1 import (
    SolverOptions,
    Tensor3,
    compose,
    decompose,
    match_decompositions,
    random_btd,
)
from btd1.experiment import ExperimentConfig, run_experiment
from btd1.gf import verify_generic_q2_dim, verify_phi_full_rank
from btd1.linalg import null_space, numerical_rank, rng, split_columns
from btd1.minors import build_Q2, phi_matrix, s2_matrix
from btd1.sjbd import solve_sjbd
from btd1.uniqueness import generic_bounds, parameter_count_S

from helpers import (
    GOLDEN_Q2_3x3x5,
    NUMPY,
    block_subspace_match,
    build_D,
    build_PK,
    build_R2,
    commutation_matrix,
    compound2,
    nonuniqueness_family_2x8x7,
    rank1_membership,
    reconstruction_errors,
    shared_columns_instance,
    golden_integer_instance,
    symprod,
    two_term_alternatives,
)


def test_criterion_1():
    """Golden minor matrix: exact integers, rank 9, null dimension 6, < 1 s."""
    start = time.monotonic()
    d = golden_integer_instance()
    t = compose(d)
    q2_int = build_Q2(t)
    assert q2_int.dtype.kind == "i"
    assert np.array_equal(q2_int, GOLDEN_Q2_3x3x5)
    t_float = Tensor3(t.values.astype(float))
    q2_float = build_Q2(t_float)
    assert np.max(np.abs(q2_float - GOLDEN_Q2_3x3x5)) < 1e-12
    assert numerical_rank(q2_float) == 9
    assert q2_float.shape[1] - numerical_rank(q2_float) == 6
    assert time.monotonic() - start < 1.0


def test_criterion_2():
    """Null-space dimensions of the minor matrix across the reference
    configurations, rank threshold 1e-8, < 30 s total."""
    start = time.monotonic()

    def null_dim(t):
        q2 = build_Q2(t)
        return q2.shape[1] - numerical_rank(q2, tol=1e-8)

    assert null_dim(compose(random_btd((3, 8, 8), (2, 3, 4), seed=21))) == 10
    assert null_dim(compose(random_btd((3, 9, 10), (1, 2, 3, 4), seed=22))) == 20
    assert null_dim(compose(random_btd((3, 9, 15), (2, 2, 2, 3, 3, 4), seed=23))) == 15
    for r in range(3, 9):
        d = shared_columns_instance(r, seed=30 + r)
        assert null_dim(compose(d)) == r
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize(
    "dims,sizes,case",
    [
        ((3, 8, 8), (2, 3, 4), 2),
        ((3, 9, 10), (1, 2, 3, 4), 1),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), 3),
    ],
    ids=["3x8x8-case2", "3x9x10-case1", "3x14x15-case3"],
)
def test_criterion_3(dims, sizes, case):
    """Exact recovery on 20 random instances per configuration: errors below
    1e-6 after matching, correct R and sizes, < 2 min for all three."""
    start = time.monotonic()
    master = rng(hash(dims) % 2**31)
    for trial in range(20):
        seed = int(master.integers(2**31))
        truth = random_btd(dims, sizes, seed=seed)
        t = compose(truth)
        report = decompose(t, SolverOptions(seed=seed))
        assert report.case_used == case
        assert report.detected_R == len(sizes)
        assert tuple(sorted(report.detected_L)) == tuple(sorted(sizes))
        _, _, err_a, err_t = match_decompositions(truth, report.decomposition)
        assert err_a < 1e-6
        assert err_t < 1e-6
    assert time.monotonic() - start < 120.0


def test_criterion_4():
    """50 random exact S-JBD instances with K <= 10 and mixed block sizes
    (unit blocks included): reconstruction < 1e-8 and block subspaces within
    principal angle 1e-6 of the ground truth."""
    import scipy.linalg

    patterns = [
        (1, 2),
        (1, 1, 3),
        (2, 2),
        (1, 2, 3),
        (2, 3),
        (1, 1, 1),
        (3, 3),
        (1, 3),
        (2, 2, 2),
        (1, 1, 2),
    ]
    gen_master = rng(77)
    for trial in range(50):
        d = patterns[trial % len(patterns)]
        extra = trial % 3  # K > sum d every third instance
        k = min(sum(d) + extra, 10)
        seed = int(gen_master.integers(2**31))
        gen = rng(seed)
        n_true = gen.standard_normal((k, sum(d)))
        q = sum(x * (x + 1) // 2 for x in d)
        v_list = []
        for _ in range(q):
            blocks = [
                (lambda m: (m + m.T) / 2)(gen.standard_normal((x, x))) for x in d
            ]
            v_list.append(n_true @ scipy.linalg.block_diag(*blocks) @ n_true.T)
        n, d_found, _ = solve_sjbd(v_list, seed=seed)
        assert sorted(d_found) == sorted(d)
        assert reconstruction_errors(n, d_found, v_list).max() < 1e-8
        offs = np.concatenate([[0], np.cumsum(d)])
        true_blocks = [n_true[:, offs[r] : offs[r + 1]] for r in range(len(d))]
        assert block_subspace_match(split_columns(n, d_found), true_blocks) < 1e-6


@pytest.mark.parametrize(
    "dims,sizes",
    [((3, 8, 8), (2, 3, 4)), ((3, 9, 10), (1, 2, 3, 4))],
    ids=["3x8x8", "3x9x10"],
)
def test_criterion_5(dims, sizes):
    """Scenario-II Monte Carlo, 100 condition-capped trials: the correct
    size tuple is detected at least 90 times at every SNR >= 35 dB and the
    median error on the first factor matrix at 50 dB is below 1e-2.
    Both configurations together run in well under 15 minutes."""
    start = time.monotonic()
    config = ExperimentConfig(
        dims=dims,
        sizes=sizes,
        snr_grid=(35.0, 50.0),
        num_trials=100,
        cond_cap=10.0,
        evd_variant="cpd",
        omega=2.0,
        seed=2024,
    )
    result = run_experiment(config)
    correct = tuple(sorted(sizes))
    for snr in config.snr_grid:
        assert result.frequencies[snr].get(correct, 0) >= 90, (
            snr,
            result.frequencies[snr],
        )
    assert float(np.median(result.errors_a[50.0])) < 1e-2
    assert time.monotonic() - start < 15 * 60 / 2


def test_criterion_6():
    """Generic-bound checkers on the wide reference configuration and the
    parameter count of the nonunique example."""
    for r in range(2, 50):
        sizes = [1] * (r - 1) + [2]
        rows = generic_bounds((8, 8, 50), sizes)
        assert rows["row3"] == (r <= 8)
        assert rows["row8"] == (r <= 48)
    s, ijk, ok = parameter_count_S((2, 8, 7), (3, 3, 3))
    assert (s, ijk, ok) == (111, 112, True)


def test_criterion_7():
    """Finite-field certification: the two reference configurations certify,
    the three exception tuples do not reach full column rank, and ten
    sampled non-exception configurations with max(I, J) <= 5 certify.
    Runs in < 5 min."""
    start = time.monotonic()
    res = verify_generic_q2_dim((3, 3, 5), (1, 1, 1, 2), seed=1)
    assert res.certified
    res = verify_generic_q2_dim((2, 8, 7), (3, 3, 3), seed=1)
    assert res.certified
    for i_dim, r in ((2, 3), (4, 9), (5, 12)):
        sizes = [1] * (r - 1) + [4]
        res = verify_phi_full_rank(i_dim, 5, r, sizes, trials=3, seed=2)
        assert res.verdict == "inconclusive"
        assert res.witnessed_rank < res.expected
    non_exceptions = [
        (2, 3, (1, 1)),
        (2, 4, (1, 1)),
        (2, 5, (1, 2)),
        (3, 3, (1, 1)),
        (3, 4, (1, 1, 1)),
        (3, 5, (2, 2)),
        (4, 4, (1, 1, 2)),
        (4, 5, (1, 2, 2)),
        (5, 5, (2, 3)),
        (5, 4, (1, 1, 1, 1)),
    ]
    assert len(non_exceptions) == 10
    for i_dim, j_dim, sizes in non_exceptions:
        assert max(i_dim, j_dim) <= 5
        res = verify_phi_full_rank(i_dim, j_dim, len(sizes), sizes, seed=3)
        assert res.certified, (i_dim, j_dim, sizes, res.verdict)
    assert time.monotonic() - start < 300.0


def test_criterion_8():
    """Nonuniqueness witnesses: the two-parameter family reconstructs the
    canonical 2 x 8 x 7 tensor with every term of numerical rank at most 3;
    the closed-form alternatives of the two-term tensor reconstruct it."""
    gen = rng(88)
    for trial in range(10):
        p1, p2 = gen.standard_normal(2)
        alt, t_hat, e_mats = nonuniqueness_family_2x8x7(p1, p2, seed=trial)
        err = np.linalg.norm(compose(alt).values - t_hat.values) / np.linalg.norm(
            t_hat.values
        )
        assert err < 1e-10
        for e in e_mats:
            worst = max(
                abs(np.linalg.det(e[list(rows)][:, list(cols)]))
                for rows in combinations(range(8), 4)
                for cols in combinations(range(7), 4)
            )
            assert worst < 1e-10
    args = [gen.standard_normal(5) for _ in range(2)]
    args += [gen.standard_normal(6) for _ in range(4)]
    args += [gen.standard_normal(6) for _ in range(4)]
    t2, _, alt1, alt2 = two_term_alternatives(*args)
    for alt in (alt1, alt2):
        err = np.linalg.norm(compose(alt).values - t2.values) / np.linalg.norm(
            t2.values
        )
        assert err < 1e-12


def test_criterion_9():
    """Algebraic identity suite, 100+ randomized cases per identity."""
    gen = rng(99)

    # R2 = Q2 PK.T on random tensors up to 4 x 5 x 6
    for _ in range(100):
        dims = (
            int(gen.integers(2, 5)),
            int(gen.integers(2, 6)),
            int(gen.integers(1, 7)),
        )
        t = Tensor3(gen.standard_normal(dims))
        q2 = build_Q2(t)
        assert np.allclose(
            build_R2(t), q2 @ build_PK(dims[2]).T, atol=1e-12 * max(1.0, np.linalg.norm(q2))
        )

    # D maps a null basis of Q2 into the symmetric null space of R2
    for seed in range(100):
        d = random_btd((3, 4, 5), (1, 2), seed=seed)
        t = compose(d)
        r2 = build_R2(t)
        g = null_space(build_Q2(t), tol=1e-8)
        v = build_D(5) @ g
        assert np.linalg.norm(r2 @ v) < 1e-8 * max(np.linalg.norm(r2), 1.0)
        p = commutation_matrix(5)
        sym_null = np.vstack([r2, np.eye(25) - p])
        from btd1.linalg import null_space as ns

        target = ns(sym_null, tol=1e-8)
        assert target.shape[1] == g.shape[1]
        assert numerical_rank(np.hstack([v, target]), tol=1e-8) == g.shape[1]

    # Q2 = Phi S2.T
    for seed in range(100):
        sizes = [(1, 2), (2, 2), (1, 1, 2), (2, 3)][seed % 4]
        d = random_btd((3, 5, 6), sizes, seed=seed)
        q2 = build_Q2(compose(d))
        phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
        s2 = s2_matrix([c for _, c in d.terms], NUMPY)
        assert np.linalg.norm(phi @ s2.T - q2) < 1e-10 * max(np.linalg.norm(q2), 1.0)

    # Binet-Cauchy for the second compound matrix
    for _ in range(100):
        y = gen.standard_normal((5, 4))
        b = gen.standard_normal((4, 3))
        assert np.allclose(compound2(y) @ compound2(b), compound2(y @ b), atol=1e-10)

    # P_n (x sym y) = x kron y + y kron x
    for trial in range(100):
        n = 2 + trial % 5
        pn = build_PK(n)
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        assert np.allclose(pn @ symprod(x, y), np.kron(x, y) + np.kron(y, x), atol=1e-12)

    # the two rank-one membership implementations agree
    d = random_btd((3, 6, 7), (2, 3), seed=7)
    t = compose(d)
    from btd1.linalg import null_space as ns

    n0 = ns(d.terms[0][1].T)
    n1 = ns(d.terms[1][1].T)
    for trial in range(200):
        if trial % 3 == 0:
            basis = n0 if trial % 2 else n1
            f = basis @ gen.standard_normal(basis.shape[1])
        else:
            f = gen.standard_normal(7)
        direct, via = rank1_membership(t, f, return_both=True)
        assert direct == via
