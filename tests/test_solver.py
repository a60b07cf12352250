import hashlib
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

import btd1
from btd1 import (
    BlockTermDecomposition,
    NoiseSpec,
    SolverOptions,
    Tensor3,
    add_noise,
    compose,
    decompose,
    match_decompositions,
    random_btd,
    unfold,
)
from btd1 import sjbd, solver
from btd1.linalg import SolverDiagnostic, numerical_rank, rng
from btd1.minors import q2_null_dim
from btd1.sjbd import cluster_columns
from btd1.solver import (
    candidate_size_tuples,
    default_subsets,
    estimate_L_from_d,
    gevd_two_slice_btd,
    minimal_null_dimension,
    phase1_recover_A,
    phase2_case1,
    phase2_case2,
    phase2_case3,
    _truncated_terms,
)

from helpers import (
    near_degenerate_btd,
    per_column_unfolding_directions,
    phase1_failure,
    shared_columns_instance,
    singular_pencil_instance,
)


def match_a_columns(a_true, a_est):
    """Worst residual after matching estimated columns to true columns up to
    scale (columns are direction estimates)."""
    import scipy.optimize

    nt = a_true / np.linalg.norm(a_true, axis=0)
    ne = a_est / np.linalg.norm(a_est, axis=0)
    corr = np.abs(nt.conj().T @ ne)
    row, col = scipy.optimize.linear_sum_assignment(-corr)
    return float(1.0 - corr[row, col].min())


def test_phase1_3x8x8():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=0)
    t = compose(truth)
    a, _, n, d, diag = phase1_recover_A(t)
    assert diag["Q_used"] == 10
    assert sorted(d) == [1, 2, 3]
    assert match_a_columns(truth.A, a) < 1e-10


def test_phase1_2x8x7_first_factor_despite_nonuniqueness():
    truth = random_btd((2, 8, 7), (3, 3, 3), seed=1)
    t = compose(truth)
    a, _, n, d, diag = phase1_recover_A(t)
    assert diag["Q_used"] == 3
    assert d == (1, 1, 1)
    assert match_a_columns(truth.A, a) < 1e-8


def test_phase1_nr_annihilates_complementary_c_blocks():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=2)
    t = compose(truth)
    a, _, n, d, _ = phase1_recover_A(t)
    offs = np.concatenate([[0], np.cumsum(d)])
    # each estimated block must land in the null space of the complementary
    # C-blocks of some ground-truth term
    c_blocks = [c for _, c in truth.terms]
    for r in range(len(d)):
        n_r = n[:, offs[r] : offs[r + 1]]
        best = np.inf
        for s in range(3):
            z = np.hstack([c_blocks[p] for p in range(3) if p != s]).T
            best = min(best, np.linalg.norm(z @ n_r))
        assert best < 1e-8


def test_phase1_rank1_structure():
    truth = random_btd((3, 9, 10), (1, 2, 3, 4), seed=3)
    t = compose(truth)
    a, _, n, d, _ = phase1_recover_A(t)
    offs = np.concatenate([[0], np.cumsum(d)])
    for r in range(len(d)):
        n_r = n[:, offs[r] : offs[r + 1]]
        cols = [
            (n_r.T @ t.values[i].T).ravel(order="F") for i in range(3)
        ]
        assert numerical_rank(np.column_stack(cols), tol=1e-8) == 1


def test_phase1_scenario2_qmin_and_detection():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=4)
    t = add_noise(compose(truth), NoiseSpec(snr_db=45.0, seed=9))
    opts = SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9, seed=0)
    a, _, n, d, diag = phase1_recover_A(t, opts)
    assert diag["Q_used"] == minimal_null_dimension(3, 6) == 9
    assert sorted(d) == [1, 2, 3]
    assert match_a_columns(truth.A, a) < 1e-2


def test_minimal_null_dimension_3x9x10():
    # nine candidate tuples for sum d = 10 in four parts; smallest count 18
    assert minimal_null_dimension(4, 10) == 18
    assert len(candidate_size_tuples(4, 10, 10)) == 9


def test_minimal_null_dimension_is_the_balanced_split():
    # the closed form against the enumeration of every partition
    from btd1.solver import _partitions

    pairs = 0
    for r in range(1, 9):
        for sum_d in range(r, 41):
            best = min(q2_null_dim(d) for d in _partitions(sum_d, r))
            assert minimal_null_dimension(r, sum_d) == best, (r, sum_d)
            pairs += 1
    assert pairs == 292


def test_phase2_case1_3x9x10():
    truth = random_btd((3, 9, 10), (1, 2, 3, 4), seed=5)
    t = compose(truth)
    a, b, _, _, _ = phase1_recover_A(t)
    est = phase2_case1(t, a, b)
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_a < 1e-8 and err_t < 1e-8


def test_phase2_case1_requires_square():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=6)
    t = compose(truth)
    a, b, _, _, _ = phase1_recover_A(t)
    with pytest.raises(SolverDiagnostic):
        phase2_case1(t, a, b)


def test_phase2_case2_3x8x8_sizes_from_ranks():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=7)
    t = compose(truth)
    a, _, n, d, _ = phase1_recover_A(t)
    est = phase2_case2(t, a)
    assert sorted(est.sizes) == [2, 3, 4]
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_a < 1e-8 and err_t < 1e-8


def test_phase2_case2_shared_columns_r3():
    truth = shared_columns_instance(3, seed=8)
    t = compose(truth)
    rep = decompose(t)
    assert rep.case_used == 2
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-8 and err_t < 1e-8


def test_phase2_case2_rank_deficient_a():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=9)
    t = compose(truth)
    bad_a = np.column_stack([truth.A[:, 0], truth.A[:, 0], truth.A[:, 1]])
    with pytest.raises(SolverDiagnostic):
        phase2_case2(t, bad_a)


def test_phase2_case3_3xJx15_and_subsets():
    truth = random_btd((3, 14, 15), (2, 2, 2, 3, 3, 4), seed=10)
    t = compose(truth)
    a, _, n, d, _ = phase1_recover_A(t)
    est = phase2_case3(t, a)
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_a < 1e-8 and err_t < 1e-8
    subs = default_subsets(6, 3)
    assert all(len(s) == 5 for s in subs)
    assert set().union(*subs) == set(range(6))


def test_phase2_case3_explicit_subset_choice():
    # two overlapping five-element windows, as in the reference experiment
    truth = random_btd((3, 14, 15), (2, 2, 2, 3, 3, 4), seed=31)
    t = compose(truth)
    a, _, n, d, _ = phase1_recover_A(t)
    est = phase2_case3(t, a, subsets=[(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)])
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_a < 1e-8 and err_t < 1e-8


def test_gevd_two_slice_single_term():
    truth = random_btd((2, 6, 6), (3,), seed=11)
    t = compose(truth)
    est = gevd_two_slice_btd(t, seed=0)
    assert est.sizes == (3,)
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_t < 1e-8


def test_gevd_identity_blocks_eigenvalues():
    # B = C = identity blocks: the pencil eigenvalues are the second-row
    # entries with multiplicities L_r
    sizes = (2, 3)
    k = sum(sizes)
    lam = [2.0, -1.0]
    a = np.array([[1.0, 1.0], lam])
    eye = np.eye(k)
    terms = ((eye[:, :2], eye[:, :2]), (eye[:, 2:], eye[:, 2:]))
    truth = BlockTermDecomposition(a, terms)
    t = compose(truth)
    # direct pencil oracle: eig of H2 H1^{-1} has eigenvalues lam with
    # multiplicities sizes
    h1, h2 = t.values[0], t.values[1]
    vals = np.linalg.eigvals(h2 @ np.linalg.inv(h1))
    vals = np.sort(vals.real)
    assert np.allclose(vals, [-1.0, -1.0, -1.0, 2.0, 2.0], atol=1e-10)
    est = gevd_two_slice_btd(t, seed=1)
    assert sorted(est.sizes) == [2, 3]
    _, _, err_a, err_t = match_decompositions(truth, est)
    assert err_t < 1e-8


def test_gevd_random_instance():
    for seed in range(5):
        truth = random_btd((2, 7, 8), (1, 2, 3), seed=seed)
        t = compose(truth)
        est = gevd_two_slice_btd(t, seed=seed)
        assert sorted(est.sizes) == [1, 2, 3]
        _, _, err_a, err_t = match_decompositions(truth, est)
        assert err_t < 1e-8


@pytest.mark.parametrize("second", [[[0.0, 1.0], [0.0, 0.0]], [[2.0, 1.0], [0.0, 2.0]]])
@pytest.mark.parametrize("seed", range(4))
def test_gevd_defective_pencil_raises(second, seed):
    # slices I and a Jordan block: no two-slice decomposition exists, and the
    # pencil's double eigenvalue has a single eigenvector
    t = Tensor3(np.stack([np.eye(2), np.array(second)]))
    with pytest.raises(SolverDiagnostic, match="defective"):
        gevd_two_slice_btd(t, seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_noisy_case3_returns_or_names_the_singular_pencil(seed):
    # the paper's case-3 shape at 50 dB: a run that does not return raises
    # the pencil's named failure, with W_1's rank and cut and Phase I's
    # decisions, never a raw LinAlgError.  The residual is not asserted:
    # the returned runs are still far above the noise level
    dims, sizes = (3, 14, 15), (2, 2, 2, 3, 3, 4)
    t = add_noise(compose(random_btd(dims, sizes, seed=seed)), NoiseSpec(50, seed=seed))
    opts = SolverOptions(mode="noisy_scenario2", known_R=6, known_sum_L=16, seed=seed)
    try:
        rep = decompose(t, opts)
    except SolverDiagnostic as exc:
        assert str(exc) == "pencil combination W_1 is singular"
        details = exc.diagnostics
        assert details["W1_rank"] < details["size"]
        assert 0 < details["W1_cut_ratio"] < 1
        assert {"Q_used", "q2_margin", "sum_d", "sjbd_route", "commutant_dim"} <= set(details)
        assert details["case_considered"] == 3
    else:
        assert rep.case_used == 3
        assert len(rep.detected_L) == 6 and sum(rep.detected_L) == 16


def test_estimate_L_from_d():
    assert estimate_L_from_d((1, 2, 3), 8, 3) == (2, 3, 4)
    assert estimate_L_from_d((1, 2, 3, 4), 10, 4) == (1, 2, 3, 4)
    assert estimate_L_from_d((2, 2), 4, 2) == (2, 2)
    # non-integral increment: K - sum d = 3 over R - 1 = 2
    with pytest.raises(SolverDiagnostic):
        estimate_L_from_d((1, 2, 3), 9, 3)


@pytest.mark.parametrize(
    "dims,sizes,case",
    [
        ((3, 9, 10), (1, 2, 3, 4), 1),
        ((3, 8, 8), (2, 3, 4), 2),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), 3),
    ],
)
def test_decompose_case_selection_and_recovery(dims, sizes, case):
    truth = random_btd(dims, sizes, seed=12)
    t = compose(truth)
    rep = decompose(t)
    assert rep.case_used == case
    assert tuple(sorted(rep.detected_L)) == tuple(sorted(sizes))
    assert rep.detected_R == len(sizes)
    assert rep.residual < 1e-10
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-8 and err_t < 1e-8


def test_decompose_compresses_rank_deficient_third_mode():
    truth = random_btd((3, 9, 14), (1, 2, 3, 4), seed=13)  # K > sum L
    t = compose(truth)
    assert numerical_rank(unfold(t, 3)) == 10
    rep = decompose(t)
    assert rep.diagnostics.get("compressed_K") == 10
    assert rep.residual < 1e-10
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-8 and err_t < 1e-8


def test_decompose_6x20x20_exact():
    # Phase I takes the null spaces of two tall matrices (Q2 is 2850 x 210,
    # the commutant matrix 9500 x 400): about a second with a thin SVD, close
    # to a minute if the SVD builds the full U
    rep = decompose(compose(random_btd((6, 20, 20), (4,) * 5, seed=7)))
    assert rep.detected_L == (4, 4, 4, 4, 4)
    assert rep.residual <= 1e-6


def test_decompose_seed_invariant_structure():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=14)
    t = compose(truth)
    rep1 = decompose(t, SolverOptions(seed=1))
    rep2 = decompose(t, SolverOptions(seed=2))
    assert sorted(rep1.detected_d) == sorted(rep2.detected_d)
    assert rep1.detected_R == rep2.detected_R


def test_decompose_complex_field():
    truth = random_btd((3, 8, 8), (2, 3, 4), field="complex", seed=15)
    t = compose(truth)
    rep = decompose(t)
    assert tuple(sorted(rep.detected_L)) == (2, 3, 4)
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-8 and err_t < 1e-8


def test_decompose_2x8x7_raises_named_diagnostic():
    truth = random_btd((2, 8, 7), (3, 3, 3), seed=16)
    t = compose(truth)
    with pytest.raises(SolverDiagnostic):
        decompose(t)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "dims,sizes,sum_l,width",
    [((2, 10, 6), (2, 2, 3), 7, 6), ((2, 10, 7), (3, 3, 3), 9, 7)],
    ids=["2x10x6", "2x10x7"],
)
def test_case3_names_a_subset_wider_than_min_jk(dims, sizes, sum_l, width, field):
    # the only subset holds all three terms, and their sizes add up to more
    # than the two-slice pencil can separate; this used to surface as a
    # failed reconstruction after the GEVD
    t = compose(random_btd(dims, sizes, field=field, seed=1))
    with pytest.raises(SolverDiagnostic, match=r"sum L_r = \d+ > min\(J, K\)") as info:
        decompose(t)
    details = info.value.diagnostics
    assert (details["subset"], details["sum_L"], details["min_JK"]) == ([0, 1, 2], sum_l, width)
    assert sorted(details["L"]) == sorted(sizes)
    json.dumps(details)


# Phase I's keys that every exact failure after it carries
PHASE1_KEYS = {"Q_used", "sum_d", "sjbd_route", "coupling_margin", "case_considered"}


@pytest.mark.parametrize(
    "dims,sizes,message,phase2_keys",
    [
        ((2, 10, 6), (2, 2, 3), r"sum L_r = 7 > min\(J, K\) = 6", {"subset", "sum_L", "min_JK"}),
        ((2, 7, 6), (1, 2, 2, 2), "block sizes are inconsistent", {"increment", "d", "K"}),
    ],
    ids=["2x10x6", "2x7x6"],
)
def test_exact_phase2_failure_carries_phase1_diagnostics(dims, sizes, message, phase2_keys):
    t = compose(random_btd(dims, sizes, seed=1))
    with pytest.raises(SolverDiagnostic, match=message) as info:
        decompose(t)
    details = info.value.diagnostics
    assert PHASE1_KEYS | phase2_keys <= details.keys()
    assert (details["sjbd_route"], details["case_considered"]) == ("pencil", 3)
    json.dumps(details)


def test_phase2_keys_win_over_phase1_keys(monkeypatch):
    import btd1.solver as solver_module

    def failing_case3(*args, **kwargs):
        raise SolverDiagnostic("case 3 failed", {"sum_d": -1})

    monkeypatch.setattr(solver_module, "phase2_case3", failing_case3)
    with pytest.raises(SolverDiagnostic) as info:
        decompose(compose(random_btd((2, 10, 6), (2, 2, 3), seed=1)))
    assert str(info.value) == "case 3 failed"
    details = info.value.diagnostics
    assert details["sum_d"] == -1
    assert details["Q_used"] == 5 and details["case_considered"] == 3


def _forbid_q2(monkeypatch):
    """Make every binding of ``minors.build_Q2`` in the package raise."""
    from btd1.minors import build_Q2

    def formed(*args, **kwargs):
        raise AssertionError("a package path formed Q2")

    for name, module in list(sys.modules.items()):
        if name == "btd1" or name.startswith("btd1."):
            for attr, value in list(vars(module).items()):
                if value is build_Q2:
                    monkeypatch.setattr(module, attr, formed)
    assert sys.modules["btd1.minors"].build_Q2 is formed


def test_no_package_path_forms_q2(monkeypatch):
    from btd1.gf import verify_generic_q2_dim, verify_phi_full_rank
    from btd1.uniqueness import check_deterministic_uniqueness

    _forbid_q2(monkeypatch)
    for dims, sizes, case in (
        ((3, 9, 10), (1, 2, 3, 4), 1),
        ((3, 8, 8), (2, 3, 4), 2),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), 3),
    ):
        assert decompose(compose(random_btd(dims, sizes, seed=1))).case_used == case
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=1)
    noisy = add_noise(compose(truth), NoiseSpec(snr_db=80.0, seed=2))
    decompose(noisy, SolverOptions(mode="noisy_scenario1"))
    decompose(noisy, SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9))
    assert check_deterministic_uniqueness(truth).assumptions["Q2_dim_ok"]
    assert verify_generic_q2_dim((3, 8, 8), (2, 3, 4)).certified
    assert verify_phi_full_rank(3, 8, 3, (2, 3, 4)).certified


def test_phase1_holds_less_than_q2_at_6x20x20():
    # Q2 is 2850 x 210 (4.8 MB); its null space read from the whole matrix
    # held Q2 and its thin U at once and peaked at 9.9 MB, the row-panel
    # triangle peaks at 3.8 MB
    t = compose(random_btd((6, 20, 20), (4,) * 5, seed=7))
    q2_bytes = 2850 * 210 * 8
    phase1_recover_A(t)  # fills the pair-index caches
    tracemalloc.start()
    try:
        phase1_recover_A(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q2_bytes, peak


@pytest.mark.parametrize(
    "dims, sizes, q_used",
    [((8, 30, 30), (5,) * 6, 90), ((12, 50, 50), (8,) * 7, 21)],
    ids=["8x30x30", "12x50x50"],
)
def test_exact_decompose_of_large_shapes(dims, sizes, q_used):
    # Phase I never forms Q2, which at 12x50x50 is 80,850 x 1,275
    truth = random_btd(dims, sizes, seed=7)
    rep = decompose(compose(truth))
    assert tuple(sorted(rep.detected_L)) == sizes
    assert rep.diagnostics["Q_used"] == q_used
    # Q2's singular values at the Q cut are twelve orders apart
    assert rep.diagnostics["q2_margin"] > 1e10
    assert rep.residual <= 1e-10


def test_decompose_scenario2_noisy_case2():
    from btd1.experiment import ExperimentConfig, draw_instance

    # condition-capped draw, as in the detection experiments
    cfg = ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), num_trials=1)
    truth, t, _ = draw_instance(cfg, 17)
    noisy = add_noise(t, NoiseSpec(snr_db=40.0, seed=3))
    opts = SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9, seed=0)
    rep = decompose(noisy, opts)
    assert rep.case_used == 2
    assert tuple(sorted(rep.detected_L)) == (2, 3, 4)
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 0.05


@pytest.mark.parametrize("field", ["real", "complex"])
def test_partition_by_unfolding_matches_per_column_svds(monkeypatch, field):
    # the stacked SVD hands the clustering each column's left direction bit
    # for bit as one SVD per column does
    seen = []

    def recorded(x, n_clusters):
        seen.append(np.array(x))
        return cluster_columns(x, n_clusters)

    def partition(t, n_full, r_clusters):
        seen.append((t, n_full))
        return partition_by_unfolding(t, n_full, r_clusters)

    partition_by_unfolding = solver._partition_by_unfolding
    monkeypatch.setattr(solver, "cluster_columns", recorded)
    monkeypatch.setattr(solver, "_partition_by_unfolding", partition)
    for dims, sizes, seed in (((3, 8, 8), (2, 3, 4), 1), ((3, 9, 10), (1, 2, 3, 4), 2)):
        t = add_noise(compose(random_btd(dims, sizes, field, seed=seed)), NoiseSpec(35.0, seed=seed))
        opts = SolverOptions(
            mode="noisy_scenario2", known_R=len(sizes), known_sum_L=sum(sizes), seed=seed
        )
        decompose(t, opts)
    assert len(seen) == 4
    for (t, n_full), dirs in zip(seen[::2], seen[1::2]):
        assert np.array_equal(dirs, per_column_unfolding_directions(t, n_full))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scenario2_cpd_refinement_is_deterministic(field):
    truth = random_btd((3, 8, 8), (2, 3, 4), field=field, seed=4)
    t = add_noise(compose(truth), NoiseSpec(snr_db=45.0, seed=9))
    opts = SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9, seed=0)
    rep1, rep2 = decompose(t, opts), decompose(t, opts)
    assert np.array_equal(rep1.decomposition.A, rep2.decomposition.A)
    assert 1 <= rep1.diagnostics["cpd_iters"] <= 500
    for key in ("cpd_iters", "cpd_converged", "cpd_fit"):
        assert rep1.diagnostics[key] == rep2.diagnostics[key]


def test_scenario2_never_forms_the_commutant_matrix(monkeypatch):
    # noisy S-JBD takes the commutant basis from its Gram
    def refuse(v_list):
        raise AssertionError("scenario 2 formed the commutant matrix")

    monkeypatch.setattr(sjbd, "build_commutant_matrix", refuse)
    t = add_noise(compose(random_btd((3, 8, 8), (2, 3, 4), seed=4)), NoiseSpec(35.0, seed=5))
    rep = decompose(t, SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9))
    assert rep.diagnostics["sjbd_route"] == "commutant"


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scenario1_never_forms_the_commutant_matrix(monkeypatch, field):
    # scenario 1's noisy tolerance reads R from the commutant Gram too
    def refuse(v_list):
        raise AssertionError("scenario 1 formed the commutant matrix")

    monkeypatch.setattr(sjbd, "build_commutant_matrix", refuse)
    t = compose(random_btd((3, 8, 8), (2, 3, 4), field, seed=4))
    rep = decompose(add_noise(t, NoiseSpec(50.0, seed=5)), SolverOptions(mode="noisy_scenario1"))
    assert rep.diagnostics["sjbd_route"] == "commutant"
    assert rep.diagnostics["commutant_dim"] == len(rep.detected_d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scenario1_below_the_gram_floor_never_forms_the_commutant_matrix(monkeypatch, seed):
    # a rank tolerance whose square lies below the Gram's rounding is cut at
    # that rounding, on the Gram, and still reads the structure
    def refuse(v_list):
        raise AssertionError("scenario 1 formed the commutant matrix")

    monkeypatch.setattr(sjbd, "build_commutant_matrix", refuse)
    t = compose(random_btd((3, 9, 10), (1, 2, 3, 4), seed=seed))
    rep = decompose(
        add_noise(t, NoiseSpec(120.0, seed=seed + 1)),
        SolverOptions(mode="noisy_scenario1", rank_tol=1e-6),
    )
    assert rep.detected_d == rep.detected_L == (4, 3, 2, 1)
    assert rep.diagnostics["commutant_dim"] == 4


def test_scenario2_at_6x20x20():
    truth = random_btd((6, 20, 20), (4,) * 5, seed=7)
    t = add_noise(compose(truth), NoiseSpec(snr_db=35.0, seed=8))
    rep = decompose(t, SolverOptions(mode="noisy_scenario2", known_R=5, known_sum_L=20))
    assert tuple(sorted(rep.detected_L)) == (4,) * 5


def test_decompose_scenario1_mild_noise():
    # the one threshold must separate the noise floor of the minor matrix
    # from the amplified floor of the commutant matrix; mild noise keeps
    # that window open
    truth = random_btd((3, 9, 10), (1, 2, 3, 4), seed=18)
    t = add_noise(compose(truth), NoiseSpec(snr_db=100.0, seed=4))
    opts = SolverOptions(mode="noisy_scenario1", rank_tol=1e-3, seed=0)
    rep = decompose(t, opts)
    assert tuple(sorted(rep.detected_L)) == (1, 2, 3, 4)
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-3


def test_scenario2_requires_known_values():
    with pytest.raises(ValueError):
        SolverOptions(mode="noisy_scenario2")


@pytest.mark.parametrize(
    "known_r,known_sum_l,match",
    [(0, 9, "known_R"), (-1, 9, "known_R"), (3, 2, "known_sum_L")],
)
def test_scenario2_refuses_impossible_counts(known_r, known_sum_l, match):
    # refused before minimal_null_dimension divides by R
    with pytest.raises(ValueError, match=match):
        SolverOptions(mode="noisy_scenario2", known_R=known_r, known_sum_L=known_sum_l)


def test_decompose_scenario2_compresses_k_above_known_sum_l():
    # K = 10 exceeds the known sum L = 9; the tenth third-mode direction is
    # noise, so the third mode is compressed to 9 columns before Phase I and
    # the third factor refitted to the original tensor
    for seed in range(4):
        truth = random_btd((3, 8, 10), (2, 3, 4), seed=seed)
        t = add_noise(compose(truth), NoiseSpec(snr_db=50.0, seed=seed + 1))
        opts = SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9, seed=seed)
        rep = decompose(t, opts)
        assert tuple(sorted(rep.detected_L)) == (2, 3, 4)
        assert rep.diagnostics["compressed_K"] == 9
        assert rep.diagnostics["sum_d"] == 9
        assert rep.decomposition.dims == (3, 8, 10)
        # the noise is about 3.2e-3 of the tensor at 50 dB
        assert rep.residual < 0.03


@pytest.mark.parametrize("known_r", [1, 2, 3, 4])
def test_decompose_scenario2_refuses_known_sum_l_above_ij(known_r):
    # K = 6 > known sum L = 5 > I J = 4: the third mode cannot be compressed
    # to 5 directions, which used to escape as a raw reshape ValueError
    t = Tensor3(np.random.default_rng(0).standard_normal((2, 2, 6)))
    opts = SolverOptions(mode="noisy_scenario2", known_R=known_r, known_sum_L=5)
    with pytest.raises(SolverDiagnostic, match="known_sum_L = 5 exceeds I J = 4") as info:
        decompose(t, opts)
    assert info.value.diagnostics == {"known_sum_L": 5, "IJ": 4}


@pytest.mark.parametrize(
    "opts",
    [
        SolverOptions(),
        SolverOptions(mode="noisy_scenario1"),
        SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9),
    ],
    ids=["exact", "scenario1", "scenario2"],
)
def test_decompose_zero_tensor_raises_named_diagnostic(opts):
    with pytest.raises(SolverDiagnostic, match="zero tensor"):
        decompose(Tensor3(np.zeros((3, 8, 8))), opts)


def test_decompose_single_term():
    # the minor matrix of a one-term tensor is numerically zero; its rank
    # must be measured against the tensor scale, not its own rounding noise
    for dims, sizes in (((2, 8, 2), (2,)), ((3, 4, 4), (3,)), ((4, 5, 3), (3,))):
        truth = random_btd(dims, sizes, seed=11)
        rep = decompose(compose(truth))
        assert rep.detected_L == sizes
        _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
        assert err_a < 1e-10 and err_t < 1e-10


def test_rank_only_uniqueness_regime_case3():
    # no factor matrix has full column rank: I < R, J < sum L, K < sum L
    truth = random_btd((4, 8, 9), (2, 2, 2, 2, 2), seed=19)
    t = compose(truth)
    rep = decompose(t)
    assert rep.case_used == 3
    _, _, err_a, err_t = match_decompositions(truth, rep.decomposition)
    assert err_a < 1e-7 and err_t < 1e-7


def test_solver_options_rank_tol():
    assert SolverOptions().tol == 1e-8
    assert SolverOptions(mode="noisy_scenario1").tol == 1e-2
    assert SolverOptions(rank_tol=1e-5).tol == 1e-5
    assert SolverOptions(mode="noisy_scenario1", rank_tol=1e-5).tol == 1e-5


@pytest.mark.parametrize("rank_tol", [0.0, -1.0, 1.0, 2.0, float("nan"), float("inf")])
def test_solver_options_refuse_a_rank_tol_outside_0_1(rank_tol):
    # unchecked, 0 and -1 would fail later as "the structural assumption
    # fails" and the rest as "minor matrix has trivial null space"
    with pytest.raises(ValueError, match="rank_tol"):
        SolverOptions(rank_tol=rank_tol)


@pytest.mark.parametrize("mode", ["exact", "noisy_scenario1"])
@pytest.mark.parametrize("name", ["known_R", "known_sum_L"])
def test_solver_options_refuse_known_counts_outside_scenario2(mode, name):
    # only scenario 2 reads them; the other modes would ignore them silently
    with pytest.raises(ValueError, match=name):
        SolverOptions(mode=mode, **{name: 3})


@pytest.mark.parametrize(
    "opts,hint_r,hint_sum_d",
    [
        (SolverOptions(), None, None),
        (SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9), 3, 6),
    ],
    ids=["exact", "scenario2"],
)
def test_phase1_runs_solve_sjbd_once(monkeypatch, opts, hint_r, hint_sum_d):
    import btd1.solver as solver_module

    problems = []
    solve = solver_module.solve_sjbd

    def recording(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(solver_module, "solve_sjbd", recording)
    decompose(compose(random_btd((3, 8, 8), (2, 3, 4), seed=1)), opts)
    assert [(p.hint_R, p.hint_sum_d) for p in problems] == [(hint_r, hint_sum_d)]


def test_scenario1_single_reads_blocks_from_eigenvalue_gaps():
    # with R detected rather than given, Phase I partitions the ungrouped
    # columns of the CPD refinement into the detected R groups
    truth = random_btd((3, 9, 10), (1, 2, 3, 4), seed=2)
    t = add_noise(compose(truth), NoiseSpec(snr_db=50.0, seed=3))
    rep = decompose(t, SolverOptions(mode="noisy_scenario1"))
    assert rep.diagnostics["commutant_dim"] == 2
    assert rep.detected_d == (9, 1)
    # Q = 21 does not fit that grouping, and the diagnostics say so
    assert rep.diagnostics["sjbd_status"].startswith("warning: Q does not match")


@pytest.mark.parametrize(
    "opts,route,refined,grouped",
    [
        (SolverOptions(), "pencil", False, True),
        (SolverOptions(mode="noisy_scenario1"), "commutant", True, False),
        (SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9), "commutant", True, False),
    ],
    ids=["exact", "scenario1", "scenario2"],
)
def test_mode_picks_the_sjbd_route(monkeypatch, opts, route, refined, grouped):
    # exact data takes the pencil, whose blocks come grouped; noisy data
    # takes the commutant with the CPD refinement, whose columns come
    # ungrouped for Phase I to partition, whether R is given or detected
    import btd1.solver as solver_module

    solutions = []
    solve = solver_module.solve_sjbd

    def recording(problem, **kwargs):
        solutions.append(solve(problem, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(solver_module, "solve_sjbd", recording)
    t = compose(random_btd((3, 8, 8), (2, 3, 4), seed=1))
    if opts.noisy:
        t = add_noise(t, NoiseSpec(snr_db=50.0, seed=2))
    diag = phase1_recover_A(t, opts)[4]
    (sol,) = solutions
    assert diag["sjbd_route"] == sol.diagnostics["sjbd_route"] == route
    cpd_keys = {"cpd_status", "cpd_fit", "cpd_iters", "cpd_converged"}
    assert {key for key in diag if key.startswith("cpd_")} == (cpd_keys if refined else set())
    assert (sol.d is not None) == grouped


@pytest.mark.parametrize(
    "opts",
    [
        SolverOptions(),
        SolverOptions(mode="noisy_scenario1"),
        SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9),
    ],
    ids=["exact", "scenario1", "scenario2"],
)
def test_sjbd_diagnostics_reach_the_report(monkeypatch, opts):
    # Phase I merges the S-JBD's diagnostics whole: a key solve_sjbd adds
    # reaches the report with no list of keys in between
    import btd1.solver as solver_module

    solve = solver_module.solve_sjbd

    def tagged(problem, **kwargs):
        sol = solve(problem, **kwargs)
        sol.diagnostics["sentinel"] = 0.5
        return sol

    monkeypatch.setattr(solver_module, "solve_sjbd", tagged)
    t = compose(random_btd((3, 8, 8), (2, 3, 4), seed=1))
    if opts.noisy:
        t = add_noise(t, NoiseSpec(snr_db=50.0, seed=2))
    assert decompose(t, opts).diagnostics["sentinel"] == 0.5


def _documented_diagnostics():
    """The keys in the first column of README's solver-diagnostics table."""
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Solver diagnostics", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M))


def test_every_diagnostics_key_is_documented(monkeypatch):
    # exact (compressed), scenario 1 (with its Q warning), scenario 2
    # (compressed) and the low-margin warning between them emit every key
    import btd1.sjbd as sjbd_module

    def noisy(dims, sizes, seed):
        return add_noise(compose(random_btd(dims, sizes, seed=seed)), NoiseSpec(50.0, seed=seed + 1))

    runs = [
        (compose(random_btd((3, 8, 10), (2, 3, 4), seed=1)), SolverOptions()),
        (noisy((3, 9, 10), (1, 2, 3, 4), 2), SolverOptions(mode="noisy_scenario1")),
        (
            noisy((3, 8, 10), (2, 3, 4), 1),
            SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9),
        ),
    ]
    emitted = set()
    for t, opts in runs:
        emitted |= set(decompose(t, opts).diagnostics)
    monkeypatch.setattr(sjbd_module, "COUPLING_MARGIN_FLOOR", 1e30)
    emitted |= set(decompose(compose(random_btd((3, 8, 8), (2, 3, 4), seed=1))).diagnostics)
    assert emitted == _documented_diagnostics()


def test_truncated_terms():
    gen = np.random.default_rng(3)
    a = np.ones((2, 2))
    m = gen.standard_normal((6, 5))
    # a forced size keeps the best rank-2 factors
    (b, c), _ = _truncated_terms(a, [m, m], (2, 2), 1e-8).terms
    assert b.shape == (6, 2) and c.shape == (5, 2)
    assert numerical_rank(b @ c.T) == 2
    u, s, vh = np.linalg.svd(m)
    assert np.allclose(b @ c.T, (u[:, :2] * s[:2]) @ vh[:2])
    # without sizes each L_r is the numerical rank of E_r, at least 1
    low = gen.standard_normal((6, 3)) @ gen.standard_normal((3, 5))
    est = _truncated_terms(a, [low, np.zeros((6, 5))], None, 1e-8)
    assert est.sizes == (3, 1)
    assert np.allclose(est.term_matrices()[0], low)


_BTD1_DIR = os.path.dirname(btd1.__file__)


def _svd_caller():
    """Innermost btd1 function outside the linalg helpers on the stack,
    comprehension frames skipped."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        path, name = code.co_filename, code.co_name
        if path.startswith(_BTD1_DIR) and not path.endswith("linalg.py") and name[0] != "<":
            return name
        frame = frame.f_back
    return None


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "dims,sizes,case",
    [
        ((3, 9, 10), (1, 2, 3, 4), 1),
        ((3, 8, 10), (2, 3, 4), 1),  # compressed third mode
        ((3, 8, 8), (2, 3, 4), 2),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), 3),
    ],
    ids=["case1", "case1-compressed", "case2", "case3"],
)
def test_decompose_factors_each_matrix_once(monkeypatch, dims, sizes, case, field):
    # every rank decision reads the SVD that gives its basis, factors or
    # inverse, so no matrix is ranked by an SVD and then inverted.  Two
    # repeats are left: the two-slice GEVD's orthonormal basis of an
    # eigenvector group whose rank _check_eigenvectors has checked (sharing
    # it would change the raw eigenvector blocks), and the rank of A, which
    # case selection needs before it calls phase2_case2 and which
    # phase2_case2 checks again as its own precondition
    allowed = {
        ("_check_eigenvectors", "gevd_two_slice_btd"),
        ("_select_case", "phase2_case2"),
    }
    def digest(m):
        m = np.ascontiguousarray(m)
        return hashlib.sha1(repr((m.shape, m.dtype.str)).encode() + m.tobytes()).digest()

    first = {}
    repeats = []

    def recording(factor):
        def recorded(m, *args, **kwargs):
            m = np.asarray(m)
            caller = _svd_caller()
            key, key_t = digest(m), digest(m.T)
            earlier = first.get(key, first.get(key_t))
            if earlier is None:
                first[key] = caller
            elif (earlier, caller) not in allowed:
                repeats.append((m.shape, earlier, caller))
            return factor(m, *args, **kwargs)

        return recorded

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "inv", recording(np.linalg.inv))
    rep = decompose(compose(random_btd(dims, sizes, field=field, seed=1)))
    assert rep.case_used == case
    assert first and repeats == []


# (dims, sizes, detected_d, detected_L, case_used, Q_used, sum_d) of exact
# decompose at seeds 1 and 7, real and complex, as the commutant route found
# them before the pencil route replaced it: the benchmark's exact shape
# ladder plus 6x20x20
STRUCTURE_TABLE = [
    ((3, 8, 8), (2, 3, 4), (3, 2, 1), (4, 3, 2), 2, 10, 6),
    ((3, 9, 10), (1, 2, 3, 4), (4, 3, 2, 1), (4, 3, 2, 1), 1, 20, 10),
    ((3, 14, 15), (2, 2, 2, 3, 3, 4), (3, 2, 2, 1, 1, 1), (4, 3, 3, 2, 2, 2), 3, 15, 10),
    ((3, 8, 10), (2, 3, 4), (4, 3, 2), (4, 3, 2), 1, 19, 9),
    ((4, 12, 12), (3, 3, 3, 3), (3, 3, 3, 3), (3, 3, 3, 3), 1, 24, 12),
    ((6, 20, 20), (4,) * 5, (4,) * 5, (4,) * 5, 1, 50, 20),
]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "dims,sizes,d,l,case,q,sum_d",
    STRUCTURE_TABLE,
    ids=["x".join(map(str, row[0])) for row in STRUCTURE_TABLE],
)
def test_exact_structure_table(dims, sizes, d, l, case, q, sum_d, field, seed):
    t = compose(random_btd(dims, sizes, field=field, seed=seed))
    rep = decompose(t, SolverOptions(seed=seed))
    diag = rep.diagnostics
    assert (rep.detected_d, rep.detected_L, rep.case_used) == (d, l, case)
    assert (diag["Q_used"], diag["sum_d"]) == (q, sum_d)
    assert rep.residual <= 1e-6
    assert diag["sjbd_route"] == "pencil"
    assert diag["coupling_margin"] > 1e4
    # no commutant was computed, so no commutant dimension is reported
    assert "commutant_dim" not in diag


NEAR_DEGENERATE_SHAPES = [
    ((3, 8, 8), (2, 3, 4)),
    ((3, 9, 10), (1, 2, 3, 4)),
    ((3, 14, 15), (2, 2, 2, 3, 3, 4)),
]


@pytest.mark.parametrize(
    "dims,sizes",
    NEAR_DEGENERATE_SHAPES,
    ids=["x".join(map(str, dims)) for dims, _ in NEAR_DEGENERATE_SHAPES],
)
def test_exact_near_degenerate_draws_return_on_the_pencil_or_name_the_failure(dims, sizes):
    # a term scaled down, two columns of A or of B nearly collinear: exact
    # mode returns a pencil decomposition that fits, or a diagnostic; the
    # plain draws return
    variants = [("plain", 0.0), ("scale", 1e-5), ("a_collinear", 1e-6), ("b_collinear", 1e-6)]
    for field in ("real", "complex"):
        for seed in (0, 1):
            for variant, eps in variants:
                t = compose(near_degenerate_btd(dims, sizes, field, seed, variant, eps))
                try:
                    rep = decompose(t)
                except SolverDiagnostic:
                    assert variant != "plain"
                    continue
                assert rep.residual <= 1e-6
                assert rep.diagnostics["sjbd_route"] == "pencil"
                assert "coupling_status" not in rep.diagnostics


def test_exact_decompose_reports_a_singular_pencil(monkeypatch):
    # Phase I fed matrices whose every combination is singular: the pencil's
    # failure is a diagnostic naming its rank and cut, never a raw LinAlgError
    import btd1.solver as solver_module

    v_list = singular_pencil_instance(5, seed=3)
    monkeypatch.setattr(
        solver_module, "symmetric_null_matrices", lambda t, **kwargs: (np.stack(v_list), None)
    )
    with pytest.raises(SolverDiagnostic) as info:
        decompose(compose(random_btd((3, 8, 5), (2, 3), seed=1)))
    assert str(info.value) == "pencil combination W_1 is singular"
    details = info.value.diagnostics
    assert details["sjbd_route"] == "pencil"
    assert (details["W1_rank"], details["size"]) == (2, 3)
    assert 0 <= details["W1_cut_ratio"] < 1e-8
    # Phase I's diagnostics ride along, under the report's names
    assert (details["Q_used"], details["sum_d"]) == (4, 3)
    assert "q2_margin" in details
    assert not {"Q", "subspace_dim"} & set(details)


@pytest.mark.parametrize("kind", ["trivial", "mismatch"])
def test_phase1_failures_name_q_as_the_report_does(kind, monkeypatch):
    t, message, q_used = phase1_failure(kind, monkeypatch)
    with pytest.raises(SolverDiagnostic, match=message) as info:
        decompose(t)
    details = info.value.diagnostics
    assert details["Q_used"] == q_used
    assert not {"Q", "subspace_dim"} & set(details)


def feed_two_matrix_stack(monkeypatch):
    """Feed Phase I two V_q with two 2 x 2 blocks, fewer than the theorem's
    quorum of 3, and return a tensor to run it on."""
    gen = rng(13)
    n = gen.standard_normal((4, 4))
    v = np.zeros((2, 4, 4))
    for q in range(2):
        for blk in (slice(0, 2), slice(2, 4)):
            m = gen.standard_normal((2, 2))
            v[q, blk, blk] = (m + m.T) / 2
    v = n @ v @ n.T
    monkeypatch.setattr(solver, "symmetric_null_matrices", lambda t, **kwargs: (v, None))
    return compose(random_btd((3, 6, 4), (2, 2), seed=0))


def test_phase1_flags_low_matrix_count(monkeypatch):
    # every d summing to K = 4 has sum binom(d_r+1, 2) >= 4, so Phase I's
    # own Q verdict fails whatever the S-JBD groups; scenario 1 never
    # reaches it, since two matrices leave a commutant wider than N (the
    # scenario-1 warning is covered on real data by
    # test_scenario1_single_reads_blocks_from_eigenvalue_gaps)
    t = feed_two_matrix_stack(monkeypatch)
    with pytest.raises(SolverDiagnostic, match="structural assumption fails") as info:
        phase1_recover_A(t)
    assert info.value.diagnostics["Q_used"] == 2
    with pytest.raises(SolverDiagnostic, match="a different number of groups than R"):
        phase1_recover_A(t, SolverOptions(mode="noisy_scenario1"))


def test_noisy_partition_failure_names_its_cause_and_carries_phase1_keys(monkeypatch):
    # the commutant of two V_q is 7-dimensional, wider than N's 4 columns
    t = feed_two_matrix_stack(monkeypatch)
    with pytest.raises(SolverDiagnostic) as info:
        decompose(t, SolverOptions(mode="noisy_scenario1"))
    assert str(info.value) == (
        "column clustering found a different number of groups than R; "
        "R = 7 exceeds the 4 columns of N"
    )
    details = info.value.diagnostics
    assert (details["R"], details["found"]) == (7, 4)
    assert (details["Q_used"], details["commutant_dim"], details["sum_d"]) == (2, 7, 4)
    assert "q2_margin" in details and details["sjbd_route"] == "commutant"


def test_low_coupling_margin_falls_back_with_a_warning(monkeypatch):
    # a margin below the floor keeps the pencil's blocks, bit for bit, and
    # warns that they may mix; the residual check still judges them
    import btd1.sjbd as sjbd_module

    t = compose(random_btd((3, 8, 8), (2, 3, 4), seed=1))
    pencil, pencil_n = decompose(t), phase1_recover_A(t)[2]
    monkeypatch.setattr(sjbd_module, "COUPLING_MARGIN_FLOOR", 1e30)
    rep = decompose(t)
    diag = rep.diagnostics
    assert diag["sjbd_route"] == "pencil"
    assert diag["coupling_status"] == (
        f"warning: pencil coupling margin {diag['coupling_margin']:.1e} is below 1e+30; "
        "its blocks may mix"
    )
    assert diag["coupling_margin"] == pencil.diagnostics["coupling_margin"]
    assert "commutant_dim" not in diag
    assert np.array_equal(phase1_recover_A(t)[2], pencil_n)
    assert rep.detected_d == pencil.detected_d == (3, 2, 1)
    assert np.array_equal(rep.decomposition.A, pencil.decomposition.A)
    for (b, c), (b_0, c_0) in zip(rep.decomposition.terms, pencil.decomposition.terms):
        assert np.array_equal(b, b_0) and np.array_equal(c, c_0)
    assert rep.residual < 1e-10


@pytest.mark.parametrize("field,seed", [("real", 2), ("complex", 0)])
def test_collinear_third_factor_columns_warn_of_a_low_margin(field, seed):
    # C_2's first column 1e-6 from C_1's leaves the pencil a margin between
    # 1e2 and 1e3: its blocks are kept with the warning, and the residual
    # check, which they fail, carries it
    t = compose(near_degenerate_btd((2, 7, 7), (3, 4), field, seed, "c_collinear", 1e-6))
    with pytest.raises(SolverDiagnostic, match="exact-mode reconstruction failed") as info:
        decompose(t)
    details = info.value.diagnostics
    assert details["sjbd_route"] == "pencil"
    assert 1e2 < details["coupling_margin"] < 1e3
    assert details["coupling_status"].startswith("warning: pencil coupling margin")
    assert details["residual"] > 1e-6


def test_exact_failure_names_the_structure_phase1_found():
    # every generic bound fails on this shape; Phase I finds one block of
    # size 1, which the Q check accepts, and the residual check then fails
    t = compose(random_btd((3, 14, 15), (2, 3, 4, 5, 6), seed=1))
    with pytest.raises(SolverDiagnostic, match=r"either the structure Phase I found") as info:
        decompose(t)
    assert "R = 1, d = (1,)" in str(info.value)
    assert "case 2" in str(info.value)
    details = info.value.diagnostics
    assert (details["R"], details["d"], details["Q_used"], details["sum_d"]) == (1, (1,), 1, 1)
