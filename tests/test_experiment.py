import math

import numpy as np
import pytest

from btd1.experiment import ExperimentConfig, draw_instance, run_experiment
from btd1.linalg import DimensionError, cond, rng
from btd1.solver import candidate_size_tuples
from btd1 import unfold

from helpers import reference_draw_instance


def test_candidate_tuples_3x8x8():
    cands = candidate_size_tuples(3, 8, 9)
    assert set(cands) == {(2, 2, 5), (2, 3, 4), (3, 3, 3)}


def test_candidate_tuples_3x9x10_count():
    assert len(candidate_size_tuples(4, 10, 10)) == 9


def test_draw_instance_respects_cap():
    cfg = ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), num_trials=1, cond_cap=10.0)
    for seed in (0, 17, 123):
        _, t, _ = draw_instance(cfg, seed)
        assert max(cond(unfold(t, 1)), cond(unfold(t, 3))) <= 10.0


@pytest.mark.parametrize(
    "dims,sizes,extra_seeds",
    [
        # 0, 3, 4, 26 and 188 rejections: the first sub-seed, the last of
        # the first chunk of 4, the first of the second chunk, the third
        # chunk, a chunk past the doubling
        ((3, 8, 8), (2, 3, 4), {4: 0, 0: 3, 6: 4, 5: 26, 3: 188}),
        ((3, 9, 10), (1, 2, 3, 4), {1135: 0}),
    ],
    ids=["3x8x8", "3x9x10"],
)
def test_draw_instance_matches_reference(dims, sizes, extra_seeds):
    # the first trial seeds of criterion 5, on 3x9x10 three of them reject
    # more than 1000 draws each, then seeds accepted at chunk edges
    cfg = ExperimentConfig(dims=dims, sizes=sizes, cond_cap=10.0, seed=2024)
    master = rng(cfg.seed)
    seeds = [int(master.integers(2**31)) for _ in range(5)] + list(extra_seeds)
    rejections = []
    for seed in seeds:
        truth, t, rejected = draw_instance(cfg, seed)
        ref_truth, ref_t, ref_rejected = reference_draw_instance(cfg, seed)
        assert rejected == ref_rejected
        assert np.array_equal(t.values, ref_t.values)
        assert np.array_equal(truth.A, ref_truth.A)
        for (b, c), (ref_b, ref_c) in zip(truth.terms, ref_truth.terms):
            assert np.array_equal(b, ref_b) and np.array_equal(c, ref_c)
        rejections.append(rejected)
    assert rejections[5:] == list(extra_seeds.values())
    if dims == (3, 9, 10):
        assert sum(r > 1000 for r in rejections[:5]) >= 3


def test_config_rejects_impossible_sizes():
    with pytest.raises(DimensionError):
        ExperimentConfig(dims=(3, 8, 8), sizes=(0, 3))
    with pytest.raises(DimensionError):
        ExperimentConfig(dims=(3, 8, 8), sizes=(2, 9))


@pytest.mark.parametrize(
    "dims, sizes, cap",
    [
        ((3, 8, 10), (2, 3, 4), 10.0),
        ((4, 8, 8), (2, 3), 10.0),
        ((3, 8, 8), (2, 3, 4), 0.5),
        ((3, 8, 8), (2, 3, 4), math.nan),
    ],
    ids=["sum-L-below-K", "R-below-I", "cap-below-1", "cap-nan"],
)
def test_config_rejects_caps_that_no_draw_meets(dims, sizes, cap):
    # draw_instance would redraw forever on each of these
    with pytest.raises(ValueError):
        ExperimentConfig(dims=dims, sizes=sizes, cond_cap=cap)


def test_config_rejects_unknown_evd_variant():
    with pytest.raises(ValueError, match="evd_variant"):
        ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), evd_variant="foo")


def test_config_accepts_only_the_cpd_weight():
    # the noisy trials always run the CPD refinement at its fixed weight
    ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), evd_variant="cpd", omega=2.0)
    with pytest.raises(ValueError, match="evd_variant"):
        ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), evd_variant="single")
    with pytest.raises(ValueError, match="omega"):
        ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), omega=3.0)


@pytest.mark.parametrize("snr", [math.nan, -math.inf], ids=["nan", "minus-inf"])
def test_config_rejects_snr_that_is_not_a_level(snr):
    with pytest.raises(ValueError, match="SNR"):
        ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(45.0, snr))


def test_exact_grid_sentinel_and_schema(tmp_path):
    cfg = ExperimentConfig(
        dims=(3, 8, 8),
        sizes=(2, 3, 4),
        snr_grid=(math.inf,),
        num_trials=3,
        seed=5,
    )
    result = run_experiment(cfg)
    assert result.frequencies[math.inf] == {(2, 3, 4): 3}
    assert max(result.errors_a[math.inf]) < 1e-8
    rows = result.frequency_rows()
    assert rows[0] == ["L_tuple", "inf"]
    assert len(rows) == 1 + 3  # header + the three candidate tuples
    freq_path = tmp_path / "f.csv"
    err_path = tmp_path / "e.csv"
    result.write_csv(freq_path, err_path)
    assert freq_path.read_text().splitlines()[0] == "L_tuple,inf"


def test_solver_failures_are_absorbed(monkeypatch):
    import btd1.experiment as exp
    from btd1.linalg import SolverDiagnostic

    calls = {"n": 0}

    def flaky(noisy, opts):
        calls["n"] += 1
        if calls["n"] == 1:
            raise np.linalg.LinAlgError("synthetic LinAlgError")
        if calls["n"] == 2:
            raise SolverDiagnostic("synthetic diagnostic", {})
        return real_decompose(noisy, opts)

    real_decompose = exp.decompose
    monkeypatch.setattr(exp, "decompose", flaky)
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(40.0,), num_trials=3, seed=2
    )
    result = run_experiment(cfg)
    assert result.solver_failures == 2
    assert result.failure_causes == {"synthetic LinAlgError": 1, "synthetic diagnostic": 1}
    assert sum(result.frequencies[40.0].values()) == 1
    assert len(result.errors_a[40.0]) == 3


def test_unconverged_refinements_are_counted(monkeypatch):
    import btd1.experiment as exp

    diagnostics = []

    def recorded(noisy, opts):
        report = real_decompose(noisy, opts)
        diagnostics.append(report.diagnostics)
        return report

    real_decompose = exp.decompose
    monkeypatch.setattr(exp, "decompose", recorded)
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(35.0,), num_trials=3, seed=2
    )
    result = run_experiment(cfg)
    assert len(diagnostics) == 3
    assert all(1 <= d["cpd_iters"] <= 500 for d in diagnostics)
    assert result.unconverged_refinements == sum(not d["cpd_converged"] for d in diagnostics)


def test_trials_deterministic():
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(40.0,), num_trials=2, seed=9
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.frequencies == r2.frequencies
    assert np.array_equal(r1.errors_a[40.0], r2.errors_a[40.0])
