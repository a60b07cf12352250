import math

import numpy as np

from btd1.experiment import ExperimentConfig, draw_instance, run_experiment
from btd1.linalg import cond
from btd1.solver import candidate_size_tuples
from btd1 import unfold


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


def test_trials_deterministic():
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(40.0,), num_trials=2, seed=9
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.frequencies == r2.frequencies
    assert np.array_equal(r1.errors_a[40.0], r2.errors_a[40.0])
