import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import btd1
from btd1.experiment import (
    ExperimentConfig,
    ExperimentResult,
    cond_screen,
    draw_instance,
    run_experiment,
)
from btd1.linalg import DimensionError, cond, khatri_rao, rng
from btd1.solver import candidate_size_tuples
from btd1.tensor import compose_values
from btd1 import compose, random_btd, unfold

from helpers import lstsq_cpd_als, reference_draw_instance, solve_cpd_als


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
        # the first chunk of 4, the first of the second chunk, the chunk of
        # 16, the chunk of 128.  Then a chunk whose first draw passes the
        # screen and is rejected by the first unfolding's SVD test, and a
        # seed below 2**32 whose accepted sub-seed is above it.  Then both
        # sides of the edges 8 and 128 between chunks, and 256, the first
        # draw of the second block of SEED_BLOCK sub-seeds.
        (
            (3, 8, 8),
            (2, 3, 4),
            {
                4: 0,
                0: 3,
                6: 4,
                5: 26,
                3: 188,
                1749: 4,
                2**32 - 1_000_003: 3,
                2: 7,
                113: 8,
                596: 127,
                60: 128,
                1505: 256,
            },
        ),
        # the last draw of the first block and the first of the second,
        # and the same edge between the second block and the third
        ((3, 9, 10), (1, 2, 3, 4), {1135: 0, 1410: 255, 479: 256, 182: 511, 198: 512}),
        # IJ < K: the screen forms the IJ x IJ Gram matrix W (C^T C) W^T
        ((2, 3, 8), (3, 3), {1: 16, 4: 239}),
    ],
    ids=["3x8x8", "3x9x10", "2x3x8"],
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


def screen_factors(a, terms):
    """The factors :func:`cond_screen` reads from a stack of draws: A with
    column r repeated L_r times, [B_1 ... B_R] and [C_1 ... C_R]."""
    sizes = [b.shape[-1] for b, _ in terms]
    b, c = (np.concatenate(f, axis=-1) for f in zip(*terms))
    return a[..., np.repeat(np.arange(len(sizes)), sizes)], b, c


def test_screen_survivor_can_fail_the_svd_tests():
    # the first draw of seed 1749 (the case above) passes the screen and the
    # third unfolding's SVD test; only the first unfolding's test rejects it
    cfg = ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), cond_cap=10.0)
    truth = random_btd(cfg.dims, cfg.sizes, seed=1749)
    t = compose(truth)
    terms = [(b[None], c[None]) for b, c in truth.terms]
    assert cond_screen(*screen_factors(truth.A[None], terms), cfg.cond_cap)[0]
    assert cond(unfold(t, 3)) <= cfg.cond_cap < cond(unfold(t, 1))


def capped_factors(gen, dims, sizes, target, tilt):
    """Factors A, [B_1 ... B_R], [C_1 ... C_R] whose third unfolding
    W C^T has singular values spread geometrically to cond = ``target``:
    with W = QR and O, V random orthonormal, C^T = R^-1 O S V^T, so that
    W C^T = (Q O) S V^T.  The last column of B is the one before it plus
    ``tilt`` times a random column; both belong to the last term, so a
    small tilt makes two columns of W nearly parallel and cond(W) large,
    and C cancels it."""
    i_dim, j_dim, k_dim = dims
    s_sum, rank = sum(sizes), min(i_dim * j_dim, k_dim)
    a = gen.standard_normal((i_dim, len(sizes)))
    b = gen.standard_normal((j_dim, s_sum))
    b[:, -1] = b[:, -2] + tilt * b[:, -1]
    r_w = np.linalg.qr(khatri_rao(a[:, np.repeat(np.arange(len(sizes)), sizes)], b))[1]
    o = np.linalg.qr(gen.standard_normal((s_sum, rank)))[0]
    v = np.linalg.qr(gen.standard_normal((k_dim, rank)))[0]
    s = np.geomspace(1.0, 1.0 / target, rank) * gen.uniform(0.1, 10.0)
    return a, b, (np.linalg.solve(r_w, o * s) @ v.T).T


@pytest.mark.parametrize("cap", [1.5, 10.0, 1e4, 1e7])
@pytest.mark.parametrize(
    "shapes",
    [[((3, 9, 10), (1, 2, 3, 4)), ((3, 8, 8), (2, 3, 4))], [((2, 3, 8), (3, 3))]],
    ids=["tall", "wide"],
)
def test_cond_screen_passes_every_matrix_within_the_cap(cap, shapes):
    # draws built from factors with cond = cap * (1 + e) for e = +-1e-9 and
    # +-1e-2, on K = sum L and K < sum L where K <= IJ (tall) and on IJ < K
    # (wide): every one whose composed tensor's SVD condition number is
    # within the cap passes, and the screen drops those 1% over a cap small
    # enough for its margin.  Five of each 25 have cond(W) >= 1e3; on the
    # wide shape the factor-side products then move lam_min by up to about
    # 1e-6 lam_max, far past SCREEN_TOL * lam_max, and only the screen's
    # rounding term keeps those within the cap.
    gen = rng(11)
    for dims, sizes in shapes:
        conds = np.repeat(cap * (1 + np.array([-1e-2, -1e-9, 1e-9, 1e-2])), 25)
        tilted = np.arange(conds.size) % 25 >= 20
        draws = [
            capped_factors(gen, dims, sizes, target, 1e-3 if tilt else 1.0)
            for target, tilt in zip(conds, tilted)
        ]
        a, b, c = (np.array(f) for f in zip(*draws))
        terms = list(zip(*(np.split(f, np.cumsum(sizes)[:-1], axis=-1) for f in (b, c))))
        a_exp = screen_factors(a, terms)[0]
        assert all(cond(khatri_rao(x, y)) >= 1e3 for x, y in zip(a_exp[tilted], b[tilted]))
        t = compose_values(a, terms)
        passed = cond_screen(a_exp, b, c, cap)
        within = cond(unfold(t, 3)) <= cap
        assert within[:25].all() and passed[within].all()
        if cap <= 10.0:
            assert not passed[conds > cap * 1.001].any()
        # a singular C leaves the other verdicts as they were, and is dropped
        # where the cap is small enough for the margin
        singular = c[0].copy()
        singular[: dims[2] - min(dims[0] * dims[1], dims[2]) + 1] = 0.0
        passed_too = cond_screen(
            np.concatenate([a_exp, a_exp[:1]]),
            np.concatenate([b, b[:1]]),
            np.concatenate([c, singular[None]]),
            cap,
        )
        assert np.array_equal(passed_too[:-1], passed)
        assert not passed_too[-1] or cap > 10.0


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


def _criterion5_3x8x8(snr_grid, num_trials):
    return ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=snr_grid, num_trials=num_trials, seed=2024
    )


def test_refinement_ends_stalled_runs_lower(monkeypatch):
    # trials 3, 25 and 39 of criterion 5's 3x8x8 sequence at 35 dB: plain
    # ALS crawls for all 500 sweeps on each, its fit still falling
    import btd1.sjbd as sjbd

    calls = []

    def recorded(tensor, init):
        out = real_cpd_als(tensor, init)
        calls.append((tensor, init, out))
        return out

    real_cpd_als = sjbd.cpd_als
    monkeypatch.setattr(sjbd, "cpd_als", recorded)
    run_experiment(_criterion5_3x8x8((35.0,), 40))
    converged = []
    for trial in (3, 25, 39):
        tensor, init, (_factors, fit, conv, _sweeps) = calls[trial]
        _plain, plain_fit, plain_conv, plain_sweeps = lstsq_cpd_als(
            tensor, init, extrapolate=False
        )
        assert (plain_conv, plain_sweeps) == (False, 500)
        assert fit <= plain_fit, trial
        converged.append(conv)
    assert any(converged)


def test_cpd_als_matches_solve_reference_on_criterion5_trials(monkeypatch):
    # the refinements of the first 8 trials of criterion 5's 3x8x8 sequence,
    # at both levels: bit for bit those of np.linalg.solve and np.linalg.norm
    import btd1.sjbd as sjbd

    inputs = []

    def recorded(tensor, init):
        inputs.append((tensor.copy(), tuple(f.copy() for f in init)))
        return real_cpd_als(tensor, init)

    real_cpd_als = sjbd.cpd_als
    monkeypatch.setattr(sjbd, "cpd_als", recorded)
    run_experiment(_criterion5_3x8x8((35.0, 50.0), 8))
    assert len(inputs) == 16
    for tensor, init in inputs:
        (a, c, b), fit, converged, sweeps = real_cpd_als(tensor, init)
        (a_r, c_r, b_r), fit_r, converged_r, sweeps_r = solve_cpd_als(tensor, init)
        assert all(np.array_equal(x, y) for x, y in ((a, a_r), (c, c_r), (b, b_r)))
        assert (fit, converged, sweeps) == (fit_r, converged_r, sweeps_r)


def test_refinement_sweep_counts_on_criterion5_trials(monkeypatch):
    # the first 30 trials of criterion 5's 3x8x8 sequence: plain ALS ran
    # 6,594 sweeps and left 5 refinements unconverged; the extrapolated
    # refinement runs 3,942 and leaves 4.  The one miss, trial 21 at 35 dB,
    # is the plain run's miss too.
    import btd1.experiment as exp

    outcomes = []

    def recorded(noisy, opts):
        report = real_decompose(noisy, opts)
        outcomes.append((report.diagnostics["cpd_iters"], tuple(sorted(report.detected_L))))
        return report

    real_decompose = exp.decompose
    monkeypatch.setattr(exp, "decompose", recorded)
    result = run_experiment(_criterion5_3x8x8((35.0, 50.0), 30))
    assert len(outcomes) == 60 and not result.failure_causes
    assert sum(sweeps for sweeps, _ in outcomes) < 5000
    assert result.unconverged_refinements <= 4
    misses = {(i // 2, (35, 50)[i % 2]) for i, (_, tup) in enumerate(outcomes) if tup != (2, 3, 4)}
    assert misses <= {(21, 35)}


def test_trials_deterministic():
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(40.0,), num_trials=2, seed=9
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.frequencies == r2.frequencies
    assert np.array_equal(r1.errors_a[40.0], r2.errors_a[40.0])


def _result(errors):
    cfg = ExperimentConfig(
        dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=tuple(float(k) for k in errors), num_trials=1
    )
    return ExperimentResult(
        config=cfg,
        candidates=(),
        frequencies={},
        errors_a={float(k): v for k, v in errors.items()},
        errors_terms={float(k): v[::-1] for k, v in errors.items()},
        rejected_draws=0,
    )


def test_error_rows_medians_match_numpy():
    gen = rng(3)
    errors = {n: list(gen.random(n) * 10.0 ** gen.integers(-6, 1, n)) for n in range(1, 9)}
    errors[9] = [0.5, float("nan"), 0.1]
    errors[10] = [0.25, 0.25, 1e-3, 7.0]
    with pytest.warns(RuntimeWarning):
        # the empty list: the mean warns and both statistics read nan
        rows = _result({**errors, 11: []}).error_rows()
    for n, row in zip([*errors, 11], rows[1:]):
        ea = np.array(errors.get(n, []), dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = (repr(float(np.median(ea))), repr(float(np.median(ea[::-1]))))
        assert (row[2], row[4]) == want


def test_error_rows_leave_numpy_ma_unloaded():
    # np.median imports numpy.ma on its first call in a process
    code = textwrap.dedent(
        """
        import sys
        from btd1.experiment import ExperimentConfig, ExperimentResult
        cfg = ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(35.0,), num_trials=1)
        res = ExperimentResult(cfg, (), {}, {35.0: [0.3, 0.1]}, {35.0: [0.2]}, 0)
        assert res.error_rows()[1][2] == repr(0.2), res.error_rows()
        assert "numpy.ma" not in sys.modules
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(btd1.__file__).resolve().parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
