"""The benchmark's workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``setup`` builds the inputs from the seed
and makes one untimed warm-up call; ``run_round`` runs one fixed round of
operations, times each one, and checks its output.

A run makes whole rounds, as many as ``--seconds`` holds at the workload's
nominal ``ROUND_SECONDS`` (one round at least).  The count depends on
``--seconds`` alone, not on how fast the machine happens to be, so every
run attempts the same operations, cold first round included.

The program's functions are looked up through their modules at call time
(``solver.decompose``), so that a traced run sees the same calls.
"""

import time

import numpy as np

from btd1 import experiment, gf, solver, tensor, uniqueness
from btd1.linalg import SolverDiagnostic

import checks


class Tally:
    """What a run did: operation times, attempted and failed counts, the
    problems the checks found, and notes for the result file."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []

    def begin_op(self, index):
        if self.tracer is not None:
            self.tracer.op = index


def rounds_for(workload, seconds):
    return max(1, round(seconds / workload.ROUND_SECONDS))


def instance_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _label(dims, sizes, field=None):
    text = "x".join(map(str, dims)) + " (" + ",".join(map(str, sizes)) + ")"
    return f"{text} {field}" if field else text


class ExactLadder:
    """Exact-mode ``decompose`` on noise-free tensors, round-robin over a
    fixed shape ladder.  One operation is one ``decompose`` call.

    The ladder has an odd length so that the median operation falls in the
    middle of one shape's times (3x9x10 real), not between two shapes.
    """

    LADDER = (
        ((3, 8, 8), (2, 3, 4), "real"),  # paper case 2
        ((3, 9, 10), (1, 2, 3, 4), "real"),  # paper case 1
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), "real"),  # paper case 3
        ((3, 8, 10), (2, 3, 4), "real"),  # K > sum L: compress_third_mode runs
        ((3, 8, 8), (2, 3, 4), "complex"),
        ((3, 9, 10), (1, 2, 3, 4), "complex"),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), "complex"),
        ((3, 8, 10), (2, 3, 4), "complex"),
        ((4, 12, 12), (3, 3, 3, 3), "real"),  # mid-size Phase I
    )
    ROUND_SECONDS = 6.5

    def __init__(self, seed):
        self.seed = seed
        self.cases = []

    def setup(self):
        for idx, (dims, sizes, field) in enumerate(self.LADDER):
            truth = tensor.random_btd(dims, sizes, field=field, seed=instance_seed(self.seed, idx))
            self.cases.append((_label(dims, sizes, field), truth, tensor.compose(truth)))
        solver.decompose(self.cases[0][2])

    def run_round(self, tally):
        for label, truth, t in self.cases:
            tally.begin_op(len(tally.op_times))
            start = time.perf_counter()
            try:
                report = solver.decompose(t)
            except SolverDiagnostic as exc:
                report = None
                tally.notes.append(f"{label}: {exc}")
            tally.op_times.append(time.perf_counter() - start)
            tally.attempted += 1
            if report is None:
                tally.failed += 1
                continue
            tally.problems += [f"{label}: {p}" for p in checks.check_exact(truth, t.values, report)]


class Scenario2MC:
    """Criterion 5's scenario-2 Monte Carlo through ``run_experiment``.

    The trials are the seed-2024 sequence of the acceptance test, whatever
    the benchmark seed: the decompositions that return a wrong block
    partition sit at fixed trials of that sequence, and every run must
    count the same ones.  One operation is one trial, timed from the
    ``progress`` callback; attempted and failed count decompositions.
    """

    CONFIGS = (((3, 8, 8), (2, 3, 4), 64), ((3, 9, 10), (1, 2, 3, 4), 22))
    SNRS = (35.0, 50.0)
    TRIAL_SEED = 2024
    ROUND_SECONDS = 45.0

    def __init__(self, seed):
        self.seed = seed
        self._generated = []
        self._detected = []

    def setup(self):
        # record each trial's generated sizes and each decomposition's tuple
        draw_instance = experiment.draw_instance

        def recorded_draw(config, seed):
            out = draw_instance(config, seed)
            self._generated.append(out[0].sizes)
            return out

        def recorded_decompose(t, opts=None):
            try:
                report = solver.decompose(t, opts)
            except Exception:
                self._detected.append(None)
                raise
            self._detected.append(tuple(report.detected_L))
            return report

        experiment.draw_instance = recorded_draw
        experiment.decompose = recorded_decompose
        truth = tensor.random_btd((3, 8, 8), (2, 3, 4), seed=0)
        noisy = tensor.add_noise(tensor.compose(truth), tensor.NoiseSpec(snr_db=35.0, seed=1))
        solver.decompose(
            noisy, solver.SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9)
        )

    def run_round(self, tally):
        n_snr = len(self.SNRS)
        for dims, sizes, n_trials in self.CONFIGS:
            label = _label(dims, sizes)
            config = experiment.ExperimentConfig(
                dims=dims,
                sizes=sizes,
                snr_grid=self.SNRS,
                num_trials=n_trials,
                cond_cap=10.0,
                evd_variant="cpd",
                omega=2.0,
                seed=self.TRIAL_SEED,
            )
            self._generated.clear()
            self._detected.clear()
            base = len(tally.op_times)
            marks = [time.perf_counter()]

            def progress(done, _total):
                marks.append(time.perf_counter())
                tally.begin_op(base + done)

            tally.begin_op(base)
            result = experiment.run_experiment(config, progress=progress)
            tally.op_times += np.diff(marks).tolist()
            tally.attempted += n_trials * n_snr
            if len(self._generated) != n_trials or len(self._detected) != n_trials * n_snr:
                tally.problems.append(f"{label}: recorded trials do not match the run")
                continue
            detected = [self._detected[i * n_snr : (i + 1) * n_snr] for i in range(n_trials)]
            misses, problems = checks.check_scenario2(
                self._generated, self.SNRS, detected, result.errors_a[50.0]
            )
            tally.failed += len(misses)
            tally.problems += [f"{label}: {p}" for p in problems]
            want = tuple(sorted(sizes))
            for snr in self.SNRS:
                table = result.frequencies[snr].get(want, 0)
                if table != n_trials - sum(1 for m in misses if m[1] == snr):
                    tally.problems.append(f"{label}: frequency table at {snr:g} dB disagrees")
            tally.notes += [
                f"{label}: trial {trial} at {snr:g} dB detected {got}" for trial, snr, got in misses
            ]


class Certify:
    """Certification of one configuration per operation: the checks of
    ``btd1 check --gf`` (parameter count, generic bounds, finite-field Q2
    count), the finite-field full column rank of Phi(A, B), and the
    deterministic uniqueness report of one random instance."""

    # dims, sizes, Q2 count needs odd characteristic, certify Phi
    CONFIGS = (
        ((3, 9, 10), (1, 2, 3, 4), False, True),
        # the nonunique example: Phi is rank deficient (25 of 27) by design
        ((2, 8, 7), (3, 3, 3), True, False),
        ((3, 8, 8), (2, 3, 4), False, True),
        # the median operation: well apart from its neighbours' times
        ((5, 12, 12), (3, 3, 3, 3), False, True),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), False, True),
        ((5, 15, 15), (3, 3, 3, 3, 3), False, True),
        ((6, 20, 20), (4, 4, 4, 4, 4), False, True),
    )
    # the command line's defaults for ``btd1 check --gf``
    GF_TRIALS = 5
    GF_SEED = 0
    ROUND_SECONDS = 7.5

    def __init__(self, seed):
        self.seed = seed
        self.instances = []

    def setup(self):
        self.instances = [
            tensor.random_btd(dims, sizes, seed=instance_seed(self.seed, idx))
            for idx, (dims, sizes, _, _) in enumerate(self.CONFIGS)
        ]
        self._certify(0)

    def _certify(self, idx):
        dims, sizes, _, with_phi = self.CONFIGS[idx]
        s_out = uniqueness.parameter_count_S(dims, sizes)
        rows = uniqueness.generic_bounds(dims, sizes)
        q2 = gf.verify_generic_q2_dim(dims, sizes, trials=self.GF_TRIALS, seed=self.GF_SEED)
        phi = None
        if with_phi:
            phi = gf.verify_phi_full_rank(
                dims[0], dims[1], len(sizes), sizes, trials=self.GF_TRIALS, seed=self.GF_SEED
            )
        report = uniqueness.check_deterministic_uniqueness(self.instances[idx])
        return s_out, rows, q2, phi, report

    def run_round(self, tally):
        for idx, (dims, sizes, odd_char, _) in enumerate(self.CONFIGS):
            tally.begin_op(len(tally.op_times))
            start = time.perf_counter()
            s_out, rows, q2, phi, report = self._certify(idx)
            tally.op_times.append(time.perf_counter() - start)
            tally.attempted += 1
            label = _label(dims, sizes)
            verdicts = [q2.verdict] + ([phi.verdict] if phi is not None else [])
            if any(v != "certified" for v in verdicts):
                tally.failed += 1
                tally.notes.append(f"{label}: verdicts {verdicts}")
                continue
            problems = checks.check_certify(dims, sizes, odd_char, s_out, rows, q2, phi, report)
            tally.problems += [f"{label}: {p}" for p in problems]


WORKLOADS = {
    "exact_ladder": ExactLadder,
    "scenario2_mc": Scenario2MC,
    "certify": Certify,
}
