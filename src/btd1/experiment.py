"""Monte-Carlo detection and accuracy experiments over an SNR grid.

Random instances are drawn with a condition-number rejection rule on the
first and third unfoldings (badly conditioned draws sit close to the
boundary where the working assumptions fail), perturbed to each target SNR,
and decomposed with the scenario-2 noisy pipeline.  Outputs are the
frequency of each candidate size tuple per SNR and mean/median relative
errors on the first factor matrix and on the vectorized terms.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionError, SolverDiagnostic, cond, rng
from .sjbd import CPD_IDENTITY_WEIGHT
from .solver import SolverOptions, candidate_size_tuples, decompose
from .tensor import (
    BlockTermDecomposition,
    NoiseSpec,
    Tensor3,
    add_noise,
    compose_values,
    draw_factors,
    match_decompositions,
    unfold,
)

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo study.  The solver's mode picks its S-JBD route, so
    ``evd_variant`` and ``omega`` each accept only the one value that
    route uses: "cpd" and ``sjbd.CPD_IDENTITY_WEIGHT``.  They remain for
    callers that still pass them; any other value is refused."""

    dims: tuple
    sizes: tuple
    snr_grid: tuple = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
    num_trials: int = 100
    cond_cap: float = 10.0
    evd_variant: str = "cpd"
    omega: float = CPD_IDENTITY_WEIGHT
    seed: int = 0

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if not self.snr_grid:
            raise ValueError("snr grid must be nonempty")
        for snr in self.snr_grid:
            NoiseSpec(snr)  # rejects NaN and -inf
        # draw_instance samples without random_btd's size checks
        if min(self.sizes) < 1 or max(self.sizes) > min(self.dims[1:]):
            raise DimensionError("term sizes must be positive and at most min(J, K)")
        # draw_instance would redraw forever if no draw can meet the cap
        if not self.cond_cap >= 1:
            raise ValueError(f"cond_cap must be at least 1, got {self.cond_cap}")
        i_dim, j_dim, k_dim = self.dims
        if sum(self.sizes) < min(i_dim * j_dim, k_dim):
            raise DimensionError("sum L below min(IJ, K): the third unfolding is rank deficient")
        if len(self.sizes) < min(j_dim * k_dim, i_dim):
            raise DimensionError("R below min(JK, I): the first unfolding is rank deficient")
        if self.evd_variant != "cpd":
            raise ValueError(f"evd_variant must be 'cpd', got {self.evd_variant!r}")
        if self.omega != CPD_IDENTITY_WEIGHT:
            raise ValueError(f"omega must be {CPD_IDENTITY_WEIGHT}, got {self.omega!r}")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    candidates: tuple
    frequencies: dict  # snr -> {tuple: count}
    errors_a: dict  # snr -> list of relative errors
    errors_terms: dict
    rejected_draws: int
    failure_causes: dict = field(default_factory=dict)  # exception message -> count
    # decompositions whose CPD refinement stopped at max_iter without converging
    unconverged_refinements: int = 0

    @property
    def solver_failures(self):
        return sum(self.failure_causes.values())

    def frequency_rows(self):
        header = ["L_tuple"] + [_fmt_snr(s) for s in self.config.snr_grid]
        rows = [header]
        for cand in self.candidates:
            row = ["|".join(str(x) for x in cand)]
            for snr in self.config.snr_grid:
                row.append(str(self.frequencies[snr].get(cand, 0)))
            rows.append(row)
        return rows

    def error_rows(self):
        rows = [["snr", "mean_err_A", "median_err_A", "mean_err_terms", "median_err_terms"]]
        for snr in self.config.snr_grid:
            ea = np.array(self.errors_a[snr])
            et = np.array(self.errors_terms[snr])
            rows.append(
                [
                    _fmt_snr(snr),
                    repr(float(ea.mean())),
                    repr(_median(ea)),
                    repr(float(et.mean())),
                    repr(_median(et)),
                ]
            )
        return rows

    def write_csv(self, freq_path, err_path):
        for path, rows in ((freq_path, self.frequency_rows()), (err_path, self.error_rows())):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)


def _median(values):
    """np.median of a 1-d float array, without np.median's import of
    numpy.ma (about 16 ms on a first call): nan when the array is empty or
    holds a nan."""
    v = np.sort(values)
    mid = v.size // 2
    if v.size == 0 or np.isnan(v[-1]):
        return float("nan")
    return float(v[mid]) if v.size % 2 else float((v[mid - 1] + v[mid]) / 2)


def _fmt_snr(s):
    return "inf" if math.isinf(s) else f"{s:g}"


def draw_instance(config, seed):
    """Rejection-sample a ground-truth decomposition whose first and third
    unfoldings are conditioned within the cap; returns (truth, tensor,
    number of rejected draws).

    Draw n is ``random_btd(config.dims, config.sizes, seed=seed +
    n * 1_000_003)``, and the first draw that passes is accepted.  Draws
    are made in chunks of 4 sub-seeds, doubling up to 32: each chunk is
    drawn by :func:`draw_factors`, composed by one :func:`compose_values`
    call and tested by one batched SVD per unfolding, the third unfolding
    first.  Every draw is the one the sub-seed gives on its own, so the
    accepted draw and the rejection count do not depend on the chunking.
    Only the accepted draw is wrapped as a decomposition and a tensor.
    Chunks of 256 ran no faster on 3x9x10 and held about 2 MB more.
    """
    rejected = 0
    chunk = 4
    while True:
        gens = [rng(seed + (rejected + n) * 1_000_003) for n in range(chunk)]
        a, terms = draw_factors(gens, config.dims, config.sizes)
        t = compose_values(a, terms)
        passed = cond(unfold(t, 3)) <= config.cond_cap
        passed[passed] = cond(unfold(t[passed], 1)) <= config.cond_cap
        if passed.any():
            n = int(np.argmax(passed))
            truth = BlockTermDecomposition(a[n], [(b[n], c[n]) for b, c in terms])
            return truth, Tensor3(t[n]), rejected + n
        rejected += chunk
        chunk = min(2 * chunk, 32)


def run_experiment(config, progress=None):
    r = len(config.sizes)
    sum_l = sum(config.sizes)
    candidates = tuple(candidate_size_tuples(r, config.dims[2], sum_l))
    freqs = {snr: {} for snr in config.snr_grid}
    errs_a = {snr: [] for snr in config.snr_grid}
    errs_t = {snr: [] for snr in config.snr_grid}
    master = rng(config.seed)
    rejected_total = 0
    causes = {}
    unconverged = 0
    for trial in range(config.num_trials):
        trial_seed = int(master.integers(2**31))
        truth, t, rejected = draw_instance(config, trial_seed)
        rejected_total += rejected
        for snr in config.snr_grid:
            if math.isinf(snr):
                noisy = t
                mode = "exact"
            else:
                noisy = add_noise(t, NoiseSpec(snr_db=snr, seed=trial_seed + 13))
                mode = "noisy_scenario2"
            opts = SolverOptions(
                mode=mode,
                known_R=r if mode != "exact" else None,
                known_sum_L=sum_l if mode != "exact" else None,
                seed=trial_seed,
            )
            try:
                report = decompose(noisy, opts)
            except (SolverDiagnostic, np.linalg.LinAlgError) as exc:
                # a pathological draw must not kill a long run; count it as
                # a miss with total error
                causes[str(exc)] = causes.get(str(exc), 0) + 1
                errs_a[snr].append(1.0)
                errs_t[snr].append(1.0)
                continue
            if report.diagnostics.get("cpd_converged") is False:
                unconverged += 1
            detected = tuple(sorted(report.detected_L))
            freqs[snr][detected] = freqs[snr].get(detected, 0) + 1
            _, _, err_a, err_t = match_decompositions(truth, report.decomposition)
            errs_a[snr].append(err_a)
            errs_t[snr].append(err_t)
        if progress:
            progress(trial + 1, config.num_trials)
    return ExperimentResult(
        config=config,
        candidates=candidates,
        frequencies=freqs,
        errors_a=errs_a,
        errors_terms=errs_t,
        rejected_draws=rejected_total,
        failure_causes=causes,
        unconverged_refinements=unconverged,
    )
