"""Monte-Carlo detection and accuracy experiments over an SNR grid.

Random instances are drawn with a condition-number rejection rule on the
first and third unfoldings (badly conditioned draws sit close to the
boundary where the working assumptions fail), perturbed to each target SNR,
and decomposed with the scenario-2 noisy pipeline.  Outputs are the
frequency of each candidate size tuple per SNR and mean/median relative
errors on the first factor matrix and on the vectorized terms.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionError, SolverDiagnostic, cond, rng, rngs
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


# draw n of a trial uses sub-seed seed + n * SUB_SEED_STEP
SUB_SEED_STEP = 1_000_003
# sub-seeds hashed per rngs call: the hash costs about 0.1 ms a call and
# 0.3 us a seed, so a block of 256 costs a trial that accepts at once 0.1 ms
# more than rng would, and saves one that draws 60 about 1 ms
SEED_BLOCK = 256
# rounding margin of cond_screen, relative to a lower bound on lam_max
SCREEN_TOL = 1e-10


def _sub_generators(seed):
    """Generators of the sub-seeds seed, seed + SUB_SEED_STEP, ..., each
    bitwise ``rng`` of its sub-seed, hashed SEED_BLOCK at a time."""
    block = SEED_BLOCK * SUB_SEED_STEP
    for start in itertools.count(seed, block):
        yield from rngs(range(start, start + block, SUB_SEED_STEP))


def cond_screen(m, cap):
    """False for each matrix of the stack ``m`` whose 2-norm condition
    number surely exceeds ``cap``.

    With G the smaller Gram matrix of a matrix, cond**2 = lam_max / lam_min,
    so a matrix within the cap has lam_min >= lam_max / cap**2.  Two tests
    refuse a matrix only where lam_min falls short of that by more than
    ``SCREEN_TOL`` times a lower bound on lam_max.  Rounding moves G and
    the tests by about n**2 * eps * lam_max for n columns, some 1e-13
    lam_max at n = 10, so a matrix within the cap always passes.  The
    first test bounds both ends: with G = L L^T, lam_min <= min L_ii**2 and
    lam_max >= max G_ii.  One batched Cholesky factorization drops about
    three quarters of the 3x9x10 draws with it, and ``eigvalsh`` tests the
    rest exactly.
    """
    gram = m.swapaxes(-1, -2) @ m if m.shape[-2] >= m.shape[-1] else m @ m.swapaxes(-1, -2)
    g_max = gram.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    try:
        l_min = np.linalg.cholesky(gram).diagonal(axis1=-2, axis2=-1).min(axis=-1) ** 2
        passed = ~(l_min + SCREEN_TOL * g_max < g_max / cap**2)
    except np.linalg.LinAlgError:
        # some G is not numerically positive definite; eigvalsh tests all
        passed = np.ones(gram.shape[0], dtype=bool)
    lam = np.linalg.eigvalsh(gram[passed])
    passed[passed] = ~(lam[:, 0] + SCREEN_TOL * lam[:, -1] < lam[:, -1] / cap**2)
    return passed


def draw_instance(config, seed):
    """Rejection-sample a ground-truth decomposition whose first and third
    unfoldings are conditioned within the cap; returns (truth, tensor,
    number of rejected draws).

    Draw n is ``random_btd(config.dims, config.sizes, seed=seed +
    n * SUB_SEED_STEP)``, and the first draw that passes is accepted.  Draws
    are made in chunks of 4 sub-seeds, doubling up to 32: each chunk is
    drawn by :func:`draw_factors` from generators that :func:`rngs` seeds
    SEED_BLOCK at a time, composed by one :func:`compose_values` call and
    tested in three batched steps.  :func:`cond_screen` drops the draws
    whose third unfolding surely exceeds the cap, from a Cholesky
    factorization and ``eigvalsh`` of their Gram matrices: on 3x9x10 it
    costs about 6 us a draw where the SVD costs 22 us.  Its margin over
    rounding means it never drops a draw that the SVD test passes.  The
    survivors then take the SVD test of the third unfolding, then that of
    the first.  Every draw is the one the sub-seed gives on its own, so the
    accepted draw and the rejection count depend neither on the chunking
    nor on the screen.  Only the accepted draw is wrapped as a
    decomposition and a tensor.
    """
    cap = config.cond_cap
    gens = _sub_generators(seed)
    rejected = 0
    chunk = 4
    while True:
        a, terms = draw_factors(list(itertools.islice(gens, chunk)), config.dims, config.sizes)
        t = compose_values(a, terms)
        t3 = unfold(t, 3)
        passed = cond_screen(t3, cap)
        # an SVD of an empty stack still costs some 17 us
        if passed.any():
            passed[passed] = cond(t3[passed]) <= cap
            passed[passed] = cond(unfold(t[passed], 1)) <= cap
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
