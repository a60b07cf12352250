"""Monte-Carlo detection and accuracy experiments over an SNR grid.

Random instances are drawn with a condition-number rejection rule on the
first and third unfoldings (badly conditioned draws sit close to the
boundary where the working assumptions fail), perturbed to each target SNR,
and decomposed with the scenario-2 noisy pipeline.  Outputs are the
frequency of each candidate size tuple per SNR and mean/median relative
errors on the first factor matrix and on the vectorized terms.

Where few draws meet the cap (1 in 1,500 to 1,900 on 3x9x10 (1,2,3,4) at
cap 10) the rejection sampler is a large share of a trial, so its inner loop
costs little more than the random numbers: each chunk of draws is screened
from its factors by :func:`cond_screen`, and only the survivors are
composed and take the SVD tests (see :func:`draw_instance`).
"""

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionError,
    SolverDiagnostic,
    cond,
    khatri_rao,
    positive_definite,
    rng,
    rngs,
)
from .sjbd import CPD_IDENTITY_WEIGHT
from .solver import SolverOptions, candidate_size_tuples, decompose
from .tensor import (
    BlockTermDecomposition,
    NoiseSpec,
    Tensor3,
    add_noise,
    compose_values,
    match_decompositions,
    split_factors,
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
        if min(self.dims) < 1:
            raise DimensionError(f"dimensions must be at least 1, got {self.dims}")
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
# 0.5 us a seed, so a trial that accepts at once pays 0.1 ms more than rng
# would, and one that draws 60 saves about 1 ms
SEED_BLOCK = 256
# largest chunk of draws screened at once, a divisor of SEED_BLOCK.  Past
# about 160 draws the screen's (n, K, K) temporaries on 3x9x10 pass 128 KiB,
# glibc's default mmap threshold, and the product of two of them cost 2.4
# times as much a draw (0.80 against 0.33 us at 200 and 160 draws); chunks
# of 64 and 128 drew 3x9x10 at the same speed, and 256 10-20% slower.
CHUNK_MAX = 64
# rounding margin of cond_screen, relative to a lower bound on lam_max
SCREEN_TOL = 1e-10


@functools.cache
def _gather_tables(dims, sizes):
    """Number of normals in one draw, and the positions among them, in
    :func:`split_factors`' layout, of the factors :func:`cond_screen` reads:
    A with column r repeated L_r times (I x S, S = sum L), [B_1 ... B_R]
    (J x S) and [C_1 ... C_R] (K x S)."""
    count = dims[0] * len(sizes) + (dims[1] + dims[2]) * sum(sizes)
    a, terms = split_factors(np.arange(count)[None], dims, sizes)
    b, c = (np.concatenate(f, axis=-1)[0] for f in zip(*terms))
    return count, a[0][:, np.repeat(np.arange(len(sizes)), sizes)], b, c


def _transpose(m):
    # stacked matmul runs BLAS on contiguous items, not on transposed views
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def cond_screen(a, b, c, cap):
    """False for each draw of a stack whose third unfolding surely has a
    2-norm condition number above ``cap``, tested from its factors alone.

    ``a`` (n, I, S) is A with column r repeated L_r times, ``b`` (n, J, S)
    is [B_1 ... B_R] and ``c`` (n, K, S) is [C_1 ... C_R], S = sum L.  The
    third unfolding is T_(3) = W C^T with W = [a_s kron b_s]_s, and
    W^T W = (A^T A) * (B^T B), so the smaller Gram matrix G of T_(3) is
    C (W^T W) C^T when K <= IJ and W (C^T C) W^T otherwise: small stacked
    products, no tensor.  With cond**2 = lam_max / lam_min, a draw within
    the cap has lam_min >= lam_max / cap**2.  ``rho``, the Rayleigh quotient
    of G at its row i with the largest diagonal entry G_ii, is at most
    lam_max.  A draw is refused where G - s I is not positive definite for
    s = rho / cap**2 - margin, one batched Cholesky factorization for the
    stack, so only where lam_min < lam_max / cap**2 - margin; on 3x9x10
    (1,2,3,4) that keeps about 1 draw in 1,100, of which 3 in 5 pass.
    ``eigvalsh`` then tests the survivors exactly, and refuses those with
    lam_min + margin below lam_max / cap**2.

    The margin is ``SCREEN_TOL`` * rho + n * eps * ||W||_F**2 * ||C||_F**2,
    n = I + J + K + 2S.  The second term bounds how far rounding in the
    products moves each eigenvalue of G = X N X^T: entry (s, t) of N is off
    by at most about (I + J) eps sqrt(N_ss N_tt) (K eps for C^T C), and the
    outer products add about 2S eps |X| |N| |X|^T; in norm both are below
    n eps ||X||_F**2 tr(N) = n eps ||W||_F**2 ||C||_F**2, however badly W
    or C is conditioned.  The first term, at least 1e-10 lam_max / K, is
    far above the rounding of the Cholesky factorization and ``eigvalsh``
    (about K eps lam_max) and, with the second, covers that of the composed
    tensor and its SVD, so a draw that the SVD test passes is never refused.
    """
    i_dim, j_dim, k_dim = a.shape[-2], b.shape[-2], c.shape[-2]
    if k_dim <= i_dim * j_dim:
        x, inner = c, (_transpose(a) @ a) * (_transpose(b) @ b)
    else:
        x = khatri_rao(a, b)
        inner = _transpose(c) @ c
    gram = x @ inner @ _transpose(x)
    u = gram[np.arange(len(gram)), gram.diagonal(axis1=-2, axis2=-1).argmax(axis=-1)]
    rho = (u * (gram @ u[..., None])[..., 0]).sum(axis=-1) / (u * u).sum(axis=-1)
    # ||X||_F**2 tr(N) = ||W||_F**2 ||C||_F**2 for G = X N X^T either way
    n_round = i_dim + j_dim + k_dim + 2 * a.shape[-1]
    norms = inner.trace(axis1=-2, axis2=-1) * (x * x).sum(axis=(-2, -1))
    margin = SCREEN_TOL * rho + n_round * np.finfo(float).eps * norms
    shift = rho / cap**2 - margin
    eye = np.arange(gram.shape[-1])
    gram[:, eye, eye] -= shift[:, None]
    passed = positive_definite(gram)
    # eigvalsh of an empty stack still costs some 7 us
    if not passed.any():
        return passed
    lam = np.linalg.eigvalsh(gram[passed]) + shift[passed, None]
    passed[passed] = ~(lam[:, 0] + margin[passed] < lam[:, -1] / cap**2)
    return passed


def draw_instance(config, seed):
    """Rejection-sample a ground-truth decomposition whose first and third
    unfoldings are conditioned within the cap; returns (truth, tensor,
    number of rejected draws).

    Draw n is ``random_btd(config.dims, config.sizes, seed=seed +
    n * SUB_SEED_STEP)``, and the first draw that passes is accepted.  Draws
    are made in chunks of 4, 4, 8, 16 and 32 sub-seeds, then CHUNK_MAX at
    a time, so no chunk straddles two of the blocks of SEED_BLOCK sub-seeds
    that :func:`rngs` hashes.  Each chunk fills one buffer of normals, a
    row per generator, gathers the factors from it through tables built
    once per shape, and screens them with :func:`cond_screen`.  Only the
    survivors are split into factors, composed by :func:`compose_values`
    and tested, by the SVD of the third unfolding, then that of the first.
    On 3x9x10 (1,2,3,4), where 1 draw in 1,500 to 1,900 passes, a draw costs
    9.5-15 us on one core of a shared 2-vCPU x86 machine: about 4 us of
    normals, 1.5 us building the generator, 0.4 us of hashing and 3 us of
    screen, where composing and screening every draw cost 17-25 us.  The
    screen never refuses a draw that the SVD test passes, and every draw is
    the one its sub-seed gives on its own, so the accepted draw and the
    rejection count depend neither on the chunking nor on the screen.  Only
    the accepted draw is wrapped as a decomposition and a tensor.
    """
    cap = config.cond_cap
    count, a_at, b_at, c_at = _gather_tables(tuple(config.dims), tuple(config.sizes))
    drawn = 0
    while True:
        if drawn % SEED_BLOCK == 0:
            first = seed + drawn * SUB_SEED_STEP
            gens = rngs(range(first, first + SEED_BLOCK * SUB_SEED_STEP, SUB_SEED_STEP))
        flat = np.empty((max(4, min(drawn, CHUNK_MAX)), count))
        for row, gen in zip(flat, gens):
            gen.standard_normal(out=row)
        kept = np.flatnonzero(cond_screen(flat[:, a_at], flat[:, b_at], flat[:, c_at], cap))
        if kept.size:
            a, terms = split_factors(flat[kept], config.dims, config.sizes)
            t = compose_values(a, terms)
            passed = cond(unfold(t, 3)) <= cap
            passed[passed] = cond(unfold(t[passed], 1)) <= cap
            if passed.any():
                n = int(np.argmax(passed))
                truth = BlockTermDecomposition(a[n], [(b[n], c[n]) for b, c in terms])
                return truth, Tensor3(t[n]), drawn + int(kept[n])
        drawn += len(flat)


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
