"""Output checks of the benchmark, computed apart from the program.

Each check returns a list of problems (empty when the output is right).
The closed forms and the column assignment are the benchmark's own: none
of them calls the code they judge.
"""

import itertools
import math

import numpy as np

RESIDUAL_LIMIT = 1e-6
COSINE_FLOOR = 1.0 - 1e-8
TRUE_TUPLE_FLOOR = 0.90
MEDIAN_ERR_A_LIMIT = 1e-2


def predicted_case(dims, sizes):
    """Phase II case the paper's rules give for generic factors: case 1
    when the (compressed) third factor matrix is square, case 2 when A has
    full column rank (R <= I), case 3 otherwise."""
    i_dim, _, k_dim = dims
    sum_l = sum(sizes)
    if min(k_dim, sum_l) == sum_l:
        return 1
    if len(sizes) <= i_dim:
        return 2
    return 3


def rebuild(decomposition):
    """T = sum_r a_r o (B_r C_r^T), summed term by term with einsum."""
    a = decomposition.A
    out = None
    for r, (b, c) in enumerate(decomposition.terms):
        term = np.einsum("i,jl,kl->ijk", a[:, r], b, c)
        out = term if out is None else out + term
    return out


def column_cosines(a_true, a_est):
    """|cos| between every true column (rows) and every estimated one."""
    num = np.abs(a_true.conj().T @ a_est)
    den = np.outer(np.linalg.norm(a_true, axis=0), np.linalg.norm(a_est, axis=0))
    return num / np.where(den == 0, 1.0, den)


def best_assignment(cos):
    """Permutation p (true r -> estimated p[r]) maximizing the summed |cos|,
    by enumeration; the ladders hold at most six terms."""
    r = cos.shape[0]
    if r > 8:
        raise ValueError("assignment by enumeration is limited to 8 terms")
    best, best_perm = -1.0, None
    for perm in itertools.permutations(range(r)):
        score = sum(cos[i, perm[i]] for i in range(r))
        if score > best:
            best, best_perm = score, perm
    return best_perm


def check_exact(truth, values, report):
    """Exact-mode decomposition of the tensor ``values`` built from ``truth``."""
    problems = []
    est = report.decomposition
    sizes = truth.sizes
    if est.R != truth.R or len(report.detected_L) != truth.R:
        return [f"{est.R} terms returned, {truth.R} generated"]
    rel = np.linalg.norm(rebuild(est) - values) / np.linalg.norm(values)
    if not rel <= RESIDUAL_LIMIT:
        problems.append(f"rebuilt tensor is {rel:.2e} away from the input")
    if sorted(report.detected_L) != sorted(sizes):
        problems.append(f"sizes {sorted(report.detected_L)} != generated {sorted(sizes)}")
    case = predicted_case(truth.dims, sizes)
    if report.case_used != case:
        problems.append(f"case {report.case_used} used, rules predict case {case}")
    cos = column_cosines(truth.A, est.A)
    perm = best_assignment(cos)
    for r in range(truth.R):
        p = perm[r]
        if not cos[r, p] >= COSINE_FLOOR:
            problems.append(f"column {r} of A matched with |cos| {cos[r, p]:.12f}")
        est_l = (report.detected_L[p], est.terms[p][0].shape[1])
        if est_l != (sizes[r], sizes[r]):
            problems.append(f"term {r}: size {sizes[r]} generated, {est_l} returned")
    return problems


def q2_rank_count(dims, sizes):
    """binom(K+1,2) - sum binom(d_r+1,2), d_r = K - sum L + L_r, with K
    clamped to sum L (third-mode compression removes the rest)."""
    sum_l = sum(sizes)
    k_dim = min(dims[2], sum_l)
    return math.comb(k_dim + 1, 2) - sum(
        math.comb(k_dim - sum_l + l + 1, 2) for l in sizes
    )


def phi_rank_count(sizes):
    """Column count of Phi(A, B): sum over r < s of L_r L_s."""
    return sum(a * b for a, b in itertools.combinations(sizes, 2))


def parameter_count(dims, sizes):
    i_dim, j_dim, k_dim = dims
    return sum(i_dim - 1 + (j_dim + k_dim - l) * l for l in sizes)


def check_certify(dims, sizes, odd_char, s_out, rows, q2, phi, report):
    """One configuration's certification outputs.

    ``s_out`` is parameter_count_S's triple, ``rows`` generic_bounds' dict,
    ``q2`` and ``phi`` the finite-field results (``phi`` may be None),
    ``report`` the deterministic uniqueness report of a random instance.
    ``odd_char`` marks configurations whose Q2 count vanishes over GF(2^k).
    """
    problems = []
    s = parameter_count(dims, sizes)
    ijk = dims[0] * dims[1] * dims[2]
    if tuple(s_out) != (s, ijk, s < ijk):
        problems.append(f"parameter count {tuple(s_out)} != {(s, ijk, s < ijk)}")
    if rows["parameter_count"] != (s < ijk):
        problems.append("generic_bounds parameter_count row disagrees with S < IJK")
    want = q2_rank_count(dims, sizes)
    if q2.verdict != "certified" or q2.witnessed_rank != want:
        problems.append(f"Q2: {q2.verdict} at rank {q2.witnessed_rank}, closed form {want}")
    if odd_char and q2.field.p == 2:
        problems.append(f"Q2 count certified over {q2.field}; it needs odd characteristic")
    if phi is not None:
        want = phi_rank_count(sizes)
        if phi.verdict != "certified" or phi.witnessed_rank != want:
            problems.append(f"Phi: {phi.verdict} at rank {phi.witnessed_rank}, closed form {want}")
    if report.s_count != s:
        problems.append(f"uniqueness report counts S = {report.s_count}, not {s}")
    if report.assumptions["Q2_dim_ok"] is not True:
        problems.append("random instance misses the certified Q2 null-space count")
    return problems


def check_scenario2(generated, snrs, detected, errors_a_50):
    """Criterion 5 on one configuration's trials.

    ``generated`` lists each trial's generated sizes; ``detected`` lists,
    per trial, the tuple each SNR's decomposition returned (None when it
    raised).  Returns (misses, problems): misses are (trial, snr, tuple) for
    each decomposition whose sorted tuple is not the generated one.
    """
    misses = [
        (trial, snr, got)
        for trial, (sizes, per_snr) in enumerate(zip(generated, detected))
        for snr, got in zip(snrs, per_snr)
        if got is None or sorted(got) != sorted(sizes)
    ]
    problems = []
    n = len(detected)
    for snr in snrs:
        hits = n - sum(1 for m in misses if m[1] == snr)
        if hits < TRUE_TUPLE_FLOOR * n:
            problems.append(f"{snr:g} dB: {hits}/{n} true tuples, floor {TRUE_TUPLE_FLOOR:.0%}")
    med = float(np.median(errors_a_50))
    if not med < MEDIAN_ERR_A_LIMIT:
        problems.append(f"median err_A at 50 dB is {med:.3e}")
    return misses, problems
