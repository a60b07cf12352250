"""End-to-end recovery of a decomposition into multilinear rank-(1, L_r, L_r)
terms.

Phase I recovers the first factor matrix: the null space of the minor matrix
Q2(T) is mapped to a set of symmetric K x K matrices, their joint block
diagonalization yields blocks N_r spanning the null spaces of the stacked
complementary term matrices, and each column a_r then falls out of a rank-one
factorization of [vec(N_r.T H_1.T) ... vec(N_r.T H_I.T)].

Phase II recovers the term matrices under one of three conditions, tried in
this order: the third factor matrix is square nonsingular (Case 1, solve for
C directly), the first factor matrix has full column rank (Case 2, solve for
the E_r from the mode-1 unfolding), or neither (Case 3, split the terms into
overlapping groups, project onto two-slice subtensors, and decompose each by
a generalized eigendecomposition).

Noisy data is handled in two regimes: scenario 1 assumes the perturbation is
small enough that the structural integers (Q, R, d_r) are still detectable
from singular-value gaps; scenario 2 assumes only R and sum L_r are known
and replaces the null-space dimension by its minimum over the compatible
block-size tuples, recovering the block structure afterwards by clustering.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    DimensionError,
    SolverDiagnostic,
    dominant_rank1,
    khatri_rao,
    lstsq,
    null_space,
    numerical_rank,
    orth,
    randn,
    rank_cut,
    rng,
    split_columns,
)
from .minors import n_sym, symmetric_null_matrices, total_block_size
from .sjbd import (
    SJBDProblem,
    _eigen_groups,
    _group_labels,
    _realify_blocks,
    cluster_columns,
    solve_sjbd,
)
from .tensor import (
    BlockTermDecomposition,
    Tensor3,
    compose,
    compress_third_mode,
    match_columns,
    unfold,
)

__all__ = [
    "SolverOptions",
    "SolveReport",
    "phase1_recover_A",
    "phase2_case1",
    "phase2_case2",
    "phase2_case3",
    "gevd_two_slice_btd",
    "estimate_L_from_d",
    "minimal_null_dimension",
    "candidate_size_tuples",
    "decompose",
]

# default rank tolerance of exact decompose; the helpers called without a
# tolerance use linalg.DEFAULT_RANK_TOL (1e-10)
EXACT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`decompose` and the phase functions.

    ``mode`` is one of ``exact``, ``noisy_scenario1`` (structural integers
    detectable from gaps at ``rank_tol``) or ``noisy_scenario2`` (only
    ``known_R`` >= 1 and ``known_sum_L`` >= ``known_R`` given, and only
    there).  A given ``rank_tol`` lies in (0, 1).  The mode also picks the
    S-JBD route of :func:`sjbd.solve_sjbd`: the pencil for exact data, the
    commutant with the least-squares CPD refinement for noisy data.
    Eigenvalues are grouped at a relative spread of 1e-6 in exact mode and
    1e-2 in the noisy modes.
    """

    mode: str = "exact"
    known_R: int = None
    known_sum_L: int = None
    rank_tol: float = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "noisy_scenario1", "noisy_scenario2"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "noisy_scenario2":
            if self.known_R is None or self.known_sum_L is None:
                raise ValueError("noisy_scenario2 requires known_R and known_sum_L")
            if self.known_R < 1:
                raise ValueError(f"known_R must be at least 1, got {self.known_R}")
            if self.known_sum_L < self.known_R:
                raise ValueError(
                    f"known_sum_L must be at least known_R = {self.known_R}, "
                    f"got {self.known_sum_L}"
                )
        elif self.known_R is not None or self.known_sum_L is not None:
            name = "known_R" if self.known_R is not None else "known_sum_L"
            raise ValueError(f"{name} applies only to noisy_scenario2, not {self.mode}")
        if self.rank_tol is not None and not 0.0 < self.rank_tol < 1.0:
            raise ValueError(f"rank_tol must lie strictly between 0 and 1, got {self.rank_tol}")

    @property
    def noisy(self):
        return self.mode != "exact"

    @property
    def tol(self):
        if self.rank_tol is not None:
            return self.rank_tol
        if self.noisy:
            return 1e-2
        return EXACT_RANK_TOL

    @property
    def cl_tol(self):
        return 1e-2 if self.noisy else 1e-6


@dataclass(frozen=True)
class SolveReport:
    decomposition: BlockTermDecomposition
    detected_d: tuple
    detected_L: tuple
    case_used: int
    residual: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def detected_R(self):
        return len(self.detected_L)

    def to_dict(self):
        from .fileio import decomposition_to_dict

        return {
            "decomposition": decomposition_to_dict(self.decomposition),
            "detected_d": list(self.detected_d),
            "detected_L": list(self.detected_L),
            "detected_R": self.detected_R,
            "case_used": self.case_used,
            "residual": self.residual,
            "diagnostics": self.diagnostics,
        }


def _vec(m):
    return m.ravel(order="F")


def minimal_null_dimension(r, sum_d):
    """Smallest value of sum binom(d_r + 1, 2) over positive d summing to
    sum_d; the lower bound used in place of the true null-space dimension
    when only R and sum L_r are known; needs sum_d >= R.  The sum is convex
    in each d_r, so the balanced split (sizes q and q + 1 with
    q = sum_d // R) attains it."""
    q, m = divmod(sum_d, r)
    return m * n_sym(q + 1) + (r - m) * n_sym(q)


def _partitions(total, parts, minimum=1):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in _partitions(total - first, parts - 1, minimum=first):
            yield (first,) + rest


def candidate_size_tuples(r, k, sum_l):
    """All sorted L-tuples consistent with known R and sum L_r; the rows of
    the detection-frequency tables."""
    sum_d = total_block_size(r, k, sum_l)
    shift = sum_l - k
    tuples = []
    for d in _partitions(sum_d, r):
        l = tuple(x + shift for x in d)
        if all(x >= 1 for x in l):
            tuples.append(l)
    return tuples


def estimate_L_from_d(d, k, r):
    """Term sizes from block sizes: L_r = d_r + (K - sum d) / (R - 1).

    Valid when the stacked complementary third-factor blocks have full
    column rank, which holds generically.  Raises when the shared increment
    is farther than 0.25 from an integer.
    """
    d = tuple(int(x) for x in d)
    if len(d) != r:
        raise DimensionError(f"expected {r} block sizes, got {len(d)}")
    if r == 1:
        if k != d[0]:
            raise SolverDiagnostic(
                "single-term size is undetermined unless K = d_1",
                {"K": k, "d": d},
            )
        return (d[0],)
    inc = (k - sum(d)) / (r - 1)
    if abs(inc - round(inc)) > 0.25:
        raise SolverDiagnostic(
            "block sizes are inconsistent with an integer size increment",
            {"increment": inc, "d": d, "K": k},
        )
    inc = int(round(inc))
    l = tuple(x + inc for x in d)
    if any(x < 1 for x in l):
        raise SolverDiagnostic("estimated sizes are not positive", {"L": l})
    return l


def _rank1_pair(t, n_r):
    """Column direction a_r and the matching B_r from the rank-one matrix
    [vec(N_r.T H_1.T) ... vec(N_r.T H_I.T)] = vec(N_r.T E_r.T) a_r.T."""
    values = t.values
    i_dim, j_dim, _ = values.shape
    cols = [_vec(n_r.T @ values[i].T) for i in range(i_dim)]
    m = np.column_stack(cols)
    w, z = dominant_rank1(m)
    return z, w.reshape(n_r.shape[1], j_dim, order="F").T


def _fit_third_factor(t, a, b_blocks):
    """Decomposition with the given A and B_r and the C_r that fit
    unfold(t, 3) = [a_1 kron B_1 ... a_R kron B_R] C.T in least squares."""
    widths = [b.shape[1] for b in b_blocks]
    design = khatri_rao(np.repeat(a, widths, axis=1), np.hstack(b_blocks))
    c_blocks = split_columns(lstsq(design, unfold(t, 3)).T, widths)
    return BlockTermDecomposition(a, tuple(zip(b_blocks, c_blocks)))


def _truncated_terms(a, e_mats, sizes, tol):
    """Decomposition with the given A and the best rank-L_r factors of each
    term matrix E_r; L_r is ``sizes[r]`` when given, else the numerical rank
    of E_r at ``tol`` (at least 1), cut from the SVD that gives the factors."""
    terms = []
    for idx, e in enumerate(e_mats):
        u, s, vh = np.linalg.svd(e, full_matrices=False)
        l_r = sizes[idx] if sizes is not None else max(rank_cut(s, tol), 1)
        l_r = min(l_r, s.size)
        terms.append((u[:, :l_r] * s[:l_r], vh[:l_r].T))
    return BlockTermDecomposition(a, tuple(terms))


def phase1_recover_A(t, opts=None):
    """Phase I of the solver: returns (A, B, N, d, diagnostics).

    Q, counted from the minor matrix, is ``diagnostics["Q_used"]``; the
    null space is read off the row-panel triangle of Q2
    (:func:`minors.symmetric_null_matrices`), so Q2 is never held whole;
    :func:`sjbd.solve_sjbd` turns the Q symmetric null matrices V_q into
    (N, d), and its diagnostics are merged in whole (into its failures
    too).  Exact mode raises when they hold ``sjbd_status``, the Q verdict.
    Scenario 2 passes R and sum d_r as hints and partitions the ungrouped N
    itself.  Each a_r and the J x d_r matrix B_r (the list B) then come
    from one rank-one factorization; Case 1 fits the third factor to these.

    N is K x sum(d) with block r spanning the common null space of the term
    matrices other than r; callers should compress the third mode first when
    unfold(t, 3) is column rank deficient.
    """
    opts = opts or SolverOptions()
    k_dim = t.dims[2]
    diag = {}
    # entries of the minor matrix are quadratic in the tensor; anything below
    # rounding level on that scale is noise even when the whole matrix is
    # numerically zero (single-term tensors), so the relative threshold gets
    # an absolute floor there
    q2_floor = 1e-12 * float(np.linalg.norm(t.values)) ** 2

    scenario2 = opts.mode == "noisy_scenario2"
    if scenario2:
        r_known = opts.known_R
        sum_d = total_block_size(r_known, k_dim, opts.known_sum_L)
        if sum_d < r_known:
            raise SolverDiagnostic(
                "known R and sum L give an impossible total block size",
                {"sum_d": sum_d, "R": r_known},
            )
        q_used = minimal_null_dimension(r_known, sum_d)
        v_mats = symmetric_null_matrices(t, dim=q_used)
    else:
        v_mats = symmetric_null_matrices(t, tol=opts.tol, atol=q2_floor)
        q_used = len(v_mats)
        sum_d = None
    if q_used < 1:
        raise SolverDiagnostic(
            "minor matrix has trivial null space; no block structure visible",
            {"Q_used": q_used},
        )
    diag["Q_used"] = int(q_used)

    problem = SJBDProblem(
        tuple(v_mats), hint_R=r_known if scenario2 else None, hint_sum_d=sum_d
    )
    try:
        sol = solve_sjbd(
            problem, seed=opts.seed, rank_tol=opts.tol, cluster_tol=opts.cl_tol, noisy=opts.noisy
        )
    except SolverDiagnostic as exc:
        exc.diagnostics.update(diag)
        raise
    diag.update(sol.diagnostics)

    n_full, d = sol.N, sol.d
    if d is None:
        n_full, d = _partition_by_unfolding(t, n_full, r_known)
    d = tuple(int(x) for x in d)
    if opts.mode == "exact" and "sjbd_status" in diag:
        raise SolverDiagnostic(
            "null-space dimension of the minor matrix does not match "
            "sum binom(d_r+1, 2); the structural assumption fails",
            {"Q_used": q_used, "d": d},
        )

    a_cols, b_blocks = zip(*(_rank1_pair(t, n_r) for n_r in split_columns(n_full, d)))
    return np.column_stack(a_cols), list(b_blocks), n_full, d, diag


def _partition_by_unfolding(t, n_full, r_clusters):
    """Scenario-2 block detection: columns of unfold(T,3) N reshape to
    rank-one matrices a_r w.T; cluster their left directions into R groups."""
    i_dim, j_dim, _ = t.dims
    t3n = unfold(t, 3) @ n_full
    dirs = []
    for col in range(t3n.shape[1]):
        m = t3n[:, col].reshape(i_dim, j_dim)
        u, _, _ = np.linalg.svd(m, full_matrices=False)
        dirs.append(u[:, 0])
    order, d = _group_labels(cluster_columns(np.column_stack(dirs), n_clusters=r_clusters))
    if len(d) != r_clusters:
        raise SolverDiagnostic(
            "column clustering found a different number of groups than R",
            {"R": r_clusters, "found": len(d)},
        )
    return n_full[:, order], d


def phase2_case1(t, a, b_blocks):
    """Case 1 (third factor matrix square nonsingular, K = sum L_r): solve
    for C in least squares against the B_r of :func:`phase1_recover_A`,
    whose widths are the d_r."""
    k_dim = t.dims[2]
    sum_d = sum(b.shape[1] for b in b_blocks)
    if k_dim != sum_d:
        raise SolverDiagnostic("Case 1 requires K = sum d_r", {"K": k_dim, "sum_d": sum_d})
    return _fit_third_factor(t, a, b_blocks)


def phase2_case2(t, a, opts=None, sizes=None):
    """Case 2 (first factor matrix of full column rank): the term matrices
    solve unfold(T,1) = [vec(E_1) ... vec(E_R)] A.T in least squares.

    ``sizes`` forces the truncation ranks (noisy pipelines); otherwise each
    L_r is the numerical rank of E_r.
    """
    opts = opts or SolverOptions()
    _, j_dim, k_dim = t.dims
    r = a.shape[1]
    if numerical_rank(a, tol=opts.tol) < r:
        raise SolverDiagnostic("Case 2 requires A with full column rank", {"R": r})
    vec_e = lstsq(a, unfold(t, 1).T).T
    e_mats = [vec_e[:, idx].reshape(j_dim, k_dim, order="F") for idx in range(r)]
    return _truncated_terms(a, e_mats, sizes, opts.tol)


def default_subsets(r, r_a):
    """Covering family of term subsets: ceil(R / (R - r_A + 2)) consecutive
    windows with the last one right-aligned."""
    card = r - r_a + 2
    m_count = math.ceil(r / card)
    subsets = []
    for m in range(m_count - 1):
        subsets.append(tuple(range(m * card, (m + 1) * card)))
    subsets.append(tuple(range(r - card, r)))
    return subsets


def phase2_case3(t, a, opts=None, subsets=None, sizes=None):
    """Case 3 (neither factor matrix square enough): decompose two-slice
    projections onto subsets of terms by generalized EVD, then resolve the
    global term scales against the mode-1 unfolding.

    ``sizes`` forces the truncation ranks, as in :func:`phase2_case2`, and
    is checked before any GEVD: a subset whose sum L_r exceeds min(J, K)
    gives a pencil the two-slice GEVD cannot split into its terms.
    """
    opts = opts or SolverOptions()
    _, j_dim, k_dim = t.dims
    r = a.shape[1]
    col_a = orth(a, tol=opts.tol)
    r_a = col_a.shape[1]
    if r_a >= r:
        raise SolverDiagnostic("Case 3 expects rank(A) < R", {"rank_A": r_a, "R": r})
    card = r - r_a + 2
    if subsets is None:
        subsets = default_subsets(r, r_a)
    covered = set()
    for s in subsets:
        covered.update(s)
    if covered != set(range(r)):
        raise SolverDiagnostic("subsets do not cover all terms", {"subsets": subsets})
    width = min(j_dim, k_dim)
    for m_idx, omega in enumerate(subsets):
        if len(omega) != card:
            raise SolverDiagnostic(
                f"subset {m_idx} has cardinality {len(omega)}, expected {card}",
                {"subset": omega},
            )
        omega_l = [] if sizes is None else [int(sizes[p]) for p in omega]
        if sum(omega_l) > width:
            raise SolverDiagnostic(
                f"Case 3 subset {list(omega)} has sizes {omega_l}, sum L_r = "
                f"{sum(omega_l)} > min(J, K) = {width}; its two-slice pencil "
                "cannot separate the terms",
                {
                    "subset": [int(p) for p in omega],
                    "L": omega_l,
                    "sum_L": sum(omega_l),
                    "min_JK": width,
                },
            )

    t1 = unfold(t, 1)
    e_hat = [None] * r
    gen = rng(opts.seed)
    for m_idx, omega in enumerate(subsets):
        excluded = [p for p in range(r) if p not in omega]
        if excluded:
            # plain transpose even over the complex field
            g = a[:, excluded].T @ col_a
            y = null_space(g, tol=opts.tol)
            if y.shape[1] < 2:
                raise SolverDiagnostic(
                    "could not find two independent projection directions; "
                    "k-rank of A is below its rank",
                    {"subset": omega},
                )
            h = col_a @ y[:, :2]
        else:
            h = col_a[:, :2]
        q1 = t1 @ h
        q_values = np.stack(
            [q1[:, s].reshape(j_dim, k_dim, order="F") for s in range(2)]
        )
        sub = gevd_two_slice_btd(
            Tensor3(q_values),
            tol=opts.tol,
            seed=int(gen.integers(2**31)),
            cluster_tol=opts.cl_tol,
            n_terms=len(omega),
        )
        if sub.R != len(omega):
            raise SolverDiagnostic(
                f"two-slice decomposition for subset {m_idx} found {sub.R} terms, "
                f"expected {len(omega)}",
                {"subset": omega, "found": sub.R},
            )
        # match recovered terms to the subset indices through the projected A
        rows, cols = match_columns(sub.A, h.T @ a[:, omega])
        for s_idx, o_idx in zip(rows, cols):
            target = omega[o_idx]
            if e_hat[target] is None:
                b_s, c_s = sub.terms[s_idx]
                e_hat[target] = b_s @ c_s.T
    design = khatri_rao(a, np.column_stack([_vec(e) for e in e_hat]))
    x = lstsq(design, _vec(t1))
    return _truncated_terms(a, [x[idx] * e_hat[idx] for idx in range(r)], sizes, opts.tol)


def gevd_two_slice_btd(q, tol=DEFAULT_RANK_TOL, seed=0, cluster_tol=1e-6, n_terms=None):
    """Decomposition of a 2 x J x K tensor by generalized eigendecomposition.

    Assumes the second and third factor matrices of the underlying
    decomposition have full column rank and any two columns of the 2 x R
    first factor matrix are independent.  Two generic slice mixtures reduce
    to a matrix pencil; eigenvalue multiplicities give the term sizes,
    eigenvector groups the column spaces of the B_r.
    """
    if q.dims[0] != 2:
        raise DimensionError("two-slice decomposition needs a 2 x J x K tensor")
    h1, h2 = q.values[0], q.values[1]
    # [H1; H2] is the plain transpose of [H1.T H2.T], so v's width is its rank
    v = orth(np.hstack([h1.T, h2.T]), tol=tol)
    s = v.shape[1]
    if s == 0:
        raise SolverDiagnostic("zero tensor has no two-slice decomposition", {})
    u = orth(np.hstack([h1, h2]), dim=s)
    g1 = u.conj().T @ h1 @ np.conj(v)
    g2 = u.conj().T @ h2 @ np.conj(v)
    gen = rng(seed)
    complex_input = np.iscomplexobj(h1)
    mix = randn(gen, (2, 2), "complex" if complex_input else "real")
    s_a = mix[0, 0] * g1 + mix[0, 1] * g2
    s_b = mix[1, 0] * g1 + mix[1, 1] * g2
    if numerical_rank(s_a, tol=tol) < s:
        raise SolverDiagnostic("degenerate pencil: generic mixture is singular", {})
    w = s_b @ np.linalg.inv(s_a)
    blocks, means = _eigen_groups(w, cluster_tol, n_terms)
    blocks = [orth(b, dim=b.shape[1]) for b in blocks]
    if not complex_input:
        blocks, realified = _realify_blocks(blocks, means, max(cluster_tol, 1e-8))
        if realified:
            means = [np.real(mn) for mn in means]
    a = np.column_stack(
        [
            np.linalg.solve(mix, np.array([1.0, lam], dtype=np.result_type(mix, lam)))
            for lam in means
        ]
    )
    return _fit_third_factor(q, a, [u @ b for b in blocks])


def _select_case(k_dim, i_dim, d, a, opts):
    if k_dim == sum(d):
        return 1
    r = len(d)
    if r <= i_dim and numerical_rank(a, tol=opts.tol) == r:
        return 2
    return 3


def decompose(t, opts=None):
    """Full pipeline: compress the third mode if rank deficient, run Phase I
    and the applicable Phase II case, estimate the term sizes, and report.

    Exact mode compresses to the numerical rank, scenario 2 to ``known_sum_L``
    when K exceeds it (a ``known_sum_L`` above I J is then refused).  Case
    selection prefers Case 1 over Case 2 over Case 3.
    """
    opts = opts or SolverOptions()
    i_dim, j_dim, k_dim = t.dims
    diag = {}
    if not np.any(t.values):
        raise SolverDiagnostic("zero tensor has no block-term decomposition", {})

    original = t
    to_known = opts.mode == "noisy_scenario2" and k_dim > opts.known_sum_L
    if to_known and opts.known_sum_L > i_dim * j_dim:
        raise SolverDiagnostic(
            f"known_sum_L = {opts.known_sum_L} exceeds I J = {i_dim * j_dim}; the "
            "third mode cannot be compressed to more than I J directions",
            {"known_sum_L": opts.known_sum_L, "IJ": i_dim * j_dim},
        )
    if not opts.noisy or to_known:
        compressed, _, r3 = compress_third_mode(
            t, tol=opts.tol, dim=opts.known_sum_L if to_known else None
        )
        if r3 < k_dim:
            t, k_dim = compressed, r3
            diag["compressed_K"] = int(r3)

    a, b_blocks, _, d, phase1_diag = phase1_recover_A(t, opts)
    diag.update(phase1_diag)
    r = len(d)
    case = _select_case(k_dim, i_dim, d, a, opts)
    diag["case_considered"] = case

    sizes = None
    if opts.noisy or case == 3:
        # exact Case 3 takes them too: its subsets are checked against them
        sizes = estimate_L_from_d(d, k_dim, r)
    if case == 1:
        # the B_r of Phase I have widths d_r, which are the sizes here
        est = phase2_case1(t, a, b_blocks)
    elif case == 2:
        est = phase2_case2(t, a, opts, sizes=sizes)
    else:
        est = phase2_case3(t, a, opts, sizes=sizes)

    if t is not original:
        # map the compressed third factor back to the original tensor
        est = _fit_third_factor(original, est.A, [b for b, _ in est.terms])

    recon = compose(est)
    residual = float(
        np.linalg.norm(recon.values - original.values) / np.linalg.norm(original.values)
    )
    if not opts.noisy and residual > 1e-6:
        raise SolverDiagnostic(
            f"exact-mode reconstruction failed (residual {residual:.2e}); either "
            f"the structure Phase I found (R = {r}, d = {d}) or the rank "
            f"conditions backing case {case} do not hold",
            {**diag, "R": r, "d": d, "case": case, "residual": residual},
        )
    return SolveReport(
        decomposition=est,
        detected_d=tuple(d),
        detected_L=est.sizes,
        case_used=case,
        residual=residual,
        diagnostics=diag,
    )
