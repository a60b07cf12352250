"""Symmetric joint block diagonalization by eigendecomposition.

Given symmetric K x K matrices V_1, ..., V_Q admitting a joint factorization
V_q = N D_q N.T with block-diagonal symmetric D_q (block sizes d_1..d_R),
the block column spaces of N are recovered from the commutant subspace
{U : U V_q = V_q U.T for all q}: a basis U_1..U_R of that subspace is
simultaneously diagonalizable by N, so N and the block sizes follow from an
eigendecomposition.  Two variants are provided for the simultaneous EVD
step: the EVD of a single generic linear combination, and a least-squares
rank-one tensor refinement of it that is more robust under noise.  A problem
is exact unless its number of blocks R is given; given R, it is
approximate (noisy data) and R is taken rather than detected.

Transposes here are plain transposes even over the complex field; none of
the factors are required to be orthogonal.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.cluster.hierarchy
import scipy.linalg
import scipy.spatial.distance

from .linalg import (
    DEFAULT_RANK_TOL,
    DimensionError,
    SolverDiagnostic,
    khatri_rao,
    lstsq,
    null_space,
    numerical_rank,
    orth,
    randn,
    rng,
    split_columns,
)
from .minors import build_PK, n_sym, q2_null_dim, sym_pair_position

__all__ = [
    "SJBDProblem",
    "SJBDSolution",
    "build_commutant_matrix",
    "commutant_basis",
    "simultaneous_evd_single",
    "simultaneous_evd_cpd",
    "solve_sjbd",
    "cluster_columns",
    "cpd_als",
]

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SJBDProblem:
    """A set of symmetric matrices to block-diagonalize jointly.

    Without ``hint_R`` the problem is exact and each input must be symmetric
    to 1e-12 relative; ``hint_R`` gives the number of blocks and makes it
    approximate.  Inputs are symmetrized on ingestion either way.
    ``hint_sum_d`` fixes the dimension of the joint column space (detected
    when omitted).
    """

    V: tuple
    hint_R: int = None
    hint_sum_d: int = None

    def __post_init__(self):
        mats = []
        for q, v in enumerate(self.V):
            v = np.asarray(v)
            if v.ndim != 2 or v.shape[0] != v.shape[1]:
                raise DimensionError(f"V[{q}] is not square")
            dev = np.linalg.norm(v - v.T)
            if self.hint_R is None and dev > SYMMETRY_TOL * max(np.linalg.norm(v), 1.0):
                raise ValueError(f"V[{q}] is not symmetric (deviation {dev:.2e})")
            mats.append((v + v.T) / 2.0)
        if len({m.shape for m in mats}) > 1:
            raise DimensionError("all V_q must share the same size")
        object.__setattr__(self, "V", tuple(mats))

    @property
    def K(self):
        return self.V[0].shape[0]

    @property
    def Q(self):
        return len(self.V)


@dataclass(frozen=True)
class SJBDSolution:
    """Joint block diagonalizer N = [N_1 ... N_R] and its block sizes.

    ``d`` is None for an approximate problem, whose N comes back ungrouped
    for the caller to partition.  ``status`` names a failed uniqueness
    precondition; a CPD refinement reports its convergence in
    ``diagnostics["cpd_status"]`` and ``diagnostics["cpd_converged"]``, and
    its ALS sweep count in ``diagnostics["cpd_iters"]``.
    """

    N: np.ndarray
    d: tuple
    status: str = "ok"
    diagnostics: dict = field(default_factory=dict)

    def blocks(self):
        return split_columns(self.N, self.d)

    def reconstruction_errors(self, v_list):
        """Relative error of N D_q N.T against each V_q, the D_q fitted by
        :func:`recover_coefficients`."""
        errs = []
        for v, d_q in zip(v_list, recover_coefficients(self.N, self.d, v_list)):
            recon = self.N @ d_q @ self.N.T
            errs.append(np.linalg.norm(recon - v) / max(np.linalg.norm(v), 1e-300))
        return np.array(errs)


def build_commutant_matrix(v_list):
    """Q K(K-1)/2 x K^2 matrix whose null space is
    {vec(U) : U V_q = V_q U.T for all q} (column-major vec).

    Row (i, j) of block q is entry (i, j) of U V_q - V_q U.T.  For symmetric
    V_q that matrix is antisymmetric, so only the i < j entries are
    independent equations: the (j, i) row is the negative of the (i, j) row
    and the diagonal rows are zero.  The rows of a block come in the order
    of their entries in vec(U V_q - V_q U.T).
    """
    vs = np.asarray(v_list)
    q, k, _ = vs.shape
    j, i = np.tril_indices(k, -1)
    rows = np.arange(i.size)
    # m[block, row, c, r] is the coefficient of U[r, c], which sits in column c K + r
    m = np.zeros((q, i.size, k, k), dtype=np.result_type(vs, float))
    m[:, rows, :, i] = vs[:, :, j].transpose(2, 0, 1)  # U[i, c] times V_q[c, j]
    m[:, rows, :, j] = -vs[:, i, :].transpose(1, 0, 2)  # U[j, c] times -V_q[i, c]
    return m.reshape(q * i.size, k * k)


def commutant_basis(v_list, tol=DEFAULT_RANK_TOL, dim=None):
    """Basis U_1..U_R of the commutant subspace of the symmetric V_q.

    R is the null-space dimension of :func:`build_commutant_matrix`, cut at
    ``tol`` relative to its largest singular value, or, when ``dim`` is
    given, R = ``dim`` and the basis is the ``dim`` smallest right singular
    directions (in noisy data the exact null space is only the span of the
    vectorized identity).  Stacking every equation twice, as all of
    vec(U V_q - V_q U.T) does, would scale each singular value by sqrt(2)
    and keep the right singular vectors, so neither cut depends on it.
    Assumes the slices span, i.e. K = sum d_r; :func:`solve_sjbd`
    compresses first when they do not.
    """
    k = v_list[0].shape[0]
    basis = null_space(build_commutant_matrix(v_list), tol=tol, dim=dim)
    mats = [basis[:, i].reshape(k, k, order="F") for i in range(basis.shape[1])]
    return len(mats), mats


def _single_linkage(dist, cut=0.0, n_clusters=None):
    """Single-linkage labels from a square distance matrix.

    With ``n_clusters`` given, cuts the tree at that many groups; otherwise
    merges every pair of groups at most ``cut`` apart.  Returns integer
    labels in order of first appearance.
    """
    n = dist.shape[0]
    if n < 2:
        return np.zeros(n, dtype=int)
    z = scipy.cluster.hierarchy.linkage(
        scipy.spatial.distance.squareform(dist, checks=False), method="single"
    )
    if n_clusters is None:
        n_clusters = n - int(np.sum(z[:, 2] <= cut))
    labels = scipy.cluster.hierarchy.cut_tree(z, n_clusters=min(max(n_clusters, 1), n))
    # cut_tree does not document the order of its labels
    _, first, inverse = np.unique(labels.ravel(), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _cluster_scalars(values, tol, n_clusters=None):
    """Group near-equal scalars by single linkage in the complex plane.

    With ``n_clusters`` given, returns that many groups; otherwise merges
    while the gap is at most ``tol`` relative to the value scale.
    """
    values = np.asarray(values)
    scale = max(np.max(np.abs(values)), 1e-300)
    dist = np.abs(values[:, None] - values[None, :])
    return _single_linkage(dist, tol * scale if n_clusters is None else 0.0, n_clusters)


def cluster_columns(x, n_clusters=None, threshold=None):
    """Cluster columns modulo sign/scaling by absolute cosine similarity.

    Each column is normalized to unit norm with its largest-magnitude entry
    made real positive; single linkage on 1 - |cos| gives ``n_clusters``
    groups (or merges every pair with similarity at least ``threshold``).
    Returns integer labels in order of first appearance.
    """
    x = np.asarray(x)
    n = x.shape[1]
    cols = np.array(x, dtype=np.result_type(x, np.float64))
    for j in range(n):
        nrm = np.linalg.norm(cols[:, j])
        if nrm > 0:
            cols[:, j] /= nrm
        pivot = np.argmax(np.abs(cols[:, j]))
        piv = cols[pivot, j]
        if np.abs(piv) > 0:
            cols[:, j] *= np.conj(piv) / np.abs(piv)
    sim = np.abs(cols.conj().T @ cols)
    if threshold is None:
        threshold = 1.0 - 1e-6
    # rounding can push |cos| of parallel columns just above 1
    return _single_linkage(np.maximum(1.0 - sim, 0.0), 1.0 - threshold, n_clusters)


def _group_labels(labels):
    """Stable column order that groups integer labels 0, 1, ... (as
    :func:`cluster_columns` returns them), and the group sizes."""
    return np.argsort(labels, kind="stable"), tuple(int(x) for x in np.bincount(labels))


def _realify_blocks(blocks, means, tol):
    if any(abs(np.imag(m)) > tol * max(np.max(np.abs(means)), 1.0) for m in means):
        return blocks, False
    real_blocks = []
    for b in blocks:
        stacked = np.hstack([np.real(b), np.imag(b)])
        real_blocks.append(orth(stacked, dim=b.shape[1]))
    return real_blocks, True


def _eigen_groups(z, cluster_tol, n_clusters=None):
    """Eigenvectors of z grouped by near-equal eigenvalues.

    Returns the eigenvector blocks and their mean eigenvalues, groups in
    order of first appearance.  Raises :class:`SolverDiagnostic` when z is
    numerically defective: when its eigenvectors do not span, or when the
    eigenvectors of one group are dependent at 1e-6.
    """
    vals, vecs = np.linalg.eig(z)
    rank = numerical_rank(vecs, tol=1e-10)
    if rank < z.shape[0]:
        raise SolverDiagnostic(
            "combination matrix is defective; eigenvectors do not span",
            {"eigenvector_rank": rank, "size": z.shape[0]},
        )
    labels = _cluster_scalars(vals, cluster_tol, n_clusters=n_clusters)
    groups = [np.nonzero(labels == g)[0] for g in range(labels.max() + 1)]
    blocks = [vecs[:, idx] for idx in groups]
    for g, block in enumerate(blocks):
        # eig splits an m-fold defective eigenvalue into m values about
        # eps^(1/m) apart (1e-8 for m = 2) whose unit eigenvectors are as
        # close, so they pass the 1e-10 test above; the eigenvectors of a
        # diagonalizable repeated eigenvalue are independent at the
        # conditioning of the problem, far above the 1e-6 used here
        group_rank = numerical_rank(block, tol=1e-6) if block.shape[1] > 1 else 1
        if group_rank < block.shape[1]:
            raise SolverDiagnostic(
                "combination matrix is defective; the eigenvectors of a "
                "repeated eigenvalue do not span its group",
                {"group": g, "group_rank": group_rank, "group_size": block.shape[1]},
            )
    return blocks, [vals[idx].mean() for idx in groups]


def simultaneous_evd_single(u_mats, seed=0, cluster_tol=1e-6, n_clusters=None):
    """Joint diagonalizer from the EVD of one generic combination.

    Z = sum_r w_r U_r with generic seeded weights; its eigenvalue clusters
    give the block sizes d_r and the grouped eigenvectors give N.  Raises
    :class:`SolverDiagnostic` when Z is numerically defective.
    """
    if not u_mats:
        raise DimensionError("need at least one matrix")
    gen = rng(seed)
    complex_input = any(np.iscomplexobj(u) for u in u_mats)
    w = randn(gen, len(u_mats), "complex" if complex_input else "real")
    z = sum(wi * ui for wi, ui in zip(w, u_mats))
    blocks, means = _eigen_groups(z, cluster_tol, n_clusters)
    if not complex_input:
        blocks, _ = _realify_blocks(blocks, means, cluster_tol)
    order = np.argsort([-b.shape[1] for b in blocks], kind="stable")
    blocks = [blocks[i] for i in order]
    n = np.hstack(blocks)
    d = tuple(b.shape[1] for b in blocks)
    return n, d


def cpd_als(tensor, init, max_iter=500, rel_tol=1e-4):
    """Alternating least squares for a CPD of an m x n x n stack.

    Model: tensor[r, i, j] = sum_k A[r, k] C[i, k] B[j, k].  Each factor
    update solves its normal equations G X = K^H T.T with ``np.linalg.solve``:
    K is the Khatri-Rao product of the other two factors and G = K^H K the
    Hadamard product of their Grams.  When that solve finds G singular, the
    update falls back to a least-squares solve against K itself; a G that
    is nonsingular but ill conditioned is solved as it is.  After each sweep
    the column norms of C and B, read off their Gram diagonals, are balanced
    into A.  The fit is the relative residual of the last update of the
    sweep.  The loop converges when one sweep changes the fit by at most
    ``rel_tol`` times the fit itself, or by 1e-12: on noisy data the fit
    levels off at the noise floor, and sweeps past that point only crawl
    along it.  It stops unconverged after ``max_iter`` sweeps.  Returns the factors
    (A, C, B), the final fit, a convergence flag and the number of sweeps
    run.
    """
    m, n, _ = tensor.shape
    a, c, b = (np.array(f) for f in init)
    t0 = tensor.reshape(m, n * n)
    t1 = tensor.transpose(1, 0, 2).reshape(n, m * n)
    t2 = tensor.transpose(2, 0, 1).reshape(n, m * n)
    norm_t = np.linalg.norm(t0)

    def update(k, g, t):
        # the factor X.T of the normal equations G X = K^H T.T
        try:
            x = np.linalg.solve(g, k.conj().T @ t.T)
        except np.linalg.LinAlgError:
            x = lstsq(k, t.T)
        return x.T

    def gram(f):
        return f.conj().T @ f

    g_c, g_b = gram(c), gram(b)
    prev_fit = np.inf
    converged = False
    for sweep in range(1, max_iter + 1):
        a = update(khatri_rao(c, b), g_c * g_b, t0)
        g_a = gram(a)
        c = update(khatri_rao(a, b), g_a * g_b, t1)
        g_c = gram(c)
        k_b = khatri_rao(a, c)
        b = update(k_b, g_a * g_c, t2)
        g_b = gram(b)
        fit = np.linalg.norm(t2 - b @ k_b.T) / max(norm_t, 1e-300)
        # balance the scaling indeterminacy into the first factor
        for f, g in ((b, g_b), (c, g_c)):
            nrm = np.sqrt(g.diagonal().real)
            nrm[nrm == 0] = 1.0
            f /= nrm
            g /= nrm[:, None] * nrm
            a *= nrm
        # on noise-free data the fit sits at rounding level, where its
        # changes are large relative to it; 1e-12 absolute is the floor
        if abs(prev_fit - fit) <= max(rel_tol * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged, sweep


def simultaneous_evd_cpd(
    u_mats, omega=2.0, seed=0, n_clusters=None, cluster_tol=1e-6, partition=True
):
    """Joint diagonalizer via a rank-one tensor fit of the stacked basis.

    The basis matrices are stacked into a tensor whose exact decomposition
    is U_r = C diag(a_r1..a_rK) B.T with B = C^{-T}; the last slice is
    replaced by omega * I, which is always consistent and softly enforces
    that coupling.  The fit is an alternating least squares refinement
    initialized from the single-combination EVD.  The K first-factor columns
    are clustered modulo sign/scaling to find the block sizes, and the
    columns of N are grouped by cluster.

    Returns (N, d, status, fit, sweeps), ``sweeps`` being the ALS sweeps
    run; with ``partition=False`` the columns are left ungrouped and d is
    None.
    """
    k = u_mats[0].shape[0]
    mats = [np.array(u) for u in u_mats]
    mats[-1] = omega * np.eye(k, dtype=mats[-1].dtype)
    stack = np.stack(mats)

    # the grouped single-combination EVD keeps the initialization real for
    # real input, so the refinement stays in real arithmetic
    n0, _ = simultaneous_evd_single(
        mats, seed=seed, cluster_tol=cluster_tol, n_clusters=n_clusters
    )
    if numerical_rank(n0, tol=1e-12) < k:
        # realified grouping can collapse when conjugate directions land in
        # different clusters; fall back to the ungrouped complex eigenbasis
        n0, _ = simultaneous_evd_single(mats, seed=seed, cluster_tol=0.0, n_clusters=k)
    try:
        n0_inv = np.linalg.inv(n0)
    except np.linalg.LinAlgError as exc:
        raise SolverDiagnostic(
            "initialization eigenbasis is singular", {"size": k}
        ) from exc
    a0 = np.stack([np.diagonal(n0_inv @ u @ n0) for u in mats])
    (a, c, _b), fit, converged, sweeps = cpd_als(stack, (a0, n0, n0_inv.T))
    status = "ok" if converged else "warning: CPD refinement hit max iterations"
    if not partition:
        return c, None, status, fit, sweeps
    labels = cluster_columns(a, n_clusters=n_clusters, threshold=1.0 - cluster_tol)
    order, d = _group_labels(labels)
    return c[:, order], d, status, fit, sweeps


def recover_coefficients(n, d, v_list):
    """Least-squares block-diagonal symmetric D_q with N D_q N.T ~= V_q.

    Each block is packed over its unordered index pairs: ``build_PK`` maps
    the packed entries to the vectorized block and ``sym_pair_position``
    unpacks them."""
    n_blocks = split_columns(n, d)
    design = np.hstack([np.kron(nr, nr) @ build_PK(dr) for nr, dr in zip(n_blocks, d)])
    pinv_design = np.linalg.pinv(design, rcond=DEFAULT_RANK_TOL)
    packed_offs = np.cumsum([n_sym(dr) for dr in d])[:-1]
    out = []
    for v in v_list:
        packed = np.split(pinv_design @ v.ravel(order="F"), packed_offs)
        out.append(
            scipy.linalg.block_diag(*(p[sym_pair_position(dr)] for p, dr in zip(packed, d)))
        )
    return tuple(out)


def solve_sjbd(
    problem,
    seed=0,
    rank_tol=DEFAULT_RANK_TOL,
    evd_variant="single",
    omega=2.0,
    cluster_tol=1e-6,
):
    """S-JBD pipeline from the V_q to (N, d): compress, commutant basis,
    simultaneous EVD.

    When the slices only span an s-dimensional subspace with s < K (always
    the case when sum d_r < K), the V_q are first restricted to that joint
    column space; the diagonalizer is mapped back afterwards, so N is K x
    sum d_r with full column rank in exact mode.  s is ``hint_sum_d`` when
    given and otherwise the numerical rank at ``rank_tol``.

    An exact problem has R detected at ``rank_tol`` and the columns of N
    grouped into blocks of sizes d.  An approximate one takes R from
    ``hint_R`` and returns N ungrouped with d = None.  An exact solution
    records ``diagnostics["expected_Q"]`` = sum binom(d_r+1, 2), and its
    ``status`` warns when the problem's Q differs from it.
    """
    exact = problem.hint_R is None
    v_list = list(problem.V)
    k = problem.K
    s = problem.hint_sum_d
    if s is None or s < k:
        u_s = orth(np.hstack(v_list), tol=rank_tol, dim=s)
        s = u_s.shape[1]
    diagnostics = {"subspace_dim": int(s), "Q": problem.Q}
    if s < k:
        v_list = [(u_s.conj().T @ v @ np.conj(u_s)) for v in v_list]
        v_list = [(v + v.T) / 2.0 for v in v_list]
    else:
        u_s = None
    r_found, u_mats = commutant_basis(v_list, tol=rank_tol, dim=problem.hint_R)
    if r_found < 1:
        raise SolverDiagnostic("empty commutant basis", {"R": r_found})
    diagnostics["commutant_dim"] = int(r_found)

    if evd_variant == "single":
        n_sub, d = simultaneous_evd_single(
            u_mats, seed=seed, cluster_tol=cluster_tol, n_clusters=problem.hint_R
        )
    elif evd_variant == "cpd":
        n_sub, d, cpd_status, fit, sweeps = simultaneous_evd_cpd(
            u_mats,
            omega=omega,
            seed=seed,
            n_clusters=r_found,
            cluster_tol=cluster_tol,
            partition=exact,
        )
        diagnostics["cpd_status"] = cpd_status
        diagnostics["cpd_fit"] = float(fit)
        diagnostics["cpd_iters"] = int(sweeps)
        diagnostics["cpd_converged"] = cpd_status == "ok"
    else:
        raise ValueError(f"unknown evd_variant {evd_variant!r}")

    n = u_s @ n_sub if u_s is not None else n_sub
    if not exact:
        return SJBDSolution(N=n, d=None, diagnostics=diagnostics)
    d = tuple(int(x) for x in d)
    # fewer than 3 matrices with some d_r >= 2 always fail this test, since
    # then the sum is at least 3
    expected_q = q2_null_dim(d)
    diagnostics["expected_Q"] = int(expected_q)
    status = "ok"
    if problem.Q != expected_q:
        status = (
            "warning: Q does not match sum binom(d_r+1, 2); "
            "uniqueness guarantee does not apply"
        )
    return SJBDSolution(N=n, d=d, status=status, diagnostics=diagnostics)
