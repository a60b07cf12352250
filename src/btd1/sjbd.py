"""Symmetric joint block diagonalization by eigendecomposition.

Given symmetric K x K matrices V_1, ..., V_Q admitting a joint factorization
V_q = N D_q N.T with block-diagonal symmetric D_q (block sizes d_1..d_R),
the block column spaces of N and the sizes d_r follow from an
eigendecomposition, by one of two routes.

* **Pencil** (exact data).  Two generic combinations W_1, W_2 of the V_q
  give the pencil W_2 W_1^-1 = P Lambda P^-1, whose eigenvectors P span
  the blocks of N up to a permutation: every G_q = P^-1 V_q P^-T is block
  diagonal.  The blocks are the connected components of the coupling graph
  max_q |G_q[i, j]| / ||G_q||, cut at ``COUPLING_CUT``, and R is their
  count (Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math.
  27(1), 2010).  The coupling margin, the smallest coupling kept over the
  largest one dropped, is R's margin.
* **Commutant.**  The commutant subspace {U : U V_q = V_q U.T for all q}
  has a basis U_1..U_R that N diagonalizes simultaneously, found as the
  null space of a Q K(K-1)/2 x K^2 system.  For noisy data, N and d come
  from a least-squares rank-one tensor refinement of the EVD of one
  generic combination of the U_r (De Lathauwer, SIMAX 28(3), 2006); for
  exact data whose pencil is singular, defective or has a margin below
  ``COUPLING_MARGIN_FLOOR``, from that EVD alone.

The data picks the route: exact data takes the pencil, noisy data the
commutant with the refinement.  A problem is exact unless its number of
blocks R is given; given R, it is approximate (noisy data) and R is taken
rather than detected.

Transposes here are plain transposes even over the complex field; none of
the factors are required to be orthogonal.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
    rank_cut,
    rng,
)
from .minors import q2_null_dim

__all__ = [
    "SJBDProblem",
    "SJBDSolution",
    "build_commutant_matrix",
    "commutant_basis",
    "pencil_blocks",
    "simultaneous_evd_single",
    "simultaneous_evd_cpd",
    "solve_sjbd",
    "cluster_columns",
    "cpd_als",
]

SYMMETRY_TOL = 1e-12
# a coupling of two pencil eigenvectors above this joins their blocks; exact
# data puts the couplings across blocks at rounding level
COUPLING_CUT = 1e-6
# the pencil's blocks are trusted only when the smallest coupling kept
# exceeds the largest one dropped by this factor; exact instances measure
# 1e10 to 1e14
COUPLING_MARGIN_FLOOR = 1e4
# weight of the identity slice that stands in for the last commutant basis
# matrix in the CPD refinement
CPD_IDENTITY_WEIGHT = 2.0
# the CPD refinement stops unconverged after this many ALS sweeps, and
# converges once a sweep changes its fit by at most this fraction of it
CPD_MAX_SWEEPS = 500
CPD_REL_TOL = 1e-4


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
    for the caller to partition.  ``diagnostics`` holds every decision
    :func:`solve_sjbd` made, under the keys a solver report shows them
    with; ``diagnostics["sjbd_status"]``, present only on a mismatch, warns
    that Q is not sum binom(d_r+1, 2).
    """

    N: np.ndarray
    d: tuple
    diagnostics: dict = field(default_factory=dict)


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

    The merges are the edges of a minimum spanning tree (Gower & Ross,
    Appl. Stat. 18(1), 1969), grown by Prim's method from node 0 and read
    from the upper triangle: each step joins the first unjoined node of
    least distance to the tree and records it with the node joined before
    it.  The edges, stably sorted by height, are the merges.  With
    ``n_clusters`` given, the groups are those left after the first
    n - ``n_clusters`` merges, so merges tied at that cut are taken in Prim
    order; otherwise every merge at most ``cut`` high is made.  Returns
    integer labels in order of first appearance, and the merge heights in
    increasing order.  Raises ``ValueError`` on a non-finite distance.
    """
    n = dist.shape[0]
    if n < 2:
        return np.zeros(n, dtype=int), np.zeros(0)
    # plain loops over lists: at the sizes clustered here (n <= ~20) each
    # numpy call would cost more than the whole tree
    rows = dist.tolist()
    inf = math.inf
    reach = [inf] * n
    left = list(range(1, n))
    edges = []
    x = 0
    while left:
        best, y = inf, -1
        row = rows[x]
        for i in left:
            d = row[i] if x < i else rows[i][x]
            if not -inf < d < inf:
                raise ValueError("single linkage needs finite distances")
            if d < reach[i]:
                reach[i] = d
            if reach[i] < best:
                best, y = reach[i], i
        left.remove(y)
        edges.append((best, x, y))
        x = y
    edges.sort(key=lambda edge: edge[0])
    heights = [edge[0] for edge in edges]
    if n_clusters is None:
        n_clusters = n - sum(h <= cut for h in heights)
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for _, a, b in edges[: n - min(max(n_clusters, 1), n)]:
        parent[root(a)] = root(b)
    first = {}
    labels = [first.setdefault(root(i), len(first)) for i in range(n)]
    return np.array(labels), np.array(heights)


def _cluster_scalars(values, tol, n_clusters=None):
    """Group near-equal scalars by single linkage in the complex plane.

    With ``n_clusters`` given, returns that many groups; otherwise merges
    while the gap is at most ``tol`` relative to the value scale.
    """
    values = np.asarray(values)
    scale = max(np.max(np.abs(values)), 1e-300)
    dist = np.abs(values[:, None] - values[None, :])
    return _single_linkage(dist, tol * scale if n_clusters is None else 0.0, n_clusters)[0]


def cluster_columns(x, n_clusters):
    """Cluster columns modulo sign/scaling by absolute cosine similarity.

    Each column is normalized to unit norm with its largest-magnitude entry
    made real positive; single linkage on 1 - |cos| gives ``n_clusters``
    groups.  Returns integer labels in order of first appearance.
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
    # rounding can push |cos| of parallel columns just above 1
    return _single_linkage(np.maximum(1.0 - sim, 0.0), n_clusters=n_clusters)[0]


def _group_labels(labels):
    """Stable column order that groups integer labels 0, 1, ... (as
    :func:`cluster_columns` returns them), and the group sizes."""
    return np.argsort(labels, kind="stable"), tuple(int(x) for x in np.bincount(labels))


def _real_span(b):
    """Real orthonormal basis of span(b), for a span closed under
    conjugation."""
    return orth(np.hstack([np.real(b), np.imag(b)]), dim=b.shape[1])


def _realify_blocks(blocks, means, tol):
    if any(abs(np.imag(m)) > tol * max(np.max(np.abs(means)), 1.0) for m in means):
        return blocks, False
    return [_real_span(b) for b in blocks], True


def _check_eigenvectors(rank, vecs, groups):
    """Raise :class:`SolverDiagnostic` when eigenvectors are numerically
    defective.

    ``rank`` is the rank of the eigenvector matrix ``vecs`` at 1e-10, and
    ``groups`` index its columns by near-equal eigenvalue.  The eigenvectors
    are defective when they do not span, or when those of one group are
    dependent at 1e-6.
    """
    if rank < vecs.shape[0]:
        raise SolverDiagnostic(
            "combination matrix is defective; eigenvectors do not span",
            {"eigenvector_rank": rank, "size": vecs.shape[0]},
        )
    for g, idx in enumerate(groups):
        # eig splits an m-fold defective eigenvalue into m values about
        # eps^(1/m) apart (1e-8 for m = 2) whose unit eigenvectors are as
        # close, so they pass the 1e-10 test above; the eigenvectors of a
        # diagonalizable repeated eigenvalue are independent at the
        # conditioning of the problem, far above the 1e-6 used here
        group_rank = numerical_rank(vecs[:, idx], tol=1e-6) if idx.size > 1 else 1
        if group_rank < idx.size:
            raise SolverDiagnostic(
                "combination matrix is defective; the eigenvectors of a "
                "repeated eigenvalue do not span its group",
                {"group": g, "group_rank": group_rank, "group_size": int(idx.size)},
            )


def _indices_by_label(labels):
    return [np.nonzero(labels == g)[0] for g in range(labels.max() + 1)]


def _eigen_groups(z, cluster_tol, n_clusters=None):
    """Eigenvectors of z grouped by near-equal eigenvalues.

    Returns the eigenvector blocks and their mean eigenvalues, groups in
    order of first appearance.  Raises :class:`SolverDiagnostic` when z is
    numerically defective (:func:`_check_eigenvectors`).
    """
    vals, vecs = np.linalg.eig(z)
    groups = _indices_by_label(_cluster_scalars(vals, cluster_tol, n_clusters=n_clusters))
    _check_eigenvectors(numerical_rank(vecs, tol=1e-10), vecs, groups)
    return [vecs[:, idx] for idx in groups], [vals[idx].mean() for idx in groups]


def pencil_blocks(v_list, seed=0, tol=DEFAULT_RANK_TOL, cluster_tol=1e-6):
    """Joint block diagonalizer of exact, spanning V_q from one pencil EVD.

    Two seeded generic combinations W_1 and W_2 of the V_q give the EVD
    W_2 W_1^-1 = P Lambda P^-1, with the rows of P^-1 scaled to unit norm.
    Each G_q = P^-1 V_q P^-T is block diagonal up to a permutation, and the
    blocks are the connected components of the coupling graph
    max_q |G_q[i, j]| / ||G_q||_F cut at ``COUPLING_CUT``: single linkage on
    -log10 of the couplings.  Real data is realified block by block; a
    block's span is closed under conjugation.  Blocks come largest first.

    Returns (N, d, margin).  The margin is the smallest coupling kept (1
    when every block is a single column) over the largest coupling dropped,
    and None when nothing is dropped.  Raises :class:`SolverDiagnostic` when
    W_1 is singular at ``tol`` or when the pencil is defective (eigenvalues
    grouped at ``cluster_tol``).
    """
    vs = np.asarray(v_list)
    s = vs.shape[1]
    complex_input = np.iscomplexobj(vs)
    w = randn(rng(seed), (2, vs.shape[0]), "complex" if complex_input else "real")
    w1, w2 = np.tensordot(w, vs, axes=1)
    u, sv, vh = np.linalg.svd(w1)
    rank = rank_cut(sv, tol)
    if rank < s:
        raise SolverDiagnostic(
            "pencil combination W_1 is singular", {"W1_rank": rank, "size": s}
        )
    try:
        vals, p = np.linalg.eig((w2 @ vh.conj().T / sv) @ u.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SolverDiagnostic(f"pencil EVD failed: {exc}", {"size": s}) from exc
    u, sv, vh = np.linalg.svd(p)
    groups = _indices_by_label(_cluster_scalars(vals, cluster_tol))
    _check_eigenvectors(rank_cut(sv, 1e-10), p, groups)
    p_inv = (vh.conj().T / sv) @ u.conj().T
    p_inv /= np.linalg.norm(p_inv, axis=1)[:, None]
    g = p_inv @ vs @ p_inv.T
    g_norms = np.maximum(np.linalg.norm(g, axis=(1, 2)), 1e-300)
    coupling = np.max(np.abs(g) / g_norms[:, None, None], axis=0)
    coupling = np.maximum(coupling, coupling.T)
    cut = -np.log10(COUPLING_CUT)
    labels, heights = _single_linkage(-np.log10(np.maximum(coupling, 1e-300)), cut)
    kept, dropped = heights[heights <= cut], heights[heights > cut]
    margin = None
    if dropped.size:
        margin = float(10.0 ** (dropped.min() - (kept.max() if kept.size else 0.0)))
    blocks = [p[:, idx] for idx in _indices_by_label(labels)]
    if not complex_input:
        blocks = [_real_span(b) for b in blocks]
    blocks.sort(key=lambda b: -b.shape[1])
    return np.hstack(blocks), tuple(b.shape[1] for b in blocks), margin


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


def cpd_als(tensor, init):
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
    ``CPD_REL_TOL`` times the fit itself, or by 1e-12: on noisy data the
    fit levels off at the noise floor, and sweeps past that point only
    crawl along it.  It stops unconverged after ``CPD_MAX_SWEEPS`` sweeps.
    Returns the factors (A, C, B), the final fit, a convergence flag and
    the number of sweeps run.
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
    for sweep in range(1, CPD_MAX_SWEEPS + 1):
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
        if abs(prev_fit - fit) <= max(CPD_REL_TOL * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged, sweep


def simultaneous_evd_cpd(u_mats, n_clusters, seed=0, cluster_tol=1e-6, partition=True):
    """Joint diagonalizer via a rank-one tensor fit of the stacked basis.

    The basis matrices are stacked into a tensor whose exact decomposition
    is U_r = C diag(a_r1..a_rK) B.T with B = C^{-T}; the last slice is
    replaced by ``CPD_IDENTITY_WEIGHT`` * I, which is always consistent and
    softly enforces that coupling.  The fit is an alternating least squares
    refinement initialized from the single-combination EVD.  The K
    first-factor columns are clustered modulo sign/scaling into
    ``n_clusters`` groups, which give the block sizes and group N.

    Returns (N, d, converged, fit, sweeps) with the convergence flag and
    ALS sweep count of :func:`cpd_als`; with ``partition=False`` the
    columns are left ungrouped and d is None.
    """
    k = u_mats[0].shape[0]
    mats = [np.array(u) for u in u_mats]
    mats[-1] = CPD_IDENTITY_WEIGHT * np.eye(k, dtype=mats[-1].dtype)
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
    if not partition:
        return c, None, converged, fit, sweeps
    order, d = _group_labels(cluster_columns(a, n_clusters))
    return c[:, order], d, converged, fit, sweeps


def _commutant_diagonalizer(v_list, hint_r, noisy, diagnostics, seed, rank_tol, cluster_tol):
    """(N, d) of the V_q by the commutant route of :func:`solve_sjbd`,
    recording the commutant dimension and, for noisy data, the CPD
    refinement in ``diagnostics``; d is None when ``hint_r`` is given."""
    r_found, u_mats = commutant_basis(v_list, tol=rank_tol, dim=hint_r)
    if r_found < 1:
        raise SolverDiagnostic("empty commutant basis", {"R": r_found})
    diagnostics["commutant_dim"] = int(r_found)
    if not noisy:
        return simultaneous_evd_single(u_mats, seed=seed, cluster_tol=cluster_tol)
    n_sub, d, converged, fit, sweeps = simultaneous_evd_cpd(
        u_mats, r_found, seed=seed, cluster_tol=cluster_tol, partition=hint_r is None
    )
    diagnostics["cpd_status"] = (
        "ok" if converged else "warning: CPD refinement hit max iterations"
    )
    diagnostics["cpd_fit"] = float(fit)
    diagnostics["cpd_iters"] = int(sweeps)
    diagnostics["cpd_converged"] = converged
    return n_sub, d


def solve_sjbd(problem, seed=0, rank_tol=DEFAULT_RANK_TOL, cluster_tol=1e-6, noisy=False):
    """S-JBD pipeline from the V_q to (N, d): compress, then the pencil or
    the commutant route of the module docstring.

    When the slices only span an s-dimensional subspace with s < K (always
    the case when sum d_r < K), the V_q are first restricted to that joint
    column space; the diagonalizer is mapped back afterwards, so N is K x
    sum d_r with full column rank in exact mode.  s is ``hint_sum_d`` when
    given and otherwise the numerical rank at ``rank_tol``.

    ``noisy`` marks the V_q as perturbed; a given ``hint_R`` implies it.
    Exact data takes the pencil route (:func:`pencil_blocks`); it falls
    back to the commutant route with the single-combination EVD when W_1 is
    singular at ``rank_tol``, when the pencil is defective, or when the
    coupling margin is below ``COUPLING_MARGIN_FLOOR``, and
    ``diagnostics["sjbd_fallback"]`` says which (a ``warning:`` for the
    margin).  Noisy data takes the commutant route with the CPD refinement
    (:func:`simultaneous_evd_cpd`), even with R detected rather than given:
    noise couples every pair of pencil eigenvectors above any cut, leaving
    one block with no margin to doubt it.  R is detected at ``rank_tol``
    unless ``hint_R`` gives it.  Each decision is written once into
    ``diagnostics``, under the key :class:`solver.SolveReport` shows: s is
    ``sum_d``, ``sjbd_route`` names the route that ran, the pencil records
    ``coupling_margin``, the commutant ``commutant_dim`` and, for noisy
    data, ``cpd_status``, ``cpd_fit``, ``cpd_iters`` and ``cpd_converged``.

    An exact problem gets the columns of N grouped into blocks of sizes d;
    an approximate one gets N ungrouped with d = None.  When an exact
    problem's Q is not sum binom(d_r+1, 2), ``sjbd_status``, the one Q
    verdict, warns that the uniqueness guarantee does not apply.
    """
    exact = problem.hint_R is None
    noisy = noisy or not exact
    v_list = list(problem.V)
    k = problem.K
    s = problem.hint_sum_d
    if s is None or s < k:
        u_s = orth(np.hstack(v_list), tol=rank_tol, dim=s)
        s = u_s.shape[1]
    diagnostics = {"sum_d": int(s)}
    if s < k:
        v_list = [(u_s.conj().T @ v @ np.conj(u_s)) for v in v_list]
        v_list = [(v + v.T) / 2.0 for v in v_list]
    else:
        u_s = None

    route = "commutant"
    if not noisy:
        try:
            n_sub, d, margin = pencil_blocks(
                v_list, seed=seed, tol=rank_tol, cluster_tol=cluster_tol
            )
        except SolverDiagnostic as exc:
            diagnostics["sjbd_fallback"] = str(exc)
        else:
            diagnostics["coupling_margin"] = margin
            if margin is not None and margin < COUPLING_MARGIN_FLOOR:
                diagnostics["sjbd_fallback"] = (
                    f"warning: pencil coupling margin {margin:.1e} is below "
                    f"{COUPLING_MARGIN_FLOOR:.0e}; blocks taken from the commutant"
                )
            else:
                route = "pencil"
    diagnostics["sjbd_route"] = route

    if route == "commutant":
        try:
            n_sub, d = _commutant_diagonalizer(
                v_list,
                problem.hint_R,
                noisy,
                diagnostics,
                seed=seed,
                rank_tol=rank_tol,
                cluster_tol=cluster_tol,
            )
        except SolverDiagnostic as exc:
            # a failure names the route that ran and why the pencil did not
            exc.diagnostics.update(diagnostics)
            raise

    n = u_s @ n_sub if u_s is not None else n_sub
    if not exact:
        return SJBDSolution(N=n, d=None, diagnostics=diagnostics)
    d = tuple(int(x) for x in d)
    # fewer than 3 matrices with some d_r >= 2 always fail this test, since
    # then the sum is at least 3
    if problem.Q != q2_null_dim(d):
        diagnostics["sjbd_status"] = (
            "warning: Q does not match sum binom(d_r+1, 2); "
            "uniqueness guarantee does not apply"
        )
    return SJBDSolution(N=n, d=d, diagnostics=diagnostics)
