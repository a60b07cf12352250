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
  largest one dropped, is R's margin; below ``COUPLING_MARGIN_FLOOR`` the
  blocks may mix, and are kept with a warning.
* **Commutant** (noisy data).  The commutant subspace {U : U V_q = V_q
  U.T for all q} has a basis U_1..U_R that N diagonalizes simultaneously,
  the null space of a Q K(K-1)/2 x K^2 system M.  The basis is the R
  smallest eigenvectors of the K^2 x K^2 Gram matrix M^H M, built from two
  contractions of the V_q without M, with R given or cut at the rank
  tolerance; N comes ungrouped from a least-squares rank-one tensor
  refinement of the EVD of one generic combination of the U_r (De
  Lathauwer, SIMAX 28(3), 2006), for the caller to partition.

Both routes, and the solver's Case 3, take their EVD from one routine,
:func:`_pencil_eig`.

The data picks the route: exact data takes the pencil, noisy data the
commutant with the refinement.  A problem is exact unless its number of
blocks R is given or it is flagged noisy; given R, it is approximate and R
is taken rather than detected.

Transposes here are plain transposes even over the complex field; none of
the factors are required to be orthogonal.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    SOLVE_ERRSTATE,
    DimensionError,
    SolverDiagnostic,
    frobenius_norm,
    khatri_rao,
    lstsq,
    numerical_rank,
    orth,
    randn,
    rank_cut,
    rng,
    solve_matrix,
)

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
# below this ratio of the smallest coupling kept to the largest one dropped
# the pencil's blocks may mix, and are kept with a warning; exact instances
# measure 1e10 to 1e14
COUPLING_MARGIN_FLOOR = 1e4
# weight of the identity slice that stands in for the last commutant basis
# matrix in the CPD refinement
CPD_IDENTITY_WEIGHT = 2.0
# the CPD refinement stops unconverged after this many ALS sweeps, and
# converges once a sweep changes its fit by at most this fraction of it
CPD_MAX_SWEEPS = 500
CPD_REL_TOL = 1e-4
# the extrapolation step of the CPD refinement: it starts at CPD_STEP_GROW,
# grows by that factor after each kept point up to CPD_STEP_MAX, and halves
# after each refused one down to CPD_STEP_MIN.  At a step of 1 the point
# would be the sweep's own; capped at 10, the step ended two of criterion
# 5's stalled calls at a higher fit than plain ALS reaches in 500 sweeps.
CPD_STEP_GROW = 1.5
CPD_STEP_MAX = 50.0
CPD_STEP_MIN = 1.1
# the eigenvalues of the commutant Gram carry rounding of about K^2 eps
# lambda_max; R counts those at most this factor above that rounding, or
# at most tol^2 lambda_max when tol^2 is higher, so a tolerance the Gram
# cannot resolve (an exact one, 1e-8 or 1e-10) is cut at its rounding
GRAM_CUT_MARGIN = 1e4


@dataclass(frozen=True)
class SJBDProblem:
    """A set of symmetric matrices to block-diagonalize jointly.

    ``V`` is the (Q, K, K) stack of the V_q, or a sequence of K x K
    matrices, stored as that stack in C order.  Without ``hint_R`` the
    problem is exact and each V_q must be symmetric to 1e-12 relative;
    ``hint_R`` gives the number of blocks and makes it approximate.  The
    stack is symmetrized on ingestion either way.  ``hint_sum_d`` fixes the
    dimension of the joint column space (detected when omitted).  An empty
    V, a V_q that is not square or not of the others' size, and a hint
    below 1 raise :class:`DimensionError`.
    """

    V: np.ndarray
    hint_R: int = None
    hint_sum_d: int = None

    def __post_init__(self):
        v = self.V
        if not isinstance(v, np.ndarray):
            if len({np.shape(m) for m in v}) > 1:
                raise DimensionError("all V_q must share the same size")
            v = np.asarray(v)
        if v.ndim != 3 or v.shape[0] == 0:
            raise DimensionError(f"V must be a non-empty stack of matrices, got shape {v.shape}")
        if v.shape[1] != v.shape[2]:
            raise DimensionError(f"V[0] is not square ({v.shape[1]} x {v.shape[2]})")
        for name in ("hint_R", "hint_sum_d"):
            hint = getattr(self, name)
            if hint is not None and hint < 1:
                raise DimensionError(f"{name} must be at least 1, got {hint}")
        vt = v.transpose(0, 2, 1)
        if self.hint_R is None:
            dev = np.linalg.norm(v - vt, axis=(1, 2))
            scale = np.maximum(np.linalg.norm(v, axis=(1, 2)), 1.0)
            bad = np.flatnonzero(dev > SYMMETRY_TOL * scale)
            if bad.size:
                q = bad[0]
                raise ValueError(f"V[{q}] is not symmetric (deviation {dev[q]:.2e})")
        # C order whatever the input's, so that the products downstream
        # round alike for every layout
        object.__setattr__(self, "V", np.ascontiguousarray((v + vt) / 2.0))

    @property
    def K(self):
        return self.V.shape[1]

    @property
    def Q(self):
        return self.V.shape[0]


@dataclass(frozen=True)
class SJBDSolution:
    """Joint block diagonalizer N = [N_1 ... N_R] and its block sizes.

    ``d`` is None for noisy data (an approximate problem, or one solved as
    ``noisy``), whose N comes back ungrouped for the caller to partition
    into ``diagnostics["commutant_dim"]`` blocks.  ``diagnostics`` holds
    every decision :func:`solve_sjbd` made, under the keys a solver report
    shows them with.  Whether Q fits d is the caller's to check.
    """

    N: np.ndarray
    d: tuple
    diagnostics: dict = field(default_factory=dict)


# only the tests call this (as the reference for the Gram), but
# perfbench/tracing.py hooks it by name
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


def _commutant_gram(vs):
    """M^H M for M = :func:`build_commutant_matrix` of the (Q, K, K) stack,
    from two contractions of the stack, without M.

    Over all K^2 entries of U V_q - V_q U.T, each equation of M counts
    twice, and for symmetric V_q the squared norm halves to ||U V_q||^2 -
    Re tr((U V_q)^H (U V_q).T).  With column-major vec that is G = (sum_q
    conj(V_q) V_q) kron I - C, where C is einsum('qab,qcd->bcda', conj(V),
    V) reshaped to K^2 x K^2 (Golub & Van Loan, Matrix Computations, 4th
    ed., 2013, on the Kronecker structure of Sylvester-type operators).
    """
    q, k, _ = vs.shape
    vc = vs.conj()
    cross = (vc.reshape(q, k * k).T @ vs.reshape(q, k * k)).reshape(k, k, k, k)
    g = -cross.transpose(1, 2, 3, 0).reshape(k * k, k * k)
    r = np.arange(k)
    g.reshape(k, k, k, k)[:, r, :, r] += np.tensordot(vc, vs, axes=([0, 2], [0, 1]))
    return g


def commutant_basis(v_list, tol=DEFAULT_RANK_TOL, dim=None):
    """Basis U_1..U_R of the commutant subspace of the symmetric V_q.

    The basis is the eigenvectors of the R smallest eigenvalues of M^H M
    (:func:`_commutant_gram`), for the Q K(K-1)/2 x K^2 commutant matrix M,
    which is never formed.  R is ``dim`` when given (noisy data, whose
    exact null space is only the span of the vectorized identity).
    Otherwise R counts the eigenvalues at most tol^2 lambda_max, the
    squares of the singular values M's own cut at ``tol`` keeps, with the
    cut raised to the Gram's rounding, ``GRAM_CUT_MARGIN`` K^2 eps
    lambda_max, when tol^2 lies below it.  The eigenvectors come in
    decreasing order of eigenvalue, as right singular vectors do, so that
    the identity direction is the last matrix: :func:`simultaneous_evd_cpd`
    replaces that one.

    Stacking every equation twice, as all of vec(U V_q - V_q U.T) does,
    would scale each eigenvalue by 2 and keep the eigenvectors, so the
    basis does not depend on it.  Assumes the slices span, i.e. K = sum
    d_r; :func:`solve_sjbd` compresses first when they do not.
    """
    # C order whatever the input's, so that every layout rounds alike
    vs = np.ascontiguousarray(v_list)
    k = vs.shape[1]
    lam, vecs = np.linalg.eigh(_commutant_gram(vs))
    if dim is None:
        cut = max(tol**2, GRAM_CUT_MARGIN * k * k * np.finfo(float).eps)
        dim = int(np.count_nonzero(lam <= cut * lam[-1]))
    basis = vecs[:, :dim][:, ::-1]
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
    """Real bases and real means when every mean is real at ``tol``; else both as given."""
    if any(abs(np.imag(m)) > tol * max(np.max(np.abs(means)), 1.0) for m in means):
        return blocks, means
    return [_real_span(b) for b in blocks], means.real


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


def _pencil_eig(w2, w1=None, tol=DEFAULT_RANK_TOL, cluster_tol=1e-6, n_clusters=None):
    """The package's one EVD: of the pencil W_2 W_1^-1, or of W_2 alone.

    One SVD of W_1 tests it (singular below full rank at ``tol``) and
    inverts it.  The eigenvalues are grouped at ``cluster_tol`` (into
    ``n_clusters`` when given) and :func:`_check_eigenvectors` reads the
    eigenvector matrix's one SVD.  Returns (vecs, groups, means, svd): the
    column indices and mean eigenvalue of each group, and (U, s, Vh) of
    vecs.  Raises :class:`SolverDiagnostic` on a singular W_1, a failed EVD
    or defective eigenvectors.
    """
    z = w2
    if w1 is not None:
        u, sv, vh = np.linalg.svd(w1)
        rank, size = rank_cut(sv, tol), w1.shape[0]
        if rank < size:
            # the singular values on either side of the cut, below over above
            ratio = float(sv[rank] / sv[rank - 1]) if rank else None
            raise SolverDiagnostic(
                "pencil combination W_1 is singular",
                {"W1_rank": rank, "size": size, "W1_cut_ratio": ratio},
            )
        z = (w2 @ vh.conj().T / sv) @ u.conj().T
    try:
        vals, vecs = np.linalg.eig(z)
    except np.linalg.LinAlgError as exc:
        raise SolverDiagnostic(f"pencil EVD failed: {exc}", {"size": z.shape[0]}) from exc
    svd = np.linalg.svd(vecs)
    groups = _indices_by_label(_cluster_scalars(vals, cluster_tol, n_clusters))
    _check_eigenvectors(rank_cut(svd[1], 1e-10), vecs, groups)
    # sum / size: the bits of .mean() at a third of its cost (K groups per exact pencil)
    return vecs, groups, np.array([vals[idx].sum() / idx.size for idx in groups]), svd


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
    # C order whatever the input's, so that every layout rounds alike
    vs = np.ascontiguousarray(v_list)
    complex_input = np.iscomplexobj(vs)
    w = randn(rng(seed), (2, vs.shape[0]), "complex" if complex_input else "real")
    w1, w2 = np.tensordot(w, vs, axes=1)
    p, _, _, (u, sv, vh) = _pencil_eig(w2, w1, tol, cluster_tol)
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
    complex_input = any(np.iscomplexobj(u) for u in u_mats)
    w = randn(rng(seed), len(u_mats), "complex" if complex_input else "real")
    z = sum(wi * ui for wi, ui in zip(w, u_mats))
    vecs, groups, means, _ = _pencil_eig(z, cluster_tol=cluster_tol, n_clusters=n_clusters)
    blocks = [vecs[:, idx] for idx in groups]
    if not complex_input:
        blocks, _ = _realify_blocks(blocks, means, cluster_tol)
    blocks.sort(key=lambda b: -b.shape[1])
    return np.hstack(blocks), tuple(b.shape[1] for b in blocks)


@SOLVE_ERRSTATE
def cpd_als(tensor, init):
    """Alternating least squares for a CPD of an m x n x n stack, with an
    extrapolated point after each sweep.

    Model: tensor[r, i, j] = sum_k A[r, k] C[i, k] B[j, k].  Each factor
    update solves its normal equations G X = K^H T.T with ``solve_matrix``,
    ``np.linalg.solve`` without its argument checks: K is the Khatri-Rao
    product of the other two factors and G = K^H K the Hadamard product of
    their Grams.  When that solve finds G singular, the update falls back to
    a least-squares solve against K itself; a G that is nonsingular but ill
    conditioned is solved as it is.  After each sweep the column norms of C
    and B, read off their Gram diagonals, are balanced into A.  The sweep's
    fit is the relative residual of its last update.

    The sweep then tries one point X_prev + s (X - X_prev) along the line
    from the factors before the sweep to those after it, for all three
    factors at once (Rajih, Comon & Harshman, SIMAX 30(3), 2008).  The
    point replaces the sweep's factors only when its relative residual is
    below the sweep's fit.  Each least-squares update lowers the residual
    and the point is kept only when it lowers it further, so the fit cannot
    rise from one sweep to the next.  The step s grows after each kept point
    and shrinks after each refused one (``CPD_STEP_GROW``, ``CPD_STEP_MAX``,
    ``CPD_STEP_MIN``).  On noisy data ALS can crawl along a swamp for
    hundreds of sweeps; the longer steps cross it.

    The loop converges when one sweep changes the fit by at most
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
    norm_t = max(frobenius_norm(t0), 1e-300)
    # real data stays real, and the conjugate of a real array is only a copy
    real = not any(np.iscomplexobj(x) for x in (tensor, a, c, b))
    signature = "dd->d" if real else "DD->D"

    def adjoint(x):
        return x.T if real else x.conj().T

    rhs_a, rhs_c, rhs_b = t0.T, t1.T, t2.T

    def update(k, g, rhs):
        # the factor X.T of the normal equations G X = K^H rhs
        try:
            x = solve_matrix(g, adjoint(k) @ rhs, signature)
        except np.linalg.LinAlgError:
            x = lstsq(k, rhs)
        return x.T

    def gram(f):
        return adjoint(f) @ f

    def column_norms(g):
        # the column norms of a factor from its Gram, 1 for a zero column
        nrm = np.sqrt(g.diagonal().real)
        nrm[nrm == 0] = 1.0
        return nrm

    g_c, g_b = gram(c), gram(b)
    prev_fit = np.inf
    converged = False
    step = CPD_STEP_GROW
    for sweep in range(1, CPD_MAX_SWEEPS + 1):
        # each update returns a new array, so these stay the sweep's start
        a_0, c_0, b_0 = a, c, b
        a = update(khatri_rao(c, b), g_c * g_b, rhs_a)
        g_a = gram(a)
        c = update(khatri_rao(a, b), g_a * g_b, rhs_c)
        g_c = gram(c)
        k_b = khatri_rao(a, c)
        b = update(k_b, g_a * g_c, rhs_b)
        g_b = gram(b)
        fit = frobenius_norm(t2 - b @ k_b.T) / norm_t
        # balance the scaling indeterminacy into the first factor; the
        # Grams follow only if the extrapolated point is refused
        nrm_b = column_norms(g_b)
        b /= nrm_b
        a *= nrm_b
        nrm_c = column_norms(g_c)
        c /= nrm_c
        a *= nrm_c
        a_x = a_0 + step * (a - a_0)
        c_x = c_0 + step * (c - c_0)
        b_x = b_0 + step * (b - b_0)
        fit_x = frobenius_norm(t2 - b_x @ khatri_rao(a_x, c_x).T) / norm_t
        if fit_x < fit:
            a, c, b, fit = a_x, c_x, b_x, fit_x
            g_c, g_b = gram(c), gram(b)
            step = min(step * CPD_STEP_GROW, CPD_STEP_MAX)
        else:
            g_b /= nrm_b[:, None] * nrm_b
            g_c /= nrm_c[:, None] * nrm_c
            step = max(step / 2, CPD_STEP_MIN)
        # on noise-free data the fit sits at rounding level, where its
        # changes are large relative to it; 1e-12 absolute is the floor
        if abs(prev_fit - fit) <= max(CPD_REL_TOL * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged, sweep


def simultaneous_evd_cpd(u_mats, n_clusters, seed=0, cluster_tol=1e-6):
    """Joint diagonalizer via a rank-one tensor fit of the stacked basis.

    The basis matrices are stacked into a tensor whose exact decomposition
    is U_r = C diag(a_r1..a_rK) B.T with B = C^{-T}; the last slice is
    replaced by ``CPD_IDENTITY_WEIGHT`` * I, which is always consistent and
    softly enforces that coupling.  The fit is an alternating least squares
    refinement initialized from the single-combination EVD, its eigenvalues
    grouped into ``n_clusters``.  Each column of N = C lies in one block;
    the columns come ungrouped, for the caller to partition.

    Returns (N, converged, fit, sweeps) with the convergence flag and ALS
    sweep count of :func:`cpd_als`.
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
    (_a, c, _b), fit, converged, sweeps = cpd_als(stack, (a0, n0, n0_inv.T))
    return c, converged, fit, sweeps


def solve_sjbd(problem, seed=0, rank_tol=DEFAULT_RANK_TOL, cluster_tol=1e-6, noisy=False):
    """S-JBD pipeline from the V_q to (N, d): compress, then the pencil or
    the commutant route of the module docstring.

    When the slices only span an s-dimensional subspace with s < K (always
    the case when sum d_r < K), the V_q are first restricted to that joint
    column space; the diagonalizer is mapped back afterwards, so N is K x
    sum d_r with full column rank in exact mode.  s is ``hint_sum_d`` when
    given and otherwise the numerical rank at ``rank_tol``.

    ``noisy`` marks the V_q as perturbed; a given ``hint_R`` implies it.
    Exact data takes the pencil route (:func:`pencil_blocks`) and nothing
    else: a W_1 singular at ``rank_tol`` or a defective pencil raises the
    pencil's :class:`SolverDiagnostic`, and a coupling margin below
    ``COUPLING_MARGIN_FLOOR`` keeps the pencil's blocks with a ``warning:``
    under ``coupling_status`` that they may mix (the caller's residual
    check judges them).  Noisy data takes the commutant route with the CPD
    refinement (:func:`simultaneous_evd_cpd`), even with R detected rather
    than given: noise couples every pair of pencil eigenvectors above any
    cut, leaving one block with no margin to doubt it.  R is detected at
    ``rank_tol`` unless ``hint_R`` gives it.  Each decision is written once
    into ``diagnostics``, under the key :class:`solver.SolveReport` shows: s
    is ``sum_d``, ``sjbd_route`` names the route that ran, the pencil
    records ``coupling_margin``, the commutant ``commutant_dim`` (R),
    ``cpd_status``, ``cpd_fit``, ``cpd_iters`` and ``cpd_converged``.  A
    failure carries the diagnostics written before it.

    Exact data gets the columns of N grouped into blocks of sizes d; noisy
    data gets N ungrouped with d = None, for the caller to partition into
    R blocks.  Whether Q is sum binom(d_r+1, 2) is left to the caller
    (Phase I of :func:`solver.phase1_recover_A` checks it).
    """
    noisy = noisy or problem.hint_R is not None
    vs = problem.V
    k = problem.K
    s = problem.hint_sum_d
    if s is None or s < k:
        # the columns of all the V_q side by side
        u_s = orth(vs.transpose(1, 0, 2).reshape(k, -1), tol=rank_tol, dim=s)
        s = u_s.shape[1]
    diagnostics = {"sum_d": int(s)}
    if s < k:
        vs = u_s.conj().T @ vs @ np.conj(u_s)
        vs = (vs + vs.transpose(0, 2, 1)) / 2.0
    else:
        u_s = None

    route = "commutant" if noisy else "pencil"
    try:
        if noisy:
            diagnostics["sjbd_route"] = route
            r_found, u_mats = commutant_basis(vs, tol=rank_tol, dim=problem.hint_R)
            if r_found < 1:
                raise SolverDiagnostic("empty commutant basis", {"R": r_found})
            diagnostics["commutant_dim"] = int(r_found)
            d = None
            n_sub, converged, fit, sweeps = simultaneous_evd_cpd(
                u_mats, r_found, seed=seed, cluster_tol=cluster_tol
            )
            diagnostics["cpd_status"] = (
                "ok" if converged else "warning: CPD refinement hit max iterations"
            )
            diagnostics["cpd_fit"] = float(fit)
            diagnostics["cpd_iters"] = int(sweeps)
            diagnostics["cpd_converged"] = converged
        else:
            n_sub, d, margin = pencil_blocks(
                vs, seed=seed, tol=rank_tol, cluster_tol=cluster_tol
            )
            diagnostics["coupling_margin"] = margin
            diagnostics["sjbd_route"] = route
            if margin is not None and margin < COUPLING_MARGIN_FLOOR:
                diagnostics["coupling_status"] = (
                    f"warning: pencil coupling margin {margin:.1e} is below "
                    f"{COUPLING_MARGIN_FLOOR:.0e}; its blocks may mix"
                )
    except SolverDiagnostic as exc:
        # a failure names the route that ran
        exc.diagnostics.update(diagnostics, sjbd_route=route)
        raise

    n = u_s @ n_sub if u_s is not None else n_sub
    return SJBDSolution(N=n, d=d, diagnostics=diagnostics)
