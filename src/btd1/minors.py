"""Second-order minor structures of a third-order tensor.

The central object is the matrix of 2 x 2 minor quadratic forms: a K-vector
``f`` combines the frontal slices into ``f_1 T_1 + ... + f_K T_K``, and that
combination has rank <= 1 exactly when all of its 2 x 2 minors vanish, i.e.
when ``R2(T) (f kron f) = 0``.  Because the rows of ``R2`` are vectorized
symmetric K x K matrices, the smaller matrix ``Q2`` over unordered index
pairs carries the same information: ``R2 = Q2 @ PK.T``.

The package never forms Q2.  :func:`q2_gram` builds H = Q2^H Q2 from two
contractions of the tensor, and :func:`_q2_apply` gives ||Q2 g|| and
Q2^H Q2 g for a block of vectors, a batch of columns at a time.  Phase I's
null space comes from :func:`_q2_null`, which corrects H's near-null
eigenvectors against the exact product and counts them by their unsquared
residuals (scenario 2, whose count is given, takes them as they are);
:func:`q2_rank` keeps H's own count where its checks pass and takes that
one otherwise.  :func:`build_Q2` fills Q2 for the tests alone.

All index pairs — (i1 < i2), (j1 < j2) for rows, (k1 <= k2) for columns,
and the entries of wedge / symmetric products — are enumerated in one place
(:func:`strict_pairs` / :func:`sym_pairs`, with :func:`sym_pair_position`
as the inverse table), in lexicographic order.  The wedge and symmetric
products of factor blocks and the factor matrices ``Phi(A, B)`` and
``S2(C)`` are built here once, for every arithmetic: :func:`phi_matrix` and
:func:`s2_matrix` multiply and add with numpy and take a ``field`` whose
``reduce`` method maps each finished product into the field: the identity
for real and complex factors, reduction mod p for a ``btd1.gf.GFField``,
whose residues' products and their sums or differences stay exact in
int64.  That keeps the factorization ``Q2 = Phi(A, B) @ S2(C).T`` exact
entry for entry in both.  The column layout of Phi and S2 lives in one
cached table, :func:`term_pair_columns`, which gives each column its term
pair and the two factor columns it combines; the builders gather through
it for all term pairs at once, a column chunk at a time, and
:func:`phi_matrix` and the finite-field sketch in :mod:`btd1.gf` both
consume :func:`phi_wedges`.  The selector ``PK``, the vector wedge and
symmetric products and the second compound matrix are identities the test
suite checks against these builders; the package itself never forms them.

Every other module reads the method's structural counts from here: pair
counts, block sizes d_r = K - sum L + L_r, Q = sum binom(d_r+1, 2) and the
column count of Phi(A, B) with its two count conditions.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .linalg import DEFAULT_RANK_TOL, DimensionError
from .tensor import Tensor3

__all__ = [
    "strict_pairs",
    "sym_pairs",
    "n_strict",
    "n_sym",
    "block_sizes",
    "total_block_size",
    "q2_null_dim",
    "phi_columns",
    "phi_count_conditions",
    "build_Q2",
    "q2_gram",
    "q2_residual",
    "Q2Rank",
    "q2_rank",
    "symmetric_null_matrices",
    "sym_pair_position",
    "term_pair_columns",
    "phi_wedges",
    "phi_matrix",
    "s2_matrix",
]


@lru_cache(maxsize=64)
def strict_pairs(n):
    """Index pairs (p, q) with p < q in lexicographic order, as two arrays."""
    first = np.array([p for p in range(n) for _ in range(p + 1, n)], dtype=np.int64)
    second = np.array([q for p in range(n) for q in range(p + 1, n)], dtype=np.int64)
    return first, second


@lru_cache(maxsize=64)
def sym_pairs(n):
    """Index pairs (p, q) with p <= q in lexicographic order."""
    first = np.array([p for p in range(n) for _ in range(p, n)], dtype=np.int64)
    second = np.array([q for p in range(n) for q in range(p, n)], dtype=np.int64)
    return first, second


def n_strict(n):
    """binom(n, 2): the number of pairs p < q."""
    return n * (n - 1) // 2


def n_sym(n):
    """binom(n + 1, 2): the number of pairs p <= q."""
    return n * (n + 1) // 2


def block_sizes(k, sizes):
    """``(K, d)`` with K clamped to sum L_r (third-mode compression removes
    the rest) and d_r = K - sum L + L_r."""
    sum_l = sum(sizes)
    k = min(k, sum_l)
    return k, [k - sum_l + l for l in sizes]


def total_block_size(r, k, sum_l):
    """sum_r d_r = R K - (R - 1) sum L, from R, K and sum L_r alone."""
    return r * k - (r - 1) * sum_l


def q2_null_dim(d):
    """Q = sum_r binom(d_r + 1, 2), the null-space dimension of Q2."""
    return sum(n_sym(x) for x in d)


def phi_columns(sizes):
    """Column count sum_{r1 < r2} L_r1 L_r2 of Phi(A, B)."""
    sum_l = sum(sizes)
    return (sum_l * sum_l - sum(l * l for l in sizes)) // 2


def phi_count_conditions(i_dim, j_dim, sizes):
    """Whether Phi(A, B) has as many rows as columns, and whether J fits
    the two largest sizes (the one size if R = 1), without which two
    wedged B-blocks are rank deficient."""
    rows_ok = n_strict(i_dim) * n_strict(j_dim) >= phi_columns(sizes)
    return rows_ok, j_dim >= sum(sorted(sizes)[-2:])


def _tensor_values(t):
    values = t.values if isinstance(t, Tensor3) else np.ascontiguousarray(t)
    if values.shape[0] < 2 or values.shape[1] < 2:
        raise DimensionError("Q2 needs I >= 2 and J >= 2")
    return values


# only the tests call this (criterion 1's golden matrix and the identity
# tests), but perfbench/tracing.py hooks it by name
def build_Q2(t):
    """Minor matrix over unordered k-pairs, binom(I,2)binom(J,2) x binom(K+1,2).

    Row (i1 < i2, j1 < j2), column (k1 <= k2) holds

        t[i1,j1,k1] t[i2,j2,k2] + t[i1,j1,k2] t[i2,j2,k1]
      - t[i1,j2,k1] t[i2,j1,k2] - t[i1,j2,k2] t[i2,j1,k1]

    which is integer-exact for integer tensors.  Requires I >= 2 and J >= 2.
    """
    values = _tensor_values(t)
    (ip1, ip2), (jp1, jp2) = strict_pairs(values.shape[0]), strict_pairs(values.shape[1])
    kp1, kp2 = sym_pairs(values.shape[2])
    out = np.empty((ip1.size * jp1.size, kp1.size), dtype=values.dtype)
    return _kernels.minor_matrix_fill(values, ip1, ip2, jp1, jp2, kp1, kp2, out)


# columns of g per batch in _q2_apply, and entries of one product in
# q2_gram, to keep their products at about 2^16 entries.  The uniqueness
# report's traced peak at 6x20x20 is 2.3 MB with 2^16 and 3.9 MB with 2^17
_BATCH_ENTRIES = 1 << 16


def q2_gram(t):
    """H = Q2^H Q2, binom(K+1,2) x binom(K+1,2), from two contractions of
    the tensor, without Q2.

    With C = T_(3)^H T_(3) and P[i,i',k,k'] = sum_j conj(t_ijk) t_i'jk',
    the Gram matrix of the ordered-pair minors summed over all (i1,i2,j1,j2)
    is 2 C kron C - 2 E, where E[(k1,k2),(k3,k4)] = sum_{i,i'}
    P[i,i',k1,k4] P[i',i,k2,k3].  Q2's column (k1,k2) sums the columns of
    both orders, and each row of Q2 appears four times over ordered i- and
    j-pairs, so summing both orders on both sides and dividing by 4 gives

        H[(k1,k2),(k3,k4)] = C[k1,k3] C[k2,k4] + C[k1,k4] C[k2,k3]
                             - E[(k1,k2),(k3,k4)] - E[(k1,k2),(k4,k3)],

    using E[(k2,k1),(k4,k3)] = E[(k1,k2),(k3,k4)].  E is built for a chunk
    of k1 at a time by one batched product, over every k2 from the chunk's
    first k1 on, and gathered at the pairs k1 <= k2.  A chunk's product
    holds at most about ``_BATCH_ENTRIES`` entries, so up to K = 16 one
    product builds all of E.  Integer tensors are contracted in float64,
    exactly while every sum stays below 2^53 in magnitude.  Requires I >= 2
    and J >= 2."""
    values = _tensor_values(t)
    values = values.astype(np.result_type(values, 1.0), copy=False)
    i_dim, j_dim, k_dim = values.shape
    kp1, kp2 = sym_pairs(k_dim)
    t3 = values.reshape(i_dim * j_dim, k_dim)
    c = t3.conj().T @ t3
    # P4[i,k,i',k'] = P[i,i',k,k'] from one (IK x IK) product over j
    x = values.transpose(1, 0, 2).reshape(j_dim, i_dim * k_dim)
    p4 = (x.conj().T @ x).reshape(i_dim, k_dim, i_dim, k_dim)
    # pm[a,(i,i'),d] = P[i,i',a,d] and pt[(i,i'),(b,c)] = P[i',i,b,c]
    pm = p4.transpose(1, 0, 2, 3).reshape(k_dim, -1, k_dim)
    pt = np.ascontiguousarray(p4.transpose(2, 0, 1, 3)).reshape(-1, k_dim * k_dim)
    h = np.empty((kp1.size, kp1.size), dtype=c.dtype)
    # C's columns and E's flat (c,d) and (d,c) entries at the pairs
    c1, c2, e12, e21 = c[:, kp1], c[:, kp2], kp1 * k_dim + kp2, kp2 * k_dim + kp1
    first = 0
    while first < k_dim:
        width = k_dim - first
        stop = min(k_dim, first + max(1, _BATCH_ENTRIES // (width * k_dim * k_dim)))
        rows = slice(*np.searchsorted(kp1, (first, stop)))
        a, b = kp1[rows], kp2[rows]
        # w[a,(b,c),d] = E[(a,b),(c,d)] for first <= a < stop and b >= first,
        # then w[(a,b),(c,d)] at the pairs a <= b
        w = np.matmul(pt[:, first * k_dim :].T, pm[first:stop])
        w = w.reshape(-1, k_dim * k_dim).take((a - first) * width + b - first, axis=0)
        block = h[rows]
        np.multiply(c1[a], c2[b], out=block)
        cross = c2[a]
        cross *= c1[b]
        block += cross
        block -= w[:, e12]
        block -= w[:, e21]
        first = stop
    return h


def _q2_apply(values, g, normal):
    """The column norms ||Q2 g|| of the binom(K+1,2) x m array ``g`` and,
    with ``normal``, Q2^H Q2 g (else None), without Q2.

    Column c of g packs the symmetric K x K matrix M (entry (k1,k2) of pair
    {k1,k2}, its diagonal doubled).  With F the IJ x K matrix of mode-3
    fibres and G = F M F^T, row (i1<i2, j1<j2) of Q2 g is D[(i1,j1),(i2,j2)]
    = G[(i1,j1),(i2,j2)] - G[(i1,j2),(i2,j1)], formed one i1 at a time over
    all (j1, j2).  D and Q2's rows so extended are antisymmetric in
    j1 <-> j2, so ||Q2 g||^2 is half the sum of |D|^2, and Q2^H Q2 g =
    pack(A + A^T) over k1 <= k2, with A = sum_i1 conj(F_i1)^T D_i1
    conj(F_>i1) (F_i1 the rows of F at i1, F_>i1 those past it)."""
    values = values.astype(np.result_type(values, 1.0), copy=False)
    i_dim, j_dim, k_dim = values.shape
    g = np.asarray(g).reshape(n_sym(k_dim), -1)
    f = values.reshape(i_dim * j_dim, k_dim)
    fc = f.conj()
    kp1, kp2 = sym_pairs(k_dim)
    pos = sym_pair_position(k_dim)
    scale = np.where(np.eye(k_dim, dtype=bool), 2.0, 1.0)[:, :, None]
    dtype = np.result_type(values, g)
    norms = np.empty(g.shape[1])
    out = np.empty(g.shape, dtype=dtype) if normal else None
    step = max(1, _BATCH_ENTRIES // (j_dim * max(i_dim * k_dim, (i_dim - 1) * j_dim)))
    for first in range(0, g.shape[1], step):
        cols = slice(first, first + step)
        m = g[pos, cols] * scale  # m[k, l, column]
        n = m.shape[2]
        # fm[i, j1, l, column] = (F M)[(i,j1), l]
        fm = (f @ m.reshape(k_dim, k_dim * n)).reshape(i_dim, j_dim, k_dim, n)
        sq = np.zeros(n)
        a = np.zeros((k_dim, n, k_dim), dtype=dtype) if normal else None
        for i1 in range(i_dim - 1):
            rest = slice((i1 + 1) * j_dim, None)
            left = fm[i1].transpose(0, 2, 1).reshape(j_dim * n, k_dim)
            # x[j1, column, i2, j2] = G[(i1,j1),(i2,j2)] for i2 > i1
            x = (left @ f[rest].T).reshape(j_dim, n, -1, j_dim)
            d = x - x.transpose(3, 1, 2, 0)
            sq += np.einsum("acbd,acbd->c", d.conj(), d).real
            if normal:
                # y[j1, column, k2] = (D_i1 conj(F_>i1))[j1, k2]
                y = (d.reshape(j_dim * n, -1) @ fc[rest]).reshape(j_dim, n * k_dim)
                a += (fc[i1 * j_dim : rest.start].T @ y).reshape(k_dim, n, k_dim)
        norms[cols] = np.sqrt(sq / 2)
        if normal:
            out[:, cols] = a[kp1, :, kp2] + a[kp2, :, kp1]
    return norms, out


def q2_residual(t, g):
    """||Q2 g||_F for the binom(K+1,2) x m array ``g`` (or one vector),
    without Q2 (:func:`_q2_apply`).  Requires I >= 2 and J >= 2."""
    norms, _ = _q2_apply(_tensor_values(t), g, normal=False)
    return float(np.sqrt(np.sum(norms * norms)))


# q2_rank counts an eigenvalue of H as non-null only from this fraction of
# the largest (or (2 tol)^2, if larger); the factor 2 puts the non-null
# singular values at least twice the cut tol * sigma_max
_GRAM_FLOOR = 1e-12
# H's rounding, as a multiple of eps * ||T||_F^4: H sums products of size
# up to trace(C)^2 = ||T||_F^4 that cancel where Q2 is small, so its
# eigenvalues move by up to about eps * ||T||_F^4 whatever lambda_max is.
# The null eigenvalues of random 2x8x7 to 8x30x30 decompositions, real and
# complex, with all terms alike or one term (or all but one) scaled by
# 1e-1 to 1e-4, sit within 0.57 eps * ||T||_F^4 of zero
_GRAM_ROUNDING = 4.0
# seminormal corrections at most, and the size below which one is rounding:
# with all terms but one scaled by 1e-3 or 1e-4, 2-4 corrections give the
# formed Q2's rank; on exact data the second is 4e-15 to 4e-14
_MAX_CORRECTIONS, _CORRECTION_FLOOR = 4, 1e-12


def _gram_limits(values, tol):
    """The floor max(1e-12, (2 tol)^2) and H's rounding 4 eps ||T||_F^4."""
    norm2 = np.linalg.norm(values) ** 2
    return max(_GRAM_FLOOR, (2 * tol) ** 2), _GRAM_ROUNDING * np.finfo(float).eps * norm2 * norm2


def _q2_null(values, tol, dim=None, atol=0.0, eig=None):
    """Q2's null vectors and their margin, from ``eig`` = eigh(Q2^H Q2).

    The candidates W are the eigenvectors below max(floor lambda_max,
    2 delta, 2 atol^2) (:func:`_gram_limits`; any other one has sigma^2 >=
    lambda / 2, above the cut), or the ``dim`` smallest.  Squaring leaves
    them accurate to about delta over the gap (Davis & Kahan, SIAM J.
    Numer. Anal. 7(1), 1970); without ``dim``, seminormal corrections W <-
    orth(W - V Lambda^-1 V^H S), S = Q2^H Q2 W and (V, Lambda) the
    eigenpairs above 2 delta, remove that error (Björck, Linear Algebra
    Appl. 88/89, 1987) until one is rounding or fails to halve the last.
    With ``dim``, for scenario 2's noisy data, W stays as it is: there the
    first correction is about 1e-10, far below the noise (about 1e-2 at 35
    dB).  All of W is null with ``dim`` or where ||Q2 W||_F (>= ||Q2 W||_2)
    is within the cut max(tol sigma_max, atol), else the Ritz vectors whose
    unsquared residual ||Q2 w|| is.  The margin is the smallest non-null
    singular value (a residual, or the root of the next eigenvalue) over
    ||Q2 W||_F of the null vectors; None when a side is empty."""
    if eig is None:
        eig = np.linalg.eigh(q2_gram(values))
    w, v = eig
    lmax = w[-1]
    floor, delta = _gram_limits(values, tol)
    fixed = dim is not None
    if not fixed:
        dim = int(np.sum(w < max(floor * lmax, 2 * delta, 2 * atol * atol)))
    basis = v[:, :dim]
    if fixed:
        res, _ = _q2_apply(values, basis, normal=False)
    else:
        first = dim + int(np.searchsorted(w[dim:], 2 * delta, side="right"))
        others, lam = v[:, first:], w[first:]
        last = np.inf
        for done in range(_MAX_CORRECTIONS + 1):
            res, s = _q2_apply(values, basis, normal=True)
            step = others @ ((others.conj().T @ s) / lam[:, None])
            size = np.linalg.norm(step)
            if done == _MAX_CORRECTIONS or not _CORRECTION_FLOOR < size < last / 2:
                break
            basis = np.linalg.qr(basis - step)[0]
            last = size
    cut = max(tol * np.sqrt(max(lmax, 0.0)), atol)
    null = np.full(basis.shape[1], True)
    if not fixed and np.linalg.norm(res) > cut:
        basis = basis @ np.linalg.eigh(basis.conj().T @ s)[1]
        res, _ = _q2_apply(values, basis, normal=False)
        null = res <= cut
    non_null = np.concatenate([res[~null], np.sqrt(np.maximum(w[dim : dim + 1], 0.0))])
    margin = None
    if null.any() and non_null.size:
        with np.errstate(divide="ignore"):
            margin = float(non_null.min() / np.linalg.norm(res[null]))
    return basis[:, null], margin


@dataclass(frozen=True)
class Q2Rank:
    """Q2's numerical rank at a tolerance, and how :func:`q2_rank` found it.

    ``route`` is "gram" when the Gram spectrum's count passed its checks,
    "refined" when :func:`_q2_null` counted instead.  ``margin`` is the
    deciding check over its limit: the null eigenvectors' residual over
    tol * sqrt(lambda_max) (at most 1 on the Gram route), H's rounding
    bound over half the floor (above 1), or an eigenvalue between the floor
    and the cut over lambda_max.  ``reason`` says why the count was
    refined, and is empty on the Gram route."""

    rank: int
    route: str
    margin: float
    reason: str = ""


def q2_rank(t, tol=DEFAULT_RANK_TOL):
    """Q2's rank at ``tol``, equal to ``numerical_rank(build_Q2(t), tol)``:
    the count of singular values above the cut tol * sigma_max.

    It is read from ``eigh`` of the Gram matrix H (:func:`q2_gram`), whose
    eigenvalues carry a rounding of up to delta = 4 eps ||T||_F^4: the q
    below the floor max(1e-12, (2 tol)^2) lambda_max are null.  That count
    stands when three checks pass, and the refined count (:func:`_q2_null`)
    is taken otherwise:

    - delta is below half the floor times lambda_max, so Q2 has at least
      n - q singular values above the cut (this fails where Q2 is small
      against ||T||_F^2, as when one term is far weaker than the rest);
    - none of the q lies above both tol^2 lambda_max and delta;
    - their eigenvectors V pass ||Q2 V||_F <= tol sqrt(lambda_max)
      (:func:`q2_residual`), so by Courant-Fischer at most n - q singular
      values pass the cut.

    delta is measured (see ``_GRAM_ROUNDING``), not proved.  A zero H (Q2 =
    0, as for an integer single term) gives rank 0.  Returns a
    :class:`Q2Rank`.
    """
    values = _tensor_values(t)
    h = q2_gram(values)
    if not h.any():
        return Q2Rank(0, "gram", 0.0)
    w, v = eig = np.linalg.eigh(h)
    lmax = w[-1]
    floor, delta = _gram_limits(values, tol)
    null = int(np.sum(w < floor * lmax))
    if 2 * delta >= floor * lmax:
        rounding = delta / lmax if lmax > 0 else np.inf
        margin = float(2 * rounding / floor)
        reason = (
            f"the rounding of Q2^H Q2, {rounding:.2g} of its largest eigenvalue, "
            f"is not clearly below the floor {floor:.2g}"
        )
    # below the floor, an eigenvalue above both the cut and the rounding is
    # a singular value above the cut
    elif null and w[null - 1] > max(tol * tol * lmax, delta):
        margin = float(w[null - 1] / lmax)
        reason = (
            f"an eigenvalue of Q2^H Q2 at {margin:.2g} of the largest lies below the "
            f"floor {floor:.2g} and above the cut {tol * tol:.2g} and the rounding "
            f"{delta / lmax:.2g}"
        )
    else:
        margin = float(q2_residual(values, v[:, :null]) / (tol * np.sqrt(lmax))) if null else 0.0
        if margin <= 1:
            return Q2Rank(w.size - null, "gram", margin)
        reason = f"the Gram null vectors' residual is {margin:.3g} times tol * sigma_max"
    basis, _ = _q2_null(values, tol, eig=eig)
    return Q2Rank(w.size - basis.shape[1], "refined", margin, reason)


def symmetric_null_matrices(t, tol=DEFAULT_RANK_TOL, dim=None, atol=0.0):
    """Null vectors of Q2 at ``tol``, ``dim`` and ``atol`` (:func:`_q2_null`),
    unpacked to symmetric K x K matrices: ``(V, margin)``, V the (Q, K, K)
    stack of the V_q and ``margin`` Q2's margin at the Q cut.

    Entry (k1, k2) of V[q] is the basis entry of the pair {k1, k2}, halved
    off the diagonal, so that vec of V[q] is in the null space of the
    ordered-pair minor matrix R2 = Q2 @ PK.T.
    """
    values = _tensor_values(t)
    k_dim = values.shape[2]
    g, margin = _q2_null(values, tol, dim=dim, atol=atol)
    scale = np.where(np.eye(k_dim, dtype=bool), 1.0, 0.5)
    return g.T[:, sym_pair_position(k_dim)] * scale, margin


@lru_cache(maxsize=64)
def sym_pair_position(k):
    """K x K table of column positions: entry (k1, k2) is the index of the
    unordered pair {k1, k2} in :func:`sym_pairs` order."""
    kp1, kp2 = sym_pairs(k)
    pos = np.zeros((k, k), dtype=np.int64)
    pos[kp1, kp2] = np.arange(kp1.size)
    pos[kp2, kp1] = np.arange(kp1.size)
    return pos


@lru_cache(maxsize=64)
def term_pair_columns(sizes):
    """The column map of Phi(A, B) and S2(C) for the block sizes ``sizes``
    (a tuple), as three read-only arrays over the columns: the index of the
    column's term pair r1 < r2 in :func:`strict_pairs` order, and the two
    columns c1 = off_r1 + l1 and c2 = off_r2 + l2 of the stacked factor
    matrix [B_1 ... B_R] (or [C_1 ... C_R]) that it combines, with off_r =
    L_1 + ... + L_(r-1).  The pairs run in lexicographic order and, within
    a pair's block, l2 runs fastest."""
    r1, r2 = strict_pairs(len(sizes))
    off = np.cumsum((0,) + sizes)
    cols = [
        (n, off[x] + l1, off[y] + l2)
        for n, (x, y) in enumerate(zip(r1.tolist(), r2.tolist()))
        for l1 in range(sizes[x])
        for l2 in range(sizes[y])
    ]
    table = np.array(cols, dtype=np.int64).reshape(-1, 3).T
    table.flags.writeable = False
    return table


# entries of one column chunk of the wedge and symmetric products of the
# factor matrices: at 16x70x70 (9,)*7 a chunk of B-wedges is 2415 x 108
_CHUNK_ENTRIES = 1 << 18


def _column_chunks(n_rows, n_cols):
    """Consecutive column slices of an n_rows x n_cols product, about
    ``_CHUNK_ENTRIES`` entries each, so that its temporaries stay bounded."""
    step = max(1, _CHUNK_ENTRIES // max(n_rows, 1))
    return [slice(first, first + step) for first in range(0, n_cols, step)]


def _pair_products(x, rows, c1, c2, combine, field):
    """combine(x[p, c1] x[q, c2], x[q, c1] x[p, c2]) over the row pairs
    (p, q) = ``rows`` down and the column pairs (c1, c2) across: the
    columnwise wedge (combine = np.subtract, rows from :func:`strict_pairs`)
    or symmetric product (np.add, :func:`sym_pairs`) of the columns c1 and
    c2 of x, reduced once by ``field``."""
    p, q = rows
    xp, xq = x[p], x[q]
    out = xp[:, c1] * xq[:, c2]
    return field.reduce(combine(out, xq[:, c1] * xp[:, c2], out=out))


def phi_wedges(a, b_blocks, field):
    """Phi(A, B) as its two wedge factors, ``(wa, pair, wb_chunks)``.

    ``wa`` is the binom(I,2) x binom(R,2) array whose column n is a_r1 wedge
    a_r2 for the n-th term pair; ``pair`` maps each column of Phi to its
    term pair (:func:`term_pair_columns`); ``wb_chunks`` yields ``(cols,
    wb)`` over consecutive column slices of Phi, wb the binom(J,2) x
    len(cols) wedges of the B-columns each column combines.  Column m of Phi
    is wa[:, pair[m]] kron wb[:, m].  Each wedge is reduced by ``field``."""
    sizes = tuple(blk.shape[1] for blk in b_blocks)
    pair, c1, c2 = term_pair_columns(sizes)
    wa = _pair_products(a, strict_pairs(a.shape[0]), *strict_pairs(len(sizes)), np.subtract, field)
    b = np.hstack(b_blocks)
    rows = strict_pairs(b.shape[0])
    wb_chunks = (
        (cols, _pair_products(b, rows, c1[cols], c2[cols], np.subtract, field))
        for cols in _column_chunks(rows[0].size, pair.size)
    )
    return wa, pair, wb_chunks


def phi_matrix(a, b_blocks, field):
    """Phi(A, B): column m is (a_r1 wedge a_r2) kron (b_r1,l1 wedge b_r2,l2)
    for its term pair r1 < r2 and (l1, l2) (:func:`term_pair_columns`),
    built from :func:`phi_wedges` a column chunk at a time and reduced by
    ``field``."""
    wa, pair, wb_chunks = phi_wedges(a, b_blocks, field)
    n_rows = wa.shape[0] * n_strict(b_blocks[0].shape[0])
    out = np.empty((n_rows, pair.size), dtype=np.result_type(a, *b_blocks))
    for cols, wb in wb_chunks:
        out[:, cols] = field.reduce(wa[:, None, pair[cols]] * wb[None]).reshape(n_rows, -1)
    return out


def s2_matrix(c_blocks, field):
    """S2(C): column m is c_r1,l1 symprod c_r2,l2 for its term pair and
    (l1, l2), in the column order of :func:`phi_matrix`, built a column
    chunk at a time and reduced by ``field``."""
    _, c1, c2 = term_pair_columns(tuple(blk.shape[1] for blk in c_blocks))
    c = np.hstack(c_blocks)
    rows = sym_pairs(c.shape[0])
    out = np.empty((rows[0].size, c1.size), dtype=np.result_type(*c_blocks))
    for cols in _column_chunks(rows[0].size, c1.size):
        out[:, cols] = _pair_products(c, rows, c1[cols], c2[cols], np.add, field)
    return out
