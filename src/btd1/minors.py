"""Second-order minor structures of a third-order tensor.

The central object is the matrix of 2 x 2 minor quadratic forms: a K-vector
``f`` combines the frontal slices into ``f_1 T_1 + ... + f_K T_K``, and that
combination has rank <= 1 exactly when all of its 2 x 2 minors vanish, i.e.
when ``R2(T) (f kron f) = 0``.  Because the rows of ``R2`` are vectorized
symmetric K x K matrices, the smaller matrix ``Q2`` over unordered index
pairs carries the same information: ``R2 = Q2 @ PK.T``.

All index pairs — (i1 < i2), (j1 < j2) for rows, (k1 <= k2) for columns,
and the entries of wedge / symmetric products — are enumerated in one place
(:func:`strict_pairs` / :func:`sym_pairs`, with :func:`sym_pair_position`
as the inverse table), in lexicographic order.  The wedge and symmetric
products and the factor matrices ``Phi(A, B)`` and ``S2(C)`` are built here
once, for every arithmetic: :func:`phi_matrix` and :func:`s2_matrix` take
an object with ``mul``/``add``/``sub`` methods: numpy's own arithmetic
for real and complex factors, a ``btd1.gf.GFField`` over finite fields.  That keeps the
factorization ``Q2 = Phi(A, B) @ S2(C).T`` exact entry for entry in both.

Every other module reads the method's structural counts from here: pair
counts, block sizes d_r = K - sum L + L_r, Q = sum binom(d_r+1, 2) and the
column count of Phi(A, B) with its two count conditions.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import _kernels
from .linalg import DEFAULT_RANK_TOL, DimensionError, null_space, rank_cut
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
    "MinorMatrixSet",
    "FactorMinorForm",
    "build_Q2",
    "build_R2",
    "build_PK",
    "build_D",
    "sym_pair_position",
    "wedge",
    "symprod",
    "phi_matrix",
    "s2_matrix",
    "build_phi_s2",
    "compound2",
    "rank1_membership",
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


@dataclass(frozen=True)
class MinorMatrixSet:
    """Q2 of a tensor with K frontal slices."""

    Q2: np.ndarray
    K: int

    def null_space(self, tol=DEFAULT_RANK_TOL, dim=None, atol=0.0):
        return null_space(self.Q2, tol=tol, dim=dim, atol=atol)

    def symmetric_null_matrices(self, tol=DEFAULT_RANK_TOL, dim=None, atol=0.0):
        """Null vectors of Q2 unpacked to symmetric K x K matrices.

        Entry (k1, k2) of matrix q is the basis entry of the pair {k1, k2},
        halved off the diagonal: column q of :func:`build_D` @ basis.
        """
        g = self.null_space(tol=tol, dim=dim, atol=atol)
        pos = sym_pair_position(self.K)
        scale = np.where(np.eye(self.K, dtype=bool), 1.0, 0.5)
        return [g[pos, q] * scale for q in range(g.shape[1])]


@dataclass(frozen=True)
class FactorMinorForm:
    """Factored form of Q2: wedge part Phi(A, B) and symmetric part S2(C)."""

    Phi: np.ndarray
    S2: np.ndarray

    def product(self):
        return self.Phi @ self.S2.T


def _minor_values(values, kp1, kp2):
    i_dim, j_dim, _ = values.shape
    ip1, ip2 = strict_pairs(i_dim)
    jp1, jp2 = strict_pairs(j_dim)
    out = np.empty(
        (ip1.size * jp1.size, kp1.size), dtype=np.result_type(values, values)
    )
    return _kernels.minor_matrix_fill(values, ip1, ip2, jp1, jp2, kp1, kp2, out)


def build_Q2(t):
    """Minor matrix over unordered k-pairs, binom(I,2)binom(J,2) x binom(K+1,2).

    Row (i1 < i2, j1 < j2), column (k1 <= k2) holds

        t[i1,j1,k1] t[i2,j2,k2] + t[i1,j1,k2] t[i2,j2,k1]
      - t[i1,j2,k1] t[i2,j1,k2] - t[i1,j2,k2] t[i2,j1,k1]

    which is integer-exact for integer tensors.  Requires I >= 2 and J >= 2.
    """
    values = t.values if isinstance(t, Tensor3) else np.ascontiguousarray(t)
    i_dim, j_dim, k_dim = values.shape
    if i_dim < 2 or j_dim < 2:
        raise DimensionError("Q2 needs I >= 2 and J >= 2")
    kp1, kp2 = sym_pairs(k_dim)
    return MinorMatrixSet(Q2=_minor_values(values, kp1, kp2), K=k_dim)


def build_R2(t):
    """Minor matrix over ordered k-pairs, binom(I,2)binom(J,2) x K^2.

    Columns are indexed by (k1, k2) with the storage convention of a
    column-major vectorized K x K matrix, i.e. column k2*K + k1; the columns
    for (k1, k2) and (k2, k1) coincide and R2 = Q2 @ PK.T.
    """
    values = t.values if isinstance(t, Tensor3) else np.ascontiguousarray(t)
    i_dim, j_dim, k_dim = values.shape
    if i_dim < 2 or j_dim < 2:
        raise DimensionError("R2 needs I >= 2 and J >= 2")
    # column index k2*K + k1 holds the pair (k1, k2)
    kp2, kp1 = np.divmod(np.arange(k_dim * k_dim, dtype=np.int64), k_dim)
    return _minor_values(values, kp1, kp2)


@lru_cache(maxsize=64)
def sym_pair_position(k):
    """K x K table of column positions: entry (k1, k2) is the index of the
    unordered pair {k1, k2} in :func:`sym_pairs` order."""
    kp1, kp2 = sym_pairs(k)
    pos = np.zeros((k, k), dtype=np.int64)
    pos[kp1, kp2] = np.arange(kp1.size)
    pos[kp2, kp1] = np.arange(kp1.size)
    return pos


def build_PK(k):
    """Binary K^2 x binom(K+1,2) selector with R2 = Q2 @ PK.T.

    Row k1*K + k2 has its single 1 in the column of the unordered pair
    {k1, k2}.
    """
    if k < 1:
        raise DimensionError("K must be positive")
    pk = np.zeros((k * k, n_sym(k)))
    pk[np.arange(k * k), sym_pair_position(k).ravel()] = 1.0
    return pk


def build_D(k):
    """D = PK (PK.T PK)^-1; entries are 0, 1/2 on off-diagonal pairs, 1 on
    diagonal pairs.  Maps a null-space basis of Q2 to vectorized symmetric
    matrices in the null space of R2."""
    pk = build_PK(k)
    counts = pk.sum(axis=0)
    return pk / counts[None, :]


# numpy's own arithmetic under the method names of ``btd1.gf.GFField``
_NUMPY = SimpleNamespace(mul=operator.mul, add=operator.add, sub=operator.sub)


def _pair_block(field, x, y, wedge):
    """Columnwise wedge (x_p y_q - x_q y_p over p < q) or symmetric product
    (x_p y_q + x_q y_p over p <= q) of two blocks in ``field``'s arithmetic,
    columns ordered with y's column index fastest."""
    p, q = strict_pairs(x.shape[0]) if wedge else sym_pairs(x.shape[0])
    combine = field.sub if wedge else field.add
    out = combine(
        field.mul(x[p][:, :, None], y[q][:, None, :]),
        field.mul(x[q][:, :, None], y[p][:, None, :]),
    )
    return out.reshape(p.size, x.shape[1] * y.shape[1])


def _vector_pair(x, y, wedge):
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("needs two vectors of equal length")
    return _pair_block(_NUMPY, x[:, None], y[:, None], wedge)[:, 0]


def wedge(x, y):
    """All 2 x 2 minors of [x y]: entries x_p y_q - x_q y_p over pairs p < q."""
    return _vector_pair(x, y, wedge=True)


def symprod(x, y):
    """All 2 x 2 permanents of [x y]: entries x_p y_q + x_q y_p over p <= q."""
    return _vector_pair(x, y, wedge=False)


def _stack_pairs(cols, n_rows, blocks):
    if not cols:
        return np.zeros((n_rows, 0), dtype=np.result_type(*blocks))
    return np.hstack(cols)


def phi_matrix(a, b_blocks, field):
    """Phi(A, B): blocks (a_r1 wedge a_r2) kron (B_r1 wedge B_r2) over term
    pairs r1 < r2 in lexicographic order, the (l1, l2) columns of a block
    enumerated l2 fastest; products go through ``field``."""
    cols = []
    for r1, r2 in zip(*strict_pairs(len(b_blocks))):
        wa = _pair_block(field, a[:, r1 : r1 + 1], a[:, r2 : r2 + 1], wedge=True)
        wb = _pair_block(field, b_blocks[r1], b_blocks[r2], wedge=True)
        kron = field.mul(wa[:, :, None], wb[None])
        cols.append(kron.reshape(wa.shape[0] * wb.shape[0], wb.shape[1]))
    n_rows = n_strict(a.shape[0]) * n_strict(b_blocks[0].shape[0])
    return _stack_pairs(cols, n_rows, [a, *b_blocks])


def s2_matrix(c_blocks, field):
    """S2(C): blocks C_r1 symprod C_r2 over term pairs r1 < r2, in the
    order of :func:`phi_matrix`; products go through ``field``."""
    cols = [
        _pair_block(field, c_blocks[r1], c_blocks[r2], wedge=False)
        for r1, r2 in zip(*strict_pairs(len(c_blocks)))
    ]
    return _stack_pairs(cols, n_sym(c_blocks[0].shape[0]), c_blocks)


def build_phi_s2(d):
    """Factored minor form of a decomposition, with
    Phi @ S2.T == Q2(compose(d)): see :func:`phi_matrix` and
    :func:`s2_matrix`."""
    return FactorMinorForm(
        Phi=phi_matrix(d.A, [b for b, _ in d.terms], _NUMPY),
        S2=s2_matrix([c for _, c in d.terms], _NUMPY),
    )


def compound2(m):
    """Second compound matrix: all 2 x 2 minors, pairs enumerated as in
    :func:`wedge` so that the Binet-Cauchy identity
    compound2(Y) @ compound2(B) == compound2(Y @ B) holds."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise DimensionError("compound2 needs at least 2 rows and 2 columns")
    rp, rq = strict_pairs(m.shape[0])
    cp, cq = strict_pairs(m.shape[1])
    return (
        m[rp][:, cp] * m[rq][:, cq] - m[rp][:, cq] * m[rq][:, cp]
    )


def rank1_membership(t, f, tol=DEFAULT_RANK_TOL, return_both=False):
    """Whether the slice combination f_1 T_1 + ... + f_K T_K has rank <= 1.

    Evaluated two independent ways: numerically on the singular values of
    the combination, and through the quadratic form R2(T) (f kron f); the
    module's tests assert the two agree.
    """
    f = np.asarray(f)
    values = t.values if isinstance(t, Tensor3) else np.asarray(t)
    comb = np.tensordot(values, f, axes=([2], [0]))
    s = np.linalg.svd(comb, compute_uv=False)
    direct = rank_cut(s, tol) <= 1

    r2 = build_R2(t)
    resid = r2 @ np.kron(f, f)
    # the minors of the combination scale with its squared Frobenius norm;
    # the eps floor covers combinations that are tiny by cancellation
    scale = np.linalg.norm(comb) ** 2 + np.finfo(float).eps * np.linalg.norm(r2) * (
        float(np.real(np.vdot(f, f)))
    )
    via_minors = bool(scale == 0 or np.linalg.norm(resid) <= tol * scale)
    if return_both:
        return direct, via_minors
    return direct
