"""Second-order minor structures of a third-order tensor.

The central object is the matrix of 2 x 2 minor quadratic forms: a K-vector
``f`` combines the frontal slices into ``f_1 T_1 + ... + f_K T_K``, and that
combination has rank <= 1 exactly when all of its 2 x 2 minors vanish, i.e.
when ``R2(T) (f kron f) = 0``.  Because the rows of ``R2`` are vectorized
symmetric K x K matrices, the smaller matrix ``Q2`` over unordered index
pairs carries the same information: ``R2 = Q2 @ PK.T``.

All index pairs — (i1 < i2), (j1 < j2) for rows, (k1 <= k2) for columns,
and the entries of wedge / symmetric products — are enumerated in one place
(:func:`strict_pairs` / :func:`sym_pairs`), in lexicographic order.  Every
structure in this module and in the finite-field module uses that single
enumeration, which keeps the factorization ``Q2 = Phi(A, B) @ S2(C).T``
exact entry for entry.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .linalg import DimensionError, default_tol, null_space, rank_cut
from .tensor import Tensor3

__all__ = [
    "strict_pairs",
    "sym_pairs",
    "MinorMatrixSet",
    "FactorMinorForm",
    "build_Q2",
    "build_R2",
    "build_PK",
    "build_D",
    "wedge",
    "symprod",
    "wedge_block",
    "symprod_block",
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
    return n * (n - 1) // 2


def n_sym(n):
    return n * (n + 1) // 2


@dataclass(frozen=True)
class MinorMatrixSet:
    """Q2 of a tensor with K frontal slices."""

    Q2: np.ndarray
    K: int

    def null_space(self, tol=None, dim=None, atol=0.0):
        return null_space(self.Q2, tol=tol, dim=dim, atol=atol)

    def symmetric_null_matrices(self, tol=None, dim=None, atol=0.0):
        """Null vectors of Q2 unpacked to symmetric K x K matrices.

        Entry (k1, k2) of matrix q is the basis entry of the pair {k1, k2},
        halved off the diagonal: column q of :func:`build_D` @ basis.
        """
        g = self.null_space(tol=tol, dim=dim, atol=atol)
        pos = _sym_pair_position(self.K)
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
def _sym_pair_position(k):
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
    pos = _sym_pair_position(k)
    pk = np.zeros((k * k, n_sym(k)))
    for k1 in range(k):
        for k2 in range(k):
            pk[k1 * k + k2, pos[k1, k2]] = 1.0
    return pk


def build_D(k):
    """D = PK (PK.T PK)^-1; entries are 0, 1/2 on off-diagonal pairs, 1 on
    diagonal pairs.  Maps a null-space basis of Q2 to vectorized symmetric
    matrices in the null space of R2."""
    pk = build_PK(k)
    counts = pk.sum(axis=0)
    return pk / counts[None, :]


def wedge(x, y):
    """All 2 x 2 minors of [x y]: entries x_p y_q - x_q y_p over pairs p < q."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("wedge needs two vectors of equal length")
    p, q = strict_pairs(x.size)
    return x[p] * y[q] - x[q] * y[p]


def symprod(x, y):
    """All 2 x 2 permanents of [x y]: entries x_p y_q + x_q y_p over p <= q."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("symprod needs two vectors of equal length")
    p, q = sym_pairs(x.size)
    return x[p] * y[q] + x[q] * y[p]


def wedge_block(bi, bj):
    """Columnwise wedge of two blocks, columns ordered with the second
    block's column index fastest."""
    bi = np.atleast_2d(np.asarray(bi))
    bj = np.atleast_2d(np.asarray(bj))
    if bi.shape[0] != bj.shape[0]:
        raise DimensionError("blocks must share row count")
    p, q = strict_pairs(bi.shape[0])
    out = bi[p][:, :, None] * bj[q][:, None, :] - bi[q][:, :, None] * bj[p][:, None, :]
    return out.reshape(p.size, bi.shape[1] * bj.shape[1])


def symprod_block(ci, cj):
    """Columnwise symmetric product of two blocks, second index fastest."""
    ci = np.atleast_2d(np.asarray(ci))
    cj = np.atleast_2d(np.asarray(cj))
    if ci.shape[0] != cj.shape[0]:
        raise DimensionError("blocks must share row count")
    p, q = sym_pairs(ci.shape[0])
    out = ci[p][:, :, None] * cj[q][:, None, :] + ci[q][:, :, None] * cj[p][:, None, :]
    return out.reshape(p.size, ci.shape[1] * cj.shape[1])


def build_phi_s2(d):
    """Factored minor form of a decomposition.

    Phi stacks (a_r1 wedge a_r2) kron (B_r1 wedge B_r2) and S2 stacks
    C_r1 symprod C_r2, both over pairs r1 < r2 in lexicographic order with
    the (l1, l2) column pairs enumerated l2 fastest.  Satisfies
    Phi @ S2.T == Q2(compose(d)).
    """
    a = d.A
    r = d.R
    phi_cols = []
    s2_cols = []
    for r1 in range(r):
        for r2 in range(r1 + 1, r):
            wa = wedge(a[:, r1], a[:, r2])
            wb = wedge_block(d.terms[r1][0], d.terms[r2][0])
            phi_cols.append(np.kron(wa[:, None], wb))
            s2_cols.append(symprod_block(d.terms[r1][1], d.terms[r2][1]))
    i_dim, j_dim, k_dim = d.dims
    n_rows_phi = n_strict(i_dim) * n_strict(j_dim)
    if not phi_cols:
        dtype = np.result_type(a, d.terms[0][0])
        return FactorMinorForm(
            Phi=np.zeros((n_rows_phi, 0), dtype=dtype),
            S2=np.zeros((n_sym(k_dim), 0), dtype=dtype),
        )
    return FactorMinorForm(Phi=np.hstack(phi_cols), S2=np.hstack(s2_cols))


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


def rank1_membership(t, f, tol=None, return_both=False):
    """Whether the slice combination f_1 T_1 + ... + f_K T_K has rank <= 1.

    Evaluated two independent ways: numerically on the singular values of
    the combination, and through the quadratic form R2(T) (f kron f); the
    module's tests assert the two agree.
    """
    tol = default_tol() if tol is None else tol
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
