"""Second-order minor structures of a third-order tensor.

The central object is the matrix of 2 x 2 minor quadratic forms: a K-vector
``f`` combines the frontal slices into ``f_1 T_1 + ... + f_K T_K``, and that
combination has rank <= 1 exactly when all of its 2 x 2 minors vanish, i.e.
when ``R2(T) (f kron f) = 0``.  Because the rows of ``R2`` are vectorized
symmetric K x K matrices, the smaller matrix ``Q2`` over unordered index
pairs carries the same information: ``R2 = Q2 @ PK.T``.

The package reads Q2 one way, and never holds it whole: Q2 is filled in
row panels of whole i-pairs (:func:`q2_row_panels`), and the triangular
factor R of Q2 = QR is folded over them (:func:`q2_triangle`).  R has Q2's
singular values and right singular vectors, so Phase I's symmetric null
matrices (:func:`symmetric_null_matrices`) and the uniqueness checker's
rank of Q2 are both read off R.  :func:`build_Q2` stacks the panels into
the whole matrix for the test suite alone.

All index pairs — (i1 < i2), (j1 < j2) for rows, (k1 <= k2) for columns,
and the entries of wedge / symmetric products — are enumerated in one place
(:func:`strict_pairs` / :func:`sym_pairs`, with :func:`sym_pair_position`
as the inverse table), in lexicographic order.  The wedge and symmetric
products of factor blocks and the factor matrices ``Phi(A, B)`` and
``S2(C)`` are built here once, for every arithmetic: :func:`phi_matrix` and
:func:`s2_matrix` take an object with ``mul``/``add``/``sub`` methods:
numpy's own arithmetic for real and complex factors, a ``btd1.gf.GFField``
over finite fields.  That keeps the factorization
``Q2 = Phi(A, B) @ S2(C).T`` exact entry for entry in both.  Phi's
term-pair layout lives in :func:`phi_pair_wedges` alone; :func:`phi_matrix`
and the finite-field sketch in :mod:`btd1.gf` both consume it.  The
selector ``PK``, the vector wedge and symmetric products and the second
compound matrix are identities the test suite checks against these
builders; the package itself never forms them.

Every other module reads the method's structural counts from here: pair
counts, block sizes d_r = K - sum L + L_r, Q = sum binom(d_r+1, 2) and the
column count of Phi(A, B) with its two count conditions.
"""

from functools import lru_cache

import numpy as np

from . import _kernels
from .linalg import DEFAULT_RANK_TOL, DimensionError, null_space
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
    "q2_row_panels",
    "q2_triangle",
    "symmetric_null_matrices",
    "sym_pair_position",
    "phi_pair_wedges",
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


# rows of Q2 per panel: whole i-pairs, as many as fit (at least one).  At
# 6x20x20, panels of 3 or 6 times Q2's 210 columns were no faster and raised
# the checker's traced peak from 3.8 to 5.6 and 10.7 MB.  At 8x30x30 (one
# i-pair is 435 rows against 465 columns), 256, 512, 1024 and 2048 rows
# folded the triangle in 0.66, 0.68, 0.66 and 0.71 s (one BLAS thread) at
# traced peaks of 12.0, 12.0, 18.8 and 35.8 MB
_PANEL_ROWS = 512


def q2_row_panels(values):
    """Q2 of the tensor array ``values`` in consecutive row panels, each the
    rows of one or more whole i-pairs, about 512 rows, each a fresh array."""
    i_dim, j_dim, k_dim = values.shape
    ip1, ip2 = strict_pairs(i_dim)
    jp1, jp2 = strict_pairs(j_dim)
    kp1, kp2 = sym_pairs(k_dim)
    step = max(1, _PANEL_ROWS // jp1.size)
    dtype = np.result_type(values, values)
    for first in range(0, ip1.size, step):
        pairs = slice(first, first + step)
        panel = np.empty((ip1[pairs].size * jp1.size, kp1.size), dtype=dtype)
        yield _kernels.minor_matrix_fill(
            values, ip1[pairs], ip2[pairs], jp1, jp2, kp1, kp2, panel
        )


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
    Stacked from the panels of :func:`q2_row_panels`.
    """
    return np.vstack(list(q2_row_panels(_tensor_values(t))))


def q2_triangle(t):
    """The triangular factor R of Q2 = QR, min(rows, binom(K+1,2)) x
    binom(K+1,2), folded over :func:`q2_row_panels` (R <- R of [R; panel])
    so that Q2 is never held whole.  R has Q2's singular values and right
    singular vectors, so Q2's rank and null space are read off R.  Requires
    I >= 2 and J >= 2."""
    values = _tensor_values(t)
    r = np.zeros((0, n_sym(values.shape[2])), dtype=np.result_type(values, 1.0))
    for panel in q2_row_panels(values):
        r = np.linalg.qr(np.vstack([r, panel]), mode="r")
    return r


def symmetric_null_matrices(t, tol=DEFAULT_RANK_TOL, dim=None, atol=0.0):
    """Null vectors of Q2, from :func:`btd1.linalg.null_space` of
    :func:`q2_triangle` at ``tol``, ``dim`` and ``atol``, unpacked to
    symmetric K x K matrices.

    Entry (k1, k2) of matrix q is the basis entry of the pair {k1, k2},
    halved off the diagonal, so that vec of matrix q is in the null space of
    the ordered-pair minor matrix R2 = Q2 @ PK.T.
    """
    values = _tensor_values(t)
    k_dim = values.shape[2]
    g = null_space(q2_triangle(values), tol=tol, dim=dim, atol=atol)
    pos = sym_pair_position(k_dim)
    scale = np.where(np.eye(k_dim, dtype=bool), 1.0, 0.5)
    return [g[pos, q] * scale for q in range(g.shape[1])]


@lru_cache(maxsize=64)
def sym_pair_position(k):
    """K x K table of column positions: entry (k1, k2) is the index of the
    unordered pair {k1, k2} in :func:`sym_pairs` order."""
    kp1, kp2 = sym_pairs(k)
    pos = np.zeros((k, k), dtype=np.int64)
    pos[kp1, kp2] = np.arange(kp1.size)
    pos[kp2, kp1] = np.arange(kp1.size)
    return pos


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


def _stack_pairs(cols, n_rows, blocks):
    if not cols:
        return np.zeros((n_rows, 0), dtype=np.result_type(*blocks))
    return np.hstack(cols)


def phi_pair_wedges(a, b_blocks, field):
    """Per term pair r1 < r2 in lexicographic order, the two wedge blocks
    (a_r1 wedge a_r2, B_r1 wedge B_r2) whose Kronecker product is that
    pair's block of Phi(A, B), yielded one pair at a time; products go
    through ``field``."""
    for r1, r2 in zip(*strict_pairs(len(b_blocks))):
        wa = _pair_block(field, a[:, r1 : r1 + 1], a[:, r2 : r2 + 1], wedge=True)
        yield wa, _pair_block(field, b_blocks[r1], b_blocks[r2], wedge=True)


def phi_matrix(a, b_blocks, field):
    """Phi(A, B): blocks (a_r1 wedge a_r2) kron (B_r1 wedge B_r2) from
    :func:`phi_pair_wedges`, the (l1, l2) columns of a block enumerated l2
    fastest; products go through ``field``."""
    cols = []
    for wa, wb in phi_pair_wedges(a, b_blocks, field):
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
