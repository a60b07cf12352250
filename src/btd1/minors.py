"""Second-order minor structures of a third-order tensor.

The central object is the matrix of 2 x 2 minor quadratic forms: a K-vector
``f`` combines the frontal slices into ``f_1 T_1 + ... + f_K T_K``, and that
combination has rank <= 1 exactly when all of its 2 x 2 minors vanish, i.e.
when ``R2(T) (f kron f) = 0``.  Because the rows of ``R2`` are vectorized
symmetric K x K matrices, the smaller matrix ``Q2`` over unordered index
pairs carries the same information: ``R2 = Q2 @ PK.T``.

The package never holds Q2 whole, and reads it two ways.  Phase I needs
Q2's null space: Q2 is filled in row panels of whole i-pairs
(:func:`q2_row_panels`), the triangular factor R of Q2 = QR is folded over
them (:func:`q2_triangle`), and R, which has Q2's singular values and right
singular vectors, gives the symmetric null matrices
(:func:`symmetric_null_matrices`).  The uniqueness checker needs only Q2's
rank: :func:`q2_rank` counts it on the spectrum of the Gram matrix
Q2^H Q2, built from two contractions of the tensor (:func:`q2_gram`).  It
keeps that count only where H's rounding, measured against ||T||_F^4, is
well below the count's floor and the null eigenvectors' residual, computed
from the tensor (:func:`q2_residual`), is within the cut; otherwise it
ranks R.  The Gram route does not give Phase I its
basis: squaring leaves the null vectors accurate to about eps times the
squared condition number (Davis & Kahan, SIAM J. Numer. Anal. 7(1), 1970).
:func:`build_Q2` stacks the panels into the whole matrix for the test
suite alone.

All index pairs — (i1 < i2), (j1 < j2) for rows, (k1 <= k2) for columns,
and the entries of wedge / symmetric products — are enumerated in one place
(:func:`strict_pairs` / :func:`sym_pairs`, with :func:`sym_pair_position`
as the inverse table), in lexicographic order.  The wedge and symmetric
products of factor blocks and the factor matrices ``Phi(A, B)`` and
``S2(C)`` are built here once, for every arithmetic: :func:`phi_matrix` and
:func:`s2_matrix` take an object with ``mul``/``add``/``sub`` methods:
numpy's own arithmetic for real and complex factors, a ``btd1.gf.GFField``
over prime fields.  That keeps the factorization
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .linalg import DEFAULT_RANK_TOL, DimensionError, null_space, numerical_rank
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
    "q2_gram",
    "q2_residual",
    "Q2Rank",
    "q2_rank",
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


# rows of Q2 per panel: whole i-pairs, as many as fit (at least one).  With
# the fold into one Fortran-ordered buffer, 256, 512, 1024 and 2048 rows
# folded 6x20x20 in 45-56, 35-38, 35-37 and 43-45 ms, at traced peaks of
# the uniqueness report of 2.2, 3.6, 7.8 and 14.4 MB, and 8x30x30 (one
# i-pair is 435 rows against 465 columns) in 0.58-0.67, 0.56-0.57,
# 0.48-0.59 and 0.49-0.50 s, at traced peaks of 10.4, 10.4, 17.3 and
# 31.1 MB (two runs each, one BLAS thread).  Larger panels are no clear
# gain, and from 1024 rows the report passes 6 MB at 6x20x20
_PANEL_ROWS = 512


def _pairs_per_panel(j_dim):
    return max(1, _PANEL_ROWS // n_strict(j_dim))


def q2_row_panels(values, out=None):
    """Q2 of the tensor array ``values`` in consecutive row panels, each the
    rows of one or more whole i-pairs, about 512 rows.  A panel of n rows is
    filled into ``out(n)``, an n x binom(K+1,2) array, when ``out`` is given,
    and into a fresh array otherwise."""
    i_dim, j_dim, k_dim = values.shape
    ip1, ip2 = strict_pairs(i_dim)
    jp1, jp2 = strict_pairs(j_dim)
    kp1, kp2 = sym_pairs(k_dim)
    if out is None:
        dtype = np.result_type(values, values)

        def out(rows):
            return np.empty((rows, kp1.size), dtype=dtype)

    step = _pairs_per_panel(j_dim)
    for first in range(0, ip1.size, step):
        pairs = slice(first, first + step)
        panel = out(ip1[pairs].size * jp1.size)
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
    I >= 2 and J >= 2.

    Each panel is filled straight into a Fortran-ordered buffer, below the R
    held at its top, and ``np.linalg.qr`` factors that slice of the buffer:
    LAPACK sees the same numbers as for a stacked [R; panel], so R is the
    same bit for bit, but numpy makes no transposing copy.  The panels of an
    integer tensor are summed in float64, exactly while every sum of minor
    products stays below 2^53 in magnitude."""
    values = _tensor_values(t)
    i_dim, j_dim, k_dim = values.shape
    n = n_sym(k_dim)
    # the first panel is the largest
    rows = min(_pairs_per_panel(j_dim), n_strict(i_dim)) * n_strict(j_dim)
    buf = np.empty((n + rows, n), dtype=np.result_type(values, 1.0), order="F")
    r = buf[:0]
    # the generator asks for a panel's rows only after the last R is stored
    for panel in q2_row_panels(values, lambda m: buf[len(r) : len(r) + m]):
        r = np.linalg.qr(buf[: len(r) + len(panel)], mode="r")
        buf[: len(r)] = r
    return r


def q2_gram(t):
    """H = Q2^H Q2, binom(K+1,2) x binom(K+1,2), from two contractions of
    the tensor; neither Q2 nor a row panel of it is formed.

    With C = T_(3)^H T_(3) and P[i,i',k,k'] = sum_j conj(t_ijk) t_i'jk',
    the Gram matrix of the ordered-pair minors summed over all (i1,i2,j1,j2)
    is 2 C kron C - 2 E, where E[(k1,k2),(k3,k4)] = sum_{i,i'}
    P[i,i',k1,k4] P[i',i,k2,k3].  Q2's column (k1,k2) sums the columns of
    both orders, and each row of Q2 appears four times over ordered i- and
    j-pairs, so summing both orders on both sides and dividing by 4 gives

        H[(k1,k2),(k3,k4)] = C[k1,k3] C[k2,k4] + C[k1,k4] C[k2,k3]
                             - E[(k1,k2),(k3,k4)] - E[(k1,k2),(k4,k3)],

    using E[(k2,k1),(k4,k3)] = E[(k1,k2),(k3,k4)].  E is built one k1 at a
    time, straight at the pairs k1 <= k2, from a (K-k1) x K x K slice.
    Integer tensors are contracted in float64, exactly while every sum
    stays below 2^53 in magnitude.  Requires I >= 2 and J >= 2."""
    values = _tensor_values(t)
    values = values.astype(np.result_type(values, 1.0), copy=False)
    i_dim, j_dim, k_dim = values.shape
    kp1, kp2 = sym_pairs(k_dim)
    t3 = values.reshape(i_dim * j_dim, k_dim)
    c = t3.conj().T @ t3
    # P4[i,k,i',k'] = P[i,i',k,k'] from one (IK x IK) product over j
    x = values.transpose(1, 0, 2).reshape(j_dim, i_dim * k_dim)
    p4 = (x.conj().T @ x).reshape(i_dim, k_dim, i_dim, k_dim)
    # pm[(i,i'),a,d] = P[i,i',a,d] and pt[(i,i'),b,c] = P[i',i,b,c]
    pm = np.ascontiguousarray(p4.transpose(0, 2, 1, 3)).reshape(-1, k_dim, k_dim)
    pt = np.ascontiguousarray(p4.transpose(2, 0, 1, 3)).reshape(-1, k_dim * k_dim)
    h = np.empty((kp1.size, kp1.size), dtype=c.dtype)
    row = 0
    for a in range(k_dim):
        # w[b,c,d] = E[(a,b),(c,d)] for b >= a
        w = (pt[:, a * k_dim :].T @ pm[:, a, :]).reshape(k_dim - a, k_dim, k_dim)
        block = h[row : row + k_dim - a]
        np.multiply(c[a, kp1], c[a:, kp2], out=block)
        block += c[a, kp2] * c[a:, kp1]
        block -= w[:, kp1, kp2]
        block -= w[:, kp2, kp1]
        row += k_dim - a
    return h


# columns of g per batch in q2_residual, as many as keep a batch's
# products at about 2^16 entries each.  At 6x20x20 the uniqueness report's
# traced peak is 2.3 MB with 2^16 and 3.9 MB with 2^17 (the fold's was 3.6)
_RESIDUAL_ENTRIES = 1 << 16


def q2_residual(t, g):
    """||Q2 g||_F for the binom(K+1,2) x m array ``g`` (or one vector),
    without Q2, a few columns at a time.

    Each column of g is packed into the symmetric K x K matrix M (entry
    (k1,k2) of pair {k1,k2}, its diagonal doubled).  With F the IJ x K
    matrix of mode-3 fibres, G = F M F^T, and the row (i1<i2, j1<j2) of
    Q2 g is G[(i1,j1),(i2,j2)] - G[(i1,j2),(i2,j1)], so ||Q2 g||_F =
    ||G - G^{j1<->j2}||_F / 2.  Only the rows of G with i1 < i2 are formed,
    one i1 at a time for a batch of columns: the sum over i1 < i2 and all
    (j1, j2) of |G[(i1,j1),(i2,j2)] - G[(i1,j2),(i2,j1)]|^2 / 2 is
    ||Q2 g||_F^2.  Requires I >= 2 and J >= 2."""
    values = _tensor_values(t)
    i_dim, j_dim, k_dim = values.shape
    g = np.asarray(g).reshape(n_sym(k_dim), -1)
    f = values.reshape(i_dim * j_dim, k_dim)
    scale = np.where(np.eye(k_dim, dtype=bool), 2.0, 1.0)[:, :, None]
    pos = sym_pair_position(k_dim)
    step = max(1, _RESIDUAL_ENTRIES // (j_dim * max(i_dim * k_dim, (i_dim - 1) * j_dim)))
    total = 0.0
    for first in range(0, g.shape[1], step):
        m = g[pos, first : first + step] * scale  # m[k, l, column]
        n = m.shape[2]
        # fm[i, j1, l, column] = (F M)[(i,j1), l]
        fm = (f @ m.reshape(k_dim, k_dim * n)).reshape(i_dim, j_dim, k_dim, n)
        for i1 in range(i_dim - 1):
            left = fm[i1].transpose(0, 2, 1).reshape(j_dim * n, k_dim)
            # x[j1, column, i2, j2] = G[(i1,j1),(i2,j2)] for i2 > i1
            x = (left @ f[(i1 + 1) * j_dim :].T).reshape(j_dim, n, -1, j_dim)
            d = x - x.transpose(3, 1, 2, 0)
            total += np.vdot(d, d).real / 2
    return float(np.sqrt(total))


# q2_rank counts an eigenvalue of H as non-null only from this fraction of
# the largest (or (2 tol)^2, if larger); the factor 2 puts the non-null
# singular values at least twice the fold's cut tol * sigma_max
_GRAM_FLOOR = 1e-12
# H's rounding, as a multiple of eps * ||T||_F^4: H sums products of size
# up to trace(C)^2 = ||T||_F^4 that cancel where Q2 is small, so its
# eigenvalues move by up to about eps * ||T||_F^4 whatever lambda_max is.
# The null eigenvalues of random 2x8x7 to 8x30x30 decompositions, real and
# complex, with all terms alike or one term (or all but one) scaled by
# 1e-1 to 1e-4, sit within 0.57 eps * ||T||_F^4 of zero
_GRAM_ROUNDING = 4.0


@dataclass(frozen=True)
class Q2Rank:
    """Q2's numerical rank at a tolerance, and how :func:`q2_rank` found it.

    ``route`` is "gram" when the Gram spectrum's count passed its checks,
    "fold" when :func:`q2_triangle` was ranked instead.  ``margin`` is
    whichever check decided, over its limit:

    - the null eigenvectors' residual over tol * sqrt(lambda_max), at most 1
      on the Gram route;
    - H's rounding bound over half the floor, both relative to lambda_max,
      when it is above 1;
    - an eigenvalue that fell between the floor and the cut, over
      lambda_max.

    ``reason`` says why the fold ran, and is empty on the Gram route."""

    rank: int
    route: str
    margin: float
    reason: str = ""


def q2_rank(t, tol=DEFAULT_RANK_TOL):
    """Q2's rank at ``tol``, equal to ``numerical_rank(q2_triangle(t), tol)``:
    the count of singular values above the cut tol * sigma_max.

    It is read from ``eigh`` of the Gram matrix H (:func:`q2_gram`), whose
    eigenvalues carry a rounding of up to delta = 4 eps ||T||_F^4.  The q
    eigenvalues below the floor max(1e-12, (2 tol)^2) * lambda_max are
    taken as null, the others as non-null, and the fold runs instead when
    any of three checks fails:

    - delta is below half the floor times lambda_max, so the exact H's
      n - q largest eigenvalues are above half the floor times lambda_max,
      at least 2 tol^2 * lambda_max: Q2 has at least n - q singular values
      above the cut.  Where Q2 is small against ||T||_F^2 (one term far
      weaker than the rest, or Q2 near zero) this fails;
    - none of the q lies above both the cut tol^2 * lambda_max and delta,
      where it would be a singular value the fold counts;
    - their eigenvectors V pass ||Q2 V||_F <= tol * sqrt(lambda_max), from
      the tensor itself (:func:`q2_residual`).  Q2 is then at most tol *
      sigma_max on a q-dimensional subspace, so by Courant-Fischer at most
      n - q singular values pass the cut.

    With all three the rank is n - q, the fold's, as far as delta bounds
    H's rounding: delta is measured (see ``_GRAM_ROUNDING``), not proved.
    A zero H (Q2 = 0, as for an integer single term) gives rank 0, as the
    fold does.  Returns a :class:`Q2Rank`.
    """
    values = _tensor_values(t)
    h = q2_gram(values)
    if not h.any():
        return Q2Rank(0, "gram", 0.0)
    w, v = np.linalg.eigh(h)
    lmax = w[-1]
    floor = max(_GRAM_FLOOR, (2 * tol) ** 2)
    norm2 = np.linalg.norm(values) ** 2
    delta = _GRAM_ROUNDING * np.finfo(float).eps * norm2 * norm2
    if 2 * delta >= floor * lmax:
        rounding = delta / lmax if lmax > 0 else np.inf
        return _fold_rank(
            values,
            tol,
            float(2 * rounding / floor),
            f"the rounding of Q2^H Q2, {rounding:.2g} of its largest eigenvalue, "
            f"is not clearly below the floor {floor:.2g}",
        )
    null = int(np.sum(w < floor * lmax))
    # below the floor, an eigenvalue above both the cut and the rounding is
    # a singular value the fold counts
    if null and w[null - 1] > max(tol * tol * lmax, delta):
        gap = float(w[null - 1] / lmax)
        return _fold_rank(
            values,
            tol,
            gap,
            f"an eigenvalue of Q2^H Q2 at {gap:.2g} of the largest lies below the "
            f"floor {floor:.2g} and above the cut {tol * tol:.2g} and the rounding "
            f"{delta / lmax:.2g}",
        )
    margin = float(q2_residual(values, v[:, :null]) / (tol * np.sqrt(lmax))) if null else 0.0
    if margin > 1:
        return _fold_rank(
            values,
            tol,
            margin,
            f"the Gram null vectors' residual is {margin:.3g} times tol * sigma_max",
        )
    return Q2Rank(w.size - null, "gram", margin)


def _fold_rank(values, tol, margin, reason):
    return Q2Rank(numerical_rank(q2_triangle(values), tol), "fold", margin, reason)


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
