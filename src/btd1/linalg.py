"""Shared dense linear algebra helpers: tolerant ranks, null spaces,
least squares, the Khatri-Rao product and the package RNG convention.

Every rank decision on singular values goes through :func:`rank_cut`: the
count of singular values above ``max(tol * sigma_max, atol)``, with default
``tol = DEFAULT_RANK_TOL`` (1e-10; exact ``decompose`` passes 1e-8) and
``atol = 0``.  The same constant is the default ``rcond`` of :func:`lstsq`.
:func:`orth` and :func:`null_space` read rank and basis off one SVD.
Three sites test a rank and then factor the same matrix again:
``gevd_two_slice_btd`` (an eigenvector group, then :func:`orth`; the
mixture, then its inverse), ``simultaneous_evd_cpd`` (the initial
eigenbasis, then its inverse) and ``phase2_case2`` (A, then :func:`lstsq`).
Every stack [x_1 kron Y_1 ... x_R kron Y_R] is a :func:`khatri_rao`
product.  All random draws in the package go through :func:`rng`, a PCG64
generator seeded explicitly, so every stochastic operation is reproducible
from its seed.
"""

import numpy as np

DEFAULT_RANK_TOL = 1e-10


class DimensionError(ValueError):
    """Arguments with inconsistent or unsupported dimensions."""


class SolverDiagnostic(RuntimeError):
    """A solver step detected that its working assumptions do not hold.

    Carries a ``diagnostics`` dict naming the failed condition(s).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def rng(seed):
    """Deterministic generator (PCG64) for the given integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def randn(gen, shape, field="real"):
    """Standard normal array; circularly-symmetric complex normal if complex."""
    if field == "complex":
        return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return gen.standard_normal(shape)


def rank_cut(s, tol=DEFAULT_RANK_TOL, atol=0.0):
    """Number of singular values ``s`` (descending) above
    ``max(tol * s[0], atol)``.  For a stack of them, one row per matrix as
    a stacked ``np.linalg.svd`` returns, the array of the rows' counts."""
    counts = np.sum(s > np.maximum(tol * s[..., :1], atol), axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def numerical_rank(a, tol=DEFAULT_RANK_TOL):
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return rank_cut(np.linalg.svd(a, compute_uv=False), tol)


def null_space(a, tol=DEFAULT_RANK_TOL, dim=None, atol=0.0):
    """Orthonormal basis of the (numerical) null space, columns of shape (n, q).

    The rank is :func:`rank_cut` at ``tol`` and ``atol``; the absolute
    floor ``atol`` matters when the whole matrix is at rounding level.  With
    ``dim`` given, returns the ``dim`` right singular vectors of the smallest
    singular values regardless of threshold (the noisy-pipeline convention).  Only the right
    singular vectors are used, so the SVD is thin unless a is wide: an
    m x n matrix with m < n needs the full n x n Vh to reach its null
    vectors.
    """
    a = np.asarray(a)
    m, n = a.shape
    if m == 0:
        q = n if dim is None else dim
        return np.eye(n)[:, :q]
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    except np.linalg.LinAlgError:
        # divide and conquer (gesdd) can fail to converge on the exactly
        # rank-deficient matrices of exact mode; QR iteration (gesvd) is
        # slower but converges on them.  scipy is imported here only: it
        # would triple the package's import time
        import scipy.linalg

        _, s, vh = scipy.linalg.svd(a, full_matrices=m < n, lapack_driver="gesvd")
    r = rank_cut(s, tol, atol) if dim is None else n - dim
    return vh[r:].conj().T


def lstsq(a, b, tol=DEFAULT_RANK_TOL):
    x, *_ = np.linalg.lstsq(a, b, rcond=tol)
    return x


def cond(a):
    """2-norm condition number s_max / s_min of a matrix, or an array of them
    for a stack of matrices; inf where s_min is 0 or the matrix is empty."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.shape[-1] == 0:
        out = np.full(s.shape[:-1], np.inf)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s[..., -1] == 0, np.inf, s[..., 0] / s[..., -1])
    return out if out.ndim else float(out)


def orth(a, tol=DEFAULT_RANK_TOL, dim=None):
    """Orthonormal basis of the column space: ``dim`` columns, or
    :func:`rank_cut` at ``tol`` of the same SVD's singular values."""
    a = np.asarray(a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = rank_cut(s, tol) if dim is None else dim
    return u[:, :r]


def khatri_rao(x, y):
    """Column-wise Kronecker product [x_1 kron y_1 ... x_n kron y_n].

    With ``x = np.repeat(a, widths, axis=1)`` and ``y = np.hstack(blocks)``
    this is the block stack [a_1 kron Y_1 ... a_R kron Y_R]."""
    return (x[:, None, :] * y[None, :, :]).reshape(-1, x.shape[1])


def split_columns(m, widths):
    """Consecutive column blocks of ``m`` with the given widths."""
    return np.split(m, np.cumsum(widths)[:-1], axis=1)


def dominant_rank1(m):
    """Best rank-1 factors (w, z) with m ~= outer(w, z) and ||z|| = 1."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    w = u[:, 0] * s[0]
    # vh rows are conjugated right singular vectors, exactly the row factor
    z = vh[0]
    return w, z
