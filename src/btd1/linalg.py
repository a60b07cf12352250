"""Shared dense linear algebra helpers: tolerant ranks, null spaces,
least squares, the Khatri-Rao product and the package RNG convention.

Every rank decision on singular values goes through :func:`rank_cut`: the
count of singular values above ``tol * sigma_max``, with default
``tol = DEFAULT_RANK_TOL`` (1e-10; exact ``decompose`` passes 1e-8), and
no absolute floor.  The same constant is the ``rcond`` of :func:`lstsq`.
:func:`orth` and :func:`null_space` read rank and basis off one SVD.
One matrix is still factored more than once: ``simultaneous_evd_cpd``'s
initial eigenbasis on noisy data (factored, ranked, then inverted), kept
so that scenario 2's CPD start keeps its bits; it is decomposed once, as
a start that loses rank takes the ungrouped eigenvectors of the same EVD.
Every stack [x_1 kron Y_1 ... x_R kron Y_R] is a :func:`khatri_rao`
product.  All random draws in the package go through :func:`rng`, a PCG64
generator seeded explicitly, so every stochastic operation is reproducible
from its seed; :func:`rngs` builds a block of them, each bitwise the
generator :func:`rng` gives for its seed.
"""

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

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


def _hash_constants(init, mult, count):
    """The (xor, multiplier) pairs of ``count`` successive hash steps, as
    two (count, 1) uint32 columns: step k xors with init * mult**k and
    multiplies by init * mult**(k + 1), mod 2**32."""
    out = []
    for _ in range(count):
        prev, init = init, init * mult & 0xFFFFFFFF
        out.append((prev, init))
    return np.array(out, dtype=np.uint32).T[:, :, None]


# numpy's SeedSequence hash (O'Neill's seed_seq for PCG, HMC-CS-2014-0905)
# with its pool of 4 uint32 words: 16 hashmix steps from INIT_A and MULT_A
# (4 fill the pool, 12 mix it), 8 output steps from INIT_B and MULT_B (4
# uint64 words), and the mix multipliers.  None depends on the seed.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_WORDS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _seed_words(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed in
    ``seeds`` (a uint64 array), one row each, hashed as a block.  A seed is
    entropy of at most 2 words, and the pool's 4 words take every word of it
    before mixing, so the pool of a seed below 2**32 is that of the same
    seed as 2 words: no seed needs numpy's loop over extra entropy."""
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool ^= _POOL_XOR[:4]
    pool *= _POOL_MUL[:4]
    pool ^= pool >> 16
    for src, dst in enumerate(_OTHER_WORDS):
        k = slice(4 + 3 * src, 7 + 3 * src)
        mixed = pool[src] ^ _POOL_XOR[k]
        mixed *= _POOL_MUL[k]
        mixed ^= mixed >> 16
        out = _MIX_LEFT * pool[dst]
        out -= _MIX_RIGHT * mixed
        out ^= out >> 16
        pool[dst] = out
    state = np.concatenate([pool, pool])
    state ^= _OUT_XOR
    state *= _OUT_MUL
    state ^= state >> 16
    # little-endian word pairs, as SeedSequence assembles its uint64 words
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type():
    """An ``ISeedSequence`` that hands PCG64 its 4 already-hashed uint64
    words, all that PCG64 asks of it.  Made on first use, so importing the
    package does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def rngs(seeds):
    """Generators for the integer ``seeds``, the n-th bitwise ``rng(seeds[n])``,
    as an iterator that builds each one when it is taken.

    The seeds are hashed up front in one vectorised pass, about 0.1 ms a
    call and 0.3 us a seed; a generator then costs about 3 us, where
    :func:`rng`, which builds a ``SeedSequence`` per seed, costs 19 us (one
    core of a shared 2-vCPU x86 machine).  Seeds outside [0, 2**64) go
    through :func:`rng`, which refuses negative ones.
    """
    seeds = list(seeds)
    if seeds and 0 <= min(seeds) and max(seeds) < 2**64:
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        seed_words = _seed_words_type()
        return (np.random.Generator(np.random.PCG64(seed_words(w))) for w in words)
    return map(rng, seeds)


def randn(gen, shape, field="real"):
    """Standard normal array; circularly-symmetric complex normal if complex."""
    if field == "complex":
        return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return gen.standard_normal(shape)


def rank_cut(s, tol=DEFAULT_RANK_TOL):
    """Number of singular values ``s`` (descending) above ``tol * s[0]``.
    For a stack of them, one row per matrix as a stacked ``np.linalg.svd``
    returns, the array of the rows' counts."""
    counts = np.sum(s > tol * s[..., :1], axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def numerical_rank(a, tol=DEFAULT_RANK_TOL):
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return rank_cut(np.linalg.svd(a, compute_uv=False), tol)


def null_space(a, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the (numerical) null space of a matrix with at
    least one row, columns of shape (n, q).

    The rank is :func:`rank_cut` at ``tol``.  Only the right singular
    vectors are used, so the SVD is thin unless a is wide: an m x n matrix
    with m < n needs the full n x n Vh to reach its null vectors.
    """
    a = np.asarray(a)
    m, n = a.shape
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    except np.linalg.LinAlgError:
        # divide and conquer (gesdd) can fail to converge on the exactly
        # rank-deficient matrices of exact mode; QR iteration (gesvd) is
        # slower but converges on them.  scipy is imported here only: it
        # would triple the package's import time
        import scipy.linalg

        _, s, vh = scipy.linalg.svd(a, full_matrices=m < n, lapack_driver="gesvd")
    return vh[rank_cut(s, tol) :].conj().T


def lstsq(a, b):
    x, *_ = np.linalg.lstsq(a, b, rcond=DEFAULT_RANK_TOL)
    return x


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# np.linalg.solve's error state: LAPACK's invalid result for a singular
# matrix raises LinAlgError, and so does any other invalid result under it
SOLVE_ERRSTATE = np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


def solve_matrix(a, b, signature):
    """``np.linalg.solve(a, b)`` for a square a and a matrix b, computed in
    float64 (``signature`` "dd->d") or complex128 ("DD->D"): the same LAPACK
    gufunc, without the argument checks that cost more than the solve
    itself on the small systems of ``sjbd.cpd_als``, which enters
    ``SOLVE_ERRSTATE`` once a call: a singular a raises ``LinAlgError``."""
    return _umath_linalg.solve(a, b, signature=signature)


def positive_definite(a):
    """True for each symmetric float64 matrix of the stack ``a`` whose
    Cholesky factorization completes, False where LAPACK meets a pivot that
    is not positive: numpy's Cholesky gufunc, whose NaN result for such a
    matrix is read instead of raised, so one failure does not refuse the
    whole stack."""
    with np.errstate(invalid="ignore"):
        lower = _umath_linalg.cholesky_lo(a, signature="d->d")
    return ~np.isnan(lower[..., -1, -1])


def frobenius_norm(x):
    """``np.linalg.norm(x)`` of a float or complex array, bit for bit: the
    square root of the dot product of its raveled entries, real and
    imaginary parts apart, without the wrapper's dispatch."""
    x = x.ravel(order="K")
    if np.iscomplexobj(x):
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


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
    """Column-wise Kronecker product [x_1 kron y_1 ... x_n kron y_n], of
    each pair of matrices when ``x`` and ``y`` carry leading batch axes.

    With ``x = np.repeat(a, widths, axis=1)`` and ``y = np.hstack(blocks)``
    this is the block stack [a_1 kron Y_1 ... a_R kron Y_R]."""
    return (x[..., :, None, :] * y[..., None, :, :]).reshape(x.shape[:-2] + (-1, x.shape[-1]))


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
