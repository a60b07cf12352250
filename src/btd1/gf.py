"""Exact linear algebra over GF(p) and GF(2^15) for certifying generic rank conditions.

The minor matrix of a composed tensor has entries that are integer
polynomials in the factor entries.  If, for one random choice of factors
over a finite field, its rank reaches the value forced by the generic
block-structure count, then the corresponding minor polynomial is nonzero
over the integers, hence the same rank is attained generically over the
reals and complexes.  Rank over the finite field is computed exactly
(Gaussian elimination), so a "certified" verdict involves no rounding; a
failed trial is inconclusive and can be retried with a new seed, a larger
extension degree, or a different prime.

Without an explicit ``field`` the certifiers try the prime fields GF(32749)
and GF(65521), then GF(2^15).  Over a prime field a matrix product is a
float64 matmul reduced mod p, summed in blocks short enough that every
partial sum stays an integer below 2^53, so the product is exact.  When
Phi(A, B) has more rows than the expected rank + 10, it is never formed:
the certifiers rank the sketch S Phi (times S2(C).T for Q2) instead, where
S has expected rank + 10 rows, each the Kronecker product s_A kron s_B of
two random rows of lengths binom(I, 2) and binom(J, 2) (a Khatri-Rao random
map; Sun, Guo, Luo, Tropp & Udell, SIAM J. Math. Data Sci. 2(4), 2020).
Phi's block for the term pair (r1, r2) is (a_r1 wedge a_r2) kron (B_r1
wedge B_r2), so its sketch is the rowwise product of S_A (a_r1 wedge a_r2)
and S_B (B_r1 wedge B_r2), and the largest array a trial holds is S_B, not
Phi.  rank(S M) <= rank(M) for every S, so a witness of the sketch still
certifies and a miss stays inconclusive (Schwartz, J. ACM 27(4), 1980).

Supported fields: prime fields GF(p) and, through ``field=``, GF(2^15) with
table-based arithmetic (reduction polynomial x^15 + x + 1).

This module does the field arithmetic, the exact products and ranks, and
the certification loop; ``Phi(A, B)`` and ``S2(C)`` come from the builders
in :mod:`btd1.minors`, which take a :class:`GFField` in place of numpy's
arithmetic, so both use one enumeration of index pairs and one formula.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import DimensionError, rng, split_columns
from .minors import (
    block_sizes,
    n_strict,
    n_sym,
    phi_columns,
    phi_count_conditions,
    phi_matrix,
    phi_pair_wedges,
    q2_null_dim,
    s2_matrix,
)

__all__ = [
    "GFField",
    "GFMatrix",
    "GFVerificationResult",
    "gf_rank",
    "gf_phi",
    "gf_s2",
    "gf_q2_from_factors",
    "verify_phi_full_rank",
    "verify_generic_q2_dim",
]

_REDUCTION_POLY = (1 << 15) | (1 << 1) | 1  # x^15 + x + 1

# float64 represents every integer below 2^53 exactly
_FLOAT_EXACT = 2**53
# rows of the sketch beyond the expected rank
_COMPRESS_SLACK = 10


@functools.cache
def _escalation_ladder():
    """Fields tried in turn when no explicit field is given: two large prime
    fields, then GF(2^15).  The prime fields come first because their
    products run through float64 BLAS and because the symmetric-product rows
    need odd characteristic (their diagonal entries vanish identically over
    GF(2^k)).  Built once per process."""
    return (GFField(32749, 1), GFField(65521, 1), GFField())


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class GFField:
    """GF(p) or GF(2^15) arithmetic on numpy integer arrays.

    GF(2^15) (p = 2, k = 15, the default) is realized through log/antilog
    tables of the multiplicative group generated by x modulo the primitive
    polynomial x^15 + x + 1.  For k = 1 arithmetic is plain modular
    arithmetic; no other extension degree is supported.
    """

    def __init__(self, p=2, k=15):
        # residues and their products live in int64 arrays
        if p * (p - 1) >= 2**63:
            raise ValueError(f"{p} is too large for int64 field arithmetic")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k != 1 and (p, k) != (2, 15):
            raise ValueError(f"GF({p}^{k}) is not supported: use a prime field or GF(2^15)")
        self.p = p
        self.k = k
        self.order = p**k
        self.exp = None
        self.log = None
        if self.binary:
            self._build_tables()

    def _build_tables(self):
        q = self.order
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        t = 1
        for i in range(q - 1):
            exp[i] = t
            log[t] = i
            t <<= 1
            if t >> self.k:
                t ^= _REDUCTION_POLY
        self.exp = exp
        self.log = log

    def __repr__(self):
        return f"GFField(p={self.p}, k={self.k})"

    def __eq__(self, other):
        return isinstance(other, GFField) and (self.p, self.k) == (other.p, other.k)

    @property
    def binary(self):
        return self.p == 2 and self.k > 1

    def add(self, a, b):
        if self.binary:
            return np.bitwise_xor(a, b)
        return (a + b) % self.p

    def sub(self, a, b):
        if self.binary:
            return np.bitwise_xor(a, b)
        return (a - b) % self.p

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.binary:
            out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
            a, b = np.broadcast_arrays(a, b)
            nz = (a != 0) & (b != 0)
            out[nz] = self.exp[(self.log[a[nz]] + self.log[b[nz]]) % (self.order - 1)]
            return out
        return a * b % self.p

    def random(self, gen, shape):
        return gen.integers(0, self.order, size=shape, dtype=np.int64)


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix with entries in [0, p^k) over a fixed field."""

    values: np.ndarray
    field: GFField

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.int64)
        if v.ndim != 2:
            raise DimensionError("GFMatrix needs a 2-d array")
        if v.size and (v.min() < 0 or v.max() >= self.field.order):
            raise ValueError("entries must lie in [0, order)")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    def matmul(self, other):
        f = self.field
        a, b = self.values, other.values
        block = 0 if f.binary else _exact_block(f.p)
        if block:
            return GFMatrix(_matmul_mod_p(a, b, f.p, block), f)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for k in range(a.shape[1]):
            out = f.add(out, f.mul(a[:, k][:, None], b[k, :][None, :]))
        return GFMatrix(out, f)


def _exact_block(p):
    """Longest inner length n with (p-1)^2 n < 2^53: a float64 product over
    at most n entries in [0, p) has only exact integer partial sums, in any
    summation order.  Zero when a single product can round."""
    return (_FLOAT_EXACT - 1) // (p - 1) ** 2


def _matmul_mod_p(a, b, p, block):
    """a @ b mod p for entries in [0, p), as float64 matmuls over inner
    slices of length ``block`` (see ``_exact_block``)."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], block):
        part = a[:, s : s + block].astype(np.float64) @ b[s : s + block].astype(np.float64)
        out = (out + (part % p).astype(np.int64)) % p
    return out


def gf_rank(m):
    """Exact rank by Gaussian elimination to row echelon form."""
    if not isinstance(m, GFMatrix):
        raise DimensionError("gf_rank needs a GFMatrix")
    f = m.field
    if m.values.size == 0:
        return 0
    work = m.values.copy()
    if f.binary:
        return int(_kernels.gf2k_eliminate(work, f.log, f.exp, f.order))
    return int(_kernels.gfp_eliminate(work, f.p))


@dataclass(frozen=True)
class GFVerificationResult:
    """Outcome of a randomized finite-field rank certification."""

    config: dict
    trials: int
    verdict: str  # certified | inconclusive | impossible
    witnessed_rank: int
    expected: int
    reason: str = ""
    field: GFField = None

    @property
    def certified(self):
        return self.verdict == "certified"

    def to_dict(self):
        return {
            "config": self.config,
            "trials": self.trials,
            "verdict": self.verdict,
            "witnessed_rank": self.witnessed_rank,
            "expected": self.expected,
            "reason": self.reason,
            "field": repr(self.field) if self.field else None,
        }


def gf_phi(f, a, b, sizes):
    """Phi(A, B) over the field, built by :func:`btd1.minors.phi_matrix`."""
    return GFMatrix(phi_matrix(a, split_columns(b, sizes), f), f)


def gf_s2(f, c, sizes):
    """S2(C) over the field, built by :func:`btd1.minors.s2_matrix`."""
    return GFMatrix(s2_matrix(split_columns(c, sizes), f), f)


# only the tests call this, but perfbench/tracing.py hooks it by name
def gf_q2_from_factors(f, a, b, c, sizes):
    """Q2 of the composed tensor, computed in-field as Phi(A, B) S2(C).T."""
    return gf_phi(f, a, b, sizes).matmul(GFMatrix(gf_s2(f, c, sizes).values.T, f))


def _phi_sketch(f, s_a, s_b, a, b_blocks):
    """S Phi(A, B) over a prime field for the S whose row n is
    s_a[n] kron s_b[n], without forming S or Phi.  The block of term pair
    (r1, r2) is the rowwise product (s_a (a_r1 wedge a_r2)) * (s_b (B_r1
    wedge B_r2)), over the pairs of :func:`btd1.minors.phi_pair_wedges` in
    the block order of :func:`btd1.minors.phi_matrix`."""
    s_a, s_b = GFMatrix(s_a, f), GFMatrix(s_b, f)
    cols = [np.zeros((s_a.shape[0], 0), dtype=np.int64)]
    for wa, wb in phi_pair_wedges(a, b_blocks, f):
        sa = s_a.matmul(GFMatrix(wa, f)).values
        cols.append(sa * s_b.matmul(GFMatrix(wb, f)).values % f.p)
    return np.hstack(cols)


def _check_trials(trials):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _certify_rank(config, expected, build, trials, seed, field, reason):
    """Randomized rank certification shared by both verifiers.

    ``build(fld, gen)`` draws one trial's factors from ``gen`` and returns
    ``(a, b, sizes, *rest)``: the rank of Phi(A, B) @ rest[0] @ ... is
    tested against ``expected``.  Over a prime field, when Phi has more than
    n = expected + 10 rows, it is replaced by its sketch S Phi
    (:func:`_phi_sketch`): S_A (n x binom(I,2)) and S_B (n x binom(J,2)) are
    drawn from the same generator, and row i of S is S_A[i] kron S_B[i].
    rank(S Phi) <= rank(Phi), so only an exact witness certifies.  Over
    GF(2^k), and when Phi has at most n rows, Phi is formed whole.
    """
    fields = (field,) if field is not None else _escalation_ladder()
    n_keep = expected + _COMPRESS_SLACK
    best = -1
    total = 0
    for f_idx, fld in enumerate(fields):
        gen = rng(seed + 7919 * f_idx)
        for _ in range(trials):
            total += 1
            a, b, sizes, *rest = build(fld, gen)
            n_i, n_j = n_strict(a.shape[0]), n_strict(b.shape[0])
            if fld.binary or n_i * n_j <= n_keep:
                m = gf_phi(fld, a, b, sizes)
            else:
                s_a = fld.random(gen, (n_keep, n_i))
                s_b = fld.random(gen, (n_keep, n_j))
                m = GFMatrix(_phi_sketch(fld, s_a, s_b, a, split_columns(b, sizes)), fld)
            for right in rest:
                m = m.matmul(right)
            rank = gf_rank(m)
            best = max(best, rank)
            if rank == expected:
                return GFVerificationResult(
                    config, total, "certified", rank, expected, field=fld
                )
    return GFVerificationResult(
        config, total, "inconclusive", best, expected, reason=reason, field=fields[-1]
    )


def verify_phi_full_rank(i_dim, j_dim, r, sizes, trials=5, seed=0, field=None):
    """Certify that Phi(A, B) has full column rank for random field factors.

    Necessary count conditions are checked first: binom(I,2) binom(J,2) must
    reach the column count and J must fit the two largest sizes (otherwise
    the wedge of two blocks is structurally rank deficient).  One full-rank
    witness certifies; all-trials failure over the field ladder is
    inconclusive.  Raises ``ValueError`` when ``trials`` is below 1.
    """
    _check_trials(trials)
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) != r:
        raise DimensionError(f"expected {r} sizes, got {len(sizes)}")
    first = field if field is not None else _escalation_ladder()[0]
    n_cols = phi_columns(sizes)
    config = {"I": i_dim, "J": j_dim, "R": r, "L": list(sizes)}
    rows_ok, wedge_ok = phi_count_conditions(i_dim, j_dim, sizes)
    if r >= 2 and not (rows_ok and wedge_ok):
        return GFVerificationResult(
            config, 0, "impossible", -1, n_cols, field=first,
            reason="row count below column count" if not rows_ok
            else "J below the two largest sizes; wedge blocks collapse",
        )

    def build(fld, gen):
        a = fld.random(gen, (i_dim, r))
        return a, fld.random(gen, (j_dim, sum(sizes))), sizes

    return _certify_rank(
        config, n_cols, build, trials, seed, field,
        reason="no full-rank witness found; retry with another seed, larger k, "
        "or a different prime",
    )


def verify_generic_q2_dim(dims, sizes, trials=5, seed=0, field=None):
    """Certify the generic null-space dimension of Q2 by finite-field rank.

    The certified identity is rank Q2 = binom(K+1,2) - sum binom(d_r+1,2)
    with d_r = K - sum L + L_r.  Requires K <= sum L_r; larger K is clamped
    to sum L_r (the extra directions are removed by third-mode compression).
    Raises ``ValueError`` when ``trials`` is below 1.
    """
    _check_trials(trials)
    i_dim, j_dim, k_dim = (int(x) for x in dims)
    sizes = sorted(int(s) for s in sizes)
    sum_l = sum(sizes)
    clamped = k_dim > sum_l
    k_dim, d_vals = block_sizes(k_dim, sizes)
    config = {"I": i_dim, "J": j_dim, "K": k_dim, "L": list(sizes), "clamped": clamped}
    if any(dv < 1 for dv in d_vals):
        return GFVerificationResult(
            config, 0, "impossible", -1, -1,
            reason="some d_r would be nonpositive; generic blocks overlap",
            field=field if field is not None else _escalation_ladder()[0],
        )
    expected = n_sym(k_dim) - q2_null_dim(d_vals)

    def build(fld, gen):
        a = fld.random(gen, (i_dim, len(sizes)))
        b = fld.random(gen, (j_dim, sum_l))
        c = fld.random(gen, (k_dim, sum_l))
        return a, b, sizes, GFMatrix(gf_s2(fld, c, sizes).values.T, fld)

    return _certify_rank(
        config, expected, build, trials, seed, field,
        reason="rank never reached the generic count; retry with another seed, "
        "larger k, or a different prime",
    )
