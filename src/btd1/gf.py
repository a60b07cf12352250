"""Exact linear algebra over prime fields GF(p) for certifying generic rank conditions.

The minor matrix of a composed tensor has entries that are integer
polynomials in the factor entries.  If, for one random choice of factors
over a finite field, its rank reaches the value forced by the generic
block-structure count, then the corresponding minor polynomial is nonzero
over the integers, hence the same rank is attained generically over the
reals and complexes.  Rank over the finite field is computed exactly
(Gaussian elimination), so a "certified" verdict involves no rounding; a
failed trial is inconclusive and can be retried with a new seed or a
different prime.

Without an explicit ``field`` the certifiers try GF(32749), then GF(65521).
Only primes with (p-1)^2 < 2^53 are supported, so a matrix product is a
float64 matmul reduced mod p, summed in blocks short enough that every
partial sum stays an integer below 2^53, and the product is exact.  When
Phi(A, B) has more rows than the expected rank + 10, it is never formed:
the certifiers rank the sketch S Phi (times S2(C).T for Q2) instead, where
S has expected rank + 10 rows, each the Kronecker product s_A kron s_B of
two random rows of lengths binom(I, 2) and binom(J, 2) (a Khatri-Rao random
map; Sun, Guo, Luo, Tropp & Udell, SIAM J. Math. Data Sci. 2(4), 2020).
Phi's column for the term pair (r1, r2) and (l1, l2) is (a_r1 wedge a_r2)
kron (b_r1,l1 wedge b_r2,l2), so its sketch is the rowwise product of
S_A (a_r1 wedge a_r2) and S_B (b_r1,l1 wedge b_r2,l2), and the largest
array a trial holds is S_B, not Phi.  rank(S M) <= rank(M) for every S, so
a witness of the sketch still certifies and a miss stays inconclusive
(Schwartz, J. ACM 27(4), 1980).

This module does the field arithmetic, the exact products and ranks, and
the certification loop; ``Phi(A, B)`` and ``S2(C)`` come from the builders
in :mod:`btd1.minors`, which take a :class:`GFField` in place of numpy's
arithmetic, so both use one enumeration of index pairs and one formula.
"""

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
    phi_wedges,
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

# rows of the sketch beyond the expected rank
_COMPRESS_SLACK = 10


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class GFField:
    """GF(p) arithmetic on numpy int64 arrays, for a prime p with
    (p-1)^2 < 2^53: every product of two residues is then an exact float64,
    so every matrix product runs through float64 BLAS.  The largest such
    prime is 94906249.  p must be a Python or numpy integer."""

    p: int = 2

    def __post_init__(self):
        p = self.p
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise ValueError(f"p must be an integer, got {p!r}")
        p = int(p)
        # checked before primality, which is trial division
        if p > 1 and (p - 1) ** 2 >= _kernels.FLOAT_EXACT:
            raise ValueError(f"{p} is too large: float64 products need (p-1)^2 < 2^53")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def reduce(self, a):
        """a mod p, in [0, p), for an integer array such as a sum of
        products of residues."""
        return a % self.p

    def random(self, gen, shape):
        return gen.integers(0, self.p, size=shape, dtype=np.int64)


# fields tried in turn when no explicit field is given: two large primes
_ESCALATION_LADDER = (GFField(32749), GFField(65521))


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix with entries in [0, p) over a fixed prime field."""

    values: np.ndarray
    field: GFField

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.int64)
        if v.ndim != 2:
            raise DimensionError("GFMatrix needs a 2-d array")
        if v.size and (v.min() < 0 or v.max() >= self.field.p):
            raise ValueError("entries must lie in [0, p)")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    def matmul(self, other):
        return GFMatrix(_matmul_mod_p(self.values, other.values, self.field.p), self.field)


def _exact_block(p):
    """Longest inner length n with (p-1)^2 n < 2^53: a float64 product over
    at most n entries in [0, p) has only exact integer partial sums, in any
    summation order.  At least 1 for every prime GFField accepts."""
    return (_kernels.FLOAT_EXACT - 1) // (p - 1) ** 2


def _matmul_mod_p(a, b, p):
    """a @ b mod p for entries in [0, p), as float64 matmuls over inner
    slices of length ``_exact_block(p)``.  Each product is reduced as int64,
    which is about three times faster than a float64 remainder."""
    block = _exact_block(p)
    if a.shape[1] <= block:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        out %= p
        return out
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], block):
        part = a[:, s : s + block].astype(np.float64) @ b[s : s + block].astype(np.float64)
        out += part.astype(np.int64)
        out %= p
    return out


def gf_rank(m):
    """Exact rank by Gaussian elimination to row echelon form."""
    if not isinstance(m, GFMatrix):
        raise DimensionError("gf_rank needs a GFMatrix")
    if m.values.size == 0:
        return 0
    return int(_kernels.gfp_eliminate(m.values.copy(), m.field.p))


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
    s_a[n] kron s_b[n], without forming S or Phi.  Column m is the rowwise
    product of (s_a wa)[:, pair[m]] and (s_b wb)[:, m], with wa, pair and
    wb from :func:`btd1.minors.phi_wedges`: two products for all term pairs,
    the second a column chunk at a time."""
    p = f.p
    wa, pair, wb_chunks = phi_wedges(a, b_blocks, f)
    sa = _matmul_mod_p(s_a, wa, p)
    out = np.empty((s_b.shape[0], pair.size), dtype=np.int64)
    # s_b goes to float64 once per chunk: a float64 copy held across the
    # chunks took 12x50x50's peak RSS from 117 to 129 MB
    for cols, wb in wb_chunks:
        out[:, cols] = _matmul_mod_p(s_b, wb, p) * sa[:, pair[cols]] % p
    return out


def _check_trials(trials):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _certify_rank(config, expected, build, trials, seed, field, reason):
    """Randomized rank certification shared by both verifiers.

    ``build(fld, gen)`` draws one trial's factors from ``gen`` and returns
    ``(a, b, sizes, *rest)``: the rank of Phi(A, B) @ rest[0] @ ... is
    tested against ``expected``.  When Phi has more than n = expected + 10
    rows, it is replaced by its sketch S Phi (:func:`_phi_sketch`): S_A
    (n x binom(I,2)) and S_B (n x binom(J,2)) are drawn from the same
    generator, and row i of S is S_A[i] kron S_B[i].  rank(S Phi) <=
    rank(Phi), so only an exact witness certifies.  When Phi has at most n
    rows, it is formed whole.
    """
    fields = (field,) if field is not None else _ESCALATION_LADDER
    n_keep = expected + _COMPRESS_SLACK
    best = -1
    total = 0
    for f_idx, fld in enumerate(fields):
        gen = rng(seed + 7919 * f_idx)
        for _ in range(trials):
            total += 1
            a, b, sizes, *rest = build(fld, gen)
            n_i, n_j = n_strict(a.shape[0]), n_strict(b.shape[0])
            if n_i * n_j <= n_keep:
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
    inconclusive.  Raises ``ValueError`` when ``trials`` is below 1 and
    ``DimensionError`` when ``sizes`` is empty or not ``r`` long.
    """
    _check_trials(trials)
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) != r or not sizes:
        raise DimensionError(f"expected {r} sizes (at least one), got {len(sizes)}")
    first = field if field is not None else _ESCALATION_LADDER[0]
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
        reason="no full-rank witness found; retry with another seed or a different prime",
    )


def verify_generic_q2_dim(dims, sizes, trials=5, seed=0, field=None):
    """Certify the generic null-space dimension of Q2 by finite-field rank.

    The certified identity is rank Q2 = binom(K+1,2) - sum binom(d_r+1,2)
    with d_r = K - sum L + L_r.  Requires K <= sum L_r; larger K is clamped
    to sum L_r (the extra directions are removed by third-mode compression).
    When Q2's binom(I,2) binom(J,2) rows are fewer than that rank, the
    verdict is "impossible" without a trial.  Raises ``ValueError`` when
    ``trials`` is below 1 and ``DimensionError`` when ``sizes`` is empty.
    """
    _check_trials(trials)
    i_dim, j_dim, k_dim = (int(x) for x in dims)
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        raise DimensionError("verify_generic_q2_dim needs at least one term size")
    sum_l = sum(sizes)
    clamped = k_dim > sum_l
    k_dim, d_vals = block_sizes(k_dim, sizes)
    config = {"I": i_dim, "J": j_dim, "K": k_dim, "L": list(sizes), "clamped": clamped}
    first = field if field is not None else _ESCALATION_LADDER[0]
    if any(dv < 1 for dv in d_vals):
        return GFVerificationResult(
            config, 0, "impossible", -1, -1, field=first,
            reason="some d_r would be nonpositive; generic blocks overlap",
        )
    expected = n_sym(k_dim) - q2_null_dim(d_vals)
    n_rows = n_strict(i_dim) * n_strict(j_dim)
    if n_rows < expected:
        return GFVerificationResult(
            config, 0, "impossible", -1, expected, field=first,
            reason=f"Q2 has {n_rows} rows, below the expected rank {expected}",
        )

    def build(fld, gen):
        a = fld.random(gen, (i_dim, len(sizes)))
        b = fld.random(gen, (j_dim, sum_l))
        c = fld.random(gen, (k_dim, sum_l))
        return a, b, sizes, GFMatrix(gf_s2(fld, c, sizes).values.T, fld)

    return _certify_rank(
        config, expected, build, trials, seed, field,
        reason="rank never reached the generic count; retry with another seed or a "
        "different prime",
    )
