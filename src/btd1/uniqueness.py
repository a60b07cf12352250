"""Executable uniqueness checkers for block-term decompositions.

Covers the necessary full-column-rank battery, the deterministic
uniqueness criteria (assumptions, conditions (a)-(e) and the partial and
overall uniqueness statements they imply), the parameter-count necessary
condition and the generic dimension bounds.  The rank-only corollary and
the two explicit nonuniqueness witness families (acceptance criterion 8)
are fixtures of the test suite, not part of the package.

Subset-rank quantities (k-rank, k'-rank, the subset conditions on stacked
term matrices) are exhaustive and therefore capped; a capped check reports
``None`` ("not evaluated") rather than sampling, so that every True/False
verdict is sound.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .linalg import DEFAULT_RANK_TOL, DimensionError, khatri_rao, numerical_rank, rank_cut
from .minors import (
    block_sizes,
    n_sym,
    phi_columns,
    phi_count_conditions,
    q2_null_dim,
    q2_rank,
)
from .tensor import compose, unfold

__all__ = [
    "KRankResult",
    "UniquenessReport",
    "check_necessary",
    "k_rank",
    "k_prime_rank",
    "check_deterministic_uniqueness",
    "parameter_count_S",
    "generic_bounds",
]

SUBSET_CAP = 10**6


@dataclass(frozen=True)
class KRankResult:
    """Value of a subset-rank quantity; ``exact=False`` means the subset
    enumeration hit the cap and the value is only a lower bound."""

    value: int
    exact: bool = True


# k-subsets ranked per np.linalg.svd call: one stack holds at most this
# many of them, so memory stays bounded however many subsets the cap allows
_SUBSET_CHUNK = 256


def _subset_rank(blocks, targets, ks, tol, cap):
    """Largest k of ``ks`` (increasing) such that every k-subset of
    ``blocks``, stacked side by side, has rank at least the sum of its
    ``targets``.

    Subsets are tested in lexicographic order, in chunks of up to 256 ranked
    by one stacked SVD per width, and the first chunk that holds a failure
    ends the search.  The search also ends at the first k whose k smallest
    targets sum above the row count, since no k-subset can then reach its
    target.  ``cap`` bounds the subsets tested over all k; a k that would
    pass it ends the search with an inexact lower bound.
    """
    n = len(blocks)
    smallest = sorted(targets)
    cols = np.hstack(blocks) if blocks else None
    bounds = np.cumsum([0] + [b.shape[1] for b in blocks])
    spans = [np.arange(bounds[i], bounds[i + 1]) for i in range(n)]
    best = 0
    tested = 0
    for k in ks:
        if k <= n and sum(smallest[:k]) > blocks[0].shape[0]:
            break
        n_subsets = math.comb(n, k)
        if tested + n_subsets > cap:
            return KRankResult(best, exact=False)
        tested += n_subsets
        subsets = combinations(range(n), k)
        while chunk := list(islice(subsets, _SUBSET_CHUNK)):
            if not _chunk_reaches(cols, spans, targets, chunk, tol):
                return KRankResult(best)
        best = k
    return KRankResult(best)


def _chunk_reaches(cols, spans, targets, chunk, tol):
    """Whether every subset of ``chunk`` (tuples of block indices), its
    blocks' columns of ``cols`` side by side, has rank at least the sum of
    its targets; ranks are :func:`btd1.linalg.rank_cut`'s, from one stacked
    SVD per subset width."""
    groups = {}
    for sel in chunk:
        idx = np.concatenate([spans[i] for i in sel])
        groups.setdefault(idx.size, []).append((idx, sum(targets[i] for i in sel)))
    for group in groups.values():
        need = np.array([target for _, target in group])
        stack = cols[:, np.array([i for i, _ in group])].transpose(1, 0, 2)
        ranks = rank_cut(np.linalg.svd(stack, compute_uv=False), tol)
        if np.any(ranks < need):
            return False
    return True


def k_rank(a, tol=DEFAULT_RANK_TOL, cap=SUBSET_CAP):
    """Largest k such that every k columns of ``a`` are linearly independent."""
    a = np.asarray(a)
    if np.any(np.linalg.norm(a, axis=0) == 0):
        return KRankResult(0)
    return k_prime_rank([a[:, i : i + 1] for i in range(a.shape[1])], tol=tol, cap=cap)


def k_prime_rank(blocks, tol=DEFAULT_RANK_TOL, cap=SUBSET_CAP):
    """Largest k' such that any k' blocks yield independent columns."""
    blocks = [np.atleast_2d(np.asarray(b)) for b in blocks]
    targets = [b.shape[1] for b in blocks]
    return _subset_rank(blocks, targets, range(1, len(blocks) + 1), tol, cap)


def check_necessary(d, tol=DEFAULT_RANK_TOL):
    """The three full-column-rank conditions any unique decomposition obeys:
    on [vec(E_1) ... vec(E_R)], on [a_1 kron B_1 ...], on [a_1 kron C_1 ...]."""
    vec_e = np.column_stack([e.ravel(order="F") for e in d.term_matrices()])
    a_rep = np.repeat(d.A, d.sizes, axis=1)
    a_b, a_c = khatri_rao(a_rep, d.B), khatri_rao(a_rep, d.C)
    return (
        numerical_rank(vec_e, tol=tol) == vec_e.shape[1],
        numerical_rank(a_b, tol=tol) == a_b.shape[1],
        numerical_rank(a_c, tol=tol) == a_c.shape[1],
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Structured verdicts; values are True / False / None (not evaluated)."""

    necessary: dict
    assumptions: dict
    conditions: dict
    statements: dict
    s_count: int = None
    ijk: int = None
    notes: tuple = ()

    def to_dict(self):
        def _clean(v):
            if v is None:
                return "not_evaluated"
            if isinstance(v, (list, tuple)):
                return [_clean(x) for x in v]
            return v

        return {
            "necessary": {k: _clean(v) for k, v in self.necessary.items()},
            "assumptions": {k: _clean(v) for k, v in self.assumptions.items()},
            "conditions": {k: _clean(v) for k, v in self.conditions.items()},
            "statements": {k: _clean(v) for k, v in self.statements.items()},
            "s_count": self.s_count,
            "ijk": self.ijk,
            "notes": list(self.notes),
        }


def _d_values(d, tol=DEFAULT_RANK_TOL):
    """d_r = dim null of the stacked complementary third-factor blocks.

    The complements of equal width, sum L - L_r, are ranked by one stacked
    SVD.  For a single term the complement is empty and the null space is
    all of F^K."""
    c_blocks = [c for _, c in d.terms]
    k_dim = c_blocks[0].shape[0]
    out = [k_dim] * d.R
    if d.R == 1:
        return out
    by_width = {}
    for r, c in enumerate(c_blocks):
        by_width.setdefault(c.shape[1], []).append(r)
    for terms in by_width.values():
        z = np.stack([np.hstack(c_blocks[:r] + c_blocks[r + 1 :]).T for r in terms])
        ranks = rank_cut(np.linalg.svd(z, compute_uv=False), tol)
        for r, rank in zip(terms, ranks):
            out[r] = k_dim - int(rank)
    return out


def _subset_rank_condition(mats, sizes, subset_size, transpose, tol, cap=SUBSET_CAP):
    """Whether every ``subset_size``-subset of term matrices, concatenated
    side by side (transposed when ``transpose``), has rank equal to the sum
    of the corresponding term sizes."""
    blocks = [m.T for m in mats] if transpose else mats
    return _at_least(_subset_rank(blocks, sizes, (subset_size,), tol, cap), subset_size)


def _at_least(kres, need):
    if kres.value >= need:
        return True
    return False if kres.exact else None


def _equals_rank(kres, rank):
    # the k-rank never exceeds the rank, so a matching lower bound is exact
    if kres.value == rank:
        return True
    return False if kres.exact else None


def _and(*vals):
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def _or(*vals):
    if any(v is True for v in vals):
        return True
    if any(v is None for v in vals):
        return None
    return False


def check_deterministic_uniqueness(d, t=None, tol=DEFAULT_RANK_TOL, cap=SUBSET_CAP):
    """Evaluate the deterministic uniqueness criteria on one decomposition.

    Assumptions: full column rank of unfold(T, 3); every d_r >= 1; and
    either the subset rank condition on the term matrices (F-ranks with
    k_A >= 2) or dim null Q2(T) = sum binom(d_r+1, 2).  Conditions:

      a. K >= sum L_r - min L_r + 1 and k_A >= 2
      b. A has full column rank
      c. k_A = r_A < R with the F- and G-subset rank conditions
      d. the stacked [E_1.T ... E_R.T].T has rank sum L_r
      e. binom(K+1,2) - Q > sum_{r1<r2} L_r1 L_r2 - (two smallest L product)

    Statements: S1 (A computable by EVD), S2 (everything computable given b
    or c), S3 (first-factor columns selected from A under a), S4 (first
    factor matrix unique under a and e), S5 (decomposition unique under
    (a and b) or (a and c) or d).
    """
    notes = []
    if t is None:
        t = compose(d)
    elif t.dims != d.dims:
        raise DimensionError(f"tensor dims {t.dims} do not match factors {d.dims}")
    sizes = d.sizes
    i_dim, j_dim, k_dim = t.dims
    sum_l = sum(sizes)
    e_mats = d.term_matrices()
    r = d.R

    necessary = dict(
        zip(("vecE_fcr", "aB_fcr", "aC_fcr"), check_necessary(d, tol=tol))
    )

    t3_rank_ok = numerical_rank(unfold(t, 3), tol=tol) == k_dim
    d_vals = _d_values(d, tol=tol)
    d_positive = [dv >= 1 for dv in d_vals]

    ka = k_rank(d.A, tol=tol, cap=cap)
    ra = numerical_rank(d.A, tol=tol)
    if not ka.exact:
        notes.append("k-rank of A hit the subset cap; using the lower bound")
    subset_size = r - ra + 2
    f_rank_ok = _and(
        _at_least(ka, 2),
        _subset_rank_condition(
            e_mats, sizes, subset_size, transpose=False, tol=tol, cap=cap
        ),
    )
    if f_rank_ok is None:
        notes.append("F-subset rank condition not evaluated (cap)")

    expected_q = q2_null_dim(d_vals)
    q2 = q2_rank(t, tol=tol)
    if q2.route == "refined":
        notes.append(f"Q2 rank from the refined null vectors: {q2.reason}")
    q2_dim_ok = n_sym(k_dim) - q2.rank == expected_q

    assumptions = {
        "t3_full_rank": t3_rank_ok,
        "d_r_positive": d_positive,
        "F_rank_ok": f_rank_ok,
        "Q2_dim_ok": q2_dim_ok,
    }
    base = _and(t3_rank_ok, all(d_positive), _or(f_rank_ok, q2_dim_ok))

    cond_a = _and(k_dim >= sum_l - min(sizes) + 1, _at_least(ka, 2))
    cond_b = ra == r
    g_rank_ok = _subset_rank_condition(
        e_mats, sizes, subset_size, transpose=True, tol=tol, cap=cap
    )
    if g_rank_ok is None:
        notes.append("G-subset rank condition not evaluated (cap)")
    cond_c = _and(_equals_rank(ka, ra), ra < r, f_rank_ok, g_rank_ok)
    # rank of the stacked [E_1.T ... E_R.T].T equals sum L_r
    cond_d = numerical_rank(np.vstack(e_mats), tol=tol) == sum_l
    # the product of the two smallest sizes is the Phi count of those two
    cond_e = n_sym(k_dim) - expected_q > phi_columns(sizes) - phi_columns(sorted(sizes)[:2])

    conditions = {"a": cond_a, "b": cond_b, "c": cond_c, "d": cond_d, "e": cond_e}

    s1 = base
    s2 = _and(base, _or(cond_b, cond_c))
    s3 = _and(base, cond_a)
    s4 = _and(base, cond_a, cond_e)
    s5 = _and(base, _or(_and(cond_a, cond_b), _and(cond_a, cond_c), cond_d))
    statements = {
        "S1_A_by_evd": s1,
        "S2_overall_by_evd": s2,
        "S3_first_fm_selection": s3,
        "S4_first_fm_unique": s4,
        "S5_overall_unique": s5,
    }

    s_count, ijk, _ = parameter_count_S((i_dim, j_dim, k_dim), sizes)
    return UniquenessReport(
        necessary=necessary,
        assumptions=assumptions,
        conditions=conditions,
        statements=statements,
        s_count=s_count,
        ijk=ijk,
        notes=tuple(notes),
    )


def parameter_count_S(dims, sizes):
    """Exact parameter count S = sum_r (I - 1 + (J + K - L_r) L_r) and the
    necessary condition S < IJK (integer arithmetic throughout)."""
    i_dim, j_dim, k_dim = (int(x) for x in dims)
    sizes = [int(s) for s in sizes]
    if max(sizes) > min(j_dim, k_dim):
        raise DimensionError("term sizes must not exceed min(J, K)")
    s = sum(i_dim - 1 + (j_dim + k_dim - l) * l for l in sizes)
    ijk = i_dim * j_dim * k_dim
    return s, ijk, s < ijk


def generic_bounds(dims, sizes):
    """Generic-uniqueness bounds evaluated from dimensions alone.

    Rows refer to the summary of known and new bounds: rows 1-3 are the
    classical conditions, row 5 needs no full-column-rank assumption, row 7
    covers equal sizes with I >= R, row 8 is the dimension-count bound with
    the third factor matrix of full column rank.  Also includes the generic
    Kruskal-type count.  Returns the verdict dict plus the kappa quantities
    (the largest p with the p largest sizes summing within J resp. K).
    """
    i_dim, j_dim, k_dim = (int(x) for x in dims)
    sizes = sorted(int(s) for s in sizes)
    r = len(sizes)
    sum_l = sum(sizes)
    equal = len(set(sizes)) == 1
    l = sizes[-1]

    def _kappa(limit):
        best = 0
        for p in range(1, r + 1):
            if sum(sizes[-p:]) <= limit:
                best = p
        return best

    kappa_b = _kappa(j_dim)
    kappa_c = _kappa(k_dim)

    rows = {}
    rows["row1"] = i_dim >= 2 and j_dim >= sum_l and k_dim >= sum_l
    rows["row2"] = i_dim >= r and j_dim >= sum_l and k_dim >= sizes[-1] + 1
    rows["row2_swapped"] = i_dim >= r and k_dim >= sum_l and j_dim >= sizes[-1] + 1
    rows["row3"] = i_dim >= r and kappa_b + kappa_c >= r + 2
    # row 5: no full column rank assumptions
    tail = sizes[min(i_dim, r) - 2 :] if min(i_dim, r) >= 2 else sizes
    rows["row5"] = (
        k_dim >= sum(sizes[1:]) + 1 and j_dim >= sum(tail) and i_dim >= 2
    )
    rows["row7"] = equal and i_dim >= r and (j_dim - l) * (k_dim - l) >= r
    phi_rows_ok, phi_wedge_ok = phi_count_conditions(i_dim, j_dim, sizes)
    rows["row8"] = (
        i_dim >= 2
        and phi_wedge_ok
        and sum_l <= (i_dim - 1) * (j_dim - 1)
        and sum_l <= k_dim
    )
    # generic Kruskal-type count (equal sizes only): k_A + k'_B + k'_C >= 2R + 2
    if equal:
        gen_ka = min(i_dim, r)
        gen_kb = min(j_dim // l, r)
        gen_kc = min(k_dim // l, r)
        rows["kruskal_first_fm"] = gen_ka + gen_kb + gen_kc >= 2 * r + 2
        rows["kruskal_overall"] = rows["kruskal_first_fm"] and i_dim >= r
    else:
        rows["kruskal_first_fm"] = False
        rows["kruskal_overall"] = False
    # row-6 counting prerequisites (certification itself is the finite-field
    # check in btd1.gf)
    # (for R = 1 the wedge condition J >= L_1 holds whenever
    # parameter_count_S accepts the sizes)
    rows["row6_count_ok"] = k_dim >= sum_l and phi_wedge_ok and phi_rows_ok
    # first-factor-matrix uniqueness, valid upon verification of the generic
    # null-space count: K (clamped to sum L) within the square-root bound
    k_eff, (d1, *_) = block_sizes(k_dim, sizes)
    if r >= 2:
        bound = -0.5 - math.sqrt(0.25 + 2.0 * sizes[0] * sizes[1] / (r - 1)) + sum_l
        rows["first_fm_inequality"] = k_eff >= bound
    else:
        rows["first_fm_inequality"] = True
    rows["first_fm_upon_verification"] = (
        i_dim * j_dim >= sum_l and d1 >= 1 and rows["first_fm_inequality"]
    )
    rows["kappa_B"] = kappa_b
    rows["kappa_C"] = kappa_c
    s, ijk, s_ok = parameter_count_S(dims, sizes)
    rows["parameter_count"] = s_ok
    return rows
