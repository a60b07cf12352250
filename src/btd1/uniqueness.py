"""Executable uniqueness checkers for block-term decompositions.

Covers the necessary full-column-rank battery, the deterministic
uniqueness criteria (assumptions, conditions (a)-(e) and the partial and
overall uniqueness statements they imply), a rank-only corollary for the
case where no factor matrix has full column rank, the parameter-count
necessary condition, the generic dimension bounds, and two explicit
nonuniqueness witness families.

Subset-rank quantities (k-rank, k'-rank, the subset conditions on stacked
term matrices) are exhaustive and therefore capped; a capped check reports
``None`` ("not evaluated") rather than sampling, so that every True/False
verdict is sound.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import DEFAULT_RANK_TOL, DimensionError, khatri_rao, numerical_rank
from .minors import (
    block_sizes,
    n_sym,
    phi_columns,
    phi_count_conditions,
    q2_null_dim,
    q2_rank,
)
from .tensor import BlockTermDecomposition, compose, unfold

__all__ = [
    "KRankResult",
    "UniquenessReport",
    "check_necessary",
    "k_rank",
    "k_prime_rank",
    "check_deterministic_uniqueness",
    "check_rank_only_uniqueness",
    "parameter_count_S",
    "generic_bounds",
    "nonuniqueness_family_2x8x7",
    "two_term_alternatives",
]

SUBSET_CAP = 10**6


@dataclass(frozen=True)
class KRankResult:
    """Value of a subset-rank quantity; ``exact=False`` means the subset
    enumeration hit the cap and the value is only a lower bound."""

    value: int
    exact: bool = True


def _subset_rank(blocks, targets, ks, tol, cap):
    """Largest k of ``ks`` (increasing) such that every k-subset of
    ``blocks``, stacked side by side, has rank at least the sum of its
    ``targets``.

    Subsets are tested in lexicographic order and the first failure ends
    the search.  The search also ends at the first k whose k smallest
    targets sum above the row count, since no k-subset can then reach its
    target.  ``cap`` bounds the subsets tested over all k; a k that would
    pass it ends the search with an inexact lower bound.
    """
    n = len(blocks)
    smallest = sorted(targets)
    best = 0
    tested = 0
    for k in ks:
        if k <= n and sum(smallest[:k]) > blocks[0].shape[0]:
            break
        n_subsets = math.comb(n, k)
        if tested + n_subsets > cap:
            return KRankResult(best, exact=False)
        tested += n_subsets
        for sel in combinations(range(n), k):
            m = np.hstack([blocks[i] for i in sel])
            if numerical_rank(m, tol=tol) < sum(targets[i] for i in sel):
                return KRankResult(best)
        best = k
    return KRankResult(best)


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

    For a single term the complement is empty and the null space is all of
    F^K."""
    out = []
    k_dim = d.terms[0][1].shape[0]
    for r in range(d.R):
        others = [d.terms[p][1] for p in range(d.R) if p != r]
        if not others:
            out.append(k_dim)
            continue
        z = np.hstack(others).T
        out.append(k_dim - numerical_rank(z, tol=tol))
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
    q2_null = n_sym(k_dim) - q2_rank(t, tol=tol)
    q2_dim_ok = q2_null == expected_q

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


def check_rank_only_uniqueness(d, tol=DEFAULT_RANK_TOL, cap=SUBSET_CAP):
    """Uniqueness via ranks only: r_C >= sum L_r - min L_r + 1,
    k'_B >= R - r_A + 2, k_A >= 2, and either r_A = R or
    (k_A = r_A < R and k'_C >= R - r_A + 2)."""
    sizes = d.sizes
    sum_l = sum(sizes)
    r = d.R
    rc = numerical_rank(d.C, tol=tol)
    ra = numerical_rank(d.A, tol=tol)
    ka = k_rank(d.A, tol=tol, cap=cap)
    kb = k_prime_rank([b for b, _ in d.terms], tol=tol, cap=cap)
    kc = k_prime_rank([c for _, c in d.terms], tol=tol, cap=cap)
    need = r - ra + 2
    first = _and(
        rc >= sum_l - min(sizes) + 1,
        _at_least(kb, need),
        _at_least(ka, 2),
    )
    branch_full = ra == r
    branch_k = _and(_equals_rank(ka, ra), ra < r, _at_least(kc, need))
    return _and(first, _or(branch_full, branch_k))


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


def nonuniqueness_family_2x8x7(p1, p2, params=None, seed=0):
    """A member of the two-parameter family of alternative decompositions of
    the canonical 2 x 8 x 7 tensor built from three rank-3 terms.

    ``params`` may fix the defining data (d: 2-vector, f: 8-vector, g and h:
    7-vectors); by default they are drawn from the given seed.  Returns the
    alternative decomposition (a BlockTermDecomposition whose three term
    matrices have rank at most 3) together with the canonical tensor it
    reconstructs.  Raises ZeroDivisionError-like errors when the family
    parameters hit the excluded divisor set (alpha or delta zero).
    """
    from .linalg import rng as _rng

    if params is None:
        gen = _rng(seed)
        params = {
            "d": gen.standard_normal(2),
            "f": gen.standard_normal(8),
            "g": gen.standard_normal(7),
            "h": gen.standard_normal(7),
        }
    d1, d2 = (float(x) for x in np.asarray(params["d"]))
    f = np.asarray(params["f"], dtype=float)
    g = np.asarray(params["g"], dtype=float)
    h = np.asarray(params["h"], dtype=float)
    if f.shape != (8,) or g.shape != (7,) or h.shape != (7,):
        raise DimensionError("need f of length 8 and g, h of length 7")

    eye8 = np.eye(8)
    eye7 = np.eye(7)
    e = lambda i: eye7[:, i - 1]

    a_hat = np.array([[d1, 1.0, 0.0], [d2, 0.0, 1.0]])
    b_hat = np.hstack([f[:, None], eye8])  # 8 x 9
    c_hat = np.column_stack(
        [e(1), e(2), e(3), e(4), e(5), g, e(6), e(7), h]
    )  # 7 x 9
    blocks = [(b_hat[:, 0:3], c_hat[:, 0:3]), (b_hat[:, 3:6], c_hat[:, 3:6]), (b_hat[:, 6:9], c_hat[:, 6:9])]
    canonical = BlockTermDecomposition(a_hat, tuple(blocks))
    t_hat = compose(canonical)

    f1, f2, f3, f4, f5, f6, f7, f8 = f
    g1, g2, g3, g4, g5, g6, g7 = g
    h1, h2, h3, h4, h5, h6, h7 = h
    alpha = (f1 * g2 - g1 + f2 * g3) * p1 + (f1 * h2 - h1 + f2 * h3) * p2 + 1.0
    beta = (f3 * g4 - f5 + f4 * g5) * d1 * p1 + (f3 * h4 + f4 * h5) * d1 * p2
    gamma = (f6 * g6 + f7 * g7) * d2 * p1 + (f6 * h6 - f8 + f7 * h7) * d2 * p2
    delta = beta + alpha - gamma * alpha
    if alpha == 0 or delta == 0:
        raise ZeroDivisionError("family parameters hit alpha = 0 or delta = 0")
    tau1 = -p1 * gamma / delta
    tau2 = -p2 * beta / delta
    tau3 = (p2 + tau2) / alpha
    tau4 = alpha * tau1 - p1
    q1 = h1 * tau3 + g1 * tau1 + 1.0
    q2 = h1 * tau2 + g1 * tau4 + 1.0
    r1 = h2 * tau3 + g2 * tau1
    r2 = h2 * tau2 + g2 * tau4
    s1 = h3 * tau3 + g3 * tau1
    s2 = h3 * tau2 + g3 * tau4
    tt = h4 * p2 / delta
    uu = h5 * p2 / delta
    vv = -g6 * p1 / delta
    ww = -g7 * p1 / delta

    e1_rows = [
        [f1, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [f2, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    ]
    for fv in (f3, f4, f5):
        e1_rows.append([fv * q1, fv * r1, fv * s1, fv * tt, fv * uu, fv * vv, fv * ww])
    for fv in (f6, f7, f8):
        e1_rows.append(
            [
                fv * q2,
                fv * r2,
                fv * s2,
                fv * tt * alpha,
                fv * uu * alpha,
                fv * vv * alpha,
                fv * ww * alpha,
            ]
        )
    e1 = np.array(e1_rows)
    h_slices = t_hat.values
    e2 = h_slices[0] - d1 * e1
    e3 = h_slices[1] - d2 * e1

    a_alt = np.array([[d1, 1.0, 0.0], [d2, 0.0, 1.0]])
    terms = []
    for e_mat in (e1, e2, e3):
        u, s, vh = np.linalg.svd(e_mat, full_matrices=False)
        terms.append((u[:, :3] * s[:3], vh[:3].conj().T))
    alternative = BlockTermDecomposition(a_alt, tuple(terms))
    return alternative, t_hat, (e1, e2, e3)


def two_term_alternatives(a1, a2, b1, b2, b3, b4, c1, c2, c3, c4):
    """The two closed-form alternative decompositions of the two-term tensor
    a1 o (b1 c1.T + b2 c2.T + b3 c3.T) + a2 o (b1 c1.T + b2 c2.T + b4 c4.T).

    Returns (t2, alt1, alt2).
    """
    vecs = [np.asarray(v, dtype=float) for v in (a1, a2, b1, b2, b3, b4, c1, c2, c3, c4)]
    a1, a2, b1, b2, b3, b4, c1, c2, c3, c4 = vecs
    base = BlockTermDecomposition(
        np.column_stack([a1, a2]),
        (
            (np.column_stack([b1, b2, b3]), np.column_stack([c1, c2, c3])),
            (np.column_stack([b1, b2, b4]), np.column_stack([c1, c2, c4])),
        ),
    )
    t2 = compose(base)
    alt1 = BlockTermDecomposition(
        np.column_stack([a1, a1 + a2]),
        (
            (np.column_stack([b3, b4]), np.column_stack([c3, -c4])),
            (np.column_stack([b1, b2, b4]), np.column_stack([c1, c2, c4])),
        ),
    )
    alt2 = BlockTermDecomposition(
        np.column_stack([a1 + a2, -a2]),
        (
            (np.column_stack([b1, b2, b3]), np.column_stack([c1, c2, c3])),
            (np.column_stack([b3, b4]), np.column_stack([c3, -c4])),
        ),
    )
    return t2, base, alt1, alt2
