"""Shared test utilities: brute-force oracles, reference instances, the
algebraic identity helpers and the nonuniqueness witnesses."""

import dataclasses
import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from btd1 import BlockTermDecomposition, Tensor3, _kernels, compose, random_btd, unfold
from btd1.linalg import (
    DEFAULT_RANK_TOL,
    DimensionError,
    cond,
    khatri_rao,
    lstsq,
    numerical_rank,
    randn,
    rank_cut,
    rng,
    split_columns,
)
from btd1.gf import GFField, GFMatrix
from btd1.minors import (
    n_strict,
    n_sym,
    strict_pairs,
    sym_pair_position,
    sym_pairs,
)
from btd1.sjbd import CPD_MAX_SWEEPS, CPD_REL_TOL, CPD_STEP_GROW, CPD_STEP_MAX, CPD_STEP_MIN
from btd1.uniqueness import (
    SUBSET_CAP,
    KRankResult,
    _and,
    _at_least,
    _equals_rank,
    _or,
    k_prime_rank,
    k_rank,
)


def naive_compose(a, terms):
    """Triple-loop evaluation of t_ijk = sum_r a_ir (B_r C_r.T)_jk."""
    i_dim = a.shape[0]
    j_dim = terms[0][0].shape[0]
    k_dim = terms[0][1].shape[0]
    dtype = np.result_type(a, *(b for b, _ in terms))
    out = np.zeros((i_dim, j_dim, k_dim), dtype=dtype)
    for r in range(a.shape[1]):
        e = terms[r][0] @ terms[r][1].T
        for i in range(i_dim):
            for j in range(j_dim):
                for k in range(k_dim):
                    out[i, j, k] += a[i, r] * e[j, k]
    return out


def naive_unfold3(a, terms):
    """[a_1 kron B_1 ... a_R kron B_R] C.T by independent summation."""
    blocks = [np.kron(a[:, r : r + 1], terms[r][0]) for r in range(a.shape[1])]
    c = np.hstack([cr for _, cr in terms])
    return np.hstack(blocks) @ c.T


def naive_unfold1(a, terms):
    """[vec(E_1) ... vec(E_R)] A.T by independent summation."""
    vec_e = np.column_stack([(b @ c.T).ravel(order="F") for b, c in terms])
    return vec_e @ a.T


def commutation_matrix(k):
    """K^2 x K^2 permutation with P vec(U) = vec(U.T) (column-major vec)."""
    p = np.zeros((k * k, k * k))
    for r in range(k):
        for c in range(k):
            p[r * k + c, c * k + r] = 1.0
    return p


def full_commutant_matrix(v_list):
    """Q K^2 x K^2 matrix of all the entries of vec(U V_q - V_q U.T), built
    with Kronecker products: vec(U V) = (V.T kron I) vec(U) and
    vec(V U.T) = (I kron V) P vec(U)."""
    k = v_list[0].shape[0]
    eye = np.eye(k)
    p = commutation_matrix(k)
    return np.vstack([np.kron(v.T, eye) - np.kron(eye, v) @ p for v in v_list])


def naive_single_linkage(dist, cut=None, n_clusters=None):
    """Greedy single linkage: merge the two closest groups until
    ``n_clusters`` remain, or while their gap is at most ``cut``.  Labels in
    order of first appearance."""
    n = dist.shape[0]
    labels = list(range(n))
    while len(set(labels)) > (n_clusters or 1):
        gap, keep, drop = min(
            (
                min(dist[i, j] for i in range(n) for j in range(n) if labels[i] == ga and labels[j] == gb),
                ga,
                gb,
            )
            for ga, gb in itertools.combinations(sorted(set(labels)), 2)
        )
        if n_clusters is None and gap > cut:
            break
        labels = [keep if lab == drop else lab for lab in labels]
    order = list(dict.fromkeys(labels))
    return np.array([order.index(lab) for lab in labels])


def loop_minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, out):
    """Reference minor-matrix fill, one entry at a time:
    out[a*nj + b, c] = t[i1,j1,k1]t[i2,j2,k2] + t[i1,j1,k2]t[i2,j2,k1]
                     - t[i1,j2,k1]t[i2,j1,k2] - t[i1,j2,k2]t[i2,j1,k1]."""
    nj = jp1.shape[0]
    for a in range(ip1.shape[0]):
        i1, i2 = ip1[a], ip2[a]
        for b in range(nj):
            j1, j2 = jp1[b], jp2[b]
            for c in range(kp1.shape[0]):
                k1, k2 = kp1[c], kp2[c]
                out[a * nj + b, c] = (
                    t[i1, j1, k1] * t[i2, j2, k2]
                    + t[i1, j1, k2] * t[i2, j2, k1]
                    - t[i1, j2, k1] * t[i2, j1, k2]
                    - t[i1, j2, k2] * t[i2, j1, k1]
                )
    return out


def _swap_rows(mat, r1, r2):
    for c in range(mat.shape[1]):
        mat[r1, c], mat[r2, c] = mat[r2, c], mat[r1, c]


def gf2k_tables(k, poly):
    """Log/antilog tables of GF(2^k) from the primitive polynomial ``poly``
    (an int with bit k set): expt[i] = x^i and logt[expt[i]] = i.  Returns
    (logt, expt, order) with order = 2^k."""
    order = 1 << k
    expt = np.zeros(order - 1, dtype=np.int64)
    logt = np.zeros(order, dtype=np.int64)
    t = 1
    for i in range(order - 1):
        expt[i] = t
        logt[t] = i
        t <<= 1
        if t >> k:
            t ^= poly
    return logt, expt, order


def loop_gf2k_eliminate(mat, logt, expt, order):
    """Reference in-place row echelon form over GF(2^k), entry by entry,
    pivots scaled to one and only the rows below each pivot reduced; returns
    the rank.  Addition is XOR, multiplication goes through the log/antilog
    tables of the multiplicative group (size order-1)."""
    m, n = mat.shape
    q1 = order - 1
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if mat[r, col] != 0), -1)
        if pivot < 0:
            continue
        _swap_rows(mat, pivot, rank)
        inv_log = (q1 - logt[mat[rank, col]]) % q1
        for c in range(col, n):
            v = mat[rank, c]
            if v != 0:
                mat[rank, c] = expt[(logt[v] + inv_log) % q1]
        for r in range(rank + 1, m):
            f = mat[r, col]
            if f == 0:
                continue
            for c in range(col, n):
                v = mat[rank, c]
                if v != 0:
                    mat[r, c] ^= expt[(logt[v] + logt[f]) % q1]
        rank += 1
        if rank == m:
            break
    return rank


def loop_gfp_eliminate(mat, p):
    """Reference in-place row echelon form over GF(p), one pivot at a time
    and every entry reduced at every step, pivots scaled to one and only
    the rows below each pivot reduced; returns the rank.  Each entry stays
    below p^2, within int64 for p < 2^31."""
    m, n = mat.shape
    rank = 0
    for col in range(n):
        nz = np.flatnonzero(mat[rank:, col])
        if nz.size == 0:
            continue
        pivot = rank + nz[0]
        mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank, col:] = mat[rank, col:] * inv % p
        f = mat[rank + 1 :, col : col + 1]
        mat[rank + 1 :, col:] = (mat[rank + 1 :, col:] + (p - f) * mat[rank, col:]) % p
        rank += 1
        if rank == m:
            break
    return rank


def arithmetic(field):
    """Elementwise add, sub and mul of ``field``: :data:`NUMPY` itself, or
    those of GF(p) for a ``btd1.gf.GFField``, reduced after every step.  The
    package reduces a finished product once; these are the arithmetic of
    the per-pair reference builders and the scalar loops."""
    if not isinstance(field, GFField):
        return field
    p = field.p
    return SimpleNamespace(
        add=lambda a, b: (a + b) % p, sub=lambda a, b: (a - b) % p, mul=lambda a, b: a * b % p
    )


def _pair_block(field, x, y, wedge):
    """Columnwise wedge (x_p y_q - x_q y_p over p < q) or symmetric product
    (x_p y_q + x_q y_p over p <= q) of two blocks in ``field``'s arithmetic,
    columns ordered with y's column index fastest."""
    p, q = strict_pairs(x.shape[0]) if wedge else sym_pairs(x.shape[0])
    ops = arithmetic(field)
    combine = ops.sub if wedge else ops.add
    out = combine(
        ops.mul(x[p][:, :, None], y[q][:, None, :]),
        ops.mul(x[q][:, :, None], y[p][:, None, :]),
    )
    return out.reshape(p.size, x.shape[1] * y.shape[1])


def _stack_pairs(cols, n_rows, blocks):
    if not cols:
        return np.zeros((n_rows, 0), dtype=np.result_type(*blocks))
    return np.hstack(cols)


def pair_loop_wedges(a, b_blocks, field):
    """Per term pair r1 < r2 in lexicographic order, the two wedge blocks
    (a_r1 wedge a_r2, B_r1 wedge B_r2) whose Kronecker product is that
    pair's block of Phi(A, B), yielded one pair at a time."""
    for r1, r2 in zip(*strict_pairs(len(b_blocks))):
        wa = _pair_block(field, a[:, r1 : r1 + 1], a[:, r2 : r2 + 1], wedge=True)
        yield wa, _pair_block(field, b_blocks[r1], b_blocks[r2], wedge=True)


def pair_loop_phi_matrix(a, b_blocks, field):
    """Reference Phi(A, B), one term-pair block at a time: blocks
    (a_r1 wedge a_r2) kron (B_r1 wedge B_r2), the (l1, l2) columns of a
    block enumerated l2 fastest."""
    cols = []
    for wa, wb in pair_loop_wedges(a, b_blocks, field):
        kron = arithmetic(field).mul(wa[:, :, None], wb[None])
        cols.append(kron.reshape(wa.shape[0] * wb.shape[0], wb.shape[1]))
    n_rows = n_strict(a.shape[0]) * n_strict(b_blocks[0].shape[0])
    return _stack_pairs(cols, n_rows, [a, *b_blocks])


def pair_loop_s2_matrix(c_blocks, field):
    """Reference S2(C), one term-pair block C_r1 symprod C_r2 at a time."""
    cols = [
        _pair_block(field, c_blocks[r1], c_blocks[r2], wedge=False)
        for r1, r2 in zip(*strict_pairs(len(c_blocks)))
    ]
    return _stack_pairs(cols, n_sym(c_blocks[0].shape[0]), c_blocks)


def pair_loop_phi_sketch(f, s_a, s_b, a, b_blocks):
    """Reference sketch S Phi(A, B) over the prime field ``f`` (row n of S
    is s_a[n] kron s_b[n]), one term pair at a time: the block of (r1, r2)
    is the rowwise product of s_a (a_r1 wedge a_r2) and s_b (B_r1 wedge
    B_r2)."""
    s_a, s_b = GFMatrix(s_a, f), GFMatrix(s_b, f)
    cols = [np.zeros((s_a.shape[0], 0), dtype=np.int64)]
    for wa, wb in pair_loop_wedges(a, b_blocks, f):
        sa = s_a.matmul(GFMatrix(wa, f)).values
        cols.append(sa * s_b.matmul(GFMatrix(wb, f)).values % f.p)
    return np.hstack(cols)


def loop_gf_matmul(f, a, b):
    """Reference product over the field ``f``, one inner index at a time
    through :func:`arithmetic`'s add and mul."""
    ops = arithmetic(f)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = ops.add(out, ops.mul(a[:, k][:, None], b[k, :][None, :]))
    return out


def rational_rank(m):
    """Exact rank over the rationals by fraction-based elimination (small
    matrices only); the soundness cross-check for certified trials."""
    m = np.asarray(m, dtype=object)
    rows = [[Fraction(int(x)) for x in row] for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def shared_columns_instance(r, seed=0, field="real"):
    """The structured R x (R+2) x (R+2) instance with shared b/c columns:
    every term has size 3 and every d_r equals 1."""
    from btd1.linalg import randn

    gen = rng(seed)
    a = randn(gen, (r, r), field)
    b = [randn(gen, r + 2, field) for _ in range(3 * r - 2)]
    c = [randn(gen, r + 2, field) for _ in range(r + 2)]
    terms = []
    for idx in range(1, r + 1):
        if idx == 1:
            b_r = np.column_stack([b[0], b[1], b[2]])
        elif idx == 2:
            b_r = np.column_stack([b[0], b[1], b[3]])
        else:
            b_r = np.column_stack([b[3 * idx - 5], b[3 * idx - 4], b[3 * idx - 3]])
        c_r = np.column_stack([c[0], c[1], c[idx + 1]])
        terms.append((b_r, c_r))
    return BlockTermDecomposition(a, tuple(terms))


def golden_integer_instance():
    """The 3 x 3 x 5 integer instance with sizes (1, 1, 1, 2) and C the
    identity; its minor matrix is the printed 9 x 15 golden matrix."""
    a = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    b = np.array([[1, 1, 1, 0, 0], [1, 2, 0, 1, 0], [1, 3, 0, 0, 1]])
    c = np.eye(5, dtype=np.int64)
    terms = (
        (b[:, 0:1], c[:, 0:1]),
        (b[:, 1:2], c[:, 1:2]),
        (b[:, 2:3], c[:, 2:3]),
        (b[:, 3:5], c[:, 3:5]),
    )
    return BlockTermDecomposition(a, terms)


def with_equal_b_columns(d):
    """``d`` with the last two columns of its last B block made equal: that
    term loses a rank, so Q2 of the composed tensor falls below its generic
    rank."""
    terms = [(b.copy(), c) for b, c in d.terms]
    terms[-1][0][:, -1] = terms[-1][0][:, -2]
    return BlockTermDecomposition(d.A, tuple(terms))


def integer_btd(dims, sizes, seed=0):
    """Decomposition with i.i.d. integer factor entries in [-3, 3]."""
    gen = rng(seed)
    i_dim, j_dim, k_dim = dims
    a = gen.integers(-3, 4, size=(i_dim, len(sizes)))
    terms = tuple(
        (gen.integers(-3, 4, size=(j_dim, l)), gen.integers(-3, 4, size=(k_dim, l)))
        for l in sizes
    )
    return BlockTermDecomposition(a, terms)


def q2_rank_instances():
    """Decompositions whose composed Q2 has a clear rank gap: real, complex
    and integer, generic and planted-deficient, the 2x8x7 example,
    5x18x7, whose Q2 has 1530 rows, and 3x6x18, whose K = 18 splits
    ``q2_gram``'s product in two."""
    return {
        "real": random_btd((3, 8, 8), (2, 3, 4), seed=1),
        "complex": random_btd((3, 8, 8), (2, 3, 4), field="complex", seed=1),
        "integer": integer_btd((4, 6, 5), (1, 2, 2), seed=0),
        "real_deficient": with_equal_b_columns(random_btd((3, 8, 8), (2, 3, 4), seed=1)),
        "complex_deficient": with_equal_b_columns(
            random_btd((4, 9, 9), (2, 3, 4), field="complex", seed=2)
        ),
        "integer_deficient": with_equal_b_columns(integer_btd((4, 6, 5), (1, 2, 2), seed=0)),
        "2x8x7": random_btd((2, 8, 7), (3, 3, 3), seed=0),
        "multi_panel": random_btd((5, 18, 7), (2, 2, 3), seed=4),
        "multi_panel_deficient": with_equal_b_columns(random_btd((5, 18, 7), (2, 2, 3), seed=4)),
        "two_products": random_btd((3, 6, 18), (4, 5, 5, 4), seed=5),
    }


GOLDEN_Q2_3x3x5 = np.array(
    [
        [0, 1, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, -1, 1, 0, 0, 3, -2, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -2, 1, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -3, 0, 1, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -3, 2, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)


def block_subspace_match(est_blocks, true_blocks):
    """Greedy matching of block column spaces; returns the largest principal
    angle over the best assignment (blocks must agree in size multiset)."""
    est = list(est_blocks)
    true = list(true_blocks)
    assert sorted(b.shape[1] for b in est) == sorted(b.shape[1] for b in true)
    worst = 0.0
    remaining = list(range(len(true)))
    for e in est:
        dists = [
            subspace_angle(e, true[i]) if true[i].shape[1] == e.shape[1] else np.inf
            for i in remaining
        ]
        pick = int(np.argmin(dists))
        worst = max(worst, dists[pick])
        remaining.pop(pick)
    return worst


def pinv(a, tol=DEFAULT_RANK_TOL):
    """Moore-Penrose pseudo-inverse at the package's relative rank tolerance."""
    return np.linalg.pinv(a, rcond=tol)


def subspace_angle(u, v):
    """Largest principal angle (radians) between the column spaces of u and
    v, from ``scipy.linalg.subspace_angles``, which resolves angles near 0
    to rounding level; pi/2 when the widths differ."""
    if u.shape[1] != v.shape[1]:
        return np.pi / 2
    return float(scipy.linalg.subspace_angles(u, v).max())


def singular_pencil_instance(k, field="real", seed=0, q=4):
    """V_q = N D_q N.T with one 3 x 3 block D_q = [[0, a, b], [a, 0, 0],
    [b, 0, 0]]: rows 2 and 3 of every combination are parallel, so every
    combination is singular."""
    gen = rng(seed)
    n = randn(gen, (k, 3), field)
    v_list = []
    for _ in range(q):
        a, b = randn(gen, 2, field)
        v_list.append(n @ np.array([[0, a, b], [a, 0, 0], [b, 0, 0]]) @ n.T)
    return v_list


def phase1_failure(kind, monkeypatch):
    """A tensor on which exact Phase I raises one of its own two failures,
    with the failure's message and Q_used.  ``"trivial"``: an unstructured
    tensor, whose minor matrix has full column rank.  ``"mismatch"``: a
    3x8x8 (2,3,4) tensor, Q = 10, with ``solve_sjbd`` patched to return
    d = (2, 2, 2), whose sum binom(d_r+1, 2) is 9."""
    import btd1.solver as solver_module
    from btd1 import Tensor3, compose, random_btd

    if kind == "trivial":
        return Tensor3(rng(0).standard_normal((3, 8, 8))), "trivial null space", 0
    solve = solver_module.solve_sjbd

    def flagged(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), d=(2, 2, 2))

    monkeypatch.setattr(solver_module, "solve_sjbd", flagged)
    return compose(random_btd((3, 8, 8), (2, 3, 4), seed=0)), "structural assumption fails", 10


def lstsq_cpd_als(tensor, init, max_iter=500, rel_tol=1e-4, extrapolate=True):
    """Reference CPD by alternating least squares: one ``lstsq`` against the
    Khatri-Rao matrix per factor update, column norms and the fit recomputed
    from the factors after every sweep.  Same model, balancing, extrapolated
    point and stopping rule as ``btd1.sjbd.cpd_als``; ``extrapolate=False``
    runs plain ALS.  Returns ((A, C, B), fit, converged, sweeps)."""
    m, n, _ = tensor.shape
    a, c, b = (np.array(f) for f in init)
    t0 = tensor.reshape(m, n * n)
    t1 = tensor.transpose(1, 0, 2).reshape(n, m * n)
    t2 = tensor.transpose(2, 0, 1).reshape(n, m * n)
    norm_t = np.linalg.norm(t0)

    def fit_of(a, c, b):
        return np.linalg.norm(t0 - a @ khatri_rao(c, b).T) / max(norm_t, 1e-300)

    prev_fit = np.inf
    converged = False
    step = 1.5
    for sweep in range(1, max_iter + 1):
        before = (a.copy(), c.copy(), b.copy())
        a = lstsq(khatri_rao(c, b), t0.T).T
        c = lstsq(khatri_rao(a, b), t1.T).T
        b = lstsq(khatri_rao(a, c), t2.T).T
        # balance the scaling indeterminacy into the first factor
        for f in (b, c):
            nrm = np.linalg.norm(f, axis=0)
            nrm[nrm == 0] = 1.0
            f /= nrm[None, :]
            a *= nrm[None, :]
        fit = fit_of(a, c, b)
        if extrapolate:
            # keep the point along the sweep's line only if it fits better;
            # the step grows by 1.5 up to 50 when kept and halves down to 1.1
            moved = tuple(f0 + step * (f - f0) for f0, f in zip(before, (a, c, b)))
            fit_x = fit_of(*moved)
            if fit_x < fit:
                (a, c, b), fit = moved, fit_x
                step = min(1.5 * step, 50.0)
            else:
                step = max(step / 2, 1.1)
        if abs(prev_fit - fit) <= max(rel_tol * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged, sweep


def solve_cpd_als(tensor, init):
    """Reference for ``btd1.sjbd.cpd_als`` that solves each update's normal
    equations with ``np.linalg.solve``, takes each fit with
    ``np.linalg.norm`` and balances the Grams with the factors after every
    sweep.  It makes the same operations in the same order, so the two
    agree bit for bit.  Returns ((A, C, B), fit, converged, sweeps)."""
    m, n, _ = tensor.shape
    a, c, b = (np.array(f) for f in init)
    t0 = tensor.reshape(m, n * n)
    t1 = tensor.transpose(1, 0, 2).reshape(n, m * n)
    t2 = tensor.transpose(2, 0, 1).reshape(n, m * n)
    norm_t = max(np.linalg.norm(t0), 1e-300)
    real = not any(np.iscomplexobj(x) for x in (tensor, a, c, b))

    def adjoint(x):
        return x.T if real else x.conj().T

    def update(k, g, t):
        try:
            x = np.linalg.solve(g, adjoint(k) @ t.T)
        except np.linalg.LinAlgError:
            x = lstsq(k, t.T)
        return x.T

    def gram(f):
        return adjoint(f) @ f

    g_c, g_b = gram(c), gram(b)
    prev_fit = np.inf
    converged = False
    step = CPD_STEP_GROW
    for sweep in range(1, CPD_MAX_SWEEPS + 1):
        before = (a, c, b)
        a = update(khatri_rao(c, b), g_c * g_b, t0)
        g_a = gram(a)
        c = update(khatri_rao(a, b), g_a * g_b, t1)
        g_c = gram(c)
        k_b = khatri_rao(a, c)
        b = update(k_b, g_a * g_c, t2)
        g_b = gram(b)
        fit = np.linalg.norm(t2 - b @ k_b.T) / norm_t
        for f, g in ((b, g_b), (c, g_c)):
            nrm = np.sqrt(g.diagonal().real)
            nrm[nrm == 0] = 1.0
            f /= nrm
            g /= nrm[:, None] * nrm
            a *= nrm
        a_x, c_x, b_x = (f0 + step * (f - f0) for f0, f in zip(before, (a, c, b)))
        fit_x = np.linalg.norm(t2 - b_x @ khatri_rao(a_x, c_x).T) / norm_t
        if fit_x < fit:
            a, c, b, fit = a_x, c_x, b_x, fit_x
            g_c, g_b = gram(c), gram(b)
            step = min(step * CPD_STEP_GROW, CPD_STEP_MAX)
        else:
            step = max(step / 2, CPD_STEP_MIN)
        if abs(prev_fit - fit) <= max(CPD_REL_TOL * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged, sweep


def per_factor_draw(gen, dims, sizes, field="real"):
    """Reference factor draw: A, then B_r and C_r term by term, one
    ``standard_normal`` call per factor, or two for a complex factor (real
    part, then imaginary part); returns (A, [(B_r, C_r), ...])."""

    def draw(shape):
        if field == "complex":
            return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
        return gen.standard_normal(shape)

    i_dim, j_dim, k_dim = dims
    a = draw((i_dim, len(sizes)))
    return a, [(draw((j_dim, s)), draw((k_dim, s))) for s in sizes]


def reference_draw_instance(config, seed):
    """Reference rejection sampler: builds the decomposition and tensor of
    every draw and tests both unfolding condition numbers; returns (truth,
    tensor, number of rejected draws) like ``btd1.experiment.draw_instance``."""
    rejected = 0
    sub_seed = seed
    while True:
        truth = random_btd(config.dims, config.sizes, seed=sub_seed)
        t = compose(truth)
        if max(cond(unfold(t, 1)), cond(unfold(t, 3))) <= config.cond_cap:
            return truth, t, rejected
        rejected += 1
        sub_seed = sub_seed + 1_000_003


def per_column_unfolding_directions(t, n_full):
    """Left singular direction of each column of unfold(T,3) N reshaped to
    I x J, one SVD per column, stacked as the columns of an I x n array."""
    i_dim, j_dim, _ = t.dims
    t3n = unfold(t, 3) @ n_full
    dirs = []
    for col in range(t3n.shape[1]):
        u, _, _ = np.linalg.svd(t3n[:, col].reshape(i_dim, j_dim), full_matrices=False)
        dirs.append(u[:, 0])
    return np.column_stack(dirs)


def reconstruction_errors(sol, v_list):
    """Relative error of N D_q N.T against each V_q for an S-JBD solution,
    the D_q fitted by :func:`recover_coefficients`."""
    errs = []
    for v, d_q in zip(v_list, recover_coefficients(sol.N, sol.d, v_list)):
        recon = sol.N @ d_q @ sol.N.T
        errs.append(np.linalg.norm(recon - v) / max(np.linalg.norm(v), 1e-300))
    return np.array(errs)


def recover_coefficients(n, d, v_list):
    """Least-squares block-diagonal symmetric D_q with N D_q N.T ~= V_q.

    Each block is packed over its unordered index pairs: ``build_PK`` maps
    the packed entries to the vectorized block and ``sym_pair_position``
    unpacks them."""
    n_blocks = split_columns(n, d)
    design = np.hstack([np.kron(nr, nr) @ build_PK(dr) for nr, dr in zip(n_blocks, d)])
    pinv_design = np.linalg.pinv(design, rcond=DEFAULT_RANK_TOL)
    packed_offs = np.cumsum([n_sym(dr) for dr in d])[:-1]
    out = []
    for v in v_list:
        packed = np.split(pinv_design @ v.ravel(order="F"), packed_offs)
        out.append(
            scipy.linalg.block_diag(*(p[sym_pair_position(dr)] for p, dr in zip(packed, d)))
        )
    return tuple(out)


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
    ip1, ip2 = strict_pairs(i_dim)
    jp1, jp2 = strict_pairs(j_dim)
    out = np.empty((ip1.size * jp1.size, kp1.size), dtype=np.result_type(values, values))
    return _kernels.minor_matrix_fill(values, ip1, ip2, jp1, jp2, kp1, kp2, out)


def build_D(k):
    """D = PK (PK.T PK)^-1; entries are 0, 1/2 on off-diagonal pairs, 1 on
    diagonal pairs.  Maps a null-space basis of Q2 to vectorized symmetric
    matrices in the null space of R2."""
    pk = build_PK(k)
    counts = pk.sum(axis=0)
    return pk / counts[None, :]


def rank1_membership(t, f, tol=DEFAULT_RANK_TOL, return_both=False):
    """Whether the slice combination f_1 T_1 + ... + f_K T_K has rank <= 1.

    Evaluated two independent ways: numerically on the singular values of
    the combination, and through the quadratic form R2(T) (f kron f); the
    minor tests assert the two agree.
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


# numpy's own arithmetic, with the ``reduce`` of ``btd1.gf.GFField``: the
# ``field`` argument of ``btd1.minors.phi_matrix`` and ``s2_matrix`` (which
# call only ``reduce``) and of the per-pair reference builders for real and
# complex factors
NUMPY = SimpleNamespace(
    mul=operator.mul, add=operator.add, sub=operator.sub, reduce=lambda a: a
)


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


def _vector_pair(x, y, pairs):
    """The products x_p y_q and x_q y_p over the index pairs ``pairs(n)``."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("needs two vectors of equal length")
    p, q = pairs(x.size)
    return x[p] * y[q], x[q] * y[p]


def wedge(x, y):
    """All 2 x 2 minors of [x y]: entries x_p y_q - x_q y_p over pairs p < q."""
    xy, yx = _vector_pair(x, y, strict_pairs)
    return xy - yx


def symprod(x, y):
    """All 2 x 2 permanents of [x y]: entries x_p y_q + x_q y_p over p <= q."""
    xy, yx = _vector_pair(x, y, sym_pairs)
    return xy + yx


def compound2(m):
    """Second compound matrix: all 2 x 2 minors, pairs enumerated as in
    :func:`wedge` so that the Binet-Cauchy identity
    compound2(Y) @ compound2(B) == compound2(Y @ B) holds."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise DimensionError("compound2 needs at least 2 rows and 2 columns")
    rp, rq = strict_pairs(m.shape[0])
    cp, cq = strict_pairs(m.shape[1])
    return m[rp][:, cp] * m[rq][:, cq] - m[rp][:, cq] * m[rq][:, cp]


def loop_k_prime_rank(blocks, tol=DEFAULT_RANK_TOL, cap=SUBSET_CAP):
    """Reference k'-rank: every subset ranked by its own ``numerical_rank``,
    in lexicographic order, the first failure ending the search.  It stops
    at the first k whose k smallest widths sum above the row count, and a k
    that would take the subsets tested past ``cap`` gives an inexact lower
    bound."""
    widths = [b.shape[1] for b in blocks]
    best = tested = 0
    for k in range(1, len(blocks) + 1):
        if sum(sorted(widths)[:k]) > blocks[0].shape[0]:
            break
        subsets = list(itertools.combinations(range(len(blocks)), k))
        if tested + len(subsets) > cap:
            return KRankResult(best, exact=False)
        tested += len(subsets)
        for sel in subsets:
            m = np.hstack([blocks[i] for i in sel])
            if numerical_rank(m, tol=tol) < sum(widths[i] for i in sel):
                return KRankResult(best)
        best = k
    return KRankResult(best)


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
    if params is None:
        gen = rng(seed)
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
