"""Shared test utilities: brute-force oracles and reference instances."""

import itertools
from fractions import Fraction

import numpy as np

from btd1 import BlockTermDecomposition, compose, random_btd, unfold
from btd1.linalg import DEFAULT_RANK_TOL, cond, khatri_rao, lstsq, orth, rng


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
    """Reference in-place row echelon form over GF(p), entry by entry, pivots
    scaled to one and only the rows below each pivot reduced; returns the
    rank."""
    m, n = mat.shape
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if mat[r, col] != 0), -1)
        if pivot < 0:
            continue
        _swap_rows(mat, pivot, rank)
        inv = pow(int(mat[rank, col]), p - 2, p)
        for c in range(col, n):
            mat[rank, c] = mat[rank, c] * inv % p
        for r in range(rank + 1, m):
            f = mat[r, col]
            if f == 0:
                continue
            for c in range(col, n):
                mat[r, c] = (mat[r, c] + (p - f) * mat[rank, c]) % p
        rank += 1
        if rank == m:
            break
    return rank


def loop_gf_matmul(f, a, b):
    """Reference product over the field ``f``, one inner index at a time
    through the field's own add and mul."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = f.add(out, f.mul(a[:, k][:, None], b[k, :][None, :]))
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
            subspace_distance(e, true[i]) if true[i].shape[1] == e.shape[1] else np.inf
            for i in remaining
        ]
        pick = int(np.argmin(dists))
        worst = max(worst, dists[pick])
        remaining.pop(pick)
    return worst


def pinv(a, tol=DEFAULT_RANK_TOL):
    """Moore-Penrose pseudo-inverse at the package's relative rank tolerance."""
    return np.linalg.pinv(a, rcond=tol)


def principal_angles(u, v):
    """Principal angles (radians) between the column spaces of u and v."""
    qu = orth(u, dim=min(u.shape))
    qv = orth(v, dim=min(v.shape))
    s = np.linalg.svd(qu.conj().T @ qv, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return np.arccos(s)


def subspace_distance(u, v):
    """Largest principal angle; 0 when the spans coincide."""
    if u.shape[1] != v.shape[1]:
        return np.pi / 2
    ang = principal_angles(u, v)
    return float(ang.max()) if ang.size else 0.0


def lstsq_cpd_als(tensor, init, max_iter=500, rel_tol=1e-4):
    """Reference CPD by alternating least squares: one ``lstsq`` against the
    Khatri-Rao matrix per factor update, column norms and the fit recomputed
    from the factors after every sweep.  Same model, balancing and stopping
    rule as ``btd1.sjbd.cpd_als``; returns ((A, C, B), fit, converged)."""
    m, n, _ = tensor.shape
    a, c, b = (np.array(f) for f in init)
    t0 = tensor.reshape(m, n * n)
    t1 = tensor.transpose(1, 0, 2).reshape(n, m * n)
    t2 = tensor.transpose(2, 0, 1).reshape(n, m * n)
    norm_t = np.linalg.norm(t0)
    prev_fit = np.inf
    converged = False
    for _ in range(max_iter):
        a = lstsq(khatri_rao(c, b), t0.T).T
        c = lstsq(khatri_rao(a, b), t1.T).T
        b = lstsq(khatri_rao(a, c), t2.T).T
        # balance the scaling indeterminacy into the first factor
        for f in (b, c):
            nrm = np.linalg.norm(f, axis=0)
            nrm[nrm == 0] = 1.0
            f /= nrm[None, :]
            a *= nrm[None, :]
        fit = np.linalg.norm(t0 - a @ khatri_rao(c, b).T) / max(norm_t, 1e-300)
        if abs(prev_fit - fit) <= max(rel_tol * fit, 1e-12):
            converged = True
            break
        prev_fit = fit
    return (a, c, b), fit, converged


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
