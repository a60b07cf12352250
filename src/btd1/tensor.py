"""Dense third-order tensors, their unfoldings, and low multilinear-rank
block terms.

A tensor is stored as a C-contiguous ``(I, J, K)`` array, which is exactly
the lexicographic (i, j, k) order with k fastest.  ``vec`` always stacks
columns (column-major).  Horizontal slices ``H_i`` are ``t[i, :, :]``
(J x K), frontal slices ``T_k`` are ``t[:, :, k]`` (I x J).

A block-term decomposition collects a first factor matrix ``A`` (I x R,
columns a_r) and per-term factor pairs ``(B_r, C_r)`` of shapes
(J x L_r, K x L_r); the term matrices are ``E_r = B_r @ C_r.T`` with rank
at most ``L_r`` by construction, and the tensor they compose is
``sum_r a_r o E_r``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_RANK_TOL, DimensionError, khatri_rao, randn, rank_cut, rng

__all__ = [
    "Tensor3",
    "BlockTermDecomposition",
    "NoiseSpec",
    "unfold",
    "compose",
    "compose_values",
    "draw_factors",
    "split_factors",
    "random_btd",
    "add_noise",
    "compress_third_mode",
    "match_columns",
    "match_decompositions",
]


@dataclass(frozen=True)
class Tensor3:
    """Dense I x J x K tensor over the real or complex numbers.

    Complex values are stored as complex128; real and integer values keep
    their dtype, so integer tensors stay exact.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise DimensionError(f"expected a 3-way array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("tensor entries must be finite")
        v = np.ascontiguousarray(v, dtype=np.complex128 if np.iscomplexobj(v) else None)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def field(self):
        """``"complex"`` for complex values, else ``"real"``."""
        return "complex" if np.iscomplexobj(self.values) else "real"

    @property
    def dims(self):
        return self.values.shape

    @property
    def flat_values(self):
        """Entries in lexicographic (i, j, k) order, k fastest."""
        return self.values.ravel(order="C")

    def norm(self):
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class BlockTermDecomposition:
    """First factor matrix plus the per-term (B_r, C_r) pairs."""

    A: np.ndarray
    terms: tuple

    def __post_init__(self):
        a = np.array(self.A)
        if a.ndim != 2:
            raise DimensionError("A must be an I x R matrix")
        terms = tuple((np.array(b), np.array(c)) for b, c in self.terms)
        if a.shape[1] != len(terms):
            raise DimensionError(
                f"A has {a.shape[1]} columns but {len(terms)} terms were given"
            )
        if np.any(np.linalg.norm(a, axis=0) == 0):
            raise ValueError("columns of A must be nonzero")
        for r, (b, c) in enumerate(terms):
            if b.ndim != 2 or c.ndim != 2 or b.shape[1] != c.shape[1]:
                raise DimensionError(f"term {r}: B_r and C_r must share column count")
            if r > 0 and (b.shape[0] != terms[0][0].shape[0] or c.shape[0] != terms[0][1].shape[0]):
                raise DimensionError("all terms must share J and K")
        a.flags.writeable = False
        for b, c in terms:
            b.flags.writeable = False
            c.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "terms", terms)

    @property
    def R(self):
        return len(self.terms)

    @property
    def sizes(self):
        return tuple(b.shape[1] for b, _ in self.terms)

    @property
    def dims(self):
        return (self.A.shape[0], self.terms[0][0].shape[0], self.terms[0][1].shape[0])

    @property
    def B(self):
        return np.hstack([b for b, _ in self.terms])

    @property
    def C(self):
        return np.hstack([c for _, c in self.terms])

    def term_matrices(self):
        """The J x K matrices E_r = B_r @ C_r.T."""
        return [b @ c.T for b, c in self.terms]

    def term_columns(self):
        """Matrix [a_1 kron vec(E_1), ..., a_R kron vec(E_R)], IJK x R."""
        vec_e = np.column_stack([e.ravel(order="F") for e in self.term_matrices()])
        return khatri_rao(self.A, vec_e)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white noise at a target SNR in dB; +inf means exact."""

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError(f"SNR must be a dB value or inf, got {self.snr_db}")

    @property
    def exact(self):
        return self.snr_db == np.inf


def unfold(t, mode):
    """Matrix unfolding of a tensor.

    mode 1: JK x I, columns vec(H_i); mode 2: IK x J, stacked H_i.T;
    mode 3: IJ x K, stacked H_i.  With factored input these satisfy

        T_(1) = [vec(E_1) ... vec(E_R)] A.T
        T_(2) = [a_1 kron C_1 ... a_R kron C_R] B.T
        T_(3) = [a_1 kron B_1 ... a_R kron B_R] C.T

    An array with leading batch axes is unfolded item by item.
    """
    v = t.values if isinstance(t, Tensor3) else np.asarray(t)
    *batch, i_dim, j_dim, k_dim = v.shape
    if mode == 1:
        # vec stacks columns, so vec(H_i) has j fastest
        return v.swapaxes(-1, -3).reshape(*batch, j_dim * k_dim, i_dim)
    if mode == 2:
        return v.swapaxes(-1, -2).reshape(*batch, i_dim * k_dim, j_dim)
    if mode == 3:
        return v.reshape(*batch, i_dim * j_dim, k_dim)
    raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")


def compose_values(a, terms):
    """Array with entries t_ijk = sum_r a_ir (B_r C_r.T)_jk.

    Factors with a leading batch axis, A (n, I, R), B_r (n, J, L_r) and
    C_r (n, K, L_r), give the (n, I, J, K) stack of their tensors, each
    item bitwise equal to its unbatched result.
    """
    out = np.zeros(
        a.shape[:-1] + (terms[0][0].shape[-2], terms[0][1].shape[-2]),
        dtype=np.result_type(a, *[b for b, _ in terms]),
    )
    for r, (b, c) in enumerate(terms):
        out += a[..., r, None, None] * (b @ c.swapaxes(-1, -2))[..., None, :, :]
    return out


def compose(d):
    """Tensor with entries t_ijk = sum_r a_ir (B_r C_r.T)_jk."""
    out = compose_values(d.A, d.terms)
    return Tensor3(out)


def draw_factors(gens, dims, sizes, field="real"):
    """I.i.d. standard normal factors, one draw per generator in ``gens``,
    stacked along a leading batch axis: A (n, I, R) and per-term pairs
    (B_r, C_r) of shapes (n, J, L_r) and (n, K, L_r).

    Each generator makes one ``standard_normal`` call, split in order by
    :func:`split_factors`.  Each factor is therefore bitwise what
    ``randn(gen, shape, field)`` gives when called factor by factor in that
    order.
    """
    i_dim, j_dim, k_dim = dims
    parts = 2 if field == "complex" else 1
    flat = np.empty((len(gens), parts * (i_dim * len(sizes) + (j_dim + k_dim) * sum(sizes))))
    for row, gen in zip(flat, gens):
        gen.standard_normal(out=row)
    return split_factors(flat, dims, sizes, field)


def split_factors(flat, dims, sizes, field="real"):
    """The factors that the rows of ``flat`` (n, count) hold, in the layout
    :func:`draw_factors` draws them: A (n, I, R), then B_r (n, J, L_r) and
    C_r (n, K, L_r) term by term, each row-major; a complex factor takes
    its real part, then its imaginary part.  Real factors are views of
    ``flat``."""
    i_dim, j_dim, k_dim = dims
    shapes = [(i_dim, len(sizes))] + [shape for s in sizes for shape in ((j_dim, s), (k_dim, s))]
    parts = 2 if field == "complex" else 1
    counts = [parts * rows * cols for rows, cols in shapes]
    factors = []
    for shape, chunk in zip(shapes, np.split(flat, np.cumsum(counts)[:-1], axis=1)):
        x = chunk.reshape(len(flat), parts, *shape)
        factors.append(x[:, 0] if parts == 1 else (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0))
    return factors[0], list(zip(factors[1::2], factors[2::2]))


def random_btd(dims, sizes, field="real", seed=0):
    """Decomposition with i.i.d. standard normal factor entries.

    Deterministic for a given seed.  Requires L_r <= min(J, K).
    """
    _, j_dim, k_dim = dims
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise DimensionError("term sizes must be positive")
    if max(sizes) > min(j_dim, k_dim):
        raise DimensionError("term sizes must not exceed min(J, K)")
    a, terms = draw_factors([rng(seed)], dims, sizes, field)
    return BlockTermDecomposition(a[0], [(b[0], c[0]) for b, c in terms])


def add_noise(t, spec):
    """t + c*N with N i.i.d. standard normal and c set by the requested SNR.

    SNR[dB] = 10 log10(|T|_F^2 / |cN|_F^2).
    """
    if t.norm() == 0:
        raise ValueError("cannot set an SNR against the zero tensor")
    if spec.exact:
        return t
    gen = rng(spec.seed)
    noise = randn(gen, t.dims, t.field)
    c = t.norm() / (np.linalg.norm(noise) * 10.0 ** (spec.snr_db / 20.0))
    return Tensor3(np.asarray(t.values, dtype=np.result_type(t.values, noise)) + c * noise)


def compress_third_mode(t, tol=DEFAULT_RANK_TOL, dim=None):
    """Replace the third mode by an orthonormal mixing of the frontal slices.

    Returns ``(compressed, mixing, rank)`` where ``unfold(compressed, 3)`` is
    the left factor of the compact SVD of ``unfold(t, 3)``, cut to ``rank``
    = ``dim`` columns or else to the numerical rank at ``tol`` (as in
    :func:`btd1.linalg.orth`), and ``mixing`` the rank x K matrix with
    ``unfold(t, 3) ~= unfold(compressed, 3) @ mixing``.  The compressed tensor
    shares the first two factor matrices with ``t``; the third factor matrix
    of ``t`` is recoverable as ``([a_1 kron B_1 ...]^+ @ unfold(t, 3)).T``.
    """
    t3 = unfold(t, 3)
    u, s, vh = np.linalg.svd(t3, full_matrices=False)
    rank = rank_cut(s, tol) if dim is None else dim
    u = u[:, :rank]
    mixing = s[:rank, None] * vh[:rank]
    i_dim, j_dim, _ = t.dims
    compressed = Tensor3(u.reshape(i_dim, j_dim, rank))
    return compressed, mixing, rank


def _min_cost_assignment(cost):
    """Rows and columns ``(rows, cols)`` of a minimum-cost assignment in a
    finite cost matrix, one column per row or one row per column, whichever
    is fewer; ``rows`` increases.

    The Hungarian method with potentials (Kuhn, Naval Res. Logist. Q. 2,
    1955), in the shortest-augmenting-path form of Jonker & Volgenant
    (Computing 38(4), 1987) as given by Crouse (IEEE Trans. Aerosp.
    Electron. Syst. 52(4), 2016): each row in turn is
    joined by a Dijkstra search over reduced costs, which prefers a free
    column among equally near ones and scans the columns from the last.  A
    wide matrix is solved as it is, a tall one transposed.  Raises
    ``ValueError`` on a non-finite cost.
    """
    n_rows, n_cols = cost.shape
    transpose = n_cols < n_rows
    # plain loops over lists: at the sizes matched here (a few columns)
    # each numpy call would cost more than the whole assignment
    c = (cost.T if transpose else cost).tolist()
    if transpose:
        n_rows, n_cols = n_cols, n_rows
    inf = math.inf
    if not all(-inf < x < inf for row in c for x in row):
        raise ValueError("assignment needs finite costs")
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        dist = [inf] * n_cols
        seen_rows, seen_cols = [cur], []
        remaining = list(range(n_cols - 1, -1, -1))
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            row, u_i = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] == -1):
                    index, lowest = it, dist[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                seen_rows.append(i)
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(n_rows), key=col4row.__getitem__)
        rows = [col4row[j] for j in cols]
    else:
        rows, cols = range(n_rows), col4row
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def match_columns(x, y):
    """Assignment (rows, cols) of the columns of x to the columns of y that
    maximises the summed |cos|, the normalized |x_i^H y_j|, found by the
    Hungarian method (:func:`_min_cost_assignment` on -|cos|); a zero column
    has |cos| 0 with every column."""
    nx = np.linalg.norm(x, axis=0)
    ny = np.linalg.norm(y, axis=0)
    corr = np.abs(x.conj().T @ y) / np.outer(nx + (nx == 0), ny + (ny == 0))
    return _min_cost_assignment(-corr)


def match_decompositions(truth, est):
    """Align an estimate with a reference decomposition and measure errors.

    The term columns ``a_r kron vec(E_r)`` are matched by
    :func:`match_columns`, then each matched column of the estimate is
    rescaled by its least-squares optimal factor.  Returns ``(permutation, scales, err_A, err_terms)`` with
    relative Frobenius errors on A and on the term-column matrix.  Both
    errors are invariant under permutation and (lambda a_r, E_r / lambda)
    counter-scaling of the estimate.
    """
    if truth.R != est.R:
        raise DimensionError(f"decompositions have {truth.R} and {est.R} terms")
    g_true = truth.term_columns()
    g_est = est.term_columns()
    row, col = match_columns(g_true, g_est)
    perm = np.empty(truth.R, dtype=int)
    perm[row] = col

    def _opt_scale(x, ref):
        denom = float(np.real(np.vdot(x, x)))
        return np.vdot(x, ref) / denom if denom > 0 else 0.0

    num = 0.0
    for r in range(truth.R):
        x = g_est[:, perm[r]]
        s = _opt_scale(x, g_true[:, r])
        num += np.linalg.norm(s * x - g_true[:, r]) ** 2
    err_terms = float(np.sqrt(num) / np.linalg.norm(g_true))
    scales = np.empty(truth.R, dtype=np.result_type(truth.A, est.A, np.float64))
    num = 0.0
    for r in range(truth.R):
        x = est.A[:, perm[r]]
        scales[r] = _opt_scale(x, truth.A[:, r])
        num += np.linalg.norm(scales[r] * x - truth.A[:, r]) ** 2
    err_a = float(np.sqrt(num) / np.linalg.norm(truth.A))
    return perm, scales, err_a, err_terms
