import numpy as np
import pytest

from btd1 import (
    BlockTermDecomposition,
    DimensionError,
    NoiseSpec,
    Tensor3,
    add_noise,
    compose,
    minors,
    random_btd,
)
from btd1.gf import GFField
from btd1.linalg import DEFAULT_RANK_TOL, null_space, numerical_rank, randn, rng, split_columns
from btd1.minors import (
    block_sizes,
    build_Q2,
    n_strict,
    n_sym,
    phi_columns,
    phi_count_conditions,
    phi_matrix,
    q2_gram,
    q2_null_dim,
    q2_rank,
    q2_residual,
    s2_matrix,
    strict_pairs,
    sym_pairs,
    symmetric_null_matrices,
    total_block_size,
)
from helpers import (
    GOLDEN_Q2_3x3x5,
    NUMPY,
    build_D,
    build_PK,
    build_R2,
    commutation_matrix,
    compound2,
    golden_integer_instance,
    integer_btd,
    loop_minor_matrix_fill,
    pair_loop_phi_matrix,
    pair_loop_s2_matrix,
    q2_rank_instances,
    rank1_membership,
    symprod,
    wedge,
)


def test_q2_single_term_is_zero():
    t = compose(random_btd((3, 4, 4), (2,), seed=0))
    assert np.allclose(build_Q2(t), 0.0, atol=1e-12)


def test_q2_golden_integer_matrix():
    t = compose(golden_integer_instance())
    q2 = build_Q2(t)
    assert q2.dtype == np.int64
    assert np.array_equal(q2, GOLDEN_Q2_3x3x5)


def test_q2_3x8x8_shape_and_null_dimension():
    t = compose(random_btd((3, 8, 8), (2, 3, 4), seed=1))
    q2 = build_Q2(t)
    assert q2.shape == (84, 36)
    assert q2.shape[1] - numerical_rank(q2, tol=1e-8) == 10


@pytest.mark.parametrize("name", sorted(q2_rank_instances()))
@pytest.mark.parametrize("tol", [DEFAULT_RANK_TOL, 1e-8])
def test_q2_rank_from_panels_equals_the_formed_rank(name, tol):
    # the refined null vectors are as many as the formed Q2's null space
    t = compose(q2_rank_instances()[name])
    null = symmetric_null_matrices(t, tol=tol)[0].shape[0]
    assert n_sym(t.dims[2]) - null == numerical_rank(build_Q2(t), tol)


def test_q2_rank_sees_the_planted_deficiency():
    cases = q2_rank_instances()
    for name in ("real", "complex", "integer", "multi_panel"):
        deficient = numerical_rank(build_Q2(compose(cases[name + "_deficient"])))
        assert deficient < numerical_rank(build_Q2(compose(cases[name])))


@pytest.mark.parametrize("name", sorted(q2_rank_instances()))
def test_q2_gram_equals_the_formed_gram(name):
    t = compose(q2_rank_instances()[name])
    q2 = build_Q2(t).astype(np.result_type(t.values, 1.0))
    want = q2.conj().T @ q2
    got = q2_gram(t)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", ["real", "complex", "integer", "multi_panel"])
def test_q2_residual_equals_the_formed_product(name):
    # the product kernel's column norms and normal product Q2^H (Q2 g) too
    t = compose(q2_rank_instances()[name])
    q2 = build_Q2(t)
    gen = rng(7)
    n = q2.shape[1]
    for g in (
        gen.standard_normal(n),
        gen.standard_normal((n, 3)),
        gen.standard_normal((n, 40)) + 1j * gen.standard_normal((n, 40)),
    ):
        want = np.linalg.norm(q2 @ g)
        assert abs(q2_residual(t, g) - want) <= 1e-13 * want
        norms, normal = minors._q2_apply(t.values, g, normal=True)
        product = q2 @ g.reshape(n, -1)
        want_normal = q2.conj().T @ product
        assert np.abs(norms - np.linalg.norm(product, axis=0)).max() <= 1e-13 * want
        assert np.abs(normal - want_normal).max() <= 1e-13 * np.abs(want_normal).max()


def test_q2_residual_batches_agree():
    # 6x20x20 holds 13 columns per batch: 40 columns take four batches
    t = compose(random_btd((6, 20, 20), (4,) * 5, seed=1))
    g = rng(8).standard_normal((n_sym(20), 40))
    whole = q2_residual(t, g)
    parts = np.sqrt(sum(q2_residual(t, g[:, c : c + 1]) ** 2 for c in range(40)))
    assert abs(whole - parts) <= 1e-13 * whole
    _, normal = minors._q2_apply(t.values, g, normal=True)
    for c in (0, 12, 13, 39):
        _, column = minors._q2_apply(t.values, g[:, c], normal=True)
        assert np.abs(normal[:, c] - column[:, 0]).max() <= 1e-13 * np.abs(normal).max()


def _noisy_3x9x10(snr_db):
    t = compose(random_btd((3, 9, 10), (1, 2, 3, 4), seed=5))
    return add_noise(t, NoiseSpec(snr_db=snr_db, seed=6))


def _q2_rank_grid():
    shapes = (
        ((3, 9, 10), (1, 2, 3, 4)),
        ((2, 8, 7), (3, 3, 3)),
        ((3, 8, 8), (2, 3, 4)),
        ((5, 12, 12), (3, 3, 3, 3)),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4)),
    )
    for dims, sizes in shapes:
        for field in ("real", "complex"):
            yield f"{dims} {field}", compose(random_btd(dims, sizes, field=field, seed=9))
    for snr in (35.0, 80.0, 120.0, 160.0):
        yield f"3x9x10 at {snr:g} dB", _noisy_3x9x10(snr)
    # one term far weaker than the rest: Q2 is small against ||T||_F^2
    for dims, sizes, scales in (((3, 8, 6), (3, 3), (1e-2, 1e-3)), ((3, 8, 8), (2, 3, 4), (1e-3,))):
        for field in ("real", "complex"):
            for scale in scales:
                yield f"{dims} {field}, term 0 at {scale:g}", _weak_term(dims, sizes, field, scale)
    # all terms but the first far weaker: the refined count needs two to
    # four seminormal corrections here
    for dims, sizes in (((3, 8, 6), (3, 3)), ((6, 20, 20), (4,) * 5)):
        for field in ("real", "complex"):
            for scale in (1e-3, 1e-4):
                weak = range(1, len(sizes))
                yield f"{dims} {field}, terms 1+ at {scale:g}", _weak_term(dims, sizes, field, scale, weak)


def _weak_term(dims, sizes, field, scale, weak=(0,)):
    d = random_btd(dims, sizes, field=field, seed=9)
    terms = tuple((b * scale, c) if r in weak else (b, c) for r, (b, c) in enumerate(d.terms))
    return compose(BlockTermDecomposition(d.A, terms))


@pytest.mark.parametrize("tol", [DEFAULT_RANK_TOL, 1e-8, 1e-4, 3e-5])
def test_q2_rank_equals_the_fold_rank(tol):
    # the reference is the formed Q2's rank
    tensors = [(name, compose(d)) for name, d in sorted(q2_rank_instances().items())]
    for name, t in tensors + list(_q2_rank_grid()):
        got = q2_rank(t, tol)
        assert got.rank == numerical_rank(build_Q2(t), tol), (name, got)
        assert got.route in ("gram", "refined")
        assert (got.route == "gram") == (got.reason == "")


def test_q2_rank_floor_follows_tol():
    # the 25th relative singular value of the 2x8x7 example is 5.0e-5: at
    # tol = 1e-4 the formed rank drops it, and a floor of 1e-12 alone would
    # count its eigenvalue (2.5e-9 of the largest)
    t = compose(q2_rank_instances()["2x8x7"])
    s = np.linalg.svd(build_Q2(t), compute_uv=False)
    assert 4e-5 < s[24] / s[0] < 6e-5
    got = q2_rank(t, 1e-4)
    assert got.rank == numerical_rank(build_Q2(t), 1e-4) == 24
    assert got.route == "gram" and got.margin <= 1


def _count_refinements(monkeypatch):
    calls = []
    refine = minors._q2_null

    def counted(values, *args, **kwargs):
        calls.append(values.shape)
        return refine(values, *args, **kwargs)

    monkeypatch.setattr(minors, "_q2_null", counted)
    return calls


# the test names below predate the refined count, which replaced the QR fold
# as q2_rank's second route on the same inputs
def test_q2_rank_folds_only_when_the_gram_cannot_decide(monkeypatch):
    calls = _count_refinements(monkeypatch)
    # certify's shapes at the default tolerance: the Gram route decides
    shapes = (
        ((3, 9, 10), (1, 2, 3, 4)),
        ((2, 8, 7), (3, 3, 3)),
        ((3, 8, 8), (2, 3, 4)),
        ((5, 12, 12), (3, 3, 3, 3)),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4)),
        ((5, 15, 15), (3,) * 5),
        ((6, 20, 20), (4,) * 5),
    )
    for dims, sizes in shapes:
        got = q2_rank(compose(random_btd(dims, sizes, seed=11)))
        assert got.route == "gram" and got.margin <= 1, dims
    assert calls == []
    # at tol = 3e-5 the eigenvalue 2.5e-9 lies between the cut 9e-10 and
    # the floor 3.6e-9: the refined count decides
    t = compose(q2_rank_instances()["2x8x7"])
    got = q2_rank(t, 3e-5)
    assert calls == [(2, 8, 7)]
    assert got.route == "refined" and got.rank == 25 == numerical_rank(build_Q2(t), 3e-5)
    assert 2e-9 < got.margin < 3e-9 and "above the cut" in got.reason


def test_q2_rank_folds_when_the_residual_fails(monkeypatch):
    # eigenvectors with a residual above tol * sigma_max send q2_rank to the
    # refined count, even where the eigenvalue count looks clean
    calls = _count_refinements(monkeypatch)
    t = compose(q2_rank_instances()["real"])
    monkeypatch.setattr(minors, "q2_residual", lambda values, g: 1.0e6)
    got = q2_rank(t)
    assert calls == [(3, 8, 8)]
    assert got.route == "refined" and got.margin > 1 and "residual" in got.reason
    assert got.rank == numerical_rank(build_Q2(t))


def test_q2_rank_folds_when_h_rounds_above_the_floor(monkeypatch):
    # two terms, one scaled by 1e-3: Q2 is about 1e-3 ||T||_F^2, so H's
    # rounding (about eps ||T||_F^4) spreads its null eigenvalues to about
    # 1e-10 lambda_max, above the floor 1e-12.  Counting them as non-null
    # gives rank 15 where the formed Q2 has rank 9
    calls = _count_refinements(monkeypatch)
    t = _weak_term((3, 8, 6), (3, 3), "real", 1e-3)
    got = q2_rank(t, 1e-8)
    assert calls == [(3, 8, 6)]
    assert got.route == "refined" and got.margin > 1 and "rounding" in got.reason
    assert got.rank == numerical_rank(build_Q2(t), 1e-8) == 9


def test_q2_rank_of_a_single_term_is_zero():
    # an integer single term has Q2 = 0 exactly, and so H = 0
    t = compose(integer_btd((3, 5, 4), (2,), seed=1))
    assert not build_Q2(t).any()
    assert not q2_gram(t).any()
    got = q2_rank(t)
    assert got.rank == 0 == numerical_rank(build_Q2(t))
    assert got.route == "gram"


@pytest.mark.parametrize("integer", [False, True])
def test_build_q2_panels_equal_the_loop_fill(integer):
    dims, sizes = (5, 18, 7), (2, 2, 3)
    d = integer_btd(dims, sizes, seed=3) if integer else random_btd(dims, sizes, seed=3)
    t = compose(d).values
    ip1, ip2 = strict_pairs(5)
    jp1, jp2 = strict_pairs(18)
    kp1, kp2 = sym_pairs(7)
    want = np.empty((n_strict(5) * n_strict(18), n_sym(7)), dtype=t.dtype)
    loop_minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, want)
    q2 = build_Q2(t)
    assert q2.dtype == want.dtype
    assert np.array_equal(q2, want)


def test_q2_needs_two_rows():
    with pytest.raises(DimensionError):
        build_Q2(Tensor3(np.zeros((1, 3, 3))))


def test_pk_k2():
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.array_equal(build_PK(2), expected)


def test_d_k2():
    expected = np.array(
        [[1, 0, 0], [0, 0.5, 0], [0, 0.5, 0], [0, 0, 1]], dtype=float
    )
    assert np.array_equal(build_D(2), expected)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_pk_gram_is_diagonal_with_counts(k):
    pk = build_PK(k)
    gram = pk.T @ pk
    assert np.allclose(gram, np.diag(np.diag(gram)))
    diag = sorted(np.diag(gram).tolist())
    assert diag == [1.0] * k + [2.0] * (k * (k - 1) // 2)
    assert np.allclose(build_D(k), pk @ np.linalg.inv(gram))


def test_wedge_symprod_basics():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    assert np.array_equal(wedge(x, y), np.array([1.0]))
    assert np.array_equal(symprod(x, y), np.array([0.0, 1.0, 0.0]))
    gen = rng(3)
    for _ in range(10):
        v = gen.standard_normal(6)
        assert np.allclose(wedge(v, v), 0.0)
    with pytest.raises(DimensionError):
        wedge(np.ones(3), np.ones(4))


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_pn_symprod_identity(n):
    # P_n (x sym y) = x kron y + y kron x, 100+ random pairs across sizes
    gen = rng(n)
    pn = build_PK(n)
    for _ in range(30):
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        assert np.allclose(pn @ symprod(x, y), np.kron(x, y) + np.kron(y, x), atol=1e-12)


def test_block_products_column_order():
    gen = rng(5)
    a = gen.standard_normal((3, 2))
    bi, bj = gen.standard_normal((5, 2)), gen.standard_normal((5, 3))
    ci, cj = gen.standard_normal((4, 2)), gen.standard_normal((4, 3))
    phi = phi_matrix(a, [bi, bj], NUMPY)
    s2 = s2_matrix([ci, cj], NUMPY)
    wa = wedge(a[:, 0], a[:, 1])
    # column (l1, l2) of the one term-pair block, l2 fastest
    for l1 in range(2):
        for l2 in range(3):
            col = l1 * 3 + l2
            assert np.allclose(phi[:, col], np.kron(wa, wedge(bi[:, l1], bj[:, l2])))
            assert np.allclose(s2[:, col], symprod(ci[:, l1], cj[:, l2]))


@pytest.mark.parametrize("field", ["real", "complex", "gf"])
@pytest.mark.parametrize("sizes", [(3,), (1, 2, 3, 4), (2, 2, 3)])
@pytest.mark.parametrize("chunk", [None, 7])
def test_builders_equal_the_pair_loop(field, sizes, chunk, monkeypatch):
    # bit for bit against the per-term-pair reference; sizes (3,) have no
    # term pair and no column, and chunks of 7 entries are one column each
    if chunk is not None:
        monkeypatch.setattr(minors, "_CHUNK_ENTRIES", chunk)
    gen = rng(21)
    if field == "gf":
        f = GFField(32749)

        def draw(shape):
            return f.random(gen, shape)

    else:
        f = NUMPY

        def draw(shape):
            return randn(gen, shape, field)

    a = draw((4, len(sizes)))
    b_blocks = split_columns(draw((6, sum(sizes))), sizes)
    c_blocks = split_columns(draw((5, sum(sizes))), sizes)
    pairs = (
        (phi_matrix(a, b_blocks, f), pair_loop_phi_matrix(a, b_blocks, f)),
        (s2_matrix(c_blocks, f), pair_loop_s2_matrix(c_blocks, f)),
    )
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_phi_s2_factorization_random():
    for seed in range(40):
        gen = rng(seed)
        sizes = tuple(gen.integers(1, 3, size=3))
        d = random_btd((3, 4, 5), sizes, seed=seed + 100)
        q2 = build_Q2(compose(d))
        phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
        s2 = s2_matrix([c for _, c in d.terms], NUMPY)
        assert np.linalg.norm(phi @ s2.T - q2) <= 1e-10 * max(np.linalg.norm(q2), 1.0)


def test_phi_s2_repeated_a_column_zero_block():
    gen = rng(8)
    a = gen.standard_normal((4, 3))
    a[:, 1] = a[:, 0]
    terms = tuple((gen.standard_normal((5, 2)), gen.standard_normal((6, 2))) for _ in range(3))
    phi = phi_matrix(a, [b for b, _ in terms], NUMPY)
    # block (0, 1) is the first 4 columns under lexicographic pair order
    assert np.allclose(phi[:, :4], 0.0, atol=1e-12)


def test_phi_s2_3x3x5_column_count_and_rank():
    d = golden_integer_instance()
    phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
    s2 = s2_matrix([c for _, c in d.terms], NUMPY)
    sizes = d.sizes
    expected_cols = sum(
        sizes[r1] * sizes[r2] for r1 in range(4) for r2 in range(r1 + 1, 4)
    )
    assert phi.shape[1] == expected_cols == 9
    # the product has exactly nine linearly independent (nonzero) columns
    assert numerical_rank((phi @ s2.T).astype(float)) == 9


def test_phi_s2_single_term_degenerate():
    d = random_btd((3, 4, 4), (2,), seed=0)
    phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
    s2 = s2_matrix([c for _, c in d.terms], NUMPY)
    assert phi.shape[1] == 0 and s2.shape[1] == 0


def test_s2_null_dimension_counts_blocks():
    # with K = sum L the null space of S2(C).T has dimension
    # sum binom(L_r + 1, 2) for random C
    for seed in range(20):
        gen = rng(seed)
        sizes = [(1, 2), (2, 2), (1, 2, 3), (3, 3)][seed % 4]
        k = sum(sizes)
        d = random_btd((3, k, k), sizes, seed=seed + 50)
        s2 = s2_matrix([c for _, c in d.terms], NUMPY)
        null_dim = s2.shape[0] - numerical_rank(s2.T)
        assert null_dim == sum(l * (l + 1) // 2 for l in sizes)


def test_compound2_identity():
    assert np.allclose(compound2(np.eye(5)), np.eye(10))


def test_compound2_binet_cauchy():
    gen = rng(9)
    for _ in range(100):
        y = gen.standard_normal((5, 4))
        b = gen.standard_normal((4, 3))
        lhs = compound2(y) @ compound2(b)
        rhs = compound2(y @ b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_compound2_transpose():
    gen = rng(10)
    for _ in range(100):
        a = gen.standard_normal((5, 4))
        assert np.allclose(compound2(a.T), compound2(a).T, atol=1e-12)


def test_compound2_guards():
    with pytest.raises(DimensionError):
        compound2(np.ones((1, 5)))


def test_r2_equals_q2_pk_integer_and_float():
    t_int = compose(golden_integer_instance())
    assert np.array_equal(
        build_R2(t_int), build_Q2(t_int) @ build_PK(5).T.astype(np.int64)
    )
    for seed in range(100):
        gen = rng(seed)
        dims = (
            int(gen.integers(2, 5)),
            int(gen.integers(2, 6)),
            int(gen.integers(1, 7)),
        )
        t = Tensor3(gen.standard_normal(dims))
        q2 = build_Q2(t)
        r2 = build_R2(t)
        assert np.allclose(r2, q2 @ build_PK(dims[2]).T, atol=1e-12 * max(1.0, np.linalg.norm(q2)))


def test_r2_rows_reshape_symmetric():
    gen = rng(12)
    t = Tensor3(gen.standard_normal((3, 4, 5)))
    r2 = build_R2(t)
    for row in r2:
        m = row.reshape(5, 5, order="F")
        assert np.allclose(m, m.T, atol=1e-14)
    # duplicated columns: (k1, k2) matches (k2, k1)
    for k1 in range(5):
        for k2 in range(5):
            assert np.allclose(r2[:, k2 * 5 + k1], r2[:, k1 * 5 + k2])


def test_null_r2_via_null_q2():
    # D (null basis of Q2) spans null(R2) intersected with vecsym(K)
    for seed in range(100):
        sizes = (1, 2) if seed % 2 else (2, 2)
        d = random_btd((3, 4, 5), sizes, seed=seed)
        t = compose(d)
        r2 = build_R2(t)
        g = null_space(build_Q2(t), tol=1e-8)
        k_dim = 5
        v = build_D(k_dim) @ g
        assert np.linalg.norm(r2 @ v) < 1e-8 * max(np.linalg.norm(r2), 1.0)
        # dimension count: null(R2) cap vecsym has the same dimension
        p = commutation_matrix(k_dim)
        constraint = np.vstack([r2, np.eye(k_dim * k_dim) - p])
        target = null_space(constraint, tol=1e-8)
        assert target.shape[1] == g.shape[1]
        assert numerical_rank(np.hstack([v, target]), tol=1e-8) == g.shape[1]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_symmetric_null_matrices_equal_d_times_basis(field):
    t = compose(random_btd((3, 8, 8), (2, 3, 4), field=field, seed=3))
    q2 = build_Q2(t)
    formed = null_space(q2, tol=1e-8)
    mats, margin = symmetric_null_matrices(t, tol=1e-8)
    assert mats.shape == (formed.shape[1], 8, 8) == (10, 8, 8)
    assert margin > 1e4
    # each matrix is D times a basis vector g, its entry at the pair
    # {k1, k2} doubled off the diagonal
    kp1, kp2 = sym_pairs(8)
    g = (mats[:, kp1, kp2] * np.where(kp1 == kp2, 1.0, 2.0)).T
    d = build_D(8)
    for q, v in enumerate(mats):
        assert np.array_equal(v, (d @ g[:, q]).reshape(8, 8))
    # the refined basis is orthonormal and spans the formed Q2's null space
    assert np.abs(g.conj().T @ g - np.eye(10)).max() < 1e-12
    assert np.linalg.norm(q2 @ g) < 1e-10 * np.linalg.norm(q2)
    assert numerical_rank(np.hstack([g, formed]), tol=1e-8) == 10


def test_rank1_membership_null_vector_and_zero():
    d = random_btd((3, 6, 7), (2, 3), seed=5)
    t = compose(d)
    # f in the null space of the complementary block gives a rank-1 combination
    z1 = d.terms[1][1].T
    f = null_space(z1)[:, 0]
    direct, via = rank1_membership(t, f, return_both=True)
    assert direct and via
    direct, via = rank1_membership(t, np.zeros(7), return_both=True)
    assert direct and via


def test_rank1_membership_generic_false():
    d = random_btd((3, 6, 7), (2, 3), seed=6)
    t = compose(d)
    gen = rng(7)
    f = gen.standard_normal(7)
    direct, via = rank1_membership(t, f, return_both=True)
    assert not direct and not via


def test_rank1_membership_agreement_200():
    d = random_btd((3, 6, 7), (2, 3), seed=8)
    t = compose(d)
    gen = rng(9)
    n1 = null_space(d.terms[1][1].T)
    n0 = null_space(d.terms[0][1].T)
    agree = 0
    for trial in range(200):
        if trial % 3 == 0:
            basis = n0 if trial % 2 else n1
            f = basis @ gen.standard_normal(basis.shape[1])
        else:
            f = gen.standard_normal(7)
        direct, via = rank1_membership(t, f, return_both=True)
        agree += direct == via
    assert agree == 200


def test_block_sizes_clamp_k_to_sum_l():
    assert block_sizes(8, (2, 3, 4)) == (8, [1, 2, 3])
    assert block_sizes(10, (2, 3, 4)) == (9, [2, 3, 4])
    assert block_sizes(10, (1, 2, 3, 4)) == (10, [1, 2, 3, 4])
    assert total_block_size(3, 8, 9) == sum(block_sizes(8, (2, 3, 4))[1]) == 6
    # 3x8x8 (2,3,4): Q = 1 + 3 + 6
    assert q2_null_dim(block_sizes(8, (2, 3, 4))[1]) == 10


def test_phi_counts_match_the_factor_matrix():
    for seed in range(12):
        gen = rng(seed)
        sizes = tuple(int(x) for x in gen.integers(1, 4, size=int(gen.integers(1, 5))))
        d = random_btd((3, 6, 7), sizes, seed=seed)
        phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
        n_cols = phi_columns(sizes)
        assert n_cols == sum(
            sizes[r1] * sizes[r2] for r1 in range(len(sizes)) for r2 in range(r1 + 1, len(sizes))
        )
        assert phi.shape == (n_strict(3) * n_strict(6), n_cols)
    # rows 3 * 15 = 45 against 2*3 + 2*4 + 3*4 = 26 columns; J = 6 < 3 + 4
    assert phi_count_conditions(3, 6, (2, 3, 4)) == (True, False)
    # rows 3 * 28 = 84 against 6 * 9 = 54 columns; J = 8 >= 3 + 3
    assert phi_count_conditions(3, 8, (3, 3, 3, 3)) == (True, True)
    # rows 1 * 6 = 6 against 3 * 4 = 12 columns
    assert phi_count_conditions(2, 4, (2, 2, 2)) == (False, True)
    # one term: no columns, and J must hold its single size
    assert phi_count_conditions(2, 3, (3,)) == (True, True)
