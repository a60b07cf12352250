import numpy as np
import pytest

from btd1 import DimensionError, Tensor3, compose, random_btd
from btd1.linalg import DEFAULT_RANK_TOL, null_space, numerical_rank, rng
from btd1.minors import (
    block_sizes,
    build_Q2,
    n_strict,
    n_sym,
    phi_columns,
    phi_count_conditions,
    phi_matrix,
    q2_null_dim,
    q2_row_panels,
    q2_triangle,
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
    t = compose(q2_rank_instances()[name])
    assert numerical_rank(q2_triangle(t), tol) == numerical_rank(build_Q2(t), tol)


def test_q2_rank_sees_the_planted_deficiency():
    cases = q2_rank_instances()
    for name in ("real", "complex", "integer", "multi_panel"):
        deficient = numerical_rank(q2_triangle(compose(cases[name + "_deficient"])))
        assert deficient < numerical_rank(q2_triangle(compose(cases[name])))


@pytest.mark.parametrize("integer", [False, True])
def test_build_q2_panels_equal_the_loop_fill(integer):
    dims, sizes = (5, 18, 7), (2, 2, 3)
    d = integer_btd(dims, sizes, seed=3) if integer else random_btd(dims, sizes, seed=3)
    t = compose(d).values
    # three whole i-pairs (459 rows) per panel: panels of 3, 3, 3 and 1
    panels = list(q2_row_panels(t))
    assert [p.shape[0] for p in panels] == [459, 459, 459, 153]
    ip1, ip2 = strict_pairs(5)
    jp1, jp2 = strict_pairs(18)
    kp1, kp2 = sym_pairs(7)
    want = np.empty((n_strict(5) * n_strict(18), n_sym(7)), dtype=t.dtype)
    loop_minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, want)
    q2 = build_Q2(t)
    assert q2.dtype == want.dtype
    assert np.array_equal(q2, want)
    assert np.array_equal(np.vstack(panels), want)


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
    g = null_space(q2_triangle(t), tol=1e-8)
    mats = symmetric_null_matrices(t, tol=1e-8)
    assert len(mats) == g.shape[1] == 10
    # the triangle's null vectors are null vectors of the formed Q2
    q2 = build_Q2(t)
    assert np.linalg.norm(q2 @ g) < 1e-10 * np.linalg.norm(q2)
    d = build_D(8)
    for q, v in enumerate(mats):
        assert np.array_equal(v, (d @ g[:, q]).reshape(8, 8))


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
