import numpy as np
import pytest

from btd1 import (
    BlockTermDecomposition,
    DimensionError,
    NoiseSpec,
    Tensor3,
    add_noise,
    compose,
    compress_third_mode,
    match_decompositions,
    random_btd,
    unfold,
)
from btd1.linalg import numerical_rank, rng
from btd1.tensor import compose_values, draw_factors

from helpers import naive_compose, naive_unfold1, naive_unfold3, per_factor_draw, pinv


def test_unfold_rank1_outer_product():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 0.0])
    c = np.array([1.0, 1.0])
    d = BlockTermDecomposition(a[:, None], ((b[:, None], c[:, None]),))
    t = compose(d)
    expected = np.array([[1, 2], [0, 0], [1, 2], [0, 0]], dtype=float)
    assert np.allclose(unfold(t, 1), expected)


def test_unfold_zero_tensor():
    t = Tensor3(np.zeros((2, 3, 4)))
    for mode in (1, 2, 3):
        assert np.all(unfold(t, mode) == 0)


def test_unfold_invalid_mode():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        unfold(t, 4)


def test_unfold_indexing_roundtrip():
    # entry (j + (k-1)J, i) of the mode-1 unfolding is t_ijk
    gen = rng(0)
    v = gen.standard_normal((3, 4, 5))
    t = Tensor3(v)
    u1 = unfold(t, 1)
    u2 = unfold(t, 2)
    u3 = unfold(t, 3)
    for i in range(3):
        for j in range(4):
            for k in range(5):
                assert u1[j + k * 4, i] == v[i, j, k]
                assert u2[k + i * 5, j] == v[i, j, k]
                assert u3[j + i * 4, k] == v[i, j, k]


@pytest.mark.parametrize("seed", range(5))
def test_unfold_factorization_identities(seed):
    d = random_btd((3, 4, 5), (2, 1, 2), seed=seed)
    t = compose(d)
    assert np.allclose(t.values, naive_compose(d.A, d.terms), atol=1e-12)
    assert np.allclose(unfold(t, 3), naive_unfold3(d.A, d.terms), atol=1e-12)
    assert np.allclose(unfold(t, 1), naive_unfold1(d.A, d.terms), atol=1e-12)
    # mode 2: [a_1 kron C_1 ...] B.T
    blocks = [np.kron(d.A[:, r : r + 1], d.terms[r][1]) for r in range(d.R)]
    assert np.allclose(unfold(t, 2), np.hstack(blocks) @ d.B.T, atol=1e-12)


def test_compose_identity_term():
    d = BlockTermDecomposition(np.array([[1.0]]), ((np.eye(2), np.eye(2)),))
    t = compose(d)
    assert np.allclose(t.values[0], np.eye(2))


def test_single_term_ml_rank_profile():
    # a composed single term has mode-1 rank 1 and mode-2/3 rank L
    d = random_btd((4, 6, 7), (3,), seed=2)
    t = compose(d)
    assert numerical_rank(unfold(t, 1)) == 1
    assert numerical_rank(unfold(t, 2)) == 3
    assert numerical_rank(unfold(t, 3)) == 3


def test_random_btd_deterministic():
    d1 = random_btd((3, 8, 8), (2, 3, 4), seed=11)
    d2 = random_btd((3, 8, 8), (2, 3, 4), seed=11)
    assert np.array_equal(d1.A, d2.A)
    for (b1, c1), (b2, c2) in zip(d1.terms, d2.terms):
        assert np.array_equal(b1, b2)
        assert np.array_equal(c1, c2)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_draw_factors_matches_per_factor_reference(field):
    dims, sizes, seeds = (3, 9, 10), (1, 2, 3, 4), (0, 7, 2024)
    a, terms = draw_factors([rng(s) for s in seeds], dims, sizes, field)
    for n, seed in enumerate(seeds):
        ref_a, ref_terms = per_factor_draw(rng(seed), dims, sizes, field)
        d = random_btd(dims, sizes, field, seed=seed)
        assert np.array_equal(a[n], ref_a) and np.array_equal(d.A, ref_a)
        for (b, c), (db, dc), (ref_b, ref_c) in zip(terms, d.terms, ref_terms):
            assert np.array_equal(b[n], ref_b) and np.array_equal(c[n], ref_c)
            assert np.array_equal(db, ref_b) and np.array_equal(dc, ref_c)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_batched_compose_and_unfold_match_each_item(field):
    a, terms = draw_factors([rng(s) for s in range(6)], (3, 8, 8), (2, 3, 4), field)
    t = compose_values(a, terms)
    for n in range(6):
        item = compose_values(a[n], [(b[n], c[n]) for b, c in terms])
        assert np.array_equal(t[n], item)
        for mode in (1, 2, 3):
            assert np.array_equal(unfold(t, mode)[n], unfold(item, mode))


def _null_dims(d):
    k_dim = d.terms[0][1].shape[0]
    out = []
    for r in range(d.R):
        z = np.hstack([d.terms[p][1] for p in range(d.R) if p != r]).T
        out.append(k_dim - numerical_rank(z))
    return out


def test_random_btd_d_values_3x8x8():
    d = random_btd((3, 8, 8), (2, 3, 4), seed=0)
    assert _null_dims(d) == [1, 2, 3]


def test_random_btd_d_values_3x9x10():
    d = random_btd((3, 9, 10), (1, 2, 3, 4), seed=0)
    assert _null_dims(d) == [1, 2, 3, 4]


def test_random_btd_size_guard():
    with pytest.raises(DimensionError):
        random_btd((3, 4, 4), (5,), seed=0)


def test_add_noise_exact_flag():
    t = compose(random_btd((2, 3, 3), (1,), seed=0))
    spec = NoiseSpec(snr_db=np.inf)
    assert add_noise(t, spec) is t


def test_add_noise_norm_ratio():
    t = compose(random_btd((3, 5, 5), (2, 2), seed=1))
    noisy = add_noise(t, NoiseSpec(snr_db=20.0, seed=5))
    ratio = np.linalg.norm(noisy.values - t.values) / t.norm()
    assert abs(ratio - 0.1) < 1e-12


@pytest.mark.parametrize("snr", [5.0, 17.5, 40.0])
def test_add_noise_realized_snr(snr):
    t = compose(random_btd((3, 5, 5), (2, 2), seed=1))
    noisy = add_noise(t, NoiseSpec(snr_db=snr, seed=9))
    realized = 10.0 * np.log10(
        t.norm() ** 2 / np.linalg.norm(noisy.values - t.values) ** 2
    )
    assert abs(realized - snr) < 1e-10


def test_add_noise_zero_tensor():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        add_noise(t, NoiseSpec(snr_db=10.0))


def test_compress_full_rank_is_orthonormal_remix():
    t = compose(random_btd((3, 6, 5), (2, 3), seed=3))
    compressed, mixing, rank = compress_third_mode(t)
    assert rank == 5
    assert compressed.dims == (3, 6, 5)
    u3 = unfold(compressed, 3)
    assert np.allclose(u3.T @ u3, np.eye(5), atol=1e-10)
    assert np.allclose(u3 @ mixing, unfold(t, 3), atol=1e-10)


def test_compress_duplicated_slice():
    base = compose(random_btd((3, 5, 4), (2, 2), seed=4))
    v = np.concatenate([base.values, base.values[:, :, -1:]], axis=2)
    t = Tensor3(v)
    compressed, mixing, rank = compress_third_mode(t)
    assert rank == numerical_rank(unfold(t, 3)) == 4
    assert compressed.dims == (3, 5, 4)


def test_compress_recovers_third_factor():
    d = random_btd((3, 6, 9), (2, 2), seed=5)  # K > sum L: rank deficient mode 3
    t = compose(d)
    compressed, mixing, rank = compress_third_mode(t)
    assert rank == 4
    # C of the original tensor from the pseudo-inverse identity
    blocks = np.hstack([np.kron(d.A[:, r : r + 1], d.terms[r][0]) for r in range(d.R)])
    c = (pinv(blocks) @ unfold(t, 3)).T
    assert np.allclose(blocks @ c.T, unfold(t, 3), atol=1e-10)


def test_match_identical():
    d = random_btd((3, 5, 5), (2, 2), seed=6)
    perm, scales, err_a, err_t = match_decompositions(d, d)
    assert err_a < 1e-14 and err_t < 1e-14


def test_match_permuted_scaled():
    d = random_btd((3, 5, 5), (1, 2, 2), seed=7)
    order = [2, 0, 1]
    lam = [2.0, -0.5, 3.0]
    a = np.column_stack([lam[i] * d.A[:, order[i]] for i in range(3)])
    terms = tuple(
        (d.terms[order[i]][0] / lam[i], d.terms[order[i]][1]) for i in range(3)
    )
    est = BlockTermDecomposition(a, terms)
    perm, scales, err_a, err_t = match_decompositions(d, est)
    assert err_a < 1e-12 and err_t < 1e-12
    assert sorted(perm.tolist()) == [0, 1, 2]


def test_match_perturbation_error():
    d = random_btd((4, 5, 5), (2, 2), seed=8)
    gen = rng(99)
    delta = 1e-4
    # perturbation orthogonal to each matched column, unit Frobenius norm
    p = gen.standard_normal(d.A.shape)
    for r in range(d.R):
        col = d.A[:, r]
        p[:, r] -= col * (col @ p[:, r]) / (col @ col)
    p /= np.linalg.norm(p)
    est = BlockTermDecomposition(d.A + delta * p, d.terms)
    _, _, err_a, _ = match_decompositions(d, est)
    assert abs(err_a - delta / np.linalg.norm(d.A)) < 1e-8


def test_match_r_mismatch():
    d1 = random_btd((3, 5, 5), (2, 2), seed=0)
    d2 = random_btd((3, 5, 5), (2, 2, 1), seed=0)
    with pytest.raises(DimensionError):
        match_decompositions(d1, d2)


def test_tensor_invariants():
    with pytest.raises(ValueError):
        Tensor3(np.array([[[np.nan]]]))
    with pytest.raises(DimensionError):
        Tensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        BlockTermDecomposition(
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            ((np.eye(2), np.eye(2)), (np.eye(2), np.eye(2))),
        )


def test_complex_field_round_trip():
    d = random_btd((3, 4, 4), (2, 1), field="complex", seed=3)
    t = compose(d)
    assert t.field == "complex"
    assert np.allclose(t.values, naive_compose(d.A, d.terms), atol=1e-12)
    assert np.allclose(unfold(t, 3), naive_unfold3(d.A, d.terms), atol=1e-12)
