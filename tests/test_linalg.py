import numpy as np
import pytest
import scipy.linalg

from btd1 import Tensor3, compress_third_mode
from btd1.linalg import (
    DEFAULT_RANK_TOL,
    _seed_words,
    cond,
    dominant_rank1,
    khatri_rao,
    null_space,
    numerical_rank,
    orth,
    randn,
    rank_cut,
    rng,
    rngs,
)

from helpers import subspace_angle


def test_default_rank_tol():
    assert DEFAULT_RANK_TOL == 1e-10
    assert rank_cut(np.array([1.0, 2e-10, 5e-11])) == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_khatri_rao_of_repeated_columns_is_the_kron_block_stack(field):
    # [a_1 kron Y_1 ... a_R kron Y_R] with block widths that include 1
    gen = rng(4)
    widths = (1, 3, 1, 2)
    a = randn(gen, (3, len(widths)), field)
    blocks = [randn(gen, (5, w), field) for w in widths]
    got = khatri_rao(np.repeat(a, widths, axis=1), np.hstack(blocks))
    want = np.hstack([np.kron(a[:, r : r + 1], y) for r, y in enumerate(blocks)])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    vec_e = randn(gen, (20, len(widths)), field)
    want = np.column_stack([np.kron(a[:, r], vec_e[:, r]) for r in range(len(widths))])
    assert np.array_equal(khatri_rao(a, vec_e), want)


def test_numerical_rank_threshold():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(m) == 2
    assert numerical_rank(m, tol=1e-14) == 3
    assert numerical_rank(np.zeros((3, 2))) == 0


def _with_singular_values(s, m, n):
    gen = rng(6)
    u = np.linalg.qr(gen.standard_normal((m, m)))[0][:, : len(s)]
    v = np.linalg.qr(gen.standard_normal((n, n)))[0][:, : len(s)]
    return (u * np.asarray(s)) @ v.T


@pytest.mark.parametrize(
    "s,tol,rank",
    [
        # 1e-10 * sigma_max = 2e-10 falls between 3e-10 and 1e-10
        ((2.0, 3e-10, 1e-10, 0.0), None, 2),
        ((1.0, 2e-3, 5e-4, 1e-12), 1e-3, 2),
        ((0.0, 0.0, 0.0, 0.0), None, 0),
    ],
    ids=["default-tol", "explicit-tol", "zero"],
)
def test_one_rank_rule(s, tol, rank):
    # tol None: every helper at its default tolerance
    kw = {} if tol is None else {"tol": tol}
    a = _with_singular_values(s, 12, 4)
    assert rank_cut(np.linalg.svd(a, compute_uv=False), **kw) == rank
    assert numerical_rank(a, **kw) == rank
    assert a.shape[1] - null_space(a, **kw).shape[1] == rank
    assert orth(a, **kw).shape[1] == rank
    # unfold(t, 3) of this tensor is a
    assert compress_third_mode(Tensor3(a.reshape(3, 4, 4)), **kw)[2] == rank


def test_null_space_dimensions():
    gen = rng(0)
    a = gen.standard_normal((4, 6))
    ns = null_space(a)
    assert ns.shape == (6, 2)
    assert np.linalg.norm(a @ ns) < 1e-12
    ns3 = null_space(a, dim=3)
    assert ns3.shape == (6, 3)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "shape,rank",
    [
        ((12, 7), 4),
        ((12, 7), 7),
        ((30, 7), 4),
        ((30, 7), 7),
        ((7, 7), 4),
        ((4, 9), 4),
        ((5, 9), 3),
    ],
    ids=["tall", "tall-full", "tall-qr", "tall-qr-full", "square", "wide", "wide-deficient"],
)
def test_null_space_matches_scipy(shape, rank, field):
    gen = rng(4)
    m, n = shape
    a = randn(gen, (m, rank), field) @ randn(gen, (rank, n), field)
    want = scipy.linalg.null_space(a, rcond=1e-10)
    for got in (null_space(a, tol=1e-10), null_space(a, dim=n - rank)):
        assert got.shape == (n, n - rank) == want.shape
        assert np.allclose(got.conj().T @ got, np.eye(n - rank), atol=1e-12)
        assert np.linalg.norm(a @ got) < 1e-10 * np.linalg.norm(a)
        # same span: equal orthogonal projectors
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) < 1e-10


def test_null_space_survives_svd_nonconvergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    gen = rng(5)
    # 12 and 30 rows: both go to the gesvd retry whole
    for m in (12, 30):
        a = gen.standard_normal((m, 4)) @ gen.standard_normal((4, 7))
        want = null_space(a, tol=1e-10)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", no_convergence)
            got = null_space(a, tol=1e-10)
        assert got.shape == want.shape == (7, 3)
        assert np.linalg.norm(got @ got.T - want @ want.T) < 1e-10


def test_rng_determinism_and_complex_normal():
    a = randn(rng(5), (100000,), "complex")
    b = randn(rng(5), (100000,), "complex")
    assert np.array_equal(a, b)
    # unit variance, circularly symmetric
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02
    assert abs(np.mean(a**2)) < 0.02


EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
# 1,000 consecutive sub-seeds n * 1_000_003, crossing 2**32 at n = 4295
SUB_SEEDS = [n * 1_000_003 for n in range(3800, 4800)]


@pytest.mark.parametrize("seeds", [EDGE_SEEDS, SUB_SEEDS], ids=["edges", "sub-seeds"])
def test_rngs_match_numpy_seeding(seeds):
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    for s, w, gen in zip(seeds, words, rngs(seeds), strict=True):
        assert np.array_equal(w, np.random.SeedSequence(s).generate_state(4, np.uint64))
        assert np.array_equal(gen.standard_normal(300), rng(s).standard_normal(300))


def test_rngs_outside_uint64_go_through_rng():
    gens = list(rngs([5, 2**64, 2**70 + 3]))
    for s, gen in zip([5, 2**64, 2**70 + 3], gens):
        assert np.array_equal(gen.standard_normal(50), rng(s).standard_normal(50))
    with pytest.raises(ValueError):
        list(rngs([3, -1]))
    assert list(rngs([])) == []


def test_subspace_distance_and_angles():
    gen = rng(1)
    u = orth(gen.standard_normal((8, 3)))
    q = np.linalg.qr(gen.standard_normal((3, 3)))[0]
    assert subspace_angle(u, u @ q) < 1e-10
    v = orth(gen.standard_normal((8, 3)))
    assert subspace_angle(u, v) > 0.1
    assert subspace_angle(u, v[:, :2]) == np.pi / 2


def test_dominant_rank1_complex_orientation():
    gen = rng(2)
    x = gen.standard_normal(5) + 1j * gen.standard_normal(5)
    y = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    m = np.outer(x, y)
    w, z = dominant_rank1(m)
    assert np.linalg.norm(np.outer(w, z) - m) < 1e-12


def test_cond():
    assert cond(np.eye(4)) == pytest.approx(1.0)
    assert np.isinf(cond(np.zeros((3, 3))))
    stack = np.stack([np.eye(3), np.zeros((3, 3)), rng(5).standard_normal((3, 3))])
    assert np.array_equal(cond(stack), [cond(m) for m in stack])
