import time
import tracemalloc

import numpy as np
import pytest

from btd1 import gf
from btd1.gf import (
    GFField,
    GFMatrix,
    gf_phi,
    gf_q2_from_factors,
    gf_rank,
    gf_s2,
    verify_generic_q2_dim,
    verify_phi_full_rank,
)
from btd1.linalg import rng, split_columns
from btd1.minors import build_Q2, n_strict, n_sym, phi_matrix, s2_matrix
from btd1 import BlockTermDecomposition, compose, random_btd
from btd1.uniqueness import check_deterministic_uniqueness
from helpers import NUMPY, loop_gf_matmul, rational_rank


# the largest prime GFField accepts: (p-1)^2 < 2^53 <= (p'-1)^2 for the next
# prime p' = 94906297
LARGEST_PRIME = 94906249


@pytest.fixture(scope="module")
def gf32749():
    return GFField(32749)


def test_field_guards():
    with pytest.raises(ValueError, match="not prime"):
        GFField(4)
    # primes, but (p-1)^2 >= 2^53
    for p in (94906297, 4294967311):
        with pytest.raises(ValueError, match="too large"):
            GFField(p)
    # 32749.0 used to construct and then fail inside the elimination kernel
    for p in (2.5, 3.0, 32749.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            GFField(p)


def test_field_accepts_integers_up_to_the_largest_prime():
    assert GFField(LARGEST_PRIME).p == LARGEST_PRIME
    f = GFField(np.int64(101))
    assert f == GFField(101) and type(f.p) is int


def test_identity_rank(gf32749):
    assert gf_rank(GFMatrix(np.eye(7, dtype=np.int64), gf32749)) == 7


def test_all_ones_gf2():
    f = GFField(2)
    assert gf_rank(GFMatrix(np.array([[1, 1], [1, 1]]), f)) == 1


def test_random_square_full_rank_and_orderings(gf32749):
    gen = rng(1)
    m = GFMatrix(gf32749.random(gen, (60, 60)), gf32749)
    assert gf_rank(m) == 60
    # the same matrix eliminated with the column order reversed
    assert gf_rank(GFMatrix(m.values[:, ::-1], gf32749)) == 60


def test_rank_permutation_invariance(gf32749):
    gen = rng(2)
    vals = gf32749.random(gen, (12, 9))
    vals[:, 5] = vals[:, 2]  # force a deficiency
    m = GFMatrix(vals, gf32749)
    base = gf_rank(m)
    perm_rows = GFMatrix(vals[gen.permutation(12)], gf32749)
    perm_cols = GFMatrix(vals[:, gen.permutation(9)], gf32749)
    assert gf_rank(perm_rows) == base
    assert gf_rank(perm_cols) == base


def test_prime_field_rank():
    f = GFField(7)
    m = GFMatrix(np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) % 7, f)
    assert gf_rank(m) == 2


def test_gf_phi_matches_integer_construction():
    # small integer factors: the field construction reduces the integer one
    p = 101
    f = GFField(p)
    gen = rng(3)
    sizes = (1, 2)
    a_int = gen.integers(0, 5, size=(3, 2))
    b_int = gen.integers(0, 5, size=(4, 3))
    c_int = gen.integers(0, 5, size=(4, 3))
    terms = ((b_int[:, :1], c_int[:, :1]), (b_int[:, 1:], c_int[:, 1:]))
    d = BlockTermDecomposition(a_int.astype(np.int64), tuple((b.astype(np.int64), c.astype(np.int64)) for b, c in terms))
    phi = phi_matrix(d.A, [b for b, _ in d.terms], NUMPY)
    s2 = s2_matrix([c for _, c in d.terms], NUMPY)
    phi_gf = gf_phi(f, a_int % p, b_int % p, sizes)
    s2_gf = gf_s2(f, c_int % p, sizes)
    assert np.array_equal(phi_gf.values, phi % p)
    assert np.array_equal(s2_gf.values, s2 % p)
    q2_gf = gf_q2_from_factors(f, a_int % p, b_int % p, c_int % p, sizes)
    q2_int = build_Q2(compose(d))
    assert np.array_equal(q2_gf.values, q2_int % p)


def test_gf_phi_s2_binary_field_matches_scalar_loop():
    # every entry of Phi and S2 over the binary field GF(2) from the wedge and
    # symmetric product formulas, one field scalar at a time, and Phi S2.T
    # against the minors of the in-field composed tensor
    f = GFField(2)
    gen = rng(21)
    sizes = (1, 2, 2)
    i_dim, j_dim, k_dim = 3, 4, 3
    a = f.random(gen, (i_dim, 3))
    b = f.random(gen, (j_dim, 5))
    c = f.random(gen, (k_dim, 5))
    term_cols = [(0,), (1, 2), (3, 4)]

    def mul(x, y):
        return int(f.mul(x, y))

    def minor(x, y, p, q):
        return int(f.sub(mul(x[p], y[q]), mul(x[q], y[p])))

    def perm(x, y, p, q):
        return int(f.add(mul(x[p], y[q]), mul(x[q], y[p])))

    i_pairs = [(p, q) for p in range(i_dim) for q in range(p + 1, i_dim)]
    j_pairs = [(p, q) for p in range(j_dim) for q in range(p + 1, j_dim)]
    k_pairs = [(p, q) for p in range(k_dim) for q in range(p, k_dim)]
    phi_cols, s2_cols = [], []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for l1 in term_cols[r1]:
                for l2 in term_cols[r2]:
                    phi_cols.append(
                        [
                            mul(minor(a[:, r1], a[:, r2], *ip), minor(b[:, l1], b[:, l2], *jp))
                            for ip in i_pairs
                            for jp in j_pairs
                        ]
                    )
                    s2_cols.append([perm(c[:, l1], c[:, l2], *kp) for kp in k_pairs])
    phi = gf_phi(f, a, b, sizes).values
    s2 = gf_s2(f, c, sizes).values
    assert np.array_equal(phi, np.array(phi_cols).T)
    assert np.array_equal(s2, np.array(s2_cols).T)
    # in characteristic 2 the diagonal pairs (k, k) of S2 vanish identically
    assert not s2[[kp[0] == kp[1] for kp in k_pairs]].any()

    t = np.zeros((i_dim, j_dim, k_dim), dtype=np.int64)
    for i in range(i_dim):
        for j in range(j_dim):
            for k in range(k_dim):
                for r, cols in enumerate(term_cols):
                    for l in cols:
                        t[i, j, k] = f.add(t[i, j, k], mul(a[i, r], mul(b[j, l], c[k, l])))
    q2 = [
        [
            int(
                f.sub(
                    f.add(mul(t[i1, j1, k1], t[i2, j2, k2]), mul(t[i1, j1, k2], t[i2, j2, k1])),
                    f.add(mul(t[i1, j2, k1], t[i2, j1, k2]), mul(t[i1, j2, k2], t[i2, j1, k1])),
                )
            )
            for k1, k2 in k_pairs
        ]
        for i1, i2 in i_pairs
        for j1, j2 in j_pairs
    ]
    assert np.array_equal(gf_q2_from_factors(f, a, b, c, sizes).values, np.array(q2))


@pytest.mark.parametrize("trials", [0, -3])
def test_verifiers_refuse_fewer_than_one_trial(trials):
    # a trial count below one used to run one trial and report trials: 1
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_generic_q2_dim((3, 3, 5), (1, 1, 1, 2), trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_phi_full_rank(3, 4, 2, (1, 2), trials=trials)


def test_verify_q2_dim_3x3x5():
    res = verify_generic_q2_dim((3, 3, 5), (1, 1, 1, 2), seed=0)
    assert res.certified
    assert res.expected == 9  # rank 9 on a 9 x 15 matrix: null dimension 6


def test_verify_q2_dim_2x8x7_needs_odd_characteristic():
    res = verify_generic_q2_dim((2, 8, 7), (3, 3, 3), seed=0)
    assert res.certified
    assert res.field.p != 2  # characteristic 2 caps the rank structurally
    # restricted to GF(2) the check is inconclusive
    res2 = verify_generic_q2_dim((2, 8, 7), (3, 3, 3), seed=0, field=GFField(2))
    assert res2.verdict == "inconclusive"


def test_verify_q2_dim_single_term_trivial():
    res = verify_generic_q2_dim((3, 4, 4), (3,), seed=0)
    assert res.certified and res.expected == 0


def test_verify_q2_dim_clamps_large_k():
    res = verify_generic_q2_dim((3, 9, 14), (1, 2, 3, 4), seed=0)
    assert res.config["clamped"] and res.config["K"] == 10
    assert res.certified


def test_verify_phi_exception_tuples():
    for i_dim, r in ((2, 3), (4, 9), (5, 12)):
        sizes = [1] * (r - 1) + [4]
        res = verify_phi_full_rank(i_dim, 5, r, sizes, trials=3, seed=1)
        assert res.verdict == "inconclusive"
        assert res.witnessed_rank < res.expected


def test_verify_phi_count_precondition():
    # J below the two largest sizes: immediately impossible
    res = verify_phi_full_rank(3, 4, 2, (2, 3), seed=0)
    assert res.verdict == "impossible"
    # more columns than rows
    res = verify_phi_full_rank(2, 3, 4, (2, 2, 2, 2), seed=0)
    assert res.verdict == "impossible"


def test_verify_phi_single_term():
    res = verify_phi_full_rank(3, 4, 1, (2,), seed=0)
    assert res.certified and res.expected == 0


def test_soundness_certified_trial_in_rationals():
    # re-run one certified prime-field trial exactly over the rationals:
    # the integer minor matrix of the lifted factors reaches the same rank
    p = 101
    f = GFField(p)
    gen = rng(5)
    sizes = (1, 1, 2)
    dims = (3, 3, 4)
    a = f.random(gen, (dims[0], len(sizes)))
    b = f.random(gen, (dims[1], sum(sizes)))
    c = f.random(gen, (dims[2], sum(sizes)))
    q2_gf = gf_q2_from_factors(f, a, b, c, sizes)
    rank_gf = gf_rank(q2_gf)
    d_vals = [dims[2] - sum(sizes) + l for l in sizes]
    expected = (dims[2] + 1) * dims[2] // 2 - sum(dv * (dv + 1) // 2 for dv in d_vals)
    assert rank_gf == expected
    # lift: integer factors, integer minor matrix, exact rational elimination
    terms = []
    off = 0
    for l in sizes:
        terms.append((b[:, off : off + l].astype(np.int64), c[:, off : off + l].astype(np.int64)))
        off += l
    d = BlockTermDecomposition(a.astype(np.int64), tuple(terms))
    q2_int = build_Q2(compose(d))
    assert rational_rank(q2_int) == expected
    assert np.array_equal(q2_gf.values, q2_int % p)


@pytest.mark.parametrize("p", [32749, 65521, 67108859])
def test_prime_matmul_matches_loop(p):
    # 67108859 < 2^26 has a block length of 2, so the inner lengths below
    # straddle it; the other two primes stay inside one block
    f = GFField(p)
    gen = rng(6)
    assert gf._exact_block(p) == (2**53 - 1) // (p - 1) ** 2
    for inner in (0, 1, 2, 3, 5, 37, 160):
        a = f.random(gen, (7, inner))
        b = f.random(gen, (inner, 9))
        a[0] = p - 1  # the largest products
        b[:, 0] = p - 1
        got = GFMatrix(a, f).matmul(GFMatrix(b, f)).values
        assert np.array_equal(got, loop_gf_matmul(f, a, b))


@pytest.mark.parametrize("p", [32749, 65521])
def test_prime_matmul_exact_across_block_length(p):
    # a.a with a = (1, p-1, ..., p-1) of length n is (n-1)(p-1)^2 + 1 = n
    # mod p; past the block length the sum is odd and above 2^53, where a
    # single float64 product would round it
    f = GFField(p)
    block = gf._exact_block(p)
    assert (p - 1) ** 2 * block < 2**53 <= (p - 1) ** 2 * (block + 1)
    for n in (block - 1, block, block + 2):
        a = np.full((1, n), p - 1, dtype=np.int64)
        a[0, 0] = 1
        got = GFMatrix(a, f).matmul(GFMatrix(a.T, f)).values
        assert got.tolist() == [[n % p]]


def test_matmul_multi_block_at_largest_prime():
    # one product of two residues already needs the whole float64-exact
    # range, so every inner index is a block of its own
    p = LARGEST_PRIME
    f = GFField(p)
    assert gf._exact_block(p) == 1
    gen = rng(7)
    a = f.random(gen, (5, 11))
    b = f.random(gen, (11, 4))
    a[0] = p - 1
    b[:, 0] = p - 1
    want = (a.astype(object) @ b.astype(object)) % p
    got = GFMatrix(a, f).matmul(GFMatrix(b, f)).values
    assert np.array_equal(got, want.astype(np.int64))


def test_left_compression_never_raises_rank():
    f = GFField(101)
    gen = rng(8)
    for _ in range(60):
        rows, cols = gen.integers(2, 25, size=2)
        r = int(gen.integers(0, min(rows, cols) + 1))
        m = loop_gf_matmul(f, f.random(gen, (rows, r)), f.random(gen, (r, cols)))
        rank_m = gf_rank(GFMatrix(m, f))
        assert rank_m <= r
        for n_keep in (1, max(r - 1, 1), r + 1, rows + 3):
            s = GFMatrix(f.random(gen, (n_keep, rows)), f)
            assert gf_rank(s.matmul(GFMatrix(m, f))) <= rank_m


@pytest.mark.parametrize(
    "i_dim, j_dim, sizes, compressed",
    [((2, 5, (1, 2), False)), ((6, 20, (4, 4, 4, 4, 4), True))],
)
def test_planted_deficient_phi_never_certifies(i_dim, j_dim, sizes, compressed):
    # two equal columns inside the last B block make two Phi columns equal
    n_cols = sum(x * y for k, x in enumerate(sizes) for y in sizes[k + 1 :])
    assert (n_strict(i_dim) * n_strict(j_dim) > n_cols + 10) == compressed

    def build(fld, gen):
        a = fld.random(gen, (i_dim, len(sizes)))
        b = fld.random(gen, (j_dim, sum(sizes)))
        b[:, -1] = b[:, -2]
        return a, b, sizes

    for field in (None, GFField(101)):
        res = gf._certify_rank({}, n_cols, build, 1, 0, field, reason="")
        assert res.verdict == "inconclusive"
        assert res.witnessed_rank < n_cols


def _row_kronecker(f, s_a, s_b):
    # row n of S is s_a[n] kron s_b[n]
    return f.mul(s_a[:, :, None], s_b[:, None, :]).reshape(s_a.shape[0], -1)


@pytest.mark.parametrize("p", [101, 32749, LARGEST_PRIME])
@pytest.mark.parametrize("sizes", [(2, 2, 3), (1, 3), (3,)])
def test_phi_sketch_is_row_kronecker_times_phi(p, sizes):
    # at the largest prime every float64 product sums one inner index at a time
    f = GFField(p)
    gen = rng(11)
    i_dim, j_dim, n_keep = 4, 6, 19
    a = f.random(gen, (i_dim, len(sizes)))
    b = f.random(gen, (j_dim, sum(sizes)))
    s_a = f.random(gen, (n_keep, n_strict(i_dim)))
    s_b = f.random(gen, (n_keep, n_strict(j_dim)))
    sketch = gf._phi_sketch(f, s_a, s_b, a, split_columns(b, sizes))
    phi = gf_phi(f, a, b, sizes)
    want = GFMatrix(_row_kronecker(f, s_a, s_b), f).matmul(phi).values
    assert sketch.shape == (n_keep, phi.shape[1])
    assert np.array_equal(sketch, want)


@pytest.mark.parametrize(
    "field", [GFField(101), GFField(32749), GFField(LARGEST_PRIME), GFField(65521)]
)
def test_certify_rank_ranks_the_sketch_over_prime_fields_only(field):
    # a Q2 trial at 4x6x5 (1, 2, 2): Phi has 90 rows, more than the 19 kept
    dims, sizes, expected = (4, 6, 5), (1, 2, 2), n_sym(5) - 7
    drawn = {}

    def build(fld, gen):
        a = fld.random(gen, (dims[0], len(sizes)))
        b = fld.random(gen, (dims[1], sum(sizes)))
        c = fld.random(gen, (dims[2], sum(sizes)))
        drawn.update(a=a, b=b, c=c, gen=gen)
        return a, b, sizes, GFMatrix(gf_s2(fld, c, sizes).values.T, fld)

    # expected + 1 is never reached, so the single trial reports its rank
    res = gf._certify_rank({}, expected + 1, build, 1, 3, field, reason="")
    assert res.verdict == "inconclusive" and res.trials == 1
    q2 = gf_q2_from_factors(field, drawn["a"], drawn["b"], drawn["c"], sizes)
    n_keep = expected + 1 + 10
    s_a = field.random(drawn["gen"], (n_keep, n_strict(dims[0])))
    s_b = field.random(drawn["gen"], (n_keep, n_strict(dims[1])))
    s = GFMatrix(_row_kronecker(field, s_a, s_b), field)
    assert res.witnessed_rank == gf_rank(s.matmul(q2)) == expected


def test_certify_8x30x30():
    start = time.monotonic()
    sizes = (5,) * 6
    res = verify_generic_q2_dim((8, 30, 30), sizes, seed=0)
    assert res.certified and res.expected == n_sym(30) - 6 * n_sym(5)
    res = verify_phi_full_rank(8, 30, 6, sizes, seed=0)
    assert res.certified and res.expected == 15 * 25
    assert time.monotonic() - start < 10


def test_certify_calls_stay_below_6_mb_at_6x20x20():
    # formed, Phi (2850 x 160), its dense left factor (170 x 2850) and Q2
    # (2850 x 210) take 3.6-4.8 MB each, and each call peaked at 15-19 MB
    dims, sizes = (6, 20, 20), (4,) * 5
    d = random_btd(dims, sizes, seed=0)
    calls = {
        "verify_generic_q2_dim": lambda: verify_generic_q2_dim(dims, sizes),
        "verify_phi_full_rank": lambda: verify_phi_full_rank(6, 20, 5, sizes),
        "check_deterministic_uniqueness": lambda: check_deterministic_uniqueness(d),
    }
    for name, call in calls.items():
        call()  # fills the pair-index caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, (name, peak)
