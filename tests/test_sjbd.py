import numpy as np
import pytest
import scipy.linalg

from btd1 import compose, random_btd, sjbd
from btd1.linalg import null_space, randn, rng, split_columns
from btd1.minors import symmetric_null_matrices
from btd1.sjbd import (
    CPD_IDENTITY_WEIGHT,
    SJBDProblem,
    _cluster_scalars,
    _commutant_gram,
    _pencil_eig,
    _single_linkage,
    build_commutant_matrix,
    cluster_columns,
    commutant_basis,
    cpd_als,
    pencil_blocks,
    simultaneous_evd_cpd,
    simultaneous_evd_single,
    solve_sjbd,
)

from helpers import (
    block_subspace_match,
    full_commutant_matrix,
    lstsq_cpd_als,
    naive_single_linkage,
    reconstruction_errors,
    singular_pencil_instance,
    solve_cpd_als,
    subspace_angle,
)


def make_instance(d, k, seed, field="real", q=None):
    """Exact S-JBD instance: V_q = N D_q N.T with random full-column-rank N
    and random symmetric block-diagonal coefficients."""
    from btd1.linalg import randn

    gen = rng(seed)
    n = randn(gen, (k, sum(d)), field)
    q = q or sum(x * (x + 1) // 2 for x in d)
    v_list = []
    d_list = []
    for _ in range(q):
        blocks = []
        for size in d:
            m = randn(gen, (size, size), field)
            blocks.append((m + m.T) / 2.0)
        dq = scipy.linalg.block_diag(*blocks)
        d_list.append(dq)
        v_list.append(n @ dq @ n.T)
    return n, d_list, v_list


def true_blocks(n, d):
    offs = np.concatenate([[0], np.cumsum(d)])
    return [n[:, offs[r] : offs[r + 1]] for r in range(len(d))]


def test_commutant_contains_identity():
    _, _, v_list = make_instance((2, 2), 4, seed=0)
    m = build_commutant_matrix(v_list)
    vec_i = np.eye(4).ravel(order="F")
    assert np.linalg.norm(m @ vec_i) < 1e-12 * np.linalg.norm(m)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d,k", [((1, 1), 2), ((1, 2, 3), 6), ((2, 3), 7)])
def test_commutant_matrix_keeps_the_independent_rows(d, k, field):
    # K = 2 gives a wide commutant matrix, the others tall ones
    _, _, v_list = make_instance(d, k, seed=8, field=field)
    v_list = SJBDProblem(tuple(v_list)).V
    full = full_commutant_matrix(v_list)
    i, j = np.meshgrid(np.arange(k), np.arange(k))  # row j K + i is entry (i, j)
    upper = np.tile((i < j).ravel(), len(v_list))
    m = build_commutant_matrix(v_list)
    assert m.shape == (len(v_list) * k * (k - 1) // 2, k * k)
    assert m.dtype == full.dtype
    assert np.array_equal(m, full[upper])
    s = np.linalg.svd(m, compute_uv=False)
    s_full = np.linalg.svd(full, compute_uv=False)
    assert np.allclose(np.sqrt(2.0) * s, s_full[: s.size], rtol=0, atol=1e-12 * s_full[0])
    assert np.all(s_full[s.size :] < 1e-12 * s_full[0])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d,k", [((1, 1), 2), ((1, 2, 3), 6), ((2, 3), 7)])
def test_commutant_gram_equals_the_formed_gram(d, k, field):
    _, _, v_list = make_instance(d, k, seed=8, field=field)
    v = SJBDProblem(tuple(v_list)).V
    m = build_commutant_matrix(v)
    formed = m.conj().T @ m
    gram = _commutant_gram(v)
    assert gram.shape == formed.shape and gram.dtype == formed.dtype
    assert np.abs(gram - formed).max() <= 1e-14 * np.abs(formed).max()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_noisy_commutant_basis_spans_the_smallest_singular_directions(field):
    # the Gram route's basis spans the formed matrix's dim smallest right
    # singular directions, and keeps the identity last as they come
    d, k = (1, 2, 3), 6
    _, _, v_list = make_instance(d, k, seed=21, field=field)
    noise = randn(rng(22), (len(v_list), k, k), field)
    v = SJBDProblem(np.stack(v_list) + 1e-3 * noise, hint_R=len(d)).V
    u_mats = commutant_basis(v, dim=len(d))
    assert u_mats.shape == (len(d), k, k)
    basis = np.column_stack([u.ravel(order="F") for u in u_mats])
    formed = null_space(build_commutant_matrix(v), dim=len(d))
    cosines = np.linalg.svd(formed.conj().T @ basis, compute_uv=False)
    assert np.all(cosines > 1 - 1e-10)
    identity = np.eye(k).ravel() / np.sqrt(k)
    assert abs(abs(np.vdot(identity, basis[:, -1])) - 1) < 1e-12
    assert abs(abs(np.vdot(identity, formed[:, -1])) - 1) < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d,k", [((1, 2, 3), 6), ((1, 2, 3, 4), 10)])
def test_noisy_tolerance_cuts_the_gram_as_the_formed_matrix(monkeypatch, d, k, field):
    # a noisy tolerance reads R from the Gram's eigenvalues, with the count
    # and the span the formed matrix's singular values give at that cut
    def refuse(vs):
        raise AssertionError("a noisy tolerance formed the commutant matrix")

    _, _, v_list = make_instance(d, k, seed=21, field=field)
    noise = randn(rng(22), (len(v_list), k, k), field)
    v = SJBDProblem(np.stack(v_list) + 1e-3 * noise, hint_R=len(d)).V
    formed = null_space(build_commutant_matrix(v), tol=1e-2)
    monkeypatch.setattr(sjbd, "build_commutant_matrix", refuse)
    u_mats = commutant_basis(v, tol=1e-2)
    assert len(u_mats) == formed.shape[1] == len(d)
    basis = np.column_stack([u.ravel(order="F") for u in u_mats])
    cosines = np.linalg.svd(formed.conj().T @ basis, compute_uv=False)
    assert np.all(cosines > 1 - 1e-10)
    identity = np.eye(k).ravel() / np.sqrt(k)
    assert abs(abs(np.vdot(identity, basis[:, -1])) - 1) < 1e-12


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_exact_tolerances_keep_the_formed_commutant_matrix(monkeypatch, tol):
    # an exact tolerance lies below the rounding of the Gram's spectrum, and
    # is cut at that rounding: M is never formed
    def refuse(vs):
        raise AssertionError("an exact tolerance formed the commutant matrix")

    monkeypatch.setattr(sjbd, "build_commutant_matrix", refuse)
    d = (1, 2, 3)
    _, _, v_list = make_instance(d, sum(d), seed=3)
    assert len(commutant_basis(v_list, tol=tol)) == len(d)


def test_the_sjbd_gives_the_same_bits_for_any_stack_layout():
    # Phase I gathers its V_q with Q as the fastest axis
    t = compose(random_btd((3, 9, 10), (1, 2, 3, 4), seed=1))
    v, _ = symmetric_null_matrices(t, tol=1e-8)
    strided = np.zeros(v.shape + (2,))
    strided[..., 1] = v
    layouts = [v, np.asfortranarray(v), strided[..., 1]]
    n, d, margin = pencil_blocks(np.ascontiguousarray(v), tol=1e-8)
    bases = [commutant_basis(np.ascontiguousarray(v), dim=dim) for dim in (None, 4)]
    for x in layouts:
        assert not x.flags.c_contiguous
        n_x, d_x, margin_x = pencil_blocks(x, tol=1e-8)
        assert np.array_equal(n_x, n) and d_x == d and margin_x == margin
        for dim, basis in zip((None, 4), bases):
            assert np.array_equal(commutant_basis(x, dim=dim), basis)


@pytest.mark.parametrize("d", [(1, 1, 1), (1, 2), (2, 3), (1, 2, 3)])
def test_commutant_dimension_matches_block_count(d):
    k = sum(d)
    _, _, v_list = make_instance(d, k, seed=3)
    u_mats = commutant_basis(v_list)
    assert len(u_mats) == len(d)
    for u in u_mats:
        for v in v_list:
            resid = np.linalg.norm(u @ v - v @ u.T)
            assert resid < 1e-8 * np.linalg.norm(v)


def test_commutant_three_generic_combinations_same_null_space():
    d = (1, 2, 3)
    k = sum(d)
    _, _, v_list = make_instance(d, k, seed=4)
    gen = rng(11)
    combos = [
        sum(w * v for w, v in zip(gen.standard_normal(len(v_list)), v_list))
        for _ in range(3)
    ]
    u1 = commutant_basis(v_list)
    u2 = commutant_basis(combos)
    assert len(u1) == len(u2) == len(d)
    b1 = np.column_stack([u.ravel() for u in u1])
    b2 = np.column_stack([u.ravel() for u in u2])
    assert subspace_angle(b1, b2) < 1e-7


def test_single_block_gives_identity_direction():
    _, _, v_list = make_instance((4,), 4, seed=5)
    u_mats = commutant_basis(v_list)
    assert len(u_mats) == 1
    u = u_mats[0]
    assert np.linalg.norm(u - u[0, 0] * np.eye(4)) < 1e-8 * abs(u[0, 0])


def test_simultaneous_evd_single_cluster_sizes():
    d = (1, 2, 3)
    k = sum(d)
    n_true, _, v_list = make_instance(d, k, seed=6)
    u_mats = commutant_basis(v_list)
    n_est, d_est = simultaneous_evd_single(u_mats, seed=1)
    assert sorted(d_est) == sorted(d)
    worst = block_subspace_match(true_blocks(n_est, d_est), true_blocks(n_true, d))
    assert worst < 1e-6


def test_simultaneous_evd_single_identity_input():
    n_est, d_est = simultaneous_evd_single([np.eye(5)], seed=0)
    assert d_est == (5,)


def columns_per_block(n, blocks):
    """How many columns of n lie in each block's span, checking that every
    column lies in one of them to 1e-6 relative."""
    labels = []
    for col in n.T:
        resid = [np.linalg.norm(col - b @ np.linalg.lstsq(b, col, rcond=None)[0]) for b in blocks]
        labels.append(int(np.argmin(resid)))
        assert min(resid) < 1e-6 * np.linalg.norm(col)
    return tuple(np.bincount(labels, minlength=len(blocks)))


def test_simultaneous_evd_cpd_matches_single():
    # the refinement's ungrouped columns each lie in one block of the
    # single-combination EVD, as many as that block is wide
    d = (1, 2, 3)
    k = sum(d)
    _, _, v_list = make_instance(d, k, seed=7)
    u_mats = commutant_basis(v_list)
    n_s, d_s = simultaneous_evd_single(u_mats, seed=2)
    assert sorted(d_s) == sorted(d)
    n_c, _converged, fit, _sweeps = simultaneous_evd_cpd(u_mats, 3, seed=2)
    assert fit < 1e-8
    assert n_c.shape == (k, k)
    assert columns_per_block(n_c, true_blocks(n_s, d_s)) == d_s


def test_cpd_als_all_distinct_reduces_to_diagonalization():
    d = (1, 1, 1, 1)
    k = 4
    n_true, _, v_list = make_instance(d, k, seed=8)
    u_mats = commutant_basis(v_list)
    n_c, _converged, fit, _sweeps = simultaneous_evd_cpd(u_mats, 4, seed=3)
    assert n_c.shape == (k, k)
    assert columns_per_block(n_c, true_blocks(n_true, d)) == d


def test_solve_sjbd_reconstruction_and_subspaces():
    d = (1, 2, 3)
    k = 6
    n_true, d_qs, v_list = make_instance(d, k, seed=9)
    sol = solve_sjbd(SJBDProblem(tuple(v_list)))
    assert sorted(sol.d) == sorted(d)
    assert reconstruction_errors(sol, v_list).max() < 1e-8
    worst = block_subspace_match(split_columns(sol.N, sol.d), true_blocks(n_true, d))
    assert worst < 1e-6


def test_solve_sjbd_rectangular_n():
    # slices span only a 4-dimensional subspace of a 7-dimensional space
    d = (1, 3)
    n_true, _, v_list = make_instance(d, 7, seed=10)
    sol = solve_sjbd(SJBDProblem(tuple(v_list)))
    assert sorted(sol.d) == sorted(d)
    assert sol.N.shape == (7, 4)
    assert reconstruction_errors(sol, v_list).max() < 1e-8
    worst = block_subspace_match(split_columns(sol.N, sol.d), true_blocks(n_true, d))
    assert worst < 1e-6


def test_solve_sjbd_joint_diagonalization_case():
    d = (1, 1, 1)
    n_true, _, v_list = make_instance(d, 3, seed=11)
    sol = solve_sjbd(SJBDProblem(tuple(v_list)))
    assert sol.d == (1, 1, 1)
    assert reconstruction_errors(sol, v_list).max() < 1e-8


def test_solve_sjbd_seed_invariance_up_to_permutation():
    d = (2, 2, 1)
    n_true, _, v_list = make_instance(d, 5, seed=12)
    sol_a = solve_sjbd(SJBDProblem(tuple(v_list)), seed=1)
    sol_b = solve_sjbd(SJBDProblem(tuple(v_list)), seed=2)
    assert sorted(sol_a.d) == sorted(sol_b.d)
    worst = block_subspace_match(split_columns(sol_a.N, sol_a.d), split_columns(sol_b.N, sol_b.d))
    assert worst < 1e-6


def test_sjbd_problem_symmetry_validation():
    bad = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        SJBDProblem((bad,))
    prob = SJBDProblem((bad,), hint_R=1)
    assert np.allclose(prob.V[0], prob.V[0].T)
    for field in ("real", "complex"):
        # the whole stack is checked at once, and the message names the
        # first asymmetric V_q and its deviation
        _, _, v_list = make_instance((1, 2), 3, seed=5, field=field, q=4)
        v = np.stack(v_list)
        v[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"V\[2\] is not symmetric \(deviation 1\.41e-03\)"):
            SJBDProblem(v)
        prob = SJBDProblem(v, hint_R=2)
        assert prob.V.shape == (4, 3, 3) and prob.Q == 4 and prob.K == 3
        assert np.array_equal(prob.V, prob.V.transpose(0, 2, 1))
        # a sequence of matrices is stored as the symmetrized stack
        sym = np.stack([(m + m.T) / 2.0 for m in v_list])
        assert np.array_equal(SJBDProblem(tuple(v_list)).V, sym)


def test_sjbd_problem_refuses_bad_input_at_construction():
    from btd1.linalg import DimensionError

    _, _, v_list = make_instance((1, 2), 3, seed=5)
    for v, kwargs, match in [
        ((), {}, "non-empty"),
        (np.zeros((0, 3, 3)), {}, "non-empty"),
        ((v_list[0], v_list[1][:2, :2]), {}, "same size"),
        ((np.zeros((3, 4)),), {}, "not square"),
        (v_list, {"hint_R": 0}, "hint_R must be at least 1, got 0"),
        (v_list, {"hint_R": 2, "hint_sum_d": 0}, "hint_sum_d must be at least 1, got 0"),
        (v_list, {"hint_sum_d": -1}, "hint_sum_d must be at least 1, got -1"),
    ]:
        with pytest.raises(DimensionError, match=match):
            SJBDProblem(v, **kwargs)


def test_complex_instance():
    d = (1, 2)
    n_true, _, v_list = make_instance(d, 3, seed=14, field="complex")
    sol = solve_sjbd(SJBDProblem(tuple(v_list)))
    assert sorted(sol.d) == sorted(d)
    assert reconstruction_errors(sol, v_list).max() < 1e-8
    worst = block_subspace_match(split_columns(sol.N, sol.d), true_blocks(n_true, d))
    assert worst < 1e-6


def test_cluster_columns_modulo_scaling():
    gen = rng(15)
    base = gen.standard_normal((6, 3))
    cols = []
    owners = []
    for j, reps in enumerate((1, 2, 3)):
        for _ in range(reps):
            cols.append(base[:, j] * gen.standard_normal() * 2.0)
            owners.append(j)
    labels = cluster_columns(np.column_stack(cols), n_clusters=3)
    # same owner iff same label
    for p in range(len(owners)):
        for q in range(len(owners)):
            assert (labels[p] == labels[q]) == (owners[p] == owners[q])


def test_cpd_als_exact_fit():
    gen = rng(16)
    k = 4
    a = gen.standard_normal((3, k))
    b = gen.standard_normal((k, k))
    c = gen.standard_normal((k, k))
    tensor = np.einsum("rk,ik,jk->rij", a, c, b)
    (a2, c2, b2), fit, converged, sweeps = cpd_als(tensor, (a, c, b))
    assert fit < 1e-12 and converged and sweeps <= 3


def _noisy_cpd_case(kind, seed=21, m=4, n=5):
    """A noisy m x n x n stack and a perturbed init for ``cpd_als``.

    ``real``: real factors and init.  ``conjugate``: columns 0 and 1 of every
    factor are a conjugate pair, so the stack is real and the init complex.
    ``complex``: complex factors, noise and init."""
    gen = rng(seed)
    field = "real" if kind == "real" else "complex"

    def pair(f):
        if kind == "conjugate":
            f[:, 1] = np.conj(f[:, 0])
            f[:, 2:] = np.real(f[:, 2:])
        return f

    a, c, b = (pair(randn(gen, shape, field)) for shape in ((m, n), (n, n), (n, n)))
    tensor = np.einsum("rk,ik,jk->rij", a, c, b)
    if kind == "conjugate":
        assert np.abs(tensor.imag).max() < 1e-12
        tensor = tensor.real
    tensor = tensor + 1e-2 * randn(gen, tensor.shape, "real" if kind != "complex" else "complex")
    init = tuple(pair(f + 1e-2 * randn(gen, f.shape, field)) for f in (a, c, b))
    return tensor, init


@pytest.mark.parametrize("kind", ["real", "conjugate", "complex"])
def test_cpd_als_matches_lstsq_reference(kind):
    tensor, init = _noisy_cpd_case(kind)
    (a, c, b), fit, converged, sweeps = cpd_als(tensor, init)
    (a_r, c_r, b_r), fit_r, converged_r, sweeps_r = lstsq_cpd_als(tensor, init)
    for got, want in ((a, a_r), (c, c_r), (b, b_r)):
        assert got.dtype == want.dtype
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    assert fit == pytest.approx(fit_r, rel=1e-9)
    assert converged == converged_r
    assert 1 <= sweeps == sweeps_r <= 500


@pytest.mark.parametrize("kind", ["real", "conjugate", "complex"])
def test_cpd_als_matches_solve_reference_bitwise(kind):
    tensor, init = _noisy_cpd_case(kind)
    (a, c, b), fit, converged, sweeps = cpd_als(tensor, init)
    (a_r, c_r, b_r), fit_r, converged_r, sweeps_r = solve_cpd_als(tensor, init)
    assert all(np.array_equal(x, y) for x, y in ((a, a_r), (c, c_r), (b, b_r)))
    assert (fit, converged, sweeps) == (fit_r, converged_r, sweeps_r)


@pytest.mark.parametrize("kind", ["real", "conjugate", "complex"])
def test_cpd_als_stops_at_noise_floor(kind):
    # the fit levels off near the 1e-2 noise; sweeps past that only crawl
    tensor, init = _noisy_cpd_case(kind)
    _factors, _fit, converged, sweeps = cpd_als(tensor, init)
    assert converged and sweeps < 100


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_cpd_als_is_deterministic(kind):
    tensor, init = _noisy_cpd_case(kind)
    (a, c, b), fit, _converged, sweeps = cpd_als(tensor, init)
    (a2, c2, b2), fit2, _converged2, sweeps2 = cpd_als(tensor, init)
    assert (fit, sweeps) == (fit2, sweeps2)
    assert all(np.array_equal(x, y) for x, y in ((a, a2), (c, c2), (b, b2)))


def test_cpd_als_singular_gram_falls_back_to_lstsq(monkeypatch):
    import btd1.sjbd as sjbd

    tensor, (a, c, b) = _noisy_cpd_case("real")
    for f in (a, c, b):
        f[:, 1] = f[:, 0]
    calls = []

    def counted_lstsq(*args, **kwargs):
        calls.append(1)
        return sjbd_lstsq(*args, **kwargs)

    sjbd_lstsq = sjbd.lstsq
    monkeypatch.setattr(sjbd, "lstsq", counted_lstsq)
    monkeypatch.setattr(sjbd, "CPD_MAX_SWEEPS", 20)
    (a2, c2, b2), fit, _converged, _sweeps = cpd_als(tensor, (a, c, b))
    assert calls
    assert all(np.all(np.isfinite(f)) for f in (a2, c2, b2))
    assert np.isfinite(fit)


def test_noisy_commutant_basis_contains_identity_direction():
    # with noise the only exact null direction is the vectorized identity;
    # the dim-dimensional basis must include it numerically
    d = (1, 2)
    k = 3
    _, _, v_list = make_instance(d, k, seed=17)
    gen = rng(18)
    noisy = tuple(v + 1e-6 * (lambda m: (m + m.T) / 2)(gen.standard_normal((k, k))) for v in v_list)
    u_mats = commutant_basis(SJBDProblem(noisy, hint_R=2).V, dim=2)
    assert len(u_mats) == 2
    basis = np.column_stack([u.ravel(order="F") for u in u_mats])
    vec_i = np.eye(k).ravel() / np.sqrt(k)
    proj = basis @ (basis.conj().T @ vec_i)
    assert np.linalg.norm(proj - vec_i) < 1e-4


def test_cpd_variant_default_weight():
    assert CPD_IDENTITY_WEIGHT == 2.0


def test_simultaneous_evd_defective_raises():
    from btd1.linalg import SolverDiagnostic

    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SolverDiagnostic):
        simultaneous_evd_single([jordan], seed=0)
    # the one pencil routine, shared with the two-slice GEVD, names the
    # shortfall
    with pytest.raises(SolverDiagnostic, match="defective") as info:
        _pencil_eig(jordan)
    assert info.value.diagnostics == {"eigenvector_rank": 1, "size": 2}


def test_solve_sjbd_approximate_returns_ungrouped_columns():
    d = (1, 3)
    n_true, _, v_list = make_instance(d, 7, seed=10)
    problem = SJBDProblem(tuple(v_list), hint_R=2, hint_sum_d=4)
    sol = solve_sjbd(problem)
    assert sol.d is None
    assert sol.N.shape == (7, 4)
    assert sol.diagnostics["commutant_dim"] == 2
    assert subspace_angle(sol.N, n_true) < 1e-6
    assert 1 <= sol.diagnostics["cpd_iters"] <= 500
    assert sol.diagnostics["cpd_converged"] == (sol.diagnostics["cpd_status"] == "ok")


def _scalars(x, n_clusters=None, cut=None):
    return _cluster_scalars(x, cut, n_clusters=n_clusters)


# (clusterer, input with all gaps tied, (input whose one close pair sits
# exactly at the cut, the cut) or None where the clusterer takes no cut);
# for scalars the cut is tol * max|x| = 1
@pytest.mark.parametrize(
    "cluster,tied,at_cut",
    [
        (_scalars, np.arange(4.0), (np.array([4.0, 0.0, 1.0]), 0.25)),
        (cluster_columns, np.eye(4), None),
    ],
    ids=["_cluster_scalars", "cluster_columns"],
)
def test_single_linkage_contract(cluster, tied, at_cut):
    labels = list(cluster(tied, n_clusters=2))
    assert sorted(set(labels)) == [0, 1]
    assert labels[0] == 0 and labels.index(0) < labels.index(1)
    if at_cut is not None:
        x, cut = at_cut
        assert list(cluster(x, cut=cut)) == [0, 1, 1]
    # a NaN anywhere is refused, not grouped
    bad = np.array(tied)
    bad[..., 1] = np.nan
    with pytest.raises(ValueError):
        cluster(bad, n_clusters=2)


def _linkage_labels(z, merges):
    """Labels, in order of first appearance, of the groups left after the
    first ``merges`` rows of a scipy linkage matrix ``z``: row i joins the
    groups with ids z[i, :2] into group n + i."""
    n = len(z) + 1
    members = {i: [i] for i in range(n)}
    for row, (a, b) in enumerate(z[:merges, :2].astype(int)):
        members[n + row] = members.pop(a) + members.pop(b)
    owner = {i: group for group, idx in members.items() for i in idx}
    order = list(dict.fromkeys(owner[i] for i in range(n)))
    return np.array([order.index(owner[i]) for i in range(n)])


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
def test_single_linkage_matches_scipy(tied):
    # scipy's single linkage is the reference: the same merge heights, and
    # the same groups after its first n - k merges (so merges tied at the
    # cut are taken alike) and after every merge up to a height cut
    import scipy.cluster.hierarchy as hierarchy
    import scipy.spatial.distance

    gen = rng(40 + tied)
    assert [x.tolist() for x in _single_linkage(np.zeros((1, 1)), n_clusters=1)] == [[0], []]
    for n in range(2, 26):
        for _ in range(3):
            # points on a small integer grid tie many distances
            pts = gen.integers(0, 3, (n, 2)).astype(float) if tied else gen.standard_normal((n, 2))
            dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            z = hierarchy.linkage(scipy.spatial.distance.squareform(dist), method="single")
            for k in sorted({1, 2, 3, n // 2, n}):
                labels, heights = _single_linkage(dist, n_clusters=k)
                assert np.array_equal(heights, z[:, 2])
                assert np.array_equal(labels, _linkage_labels(z, n - k))
            cut = float(np.median(z[:, 2]))
            labels = _single_linkage(dist, cut)[0]
            assert np.array_equal(labels, _linkage_labels(z, int(np.sum(z[:, 2] <= cut))))
    dist[0, 1] = dist[1, 0] = np.inf
    with pytest.raises(ValueError):
        hierarchy.linkage(scipy.spatial.distance.squareform(dist), method="single")
    with pytest.raises(ValueError):
        _single_linkage(dist, n_clusters=2)


@pytest.mark.parametrize("seed", range(10))
def test_clustering_matches_greedy_reference(seed):
    # grouped data without ties, so single linkage has one answer at every cut
    from btd1.linalg import randn

    gen = rng(100 + seed)
    sizes = (1, 2, 3, 2)
    centers = randn(gen, len(sizes), "complex")
    vals = np.concatenate([c + 1e-3 * randn(gen, n, "complex") for c, n in zip(centers, sizes)])
    gen.shuffle(vals)
    dist = np.abs(vals[:, None] - vals[None, :])
    base = gen.standard_normal((5, len(sizes)))
    cols = np.column_stack(
        [
            base[:, g] * gen.standard_normal() + 1e-3 * gen.standard_normal(5)
            for g, n in enumerate(sizes)
            for _ in range(n)
        ]
    )[:, gen.permutation(sum(sizes))]
    unit = cols / np.linalg.norm(cols, axis=0)
    col_dist = 1.0 - np.abs(unit.T @ unit)
    for n_clusters in (None, 2, 4, 6):
        expected = naive_single_linkage(dist, 1e-2 * np.abs(vals).max(), n_clusters)
        assert list(_cluster_scalars(vals, 1e-2, n_clusters=n_clusters)) == list(expected)
        if n_clusters is not None:
            expected = naive_single_linkage(col_dist, 1e-4, n_clusters)
            assert list(cluster_columns(cols, n_clusters)) == list(expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "d", [(1,), (3,), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (1, 1, 1), (2, 2, 1), (1, 2, 3)]
)
def test_exact_solve_takes_the_pencil_route(d, field, seed):
    # K > sum d on odd seeds, so the compression runs too
    n_true, _, v_list = make_instance(d, sum(d) + seed % 2, seed=seed, field=field)
    problem = SJBDProblem(tuple(v_list))
    sol = solve_sjbd(problem, seed=seed)
    assert sol.diagnostics["sjbd_route"] == "pencil"
    assert "coupling_status" not in sol.diagnostics
    assert "commutant_dim" not in sol.diagnostics
    assert sol.d == tuple(sorted(d, reverse=True))
    remaining = true_blocks(n_true, d)
    for block in split_columns(sol.N, sol.d):
        angles = [subspace_angle(block, t) for t in remaining]
        assert min(angles) < 1e-8
        remaining.pop(int(np.argmin(angles)))
    assert np.array_equal(solve_sjbd(problem, seed=seed).N, sol.N)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_singular_pencil_falls_back_to_the_commutant(field):
    from btd1.linalg import SolverDiagnostic

    v_list = singular_pencil_instance(5, field, seed=3)
    # exact data has no route but the pencil: its singular W_1 is the
    # failure, named with its rank and cut, and the S-JBD's own keys
    with pytest.raises(SolverDiagnostic) as info:
        solve_sjbd(SJBDProblem(tuple(v_list)))
    assert str(info.value) == "pencil combination W_1 is singular"
    details = info.value.diagnostics
    assert (details["W1_rank"], details["size"], details["sum_d"]) == (2, 3, 3)
    assert 0 <= details["W1_cut_ratio"] < 1e-8
    assert details["sjbd_route"] == "pencil"
    assert "coupling_margin" not in details
