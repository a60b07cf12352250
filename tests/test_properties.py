"""Property test: exact decompose either reconstructs or names its failure."""

from hypothesis import given, settings, strategies as st

from btd1 import compose, decompose, random_btd
from btd1.linalg import SolverDiagnostic


@st.composite
def exact_configs(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    i_dim = draw(st.integers(2, 4))
    j_dim = draw(st.integers(max(sizes) + 1, max(sizes) + 4))
    k_dim = draw(st.integers(max(2, max(sizes)), 8))
    field = draw(st.sampled_from(["real", "complex"]))
    seed = draw(st.integers(0, 2**31 - 1))
    return (i_dim, j_dim, k_dim), sizes, field, seed


@settings(max_examples=50, derandomize=True, deadline=None)
@given(exact_configs())
def test_exact_decompose_reconstructs_or_raises_diagnostic(config):
    dims, sizes, field, seed = config
    t = compose(random_btd(dims, sizes, field=field, seed=seed))
    try:
        report = decompose(t)
    except SolverDiagnostic:
        return
    assert report.residual <= 1e-6
