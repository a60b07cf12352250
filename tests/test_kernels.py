"""The vectorized kernels against their plain-loop references."""

import numpy as np
import pytest

from btd1 import _kernels
from btd1.linalg import rng
from btd1.minors import strict_pairs, sym_pairs
from helpers import gf2k_tables, loop_gf2k_eliminate, loop_gfp_eliminate, loop_minor_matrix_fill


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
def test_minor_fill_paths_agree(dtype):
    gen = rng(0)
    if dtype == np.int64:
        t = gen.integers(-4, 5, size=(3, 4, 5)).astype(np.int64)
    elif dtype == np.complex128:
        t = (gen.standard_normal((3, 4, 5)) + 1j * gen.standard_normal((3, 4, 5)))
    else:
        t = gen.standard_normal((3, 4, 5))
    ip1, ip2 = strict_pairs(3)
    jp1, jp2 = strict_pairs(4)
    kp1, kp2 = sym_pairs(5)
    out_a = np.empty((ip1.size * jp1.size, kp1.size), dtype=dtype)
    out_b = np.empty_like(out_a)
    loop_minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, out_a)
    _kernels.minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, out_b)
    if dtype == np.int64:
        assert np.array_equal(out_a, out_b)
    else:
        # complex products may round differently between the two paths
        assert np.allclose(out_a, out_b, atol=1e-13, rtol=1e-13)
    # the four-term sum in one expression over (rows, n_sym(K)) gathers: the
    # kernel's staged products must give the same bits, complex included
    i1, i2 = np.repeat(ip1, jp1.size)[:, None], np.repeat(ip2, jp1.size)[:, None]
    j1, j2 = np.tile(jp1, ip1.size)[:, None], np.tile(jp2, ip1.size)[:, None]
    k1, k2 = kp1[None, :], kp2[None, :]
    want = (
        t[i1, j1, k1] * t[i2, j2, k2]
        + t[i1, j1, k2] * t[i2, j2, k1]
        - t[i1, j2, k1] * t[i2, j1, k2]
        - t[i1, j2, k2] * t[i2, j1, k1]
    )
    assert np.array_equal(out_b.view(np.uint8), want.view(np.uint8))


def test_gf2k_elimination_paths_agree():
    # GF(2^15) with the reduction polynomial x^15 + x + 1
    logt, expt, order = gf2k_tables(15, (1 << 15) | (1 << 1) | 1)
    gen = rng(1)
    for shape in ((10, 14), (20, 20), (15, 8), (30, 12)):
        mat = gen.integers(0, order, size=shape, dtype=np.int64)
        mat[:, -1] = mat[:, 0]  # plant a dependency
        want, got = mat.copy(), mat.copy()
        r_want = loop_gf2k_eliminate(want, logt, expt, order)
        r_got = _kernels.gf2k_eliminate(got, logt, expt, order)
        assert r_got == r_want
        assert np.array_equal(got, want)


def test_gfp_elimination_paths_agree():
    p = 101
    gen = rng(2)
    for shape in ((8, 8), (12, 7), (6, 10), (20, 20)):
        mat = gen.integers(0, p, size=shape)
        mat[:, -1] = mat[:, 0]  # plant a dependency
        want, got = mat.copy(), mat.copy()
        r_want = loop_gfp_eliminate(want, p)
        r_got = _kernels.gfp_eliminate(got, p)
        assert r_got == r_want
        assert np.array_equal(got, want)
    # the kernel defers reduction mod p: below 2^16 nothing is reduced
    # before the end, at 2^31 - 1 the trailing block after every pivot.  Near
    # 2^20 an unreduced pivot row times its inverse would pass 2^63
    for p in (2, 3, 101, 32749, 65521, 1048573, 2**31 - 1):
        for shape in ((60, 70), (70, 45), (45, 45), (4, 30), (30, 4)):
            for mat in _gfp_cases(gen, p, shape):
                want, got = mat.copy(), mat.copy()
                r_want = loop_gfp_eliminate(want, p)
                assert _kernels.gfp_eliminate(got, p) == r_want, (p, shape)
                assert np.array_equal(got, want), (p, shape)


@pytest.mark.parametrize("p", [2, 3, 101, 32749, 65521, 1048573, 2**24 - 3, 2**31 - 1])
def test_gfp_panels_agree_with_the_loop(p, monkeypatch):
    # 280 and 300 columns are two panels of _PANEL_COLS = 256; panels of 32
    # columns split 150 into five, so later panels start from a trailing
    # block the products left unreduced, and 40 rows run out inside the
    # second.  At 1048573 a pivot row not reduced inside its panel would
    # pass 2^63 when scaled.  At 2^24 - 3 a product over 256 columns would
    # not be exact, so the kernel runs one panel, while panels of 32 columns
    # are exact.  At 2^31 - 1 no product is exact: one panel, reduced after
    # every pivot
    gen = rng(3)
    panels = ((256, ((300, 280), (280, 300))), (32, ((150, 140), (140, 150), (40, 150))))
    for panel, shapes in panels:
        monkeypatch.setattr(_kernels, "_PANEL_COLS", panel)
        for shape in shapes:
            cases = _gfp_cases(gen, p, shape)
            if panel < shape[1] // 2:
                late = gen.integers(0, p, size=shape)
                late[:, :panel] = 0  # no pivot in the first panel
                cases += (late,)
            for mat in cases:
                want, got = mat.copy(), mat.copy()
                r_want = loop_gfp_eliminate(want, p)
                assert _kernels.gfp_eliminate(got, p) == r_want, (p, panel, shape)
                assert np.array_equal(got, want), (p, panel, shape)


def _gfp_cases(gen, p, shape):
    """A random matrix, one with planted dependencies, one with zero columns
    and a tie-heavy one (about 70% zeros), each with entries in [0, p)."""
    m, n = shape
    random = gen.integers(0, p, size=shape)
    dependent = gen.integers(0, p, size=shape)
    dependent[:, -1] = dependent[:, 0]
    dependent[:, n // 2] = (dependent[:, 1] + 2 * dependent[:, 2]) % p
    dependent[-1] = (dependent[0] + (p - 1) * dependent[1]) % p
    zero_cols = gen.integers(0, p, size=shape)
    zero_cols[:, [0, n // 3, -1]] = 0
    ties = gen.integers(0, p, size=shape)
    ties[gen.random(shape) < 0.7] = 0
    ties[m // 2 :] = ties[: m - m // 2]  # repeated rows
    return random, dependent, zero_cols, ties
