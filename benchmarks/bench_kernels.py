#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Run as ``python benchmarks/bench_kernels.py`` from anywhere; the package is
imported from ``src/`` next to this directory.  The same comparison can be
forced package-wide by setting BTD_NO_NUMBA=1, which routes every hot call
through the numpy path.  Without numba only the numpy column is timed.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from btd1 import _kernels  # noqa: E402
from btd1.gf import GFField  # noqa: E402
from btd1.linalg import rng  # noqa: E402
from btd1.minors import strict_pairs, sym_pairs  # noqa: E402


def time_call(fn, *args, repeats=5, setup=None):
    best = np.inf
    for _ in range(repeats):
        state = setup() if setup else args
        start = time.perf_counter()
        fn(*state)
        best = min(best, time.perf_counter() - start)
    return best


def bench_minor_matrix():
    print("minor-matrix fill (Q2 entries)")
    print(f"{'shape':>14} {'numpy [ms]':>12} {'numba [ms]':>12} {'speedup':>9}")
    for dims in [(4, 10, 10), (6, 20, 20), (8, 30, 30)]:
        i_dim, j_dim, k_dim = dims
        gen = rng(0)
        t = gen.standard_normal(dims)
        ip1, ip2 = strict_pairs(i_dim)
        jp1, jp2 = strict_pairs(j_dim)
        kp1, kp2 = sym_pairs(k_dim)
        out = np.empty((ip1.size * jp1.size, kp1.size))
        if _kernels.NUMBA_ENABLED:
            _kernels.minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, out)  # warm up
        t_np = time_call(_kernels.minor_matrix_fill_numpy, t, ip1, ip2, jp1, jp2, kp1, kp2, out)
        if _kernels.NUMBA_ENABLED:
            t_nb = time_call(_kernels.minor_matrix_fill, t, ip1, ip2, jp1, jp2, kp1, kp2, out)
            print(f"{str(dims):>14} {t_np*1e3:12.2f} {t_nb*1e3:12.2f} {t_np/t_nb:9.2f}x")
        else:
            print(f"{str(dims):>14} {t_np*1e3:12.2f} {'n/a':>12} {'n/a':>9}")


def bench_gf_rank():
    print("\nGF(2^15) elimination")
    print(f"{'shape':>14} {'numpy [ms]':>12} {'numba [ms]':>12} {'speedup':>9}")
    f = GFField()
    for n in [100, 200, 400]:
        gen = rng(1)
        mat = f.random(gen, (n, n))

        def fresh():
            return (mat.copy(), f.log, f.exp, f.order)

        if _kernels.NUMBA_ENABLED:
            _kernels.gf2k_eliminate(*fresh())  # warm up
        t_np = time_call(_kernels.gf2k_eliminate_numpy, setup=fresh)
        if _kernels.NUMBA_ENABLED:
            t_nb = time_call(_kernels.gf2k_eliminate, setup=fresh)
            print(f"{str((n, n)):>14} {t_np*1e3:12.2f} {t_nb*1e3:12.2f} {t_np/t_nb:9.2f}x")
        else:
            print(f"{str((n, n)):>14} {t_np*1e3:12.2f} {'n/a':>12} {'n/a':>9}")


if __name__ == "__main__":
    if _kernels.NUMBA_ENABLED:
        mode = "numba and numpy fallback"
    elif importlib.util.find_spec("numba") is None:
        mode = "numpy fallback only (numba is not installed)"
    else:
        mode = "numpy fallback only (BTD_NO_NUMBA is set)"
    print(f"kernel path timed: {mode}\n")
    bench_minor_matrix()
    bench_gf_rank()
