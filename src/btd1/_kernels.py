"""Hot numeric kernels, vectorized with numpy.

Each kernel fills or reduces the ``out``/``mat`` array it is given in place.
``tests/test_kernels.py`` compares each one with a plain-loop reference.
"""

import numpy as np

# perfbench/run.py reads this to record the kernel path of a benchmark run.
NUMBA_ENABLED = False


def minor_matrix_fill(t, ip1, ip2, jp1, jp2, kp1, kp2, out):
    """out[a*nj + b, c] = t[i1,j1,k1]t[i2,j2,k2] + t[i1,j1,k2]t[i2,j2,k1]
    - t[i1,j2,k1]t[i2,j1,k2] - t[i1,j2,k2]t[i2,j1,k1] for the a-th i-pair,
    the b-th j-pair and the c-th k-pair."""
    ni = ip1.shape[0]
    nj = jp1.shape[0]
    # row grid: (ni*nj,) index arrays with the j-pair fastest
    i1 = np.repeat(ip1, nj)
    i2 = np.repeat(ip2, nj)
    j1 = np.tile(jp1, ni)
    j2 = np.tile(jp2, ni)
    # K-vectors of each row, then column takes: gathering (rows, K) first is
    # cheaper than eight (rows, n_sym(K)) gathers from the 3-d array; the
    # sum runs in the same order, so the entries are the same bit for bit
    t11, t22, t12, t21 = t[i1, j1], t[i2, j2], t[i1, j2], t[i2, j1]
    np.multiply(t11[:, kp1], t22[:, kp2], out=out)
    tmp = t11[:, kp2] * t22[:, kp1]
    out += tmp
    np.multiply(t12[:, kp1], t21[:, kp2], out=tmp)
    out -= tmp
    np.multiply(t12[:, kp2], t21[:, kp1], out=tmp)
    out -= tmp
    return out


def gf2k_eliminate(mat, logt, expt, order):
    """In-place row echelon form over GF(2^k), pivots scaled to one; returns
    the rank.  Only the rows below each pivot are reduced.

    Addition is XOR, multiplication goes through the log/antilog tables of
    the multiplicative group (size order-1); entries are in [0, order).
    """
    m, n = mat.shape
    q1 = order - 1
    rank = 0
    for col in range(n):
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + nz[0]
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        inv_log = (q1 - logt[mat[rank, col]]) % q1
        # rows at or below rank are zero left of col
        row = mat[rank, col:]
        nzr = row != 0
        row[nzr] = expt[(logt[row[nzr]] + inv_log) % q1]
        # after the swap the old row `rank` (zero in col) sits at `pivot`
        below = rank + nz[1:]
        if below.size:
            factors = logt[mat[below, col]]
            prod = np.zeros((below.size, n - col), dtype=mat.dtype)
            prod[:, nzr] = expt[(logt[row[nzr]][None, :] + factors[:, None]) % q1]
            mat[below, col:] ^= prod
        rank += 1
        if rank == m:
            break
    return rank


def gfp_eliminate(mat, p):
    """In-place row echelon form over the prime field GF(p), pivots scaled
    to one; returns the rank.  Only the rows below each pivot are reduced.
    Entries of the int64 ``mat`` are in [0, p).

    Reduction mod p is deferred (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
    2008).  Each pivot subtracts f times the pivot row from every row below
    it, f being that row's entry in the pivot column, as one rank-one update
    of the block below and to the right, without reducing it; a row with
    f = 0 is left as it is.  Only the pivot column (before the pivot search)
    and the pivot row (before scaling) are reduced.  An entry may go
    negative, and one update changes it by at most (p-1)^2, so the trailing
    block is reduced after every (2^63 - 1 - p) // (p-1)^2 updates and no
    entry reaches 2^63 in magnitude; GFField's guard p(p-1) < 2^63 keeps that
    count at one or more.  Below 2^16 nothing is reduced before the end, at
    2^31 - 1 the block is reduced after every pivot.  The arithmetic is
    exact and ``%`` returns values in [0, p), so the result is the same as
    reducing at every step.
    """
    m, n = mat.shape
    budget = (2**63 - 1 - p) // (p - 1) ** 2
    pending = 0  # updates since the trailing block was last reduced
    rank = 0
    for col in range(n):
        column = mat[rank:, col]
        column %= p
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        pivot = rank + nz[0]
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        # rows at or below rank are zero (mod p) left of col
        row = mat[rank, col:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        rank += 1
        if rank == m:
            break
        below = mat[rank:, col:]
        below -= below[:, :1] * row  # row[0] is 1: the pivot column becomes 0
        pending += 1
        if pending == budget:
            mat[rank:, col + 1 :] %= p
            pending = 0
    mat %= p
    return rank
