"""Hot numeric kernels, vectorized with numpy.

Each kernel fills or reduces the ``out``/``mat`` array it is given in place.
``tests/test_kernels.py`` compares each one with a plain-loop reference.
"""

import numpy as np

# perfbench/run.py reads this to record the kernel path of a benchmark run.
NUMBA_ENABLED = False


# only minors.build_Q2 calls this, for the tests, and perfbench/tracing.py
# hooks it by name
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
    # the K-vectors of each row, then their products at the column pairs
    t11, t22, t12, t21 = t[i1, j1], t[i2, j2], t[i1, j2], t[i2, j1]
    out[...] = (
        t11[:, kp1] * t22[:, kp2] + t11[:, kp2] * t22[:, kp1]
        - t12[:, kp1] * t21[:, kp2] - t12[:, kp2] * t21[:, kp1]
    )
    return out


# nothing in the package calls this any more, but perfbench/tracing.py hooks
# it by name
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


# columns per panel of gfp_eliminate.  A panel's pivot rows and multipliers
# reach the trailing block through float64 products of inner length at most
# this, exact while 256 (p-1)^2 < 2^53, that is for p up to about 5.9e6.  No
# matrix of a certify round (at most 170 x 210) is split: panels of 64 or
# 128 columns made the round's 13 eliminations about 10% slower, as each
# pivot's fixed cost, not its update, dominates there (one core of a shared
# 2-vCPU Xeon)
_PANEL_COLS = 256
# rows of the trailing block updated by one float64 product
_UPDATE_ROWS = 512
# float64 represents every integer below 2^53 exactly
FLOAT_EXACT = 2**53
_INT64_MOST = 2**63 - 1


def gfp_eliminate(mat, p):
    """In-place row echelon form over the prime field GF(p), pivots scaled
    to one; returns the rank.  Only the rows below each pivot are reduced.
    Entries of the int64 ``mat`` are in [0, p).

    The columns are eliminated in panels of ``_PANEL_COLS`` (Dumas, Giorgi
    & Pernet, "FFLAS and FFPACK", ACM TOMS 35(3), 2008).  Within a panel
    each pivot subtracts f times the pivot row from every row below it, f
    being that row's entry in the pivot column, as one rank-one update of
    the panel's columns right of the pivot; f stays in the pivot column as
    the multiplier.  After the panel, :func:`_panel_update` forms the pivot
    rows' trailing part and subtracts the multipliers times it from the
    rows below, as float64 products of inner length at most 256: exact
    while 256 (p-1)^2 < 2^53.  For larger p the whole matrix is one panel,
    the plain pivot loop.  The last panel clears its pivot columns as it
    goes, as does a matrix of at most 256 columns.

    Reduction mod p is deferred.  The pivot column is reduced before the
    pivot search and the pivot row after scaling.  One rank-one update
    changes an entry by at most (p-1)^2, and the bound on the panel's
    entries grows by that much per pivot: the panel is reduced before an
    update that could take an entry past 2^63 - 1, and the pivot row before
    scaling when its entries times p - 1 could.  At GF(32749) neither
    happens; at 2^31 - 1 both happen at every pivot after the first.  The
    trailing block is reduced only when the next panel's product, at most
    256 (p-1)^2 an entry, could take an entry past 2^63 - 1: after about a
    thousand panels at the largest p.  The arithmetic is exact and ``%``
    returns values in [0, p), so rank and echelon form are those of
    reducing at every step, bit for bit.
    """
    m, n = mat.shape
    width = _PANEL_COLS if _PANEL_COLS * (p - 1) ** 2 < FLOAT_EXACT else max(n, 1)
    # the most an entry may reach before an update, and before scaling
    most, row_most = _INT64_MOST - (p - 1) ** 2, _INT64_MOST // (p - 1)
    bound = p  # bounds the magnitude of the trailing block's entries
    rank = 0
    for start in range(0, n, width):
        stop = min(start + width, n)
        # the last panel needs no multipliers
        lead = 1 if stop < n else 0
        grown = bound  # bounds the magnitude of the panel's entries
        top = rank
        pivots = []  # (column, inverse of the pivot)
        for col in range(start, stop):
            column = mat[rank:, col]
            column %= p
            if not column[0]:
                nz = column.nonzero()[0]
                if nz.size == 0:
                    continue
                pivot = rank + nz[0]
                mat[[rank, pivot]] = mat[[pivot, rank]]
            # rows at or below rank are zero (mod p) left of col, but for
            # the multipliers of this panel's pivots
            row = mat[rank, col:stop]
            if grown > row_most:
                row %= p
            inv = pow(int(row[0]), -1, p)
            row *= inv
            row %= p
            pivots.append((col, inv))
            rank += 1
            if rank == m:
                break
            if grown > most:
                mat[rank:, col + 1 : stop] %= p
                grown = p
            below = mat[rank:, col:stop]
            # row[0] is 1: without lead the pivot column becomes 0
            below[:, lead:] -= below[:, :1] * row[lead:]
            grown += (p - 1) ** 2
        if lead and pivots:
            bound = _panel_update(mat, top, rank, pivots, stop, p, bound)
            cols = [col for col, _ in pivots]
            # the multipliers, below each pivot, become the loop's zeros
            mat[top:, cols] = np.triu(mat[top:, cols])
        if rank == m:
            break
    mat %= p
    return rank


def _panel_update(mat, top, rank, pivots, stop, p, bound):
    """The columns right of a panel after its k pivots, the pivot rows in
    ``mat[top:rank]``; returns the new bound on the trailing block's
    entries.

    The loop would have made pivot row j's trailing part U_j = inv_j (T_j -
    sum_{i<j} L[j,i] U_i), with T the pivot rows' trailing part at the
    panel's start and L[j,i] the multiplier of row j at pivot i; so U = X T
    for the lower triangular X that this recursion makes of the identity.
    Each row below loses sum_i M[., i] U_i, M its multipliers.  Every factor
    is in [0, p) and the inner length is k <= 256, so both products are
    exact float64 matmuls; the rows below subtract theirs in int64."""
    cols = [col for col, _ in pivots]
    k = len(cols)
    lower = mat[top:rank, cols]
    x = np.eye(k, dtype=np.int64)
    for i, (_, inv) in enumerate(pivots):
        # row i has taken i updates of at most (p-1)^2 each
        xi = x[i, : i + 1]
        xi %= p
        xi *= inv
        xi %= p
        x[i + 1 :, : i + 1] -= lower[i + 1 :, i : i + 1] * xi
    trail = mat[top:rank, stop:]
    trail %= p
    u = (x.astype(np.float64) @ trail.astype(np.float64)).astype(np.int64)
    u %= p
    trail[...] = u
    u = u.astype(np.float64)
    step = k * (p - 1) ** 2
    if bound + step > _INT64_MOST:
        mat[rank:, stop:] %= p
        bound = p
    mult = mat[rank:, cols].astype(np.float64)
    for first in range(0, mult.shape[0], _UPDATE_ROWS):
        block = mat[rank + first : rank + first + _UPDATE_ROWS, stop:]
        block -= (mult[first : first + _UPDATE_ROWS] @ u).astype(np.int64)
    return bound + step
