"""Independent oracles used to cross-check the library's numerics.

Everything here is deliberately dumb and self-contained: no numpy.linalg
factorizations, nothing imported from degnn's certified code paths. The
point is that a bug in the library cannot hide behind the same bug here.
"""

from __future__ import annotations

import math

import numpy as np


def det_gauss(m):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.float64, copy=True)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        a[col + 1:] -= np.outer(a[col + 1:, col] / a[col, col], a[col])
    return float(det)


def singular_values_charpoly(m, grid=8192):
    """Singular values of m as bisected roots of det(m^T m - lam I).

    Scans a uniform grid over [0, trace + margin] for sign changes of the
    characteristic polynomial of the Gram matrix, then bisects each bracket
    to ~1e-14 relative width. Intended for small matrices (n <= 8) whose
    squared singular values are separated wider than the grid step; callers
    choose seeds/sizes so that holds. Returns a descending array of length
    min(rows, cols).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    g = a.T @ a
    n = g.shape[0]
    hi = float(np.trace(g)) * (1.0 + 1e-9) + 1e-30

    def p(lam):
        return det_gauss(g - lam * np.eye(n))

    xs = np.linspace(-1e-12 * hi - 1e-300, hi, grid)
    vals = np.array([p(x) for x in xs])
    roots = []
    for k in range(len(xs) - 1):
        lo_v, hi_v = vals[k], vals[k + 1]
        if lo_v == 0.0:
            roots.append(xs[k])
            continue
        if lo_v * hi_v < 0.0:
            lo_x, hi_x = xs[k], xs[k + 1]
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                mv = p(mid)
                if mv == 0.0:
                    lo_x = hi_x = mid
                    break
                if mv * lo_v < 0.0:
                    hi_x = mid
                else:
                    lo_x = mid
                    lo_v = mv
            roots.append(0.5 * (lo_x + hi_x))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    # multiplicities the grid cannot see must be padded; pad with zeros,
    # which is correct for the rank-deficient cases used in the tests
    while len(roots) < n:
        roots.append(0.0)
    roots = np.sqrt(np.clip(np.array(sorted(roots, reverse=True)[:n]), 0.0, None))
    return roots


def jacobi_sweep_cyclic(bt, vt, delta):
    """One cyclic one-sided Jacobi sweep over a single matrix, in place.

    The reference for degnn._kernels.jacobi_sweep: the same skip test and
    rotation formulas, one pair at a time in row-cyclic order. bt holds the
    working matrix transposed (row k is column k of B), vt the accumulated
    rotations transposed; a vt with zero columns accumulates nothing.
    Returns the rotation count.
    """
    n = bt.shape[0]
    rotations = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            bi = bt[i]
            bj = bt[j]
            gamma = float(bi @ bj)
            if gamma == 0.0:
                continue
            alpha = float(bi @ bi)
            beta = float(bj @ bj)
            if abs(gamma) <= delta * math.sqrt(alpha * beta):
                continue
            zeta = (beta - alpha) / (2.0 * gamma)
            sign = 1.0 if zeta >= 0.0 else -1.0
            t = sign / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = c * t
            # evaluate both updates from the old rows before writing either
            new_bi = c * bi - s * bj
            new_bj = s * bi + c * bj
            bt[i] = new_bi
            bt[j] = new_bj
            vi = vt[i]
            vj = vt[j]
            new_vi = c * vi - s * vj
            new_vj = s * vi + c * vj
            vt[i] = new_vi
            vt[j] = new_vj
            rotations += 1
    return rotations


def singular_values_cyclic_jacobi(m, delta=1e-13, max_sweeps=60):
    """Descending singular values of m from cyclic Jacobi sweeps.

    Sweeps until one rotates no pair, which certifies every column pair
    orthogonal to within delta, and returns the sorted column norms.
    """
    a = np.asarray(m, dtype=np.float64)
    bt = np.array(a if a.shape[0] < a.shape[1] else a.T, order="C")
    vt = np.empty((bt.shape[0], 0))
    for _ in range(max_sweeps):
        if jacobi_sweep_cyclic(bt, vt, delta) == 0:
            return np.sort(np.sqrt((bt * bt).sum(axis=1)))[::-1]
    raise AssertionError(f"no convergence in {max_sweeps} cyclic sweeps")


def brute_cut(edges, labels):
    """Total weight of edges whose endpoints carry different labels."""
    return sum(w for (i, j, w) in edges if labels[i] != labels[j])


def random_balanced_partition(n, p, seed):
    """Baseline part labels: a seeded shuffle dealt round-robin.

    Part sizes differ by at most one; the labels carry no structure of any
    graph, so a partitioner's cut should never be worse.
    """
    order = np.random.default_rng(seed).permutation(n)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = np.arange(n) % p
    return labels


def best_balanced_bipartition_cut(n, edges):
    """Exhaustive minimum cut over perfectly balanced bipartitions.

    n must be even and small (used for n <= 12). Edges are (i, j, w).
    """
    from itertools import combinations

    assert n % 2 == 0
    best = float("inf")
    nodes = list(range(n))
    for half in combinations(nodes[1:], n // 2 - 1):
        side = {0, *half}
        labels = [0 if v in side else 1 for v in nodes]
        best = min(best, brute_cut(edges, labels))
    return best


def prelu(z, slope):
    return np.where(z >= 0.0, z, slope * z)


def forward_reference(a_pieces, layer_weights, x0, slope):
    """Plain-matrix reference of the propagation rule, all layers activated.

    a_pieces: list of n x n arrays. layer_weights: per layer, a list of one
    weight per piece. Returns the list of per-layer outputs.
    """
    outs = []
    y = np.asarray(x0, dtype=np.float64)
    for wk in layer_weights:
        z = None
        for a_k, w_k in zip(a_pieces, wk):
            term = a_k @ y @ w_k
            z = term if z is None else z + term
        y = prelu(z, slope)
        outs.append(y)
    return outs
