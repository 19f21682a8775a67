"""The one-sided Jacobi sweep, in numpy.

A sweep is one cyclic pass over all column pairs, rotating whenever the pair
is not yet orthogonal relative to its own scale. The driver in
degnn.spectral owns convergence.

jacobi_sweep handles one matrix. jacobi_sweep_stack runs the same sweep on a
stack of equally shaped matrices at once, vectorized over the stack axis, for
singular values only: one numpy call per pair serves every matrix, where the
per-matrix kernel pays one Python-level step per pair and matrix.
"""

import math

import numpy as np


def jacobi_sweep(bt, vt, delta):
    """One cyclic one-sided Jacobi sweep, in place.

    bt holds the working matrix transposed (row k is column k of B), vt holds
    the accumulated rotations transposed (row k is column k of V), so every
    rotation touches two contiguous rows. Returns the rotation count. A vt
    with zero columns accumulates nothing (singular values only).

    A pair (i, j) is skipped when |b_i . b_j| <= delta * ||b_i|| * ||b_j||,
    a relative test, so near-zero columns still get orthogonalized against
    each other at their own scale. A zero-rotation sweep therefore certifies
    every pair orthogonal to within delta.
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


def _rowdot(a, b):
    """Row-wise dot products of two (count, m) arrays.

    matmul runs each (1, m) @ (m, 1) product through the same dot kernel as
    jacobi_sweep's 1-D `bi @ bj`, so the results match it bit for bit and
    both kernels make the same skip decisions on the same rows.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def jacobi_sweep_stack(bt, delta):
    """jacobi_sweep on every matrix of a stack at once, without V, in place.

    bt is (count, n, m): bt[b] is the working state of matrix b, laid out as
    jacobi_sweep's bt. Pair order, skip test and rotation formulas are
    jacobi_sweep's, evaluated elementwise over the stack; a matrix that
    skips a pair gets the identity rotation there (c = 1, s = 0), which
    leaves both of its rows unchanged. Returns the per-matrix rotation
    counts as an int array of length count.
    """
    count, n, _ = bt.shape
    rotations = np.zeros(count, dtype=np.int64)
    # zeta is inf or nan for a matrix with gamma == 0; the mask discards it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            bi = bt[:, i]
            alpha = _rowdot(bi, bi)
            # a column j > i keeps its norm until pair (i, j) rotates it
            betas = _rowdot(bt[:, i + 1:], bt[:, i + 1:])
            for j in range(i + 1, n):
                bj = bt[:, j]
                gamma = _rowdot(bi, bj)
                beta = betas[:, j - i - 1]
                # false for gamma == 0 too, jacobi_sweep's first skip
                rotate = np.abs(gamma) > delta * np.sqrt(alpha * beta)
                moved = np.count_nonzero(rotate)
                if moved == 0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                sign = np.where(zeta >= 0.0, 1.0, -1.0)
                t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                if moved < count:
                    c = np.where(rotate, c, 1.0)
                    s = np.where(rotate, s, 0.0)
                c = c[:, None]
                s = s[:, None]
                new_bi = c * bi - s * bj
                new_bj = s * bi + c * bj
                bi[...] = new_bi
                bj[...] = new_bj
                rotations += rotate
                alpha = _rowdot(bi, bi)
    return rotations
