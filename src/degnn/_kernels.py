"""The one-sided Jacobi sweep that degnn.spectral drives, in numpy.

A sweep visits every column pair once, rotating whenever the pair is not
yet orthogonal relative to its own scale. Pairs come in a round-robin order
(Brent & Luk 1985): each round is a set of disjoint pairs, so one numpy call
rotates all of them, in every matrix of a stack at once; a single matrix is
a stack of one. degnn.spectral owns convergence and looks jacobi_sweep up
here at call time.
"""

from functools import lru_cache

import numpy as np

# c*b_i - s*b_j and c*b_j + s*b_i: the signs of s in rows i and j
_SIGNS = np.array([-1.0, 1.0])


@lru_cache(maxsize=None)
def _schedule(n):
    """Round-robin pairs of n columns: one (pairs, 2) index array per round.

    Each row is a pair (i, j) with i < j, the pairs of a round are
    disjoint, and over all rounds every pair appears exactly once. Odd n
    gets a dummy column: the column paired with it sits out that round.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = sorted(
            (min(p, q), max(p, q))
            for p, q in zip(players[:half], players[::-1][:half])
            if max(p, q) < n
        )
        rounds.append(np.array(pairs, dtype=np.intp).reshape(-1, 2))
        # the circle method: the first column stays, the others rotate
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


def jacobi_sweep(bt, vt, delta):
    """One round-robin one-sided Jacobi sweep over a stack, in place.

    bt is (count, n, m): bt[b] holds the working matrix b transposed (row k
    is column k of B), so every rotation touches contiguous rows. vt is
    (count, n, n) and accumulates the rotations transposed (row k is column
    k of V); a vt of shape (count, n, 0) accumulates nothing (singular
    values only), and the sweep then gathers, rotates and scatters bt
    alone. Returns the per-matrix rotation counts as an int array of length
    count.

    A pair (i, j) is skipped when |b_i . b_j| <= delta * ||b_i|| * ||b_j||,
    a relative test, so near-zero columns still get orthogonalized against
    each other at their own scale. A zero-rotation sweep therefore
    certifies every pair orthogonal to within delta. A matrix that skips a
    pair gets the identity rotation there (c = 1, s = 0), which leaves both
    of its rows unchanged.
    """
    rotations = np.zeros(bt.shape[0], dtype=np.int64)
    # every round pairs n // 2 disjoint rows; a stack's paired rows and
    # their sign-weighted swap go to two buffers allocated once per sweep
    half = bt.shape[1] // 2
    rows, swapped = _round_buffers(bt, half)
    targets = [(bt, rows, swapped)]
    if vt.shape[-1] > 0:
        targets.append((vt, *_round_buffers(vt, half)))
    # zeta is inf or nan where gamma == 0; the mask discards it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pairs in _schedule(bt.shape[1]):
            # (count, pairs, 2, m): rows i and j of every pair, and their
            # 2 x 2 Gram blocks
            _gather(bt, pairs, rows)
            gram = rows @ rows.swapaxes(-1, -2)
            alpha = gram[..., 0, 0]
            beta = gram[..., 1, 1]
            gamma = gram[..., 0, 1]
            # false for gamma == 0 too
            rotate = np.abs(gamma) > delta * np.sqrt(alpha * beta)
            if not rotate.any():
                continue
            zeta = (beta - alpha) / (2.0 * gamma)
            sign = np.where(zeta >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            if not rotate.all():
                c = np.where(rotate, c, 1.0)
                s = np.where(rotate, s, 0.0)
            c = c[..., None, None]
            s = (s[..., None] * _SIGNS)[..., None]
            for x, xr, xs in targets:
                if x is not bt:
                    _gather(x, pairs, xr)
                np.multiply(s, xr[:, :, ::-1], out=xs)
                xr *= c
                xr += xs
                x[:, pairs] = xr
            rotations += rotate.sum(axis=1)
    return rotations


def _round_buffers(x, half):
    """Two empty (count, half, 2, width) arrays for one stack's paired rows."""
    shape = (x.shape[0], half, 2, x.shape[2])
    return np.empty(shape, dtype=x.dtype), np.empty(shape, dtype=x.dtype)


def _gather(x, pairs, out):
    """out[:, p, k] = x[:, pairs[p, k]], without a temporary.

    np.take's default mode="raise" gathers into a temporary and copies it
    to out; every index here is in range, so "clip" gives the same values
    written straight into out.
    """
    np.take(x, pairs, axis=1, out=out, mode="clip")
