import numpy as np

from degnn import _kernels
from degnn._kernels import _schedule, jacobi_sweep
from degnn.decompose import spectral_splits
from degnn.propagate import decay_curve, gcn_stack
from degnn.spectral import svd, svd_each
from degnn.verify import SUITES
from oracles import singular_values_cyclic_jacobi


def test_python_sweep_rotates_toward_orthogonal_columns():
    rng = np.random.default_rng(0)
    mats = rng.normal(size=(3, 6, 4))
    mats[1] = 0.0  # every pair skipped
    # the working state of each matrix, transposed, and identity V's
    bt = np.ascontiguousarray(mats.transpose(0, 2, 1))
    vt = np.repeat(np.eye(4)[None], 3, axis=0)
    before = np.abs(np.triu(bt @ bt.transpose(0, 2, 1), k=1)).sum(axis=(1, 2))
    for _ in range(30):
        counts = jacobi_sweep(bt, vt, 1e-13)
        assert counts.shape == (3,) and counts[1] == 0
        if not counts.any():
            break
    after = np.abs(np.triu(bt @ bt.transpose(0, 2, 1), k=1)).sum(axis=(1, 2))
    assert np.all(after[[0, 2]] < 1e-10 * before[[0, 2]])
    assert after[1] == 0.0
    # rotations preserve the product: B = M V
    for b, m in enumerate(mats):
        assert np.max(np.abs(bt[b].T - m @ vt[b].T)) < 1e-12


def test_round_robin_schedule_covers_every_pair_once():
    for n in range(1, 10):
        seen = []
        for pairs in _schedule(n):
            assert pairs.shape[1] == 2 and np.all(pairs[:, 0] < pairs[:, 1])
            assert len(set(pairs.ravel().tolist())) == pairs.size  # disjoint
            seen += [tuple(p) for p in pairs.tolist()]
        want = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert sorted(seen) == want


def test_round_robin_sigma_matches_cyclic_reference():
    rng = np.random.default_rng(8)
    deficient = rng.normal(size=(7, 5))
    deficient[:, -1] = deficient[:, 0] + deficient[:, 1]
    graded = rng.normal(size=(9, 6)) * np.logspace(-12, 0, 6)
    mats = [
        np.zeros((4, 3)),
        deficient,
        graded,
        rng.normal(size=(4, 11)),  # wide
        rng.normal(size=(24, 24)),
        rng.normal(size=(80, 80)),
    ]
    for m in mats:
        got = svd(m, compute_uv=False)
        want = singular_values_cyclic_jacobi(m)
        assert np.all(np.abs(got - want) <= 1e-13 * want[0])


def test_svd_looks_up_its_sweeps_at_call_time(monkeypatch):
    # a wrapper set on degnn._kernels after import must see every sweep
    calls = []
    inner = _kernels.jacobi_sweep

    def counting(bt, vt, delta):
        calls.append((bt.shape[0], vt.shape[-1]))
        return inner(bt, vt, delta)

    monkeypatch.setattr(_kernels, "jacobi_sweep", counting)
    rng = np.random.default_rng(5)
    svd(rng.normal(size=(5, 4)))
    assert calls and set(calls) == {(1, 4)}
    calls.clear()
    # singular values only: the sweeps get an empty V and still count
    stack = rng.normal(size=(3, 5, 4))
    svd_each(stack, compute_uv=False)
    assert calls and calls[0] == (3, 0)
    assert {width for _, width in calls} == {0}
    # the stack sweeps until its slowest matrix converges
    sweeps = len(calls)
    alone = []
    for m in stack:
        calls.clear()
        svd(m, compute_uv=False)
        assert set(calls) == {(1, 0)}
        alone.append(len(calls))
    assert sweeps == max(alone)


def test_batched_callers_look_up_the_sweep_at_call_time(monkeypatch):
    # the wrapper is set after every caller was imported
    calls = []
    inner = _kernels.jacobi_sweep

    def counting(bt, vt, delta):
        calls.append(bt.shape[0])
        return inner(bt, vt, delta)

    monkeypatch.setattr(_kernels, "jacobi_sweep", counting)
    rng = np.random.default_rng(9)
    stack = gcn_stack(rng.normal(size=(5, 5)),
                      [rng.normal(size=(2, 2)) for _ in range(3)])
    decay_curve(stack, [1, 3], n_samples=3)
    assert calls
    swept = set()
    for name, check in SUITES.items():
        calls.clear()
        check(trials=6, seed=0)
        if calls:
            swept.add(name)
    # lemma1 compares a forward pass with a product and takes no SVD
    assert swept == {"lemma3", "kron", "regimes"}
    calls.clear()
    spectral_splits([rng.normal(size=(4, 4))], [2])
    assert calls
