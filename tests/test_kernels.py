import numpy as np

from degnn import _kernels
from degnn._kernels import jacobi_sweep, jacobi_sweep_stack
from degnn.spectral import svd


def _prep(m):
    """Working state for one sweep: transposed copies of the matrix and identity."""
    bt = np.array(m.T, dtype=np.float64, order="C")
    vt = np.eye(m.shape[1], order="C")
    return bt, vt


def test_python_sweep_rotates_toward_orthogonal_columns():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 4))
    bt, vt = _prep(m)
    before = np.abs(np.triu(bt @ bt.T, k=1)).sum()
    for _ in range(30):
        if jacobi_sweep(bt, vt, 1e-13) == 0:
            break
    after = np.abs(np.triu(bt @ bt.T, k=1)).sum()
    assert after < 1e-10 * before
    # rotations preserve the product: B = M V
    assert np.max(np.abs(bt.T - m @ vt.T)) < 1e-12


def test_stack_sweep_matches_per_matrix_sweep():
    # the stacked sweep against the 2-D sweep, matrix by matrix
    rng = np.random.default_rng(8)
    for rows, cols in ((7, 5), (6, 6), (12, 3)):
        mats = rng.normal(size=(5, rows, cols))
        mats[1] = 0.0  # every pair skipped
        mats[2] = np.eye(rows, cols)  # already orthogonal
        mats[3][:, -1] = mats[3][:, 0]  # rank-deficient
        stacked = np.ascontiguousarray(mats.transpose(0, 2, 1))
        single = [_prep(m) for m in mats]
        for _ in range(4):
            counts = jacobi_sweep_stack(stacked, 1e-13)
            assert counts.tolist() == [
                jacobi_sweep(bt, vt, 1e-13) for bt, vt in single
            ]
        for b, (bt, _) in enumerate(single):
            assert np.max(np.abs(stacked[b] - bt)) < 1e-13


def test_svd_looks_up_its_sweeps_at_call_time(monkeypatch):
    # a wrapper set on degnn._kernels after import must see every sweep
    calls = {"jacobi_sweep": 0, "jacobi_sweep_stack": 0}

    def counting(name):
        inner = getattr(_kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name, counting(name))
    rng = np.random.default_rng(5)
    svd(rng.normal(size=(5, 4)))
    assert calls["jacobi_sweep"] > 0
    assert calls["jacobi_sweep_stack"] == 0
    calls["jacobi_sweep"] = 0
    svd(rng.normal(size=(3, 5, 4)), compute_uv=False)
    assert calls["jacobi_sweep_stack"] > 0
    assert calls["jacobi_sweep"] == 0
