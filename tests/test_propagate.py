from fractions import Fraction

import numpy as np
import pytest

from degnn import _kernels, propagate, spectral
from degnn.errors import DomainError
from degnn.graphs import Graph, normalized_adjacency
from degnn.linalg import kron, vec
from degnn.propagate import (
    DECAY_COLUMNS,
    LayerStack,
    decay_curve,
    forward,
    gcn_regime,
    gcn_stack,
    graphcnn_regime,
    linearized_map,
    prelu,
    quantized_entropy,
    random_unit_features,
    weights_with_top_singular,
    write_decay_csv,
)
from degnn.propagate import _batches
from degnn.spectral import svd
from oracles import (
    decay_curve_per_depth,
    endtoend_extremes,
    forward_reference,
)


def _random_gcn_stack(rng, n=None, d=None, depth=None, slope=0.2):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(1, 4))
    depth = depth or int(rng.integers(1, 6))
    a = rng.normal(size=(n, n))
    weights = [rng.normal(size=(d, d)) for _ in range(depth)]
    return gcn_stack(a, weights, slope=slope)


def _random_graphcnn_stack(rng, slope=0.2):
    n = int(rng.integers(2, 7))
    d = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 6))
    k = int(rng.integers(1, 4))
    pieces = [rng.normal(size=(n, n)) for _ in range(k)]
    layer_weights = [
        [rng.normal(size=(d, d)) for _ in range(k)] for _ in range(depth)
    ]
    return LayerStack(pieces, layer_weights, slope=slope)


def test_prelu_values():
    z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(prelu(z, 0.2), [-0.4, -0.1, 0.0, 0.5, 2.0])


def test_forward_identity_stack_keeps_nonnegative_input():
    x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
    stack = gcn_stack(np.eye(4), [np.eye(3)] * 3)
    for y in forward(stack, x):
        assert np.array_equal(y, x)


def test_forward_slope_one_is_linear():
    rng = np.random.default_rng(1)
    n, d, depth = 4, 2, 3
    a = rng.normal(size=(n, n))
    weights = [rng.normal(size=(d, d)) for _ in range(depth)]
    stack = gcn_stack(a, weights, slope=1.0)
    x = rng.normal(size=(n, d))
    y = forward(stack, x)[-1]
    linear = vec(x)
    for w in weights:
        linear = kron(w.T, a) @ linear
    assert np.max(np.abs(vec(y) - linear)) < 1e-10


def test_forward_matches_reference_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stack = _random_graphcnn_stack(rng)
        x = rng.normal(size=(stack.n, stack.in_dim))
        got = forward(stack, x)[-1]
        want = forward_reference(
            stack.pieces, stack.layer_weights, x, stack.slope
        )[-1]
        assert np.max(np.abs(got - want)) < 1e-10


def test_forward_shape_errors():
    stack = gcn_stack(np.eye(3), [np.eye(2)])
    with pytest.raises(DomainError):
        forward(stack, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        gcn_stack(np.eye(3), [])
    with pytest.raises(DomainError):
        gcn_stack(np.eye(3), [np.ones((2, 3)), np.ones((2, 2))])
    with pytest.raises(DomainError):
        gcn_stack(np.eye(3), [np.eye(2)], slope=0.0)


@pytest.mark.parametrize("pieces, layer_weights, slope, match", [
    ([np.eye(3)], [], 0.2, "at least one layer"),
    ([], [[]], 0.2, "at least one piece"),
    ([np.eye(3)], [[np.eye(2)]], 0.0, "slope"),
    ([np.eye(3)], [[np.eye(2)]], 1.5, "slope"),
    ([np.ones((3, 2))], [[np.eye(2)]], 0.2, "square"),
    ([np.eye(3), np.eye(4)], [[np.eye(2)] * 2], 0.2, "same size"),
    ([np.eye(3)] * 2, [[np.eye(2)]], 0.2, "1 weight matrices for 2 pieces"),
    ([np.eye(3)] * 2, [[np.eye(2), np.ones((2, 3))]], 0.2, "disagree"),
    ([np.eye(3)], [[np.ones((2, 3))], [np.eye(2)]], 0.2,
     "expects 2 input columns, previous layer emits 3"),
    ([np.full((3, 3), np.nan)], [[np.eye(2)]], 0.2, "piece contains"),
    ([np.eye(3)], [[np.ones((2, 2, 2))]], 0.2, "weight must be 2-D"),
    ([np.eye(3)], [[np.ones((0, 2))]], 0.2, "weight must have positive"),
])
def test_layer_stack_rejects_bad_stacks(pieces, layer_weights, slope, match):
    with pytest.raises(DomainError, match=match):
        LayerStack(pieces, layer_weights, slope)


def test_layer_stack_stores_validated_tuples():
    stack = LayerStack([[[1, 0], [0, 1]]], [[[[2, 0], [0, 2]]]] * 3)
    assert stack.slope == 0.2
    assert isinstance(stack.pieces, tuple) and len(stack.pieces) == 1
    assert stack.pieces[0].dtype == np.float64
    assert isinstance(stack.layer_weights, tuple)
    assert all(isinstance(layer, tuple) for layer in stack.layer_weights)
    assert (stack.n, stack.in_dim, stack.depth) == (2, 2, 3)
    assert stack.prefix(2).layer_weights == stack.layer_weights[:2]


def test_layer_stack_regime_follows_the_piece_count():
    """One piece gets gcn_regime's report, several graphcnn_regime's."""
    rng = np.random.default_rng(41)
    for trial in range(12):
        n, d, depth = 4, 2, 3
        k = 1 + trial % 3
        slope = float(rng.uniform(0.1, 0.9))
        pieces = [rng.normal(size=(n, n)) / (1 + trial % 4)
                  for _ in range(k)]
        layers = [[rng.normal(size=(d, d)) for _ in range(k)]
                  for _ in range(depth)]
        stack = LayerStack(pieces, layers, slope)
        want = (gcn_regime if k == 1 else graphcnn_regime)(stack)
        assert stack.regime() == want


def test_linearized_matches_forward_gcn_and_graphcnn():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            stack = _random_gcn_stack(rng)
        else:
            stack = _random_graphcnn_stack(rng)
        x = rng.normal(size=(stack.n, stack.in_dim))
        y = forward(stack, x)[-1]
        _, yv = linearized_map(stack, vec(x))
        worst = max(worst, float(np.max(np.abs(vec(y) - yv))))
    assert worst < 1e-9


def test_linearized_product_acts_on_fresh_inputs_with_same_masks():
    rng = np.random.default_rng(4)
    stack = _random_gcn_stack(rng, n=4, d=2, depth=3)
    x = rng.normal(size=8)
    product, yv = linearized_map(stack, x)
    assert product.shape == (8, 8)
    assert np.max(np.abs(product @ x - yv)) == 0.0


def test_all_nonnegative_trajectory_gives_identity_masks():
    x = np.abs(np.random.default_rng(6).normal(size=(4, 2)))
    stack = gcn_stack(np.eye(4), [np.eye(2)] * 2)
    product, _ = linearized_map(stack, vec(x))
    assert np.array_equal(product, np.eye(8))


def test_endtoend_extremes_identity_stack():
    stack = gcn_stack(np.eye(3), [np.eye(2)] * 4)
    hi, lo = endtoend_extremes(stack, np.ones(6))
    assert abs(hi - 1.0) < 1e-12 and abs(lo - 1.0) < 1e-12


def test_quantized_entropy_counts():
    vs = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert quantized_entropy(vs, 0.5) == 2.0
    # all samples collapse inside one epsilon cell
    tiny = np.array([[1e-9, -1e-9], [5e-10, 0.0], [0.0, 9e-10]])
    assert quantized_entropy(tiny, 1e-6) == 0.0
    for epsilon in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            quantized_entropy(vs, epsilon)
    with pytest.raises(DomainError):
        quantized_entropy(np.zeros((0, 2)), 1.0)


def test_quantized_entropy_ceiling():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = rng.normal(size=(rng.integers(1, 20), 3))
        assert quantized_entropy(s, 1e-6) <= np.log2(len(s)) + 1e-12


def test_quantize_then_map_never_gains_entropy():
    # deterministic maps cannot split equal quantized inputs
    rng = np.random.default_rng(8)
    eps = 1e-3
    for _ in range(10):
        y = rng.normal(size=(12, 6))
        m = rng.normal(size=(6, 6)) * rng.uniform(0.1, 3.0)
        q = np.trunc(y / eps) * eps
        before = quantized_entropy(q, eps)
        after = quantized_entropy(q @ m.T, eps)
        assert after <= before + 1e-12


def test_entropy_distinct_under_separation():
    # separation above twice epsilon per coordinate cell guarantees
    # distinct quantized outputs (the zero cell spans two widths)
    eps = 0.1
    vs = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, -0.25], [0.25, -0.25]])
    assert quantized_entropy(vs, eps) == 2.0


def test_decay_curve_identity_stack():
    stack = gcn_stack(np.eye(3), [np.eye(2)])
    rows = decay_curve(stack, [1], n_samples=8, epsilon=1e-6, seed=0)
    assert len(rows) == 1
    assert rows[0]["entropy_bits"] == 3.0
    assert rows[0]["n_samples"] == 8


def test_decay_curve_bound_column_exact():
    rng = np.random.default_rng(9)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    a = normalized_adjacency(g)
    weights = [
        weights_with_top_singular((2, 2), 0.5, seed=100 + i) for i in range(6)
    ]
    stack = gcn_stack(a, weights)
    # bound is documented as the certificate factor raised to the depth, so
    # that holds exactly. The exact factor sigma(A) * max_i sigma(W_i) is not
    # 0.5, nor does it round to 0.5, as exact rationals show. Every nonzero
    # entry of the stored A is fl(1/sqrt(3))**2 = 1/3 + (5/3) * 2**-54, three
    # to a row, and A is symmetric; so ||A||_2 <= sqrt(||A||_1 ||A||_inf) and
    # A @ ones = rowsum * ones pin sigma(A) to the row sum 1 + 5 * 2**-54.
    # ||W v|| / ||v|| bounds sigma(W) from below for any v; at the top right
    # singular vector it reaches 0.5 + 7.4e-17 for one of the six weights.
    # The factor thus exceeds 0.5 + 2**-54, halfway to the next double, and
    # is about 0.5 + 2.1e-16. svd() lands within 2 ulps of 0.5 (it returns
    # 0.49999999999999994; a kernel with another summation order returned
    # 0.5), and 1e-15 is about 9 ulps.
    third = Fraction(1, 3) + Fraction(5, 3 * 2**54)
    assert np.array_equal(a, a.T)
    assert all(np.count_nonzero(a, axis=1) == 3)
    assert {Fraction(x) for x in a[a != 0.0].tolist()} == {third}
    sigma_a = 3 * third

    def rayleigh_sq(w, v):
        wv = [sum(Fraction(x) * Fraction(y) for x, y in zip(row, v)) for row in w]
        return sum(x * x for x in wv) / sum(Fraction(y) ** 2 for y in v)

    sigma_w_sq = max(
        rayleigh_sq(w.tolist(), svd(w).v[:, 0].tolist()) for w in weights
    )
    assert sigma_a**2 * sigma_w_sq > (Fraction(1, 2) + Fraction(1, 2**54)) ** 2
    per_layer = stack.regime().bound_per_layer
    assert abs(per_layer - 0.5) <= 1e-15
    rows = decay_curve(stack, [1, 2, 4, 6], n_samples=6, epsilon=1e-6, seed=1)
    for row in rows:
        assert row["bound"] == per_layer ** row["depth"]
        assert row["max_sv"] <= row["bound"] + 1e-12
    ent = [row["entropy_bits"] for row in rows]
    assert all(ent[i + 1] <= ent[i] + 1e-12 for i in range(len(ent) - 1))


def test_decay_curve_matches_per_sample_maps_across_widths():
    # feature widths 2 -> 3 -> 3 -> 1: decay_curve's product stack grows,
    # keeps its shape, then shrinks; every depth must report the
    # extremes of the per-sample end-to-end maps
    rng = np.random.default_rng(21)
    weights = [rng.normal(size=shape) for shape in ((2, 3), (3, 3), (3, 1))]
    stack = gcn_stack(rng.normal(size=(4, 4)), weights)
    inputs = random_unit_features(4, 2, 5, seed=3)
    rows = decay_curve(stack, [1, 2, 3], inputs=inputs)
    for row in rows:
        prefix = stack.prefix(row["depth"])
        sigmas = [svd(linearized_map(prefix, vec(x))[0]).sigma for x in inputs]
        top = max(s[0] for s in sigmas)
        assert abs(row["max_sv"] - top) <= 1e-13 * top
        assert abs(row["min_sv"] - min(s[-1] for s in sigmas)) <= 1e-13 * top


def test_decay_curve_matches_one_svd_per_depth():
    """Batched singular values give the rows of one svd() stack per depth."""
    rng = np.random.default_rng(23)
    widths = [(2, 3), (3, 3), (3, 1), (1, 4), (4, 4), (4, 2)]
    for variant in ("gcn", "graphcnn"):
        if variant == "gcn":
            stack = gcn_stack(rng.normal(size=(5, 5)),
                              [rng.normal(size=w) for w in widths])
        else:
            pieces = [rng.normal(size=(5, 5)) for _ in range(2)]
            stack = LayerStack(
                pieces, [[rng.normal(size=w) for _ in pieces] for w in widths])
        for depths in ([1, 2, 3, 4, 5, 6], [2, 3, 5], [6]):
            got = decay_curve(stack, depths, n_samples=4, seed=5)
            assert got == decay_curve_per_depth(stack, depths, n_samples=4,
                                                seed=5)


def test_batches_fill_runs_in_order_up_to_the_cap():
    assert _batches([], 10) == []
    assert _batches([3, 3, 3, 3], 10) == [[0, 1, 2], [3]]
    assert _batches([3, 3, 3, 3], 12) == [[0, 1, 2, 3]]
    # a size above the cap is taken alone, and starts a fresh run after it
    assert _batches([4, 20, 4, 4, 4], 10) == [[0], [1], [2, 3], [4]]
    assert _batches([20, 20], 10) == [[0], [1]]
    assert _batches([10, 1], 10) == [[0], [1]]


def test_decay_curve_preserve_stack_keeps_entropy():
    # slope 0.6 with doubled identity propagation: every layer expands
    stack = gcn_stack(2.0 * np.eye(3), [np.eye(2)] * 4, slope=0.6)
    rows = decay_curve(stack, [1, 2, 3, 4], n_samples=12, epsilon=1e-6, seed=2)
    for row in rows:
        assert row["entropy_bits"] == np.log2(12)
        assert row["min_sv"] >= 1.2 ** row["depth"] - 1e-9


def test_decay_curve_rejects_misshaped_inputs():
    # a transposed (d, n) input vectorizes to the right length, but it is
    # not a feature matrix of the stack; forward rejects it the same way
    rng = np.random.default_rng(22)
    n, d = 5, 3
    stack = gcn_stack(rng.normal(size=(n, n)), [rng.normal(size=(d, d))] * 2)
    good = rng.normal(size=(n, d))
    with pytest.raises(DomainError):
        forward(stack, good.T)
    with pytest.raises(DomainError):
        decay_curve(stack, [1, 2], inputs=[good, good.T])
    for short in (np.ones(n * d - 1), np.ones(n * d + 1)):
        with pytest.raises(DomainError):
            linearized_map(stack, short)
    assert len(decay_curve(stack, [1, 2], inputs=[good])) == 2


def test_decay_curve_checks_the_svd_cap_before_any_work(monkeypatch):
    work = {"layers": 0, "operators": 0, "sweeps": 0}

    def counted(key, fn):
        def wrapper(*args):
            work[key] += 1
            return fn(*args)
        return wrapper

    def layers(stack, inputs):
        for layer in inner_layers(stack, inputs):
            work["layers"] += 1
            yield layer

    inner_layers = propagate._realized_layers
    monkeypatch.setattr(propagate, "_realized_layers", layers)
    monkeypatch.setattr(LayerStack, "layer_operator", counted(
        "operators", LayerStack.layer_operator))
    monkeypatch.setattr(_kernels, "jacobi_sweep", counted(
        "sweeps", _kernels.jacobi_sweep))
    monkeypatch.setattr(spectral, "MAX_SVD_SIDE", 50)
    rng = np.random.default_rng(31)
    plain = gcn_stack(rng.normal(size=(40, 40)),
                      [rng.normal(size=(2, 2)) for _ in range(3)])
    with pytest.raises(DomainError, match=r"<= 50, got \(80, 80\)"):
        decay_curve(plain, [1, 2, 3], n_samples=2)
    # depth 1 is (30, 60) and fits; depth 2 is (60, 60) and does not
    pieces = [rng.normal(size=(30, 30)) for _ in range(2)]
    decomposed = LayerStack(pieces, [
        [rng.normal(size=(2, 1)) for _ in pieces],
        [rng.normal(size=(1, 2)) for _ in pieces],
    ])
    with pytest.raises(DomainError, match=r"got \(60, 60\)"):
        decay_curve(decomposed, [1, 2], n_samples=2)
    assert work == {"layers": 0, "operators": 0, "sweeps": 0}
    decay_curve(decomposed, [1], n_samples=2)
    assert work["layers"] == 1 and work["sweeps"] > 0


def test_decay_curve_validates_depths():
    stack = gcn_stack(np.eye(2), [np.eye(2)] * 3)
    for bad in ([], [2, 1], [0], [4], [2, 2]):
        with pytest.raises(DomainError):
            decay_curve(stack, bad)


def test_decay_csv_schema(tmp_path):
    stack = gcn_stack(np.eye(2), [np.eye(2)] * 2)
    rows = decay_curve(stack, [1, 2], n_samples=4, seed=3)
    path = tmp_path / "decay.csv"
    write_decay_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(DECAY_COLUMNS)
    assert len(lines) == 3


def test_random_unit_features_scale():
    feats = random_unit_features(4, 3, 5, seed=11)
    assert len(feats) == 5
    for x in feats:
        assert abs(np.max(np.abs(x)) - 1.0) < 1e-15


def test_weights_with_top_singular():
    from degnn.spectral import singular_extremes

    w = weights_with_top_singular((3, 3), 0.5, seed=12)
    hi, _ = singular_extremes(w)
    assert abs(hi - 0.5) < 1e-12


@pytest.mark.parametrize("sigma", [-0.5, np.inf, np.nan])
def test_weights_with_top_singular_rejects_impossible_sigma(sigma):
    with pytest.raises(DomainError):
        weights_with_top_singular((3, 3), sigma, seed=0)
