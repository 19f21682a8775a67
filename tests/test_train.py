"""Tests for the block-model generator and the manual-gradient trainer."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

import degnn.decompose
import degnn.train
from degnn.decompose import layer_decompositions, piece_matrices
from degnn.errors import DomainError, ParseError, TrainingError
from degnn.graphs import (
    connected_components,
    normalized_adjacency,
    piece_entries,
)
from degnn.propagate import write_csv
from degnn.train import (
    DECOMP_SOURCES,
    DEPTHSWEEP_COLUMNS,
    HISTORY_COLUMNS,
    KSWEEP_COLUMNS,
    ModelConfig,
    PieceOperator,
    SBMSpec,
    TrainResult,
    build_model,
    depth_cells,
    generate_sbm,
    k_cells,
    load_model_config,
    sweep,
    train,
    write_history_csv,
)
from oracles import finite_diff_gradcheck, sbm_edges_dense

_MIXED_SPEC = SBMSpec(n=90, b=3, p_in=0.25, p_out=0.02, d=5, noise=0.2)
_CLEAN_SPEC = SBMSpec(n=90, b=3, p_in=0.3, p_out=0.0, d=5, noise=0.0)
_MIXED = generate_sbm(_MIXED_SPEC, seed=3)
_CLEAN = generate_sbm(_CLEAN_SPEC, seed=3)


def _cfg(**overrides):
    base = dict(backbone="gcn", depth=2, hidden=8, k_schedule=(1, 1))
    base.update(overrides)
    return ModelConfig(**base)


def test_sbm_is_deterministic():
    """The same spec and seed reproduce the draw exactly."""
    again = generate_sbm(_MIXED_SPEC, seed=3)
    assert again.graph.edge_list() == _MIXED.graph.edge_list()
    assert np.array_equal(again.labels, _MIXED.labels)
    assert np.array_equal(again.features, _MIXED.features)
    for name in ("train", "val", "test"):
        assert np.array_equal(again.masks[name], _MIXED.masks[name])
    other = generate_sbm(_MIXED_SPEC, seed=4)
    assert other.graph.edge_list() != _MIXED.graph.edge_list()


def test_sbm_shapes_and_masks():
    """Labels cover every block and the split masks partition the nodes."""
    data = _MIXED
    assert data.features.shape == (90, 5)
    assert data.labels.shape == (90,)
    assert sorted(set(data.labels.tolist())) == [0, 1, 2]
    total = np.zeros(90, dtype=int)
    for name in ("train", "val", "test"):
        mask = data.masks[name]
        assert mask.dtype == bool and mask.any()
        total += mask.astype(int)
    assert np.array_equal(total, np.ones(90, dtype=int))
    # stratified split: every block appears in every bucket
    for name in ("train", "val", "test"):
        assert set(data.labels[data.masks[name]].tolist()) == {0, 1, 2}


def test_sbm_zero_crossing_prob_disconnects_blocks():
    """Without inter-block edges there are at least as many components as blocks."""
    comp = connected_components(_CLEAN.graph)
    assert comp.max() + 1 >= 3
    # no edge joins two different blocks
    for i, j, _ in _CLEAN.graph.edge_list():
        assert _CLEAN.labels[i] == _CLEAN.labels[j]


def test_sbm_matches_one_dense_draw():
    """generate_sbm gives the edges and features of one (n, n) draw."""
    rng = np.random.default_rng(3)
    spec = _MIXED_SPEC
    blocks = np.repeat(np.arange(spec.b), -(-spec.n // spec.b))[: spec.n]
    want_edges = sbm_edges_dense(blocks, spec, rng)
    want_feats = np.zeros((spec.n, spec.d))
    want_feats[np.arange(spec.n), blocks] = 1.0
    want_feats += spec.noise * rng.normal(size=(spec.n, spec.d))

    data = generate_sbm(spec, seed=3)
    assert [e[:2] for e in data.graph.edge_list()] == want_edges
    assert np.array_equal(data.features, want_feats)


@pytest.mark.parametrize("n", [1, 2, 7, 150, 997])
def test_sbm_edges_leave_the_generator_as_one_dense_draw(n):
    """_sbm_edges leaves the edges and generator state of one dense draw.

    The sampler skips the cells on and below the diagonal with PCG64's
    advance and relies on random() spending one 64-bit output per double;
    this fails if numpy ever changes either. A generator that holds a
    buffered 32-bit half from an earlier integer draw must keep it.
    """
    for b in (1, 2, 3):
        if n < b:
            continue
        spec = SBMSpec(n=n, b=b, p_in=0.3, p_out=0.05, d=b)
        blocks = np.repeat(np.arange(b), -(-n // b))[:n]
        for seed in (0, 7, 11):
            for buffered in (False, True):
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                if buffered:
                    got_rng.integers(1000)
                    want_rng.integers(1000)
                got = degnn.train._sbm_edges(blocks, spec, got_rng)
                assert got == sbm_edges_dense(blocks, spec, want_rng)
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)


def test_sbm_degenerate_draw_warns_then_fails():
    """Single-node blocks can never host an internal edge."""
    spec = SBMSpec(n=4, b=4, p_in=0.5, p_out=0.0, d=4)
    with pytest.warns(UserWarning, match="degenerate"):
        with pytest.raises(DomainError, match="retry budget"):
            generate_sbm(spec, seed=0)


def test_sbm_spec_validation():
    with pytest.raises(DomainError):
        SBMSpec(n=10, b=2, p_in=0.1, p_out=0.3, d=4)
    with pytest.raises(DomainError):
        SBMSpec(n=10, b=4, p_in=0.5, p_out=0.1, d=2)
    with pytest.raises(DomainError):
        SBMSpec(n=10, b=2, p_in=0.5, p_out=0.1, d=4, noise=float("inf"))
    with pytest.raises(DomainError):
        SBMSpec(n=1, b=2, p_in=0.5, p_out=0.1, d=4)


def test_model_config_validation():
    with pytest.raises(DomainError):
        _cfg(backbone="transformer")
    with pytest.raises(DomainError):
        _cfg(depth=1, k_schedule=(1,))
    with pytest.raises(DomainError):
        _cfg(k_schedule=(1, 1, 1))
    with pytest.raises(DomainError):
        _cfg(k_schedule=(1, 0))
    with pytest.raises(DomainError):
        _cfg(hidden=0)
    with pytest.raises(DomainError):
        _cfg(hidden=-3)
    with pytest.raises(DomainError):
        _cfg(slope=1.0)
    with pytest.raises(DomainError):
        _cfg(lr=0.0)
    with pytest.raises(DomainError):
        _cfg(lr=float("inf"))
    with pytest.raises(DomainError):
        _cfg(weight_decay=float("nan"))
    cfg = _cfg(k_schedule=[2.0, 3.0])
    assert cfg.k_schedule == (2, 3)


def test_load_model_config_round_trip(tmp_path):
    """Comments and blanks are skipped; every key lands typed."""
    path = tmp_path / "model.cfg"
    path.write_text(
        "# comment line\n"
        "backbone = resgcn\n"
        "depth = 3  # trailing note\n"
        "\n"
        "hidden = 16\n"
        "k_schedule = 2,2,2\n"
        "slope = 0.1\n"
        "lr = 0.01\n"
    )
    cfg = load_model_config(path)
    assert cfg.backbone == "resgcn"
    assert cfg.depth == 3
    assert cfg.hidden == 16
    assert cfg.k_schedule == (2, 2, 2)
    assert cfg.slope == 0.1
    assert cfg.lr == 0.01
    assert cfg.max_epochs == 200


def test_load_model_config_takes_every_field(tmp_path):
    """Each ModelConfig field is a key, read with its own type."""
    values = {"backbone": "jknet", "depth": 3, "hidden": 5,
              "k_schedule": (2, 1, 3), "slope": 0.3, "lr": 0.02,
              "weight_decay": 0.001, "max_epochs": 7, "patience": 4}
    assert set(values) == {f.name for f in dataclasses.fields(ModelConfig)}
    path = tmp_path / "model.cfg"
    path.write_text("".join(
        f"{key} = {','.join(map(str, v)) if key == 'k_schedule' else v}\n"
        for key, v in values.items()))
    cfg = load_model_config(path)
    assert dataclasses.asdict(cfg) == values
    assert all(type(getattr(cfg, key)) is type(v)
               for key, v in values.items())


def test_load_model_config_defaults_to_unit_schedule(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("backbone = gcn\ndepth = 4\nhidden = 8\n")
    assert load_model_config(path).k_schedule == (1, 1, 1, 1)


def test_load_model_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("backbone = gcn\nwidth = 8\n")
    with pytest.raises(ParseError) as exc:
        load_model_config(path)
    assert ":2" in str(exc.value)
    path.write_text("backbone = gcn\ndepth = three\n")
    with pytest.raises(ParseError):
        load_model_config(path)
    path.write_text("backbone = gcn\ndepth = 2\n")
    with pytest.raises(ParseError, match="hidden"):
        load_model_config(path)
    path.write_text("backbone gcn\n")
    with pytest.raises(ParseError, match="key=value"):
        load_model_config(path)
    # semantic rejections carry the file name too
    path.write_text("backbone = res\ndepth = 2\nhidden = 8\n")
    with pytest.raises(ParseError, match="bad.cfg"):
        load_model_config(path)


def test_depth_two_backbones_coincide():
    """At depth 2 every backbone reduces to the plain graph network."""
    results = {}
    for backbone in ("gcn", "resgcn", "densegcn", "jknet"):
        cfg = _cfg(backbone=backbone)
        results[backbone] = train(cfg, _MIXED, source="none", seed=0)
    ref = results["gcn"]
    for backbone, res in results.items():
        assert res.train_loss == ref.train_loss
        assert res.test_acc == ref.test_acc


def test_single_piece_decomposition_matches_vanilla():
    """A one-piece split feeds the very same matrix, so runs match bitwise."""
    cfg = _cfg()
    vanilla = train(cfg, _MIXED, source="none", seed=0)
    for source in ("connectivity_aware", "random"):
        split = train(cfg, _MIXED, source=source, seed=0, p=4)
        assert split.train_loss == vanilla.train_loss
        assert split.val_acc == vanilla.val_acc
        assert split.test_acc == vanilla.test_acc


def test_vanilla_source_requires_unit_schedule():
    cfg = _cfg(k_schedule=(2, 2))
    with pytest.raises(DomainError, match="all ones"):
        build_model(cfg, _MIXED, source="none", seed=0)
    with pytest.raises(DomainError, match="source"):
        build_model(_cfg(), _MIXED, source="spectral_typo", seed=0)


def test_training_is_deterministic():
    cfg = _cfg(backbone="densegcn", depth=3, k_schedule=(2, 2, 2))
    a = train(cfg, _MIXED, source="connectivity_aware", seed=5, p=4)
    b = train(cfg, _MIXED, source="connectivity_aware", seed=5, p=4)
    assert a == b
    c = train(cfg, _MIXED, source="connectivity_aware", seed=6, p=4)
    assert a.train_loss != c.train_loss


def test_noise_free_blocks_train_to_full_accuracy():
    """Exact one-hot block features are separable within the epoch budget."""
    cfg = _cfg(lr=0.3, patience=200)
    res = train(cfg, _CLEAN, source="none", seed=0)
    assert res.train_acc[-1] >= 0.99
    assert res.test_acc >= 0.99


def test_divergent_rate_raises_with_last_epoch():
    cfg = _cfg(lr=1e6, max_epochs=60, patience=60)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError) as exc:
            train(cfg, _MIXED, source="none", seed=0)
    assert exc.value.last_epoch >= 1


def test_early_stopping_respects_patience():
    cfg = _cfg(patience=3, max_epochs=200)
    res = train(cfg, _CLEAN, source="none", seed=0)
    assert res.epochs_run < cfg.max_epochs
    assert res.epochs_run == res.best_epoch + cfg.patience
    assert len(res.train_loss) == res.epochs_run
    assert isinstance(res, TrainResult)


def test_gradients_match_finite_differences():
    """Central differences agree with the analytic gradients off the kink."""
    combos = [
        ("gcn", "none", (1, 1, 1)),
        ("resgcn", "connectivity_aware", (2, 2, 2)),
        ("jknet", "random", (2, 2, 2)),
    ]
    for backbone, source, sched in combos:
        cfg = ModelConfig(backbone=backbone, depth=3, hidden=8,
                          k_schedule=sched)
        worst = finite_diff_gradcheck(cfg, _MIXED, source=source, p=4, seed=1)
        assert worst < 1e-4, f"{backbone}/{source}: {worst}"
    with pytest.raises(DomainError):
        finite_diff_gradcheck(_cfg(), _MIXED, epsilon=1e-2)


def _reference_depth5(backbone, pieces, weights, x, slope):
    """Depth-5 outputs and layer inputs, each backbone's wiring spelled out."""

    def layer(i, h):
        return sum(a @ h @ w for a, w in zip(pieces[i - 1], weights[i - 1]))

    def act(z):
        return np.maximum(z, slope * z)

    def cat(*hs):
        return np.concatenate(hs, axis=1)

    y1 = act(layer(1, x))
    if backbone == "resgcn":
        y2 = act(layer(2, y1)) + y1
        y3 = act(layer(3, y2)) + y2
        y4 = act(layer(4, y3)) + y3
        ins = [x, y1, y2, y3, y4]
    elif backbone == "densegcn":
        y2 = act(layer(2, y1))
        y3 = act(layer(3, cat(y1, y2)))
        y4 = act(layer(4, cat(y1, y2, y3)))
        ins = [x, y1, cat(y1, y2), cat(y1, y2, y3), cat(y1, y2, y3, y4)]
    else:  # gcn, and jknet up to its jumping classifier
        y2 = act(layer(2, y1))
        y3 = act(layer(3, y2))
        y4 = act(layer(4, y3))
        last = cat(y1, y2, y3, y4) if backbone == "jknet" else y4
        ins = [x, y1, y2, y3, last]
    return [x, y1, y2, y3, y4, layer(5, ins[4])], ins


def test_forward_wiring_matches_spelled_out_depth5():
    """Each backbone's layer inputs, fan-ins and outputs at depth 5."""
    from degnn.train import _forward_pass, _layer_dims

    h, in_dim, n_classes = 4, 5, 3
    fan_ins = {
        "gcn": [in_dim, h, h, h, h],
        "resgcn": [in_dim, h, h, h, h],
        "densegcn": [in_dim, h, 2 * h, 3 * h, 4 * h],
        "jknet": [in_dim, h, h, h, 4 * h],
    }
    for backbone, fans in fan_ins.items():
        cfg = ModelConfig(backbone=backbone, depth=5, hidden=h,
                          k_schedule=(2, 2, 2, 2, 2))
        dims = _layer_dims(cfg, in_dim, n_classes)
        assert dims == list(zip(fans, [h, h, h, h, n_classes]))
        ops, weights = build_model(cfg, _MIXED, source="random", seed=2, p=4)
        assert [w[0].shape for w in weights] == dims
        ys, zs, ins = _forward_pass(cfg, ops, weights, _MIXED.features)
        pieces = [piece_matrices(d) for d in layer_decompositions(
            _MIXED.graph, cfg.k_schedule, "random", p=4, seed=2)]
        ref_ys, ref_ins = _reference_depth5(backbone, pieces, weights,
                                            _MIXED.features, cfg.slope)
        assert len(ys) == 6 and len(zs) == 5 and len(ins) == 5
        for got, want in zip(ys + ins, ref_ys + ref_ins):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.array_equal(zs[-1], ys[-1])


def _assert_close(got, want):
    """Agreement to 1e-12 relative to the largest entry of want."""
    err = np.max(np.abs(got - want))
    assert err <= 1e-12 * np.max(np.abs(want)), err


@pytest.mark.parametrize("with_skeleton", [True, False],
                         ids=["skeleton", "no_skeleton"])
@pytest.mark.parametrize("discount", [False, True],
                         ids=["plain", "discount"])
@pytest.mark.parametrize("source", DECOMP_SOURCES)
def test_piece_operator_matches_dense_pieces(source, discount, with_skeleton):
    """Forward output and every A_k dz agree with the dense piece matrices."""
    g, n = _MIXED.graph, _MIXED.graph.n
    k = 1 if source == "none" else 3
    cfg = _cfg(hidden=4, k_schedule=(k, k))
    ops, weights = build_model(cfg, _MIXED, source=source, seed=1, p=4,
                               discount=discount, with_skeleton=with_skeleton)
    if source == "none":
        dense = [[normalized_adjacency(g)]] * cfg.depth
    else:
        dense = [piece_matrices(d, discount=discount)
                 for d in layer_decompositions(
                     g, cfg.k_schedule, source, p=4, seed=1,
                     with_skeleton=with_skeleton)]
    rng = np.random.default_rng(0)
    for op, pieces, layer in zip(ops, dense, weights):
        fan_in, width = layer[0].shape
        h = rng.normal(size=(n, fan_in))
        _assert_close(op.forward(h, layer),
                      sum(a @ h @ w for a, w in zip(pieces, layer)))
        dz = rng.normal(size=(n, width))
        d_h, grads = op.backward(h, dz, layer)
        _assert_close(d_h, sum(a @ dz @ w.T for a, w in zip(pieces, layer)))
        # with h = I the weight gradients are the products A_k dz themselves
        eye_layer = [rng.normal(size=(n, width)) for _ in range(k)]
        _, a_dz = op.backward(np.eye(n), dz, eye_layer)
        assert len(a_dz) == k
        for a, got in zip(pieces, a_dz):
            _assert_close(got, a @ dz)
    # the first layer's features were propagated once, at build time
    x, layer = _MIXED.features, weights[0]
    _assert_close(ops[0].forward(x, layer),
                  sum(a @ x @ w for a, w in zip(dense[0], layer)))
    dz = rng.normal(size=(n, layer[0].shape[1]))
    d_x, grads = ops[0].backward(x, dz, layer)
    assert d_x is None and len(grads) == k
    for a, got in zip(dense[0], grads):
        _assert_close(got, x.T @ a @ dz)


def test_model_memory_stays_below_one_dense_piece():
    """Build, forward and backward at n=3000, K=4, depth 6 hold no n x n array.

    The graph has a Pubmed-like average degree of about 4.5. One dense
    piece alone would take n * n * 8 bytes = 72 MB.
    """
    from degnn.train import _backward_pass, _forward_loss

    spec = SBMSpec(n=3000, b=10, p_in=0.013, p_out=0.0002, d=16)
    data = generate_sbm(spec, seed=0)
    cfg = ModelConfig(backbone="gcn", depth=6, hidden=16,
                      k_schedule=(4,) * 6)
    tracemalloc.start()
    try:
        ops, weights = build_model(cfg, data, source="random", seed=0)
        _, prob, ys, zs, ins = _forward_loss(cfg, ops, weights, data)
        _backward_pass(cfg, ops, weights, data, ys, zs, ins, prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spec.n * spec.n * 8, peak
    # int64 keys: one row-key array per width (16 and 10 classes), and run
    # keys for every layer but the first, whose input is fixed
    keys = {id(a): a for op in ops for a in (op.row_keys, op.run_keys)
            if a is not None}
    nnz = spec.n + 2 * data.graph.m
    assert sum(a.nbytes for a in keys.values()) == 8 * nnz * (
        (16 + 10) + (4 * 16 + 10))


def _trained_ops(monkeypatch, cfg, **train_kw):
    """The PieceOperators of one train() run, after its last epoch."""
    built = []

    def spy(*args, **kwargs):
        built.append(build_model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(degnn.train, "build_model", spy)
    train(cfg, _MIXED, **train_kw)
    return built[0][0]


@pytest.mark.parametrize("source", DECOMP_SOURCES)
def test_operators_of_one_width_share_row_keys(monkeypatch, source):
    """One row-key array per width, equal to the keys of each operator's rows.

    The first layer's input is fixed, so its operator builds run keys only
    when a later layer shares it, as every layer of one width does without
    a decomposition.
    """
    k = 1 if source == "none" else 3
    variants = [(False, True)] if source == "none" else [
        (discount, with_skeleton)
        for discount in (False, True) for with_skeleton in (False, True)]
    for backbone in ("jknet", "densegcn"):
        for discount, with_skeleton in variants:
            cfg = _cfg(backbone=backbone, depth=4, k_schedule=(k,) * 4,
                       max_epochs=3)
            ops = _trained_ops(monkeypatch, cfg, source=source, seed=1,
                               p=4, discount=discount,
                               with_skeleton=with_skeleton)
            by_width = {}
            for op in ops:
                width = op.buf.shape[1]
                assert by_width.setdefault(width, op.row_keys) is op.row_keys
                rows = op.runs // op.slots
                lanes = np.arange(width)
                assert op.row_keys.dtype == np.int64
                assert np.array_equal(op.row_keys,
                                      (rows[:, None] * width + lanes).ravel())
                if op.run_keys is not None:
                    runs = op.runs[:, None] * width
                    assert np.array_equal(op.run_keys, (runs + lanes).ravel())
            assert sorted(by_width) == [3, 8]
            assert (ops[0].run_keys is None) == (source != "none")
            assert all(op.run_keys is not None for op in ops[1:])


def test_piece_operator_rejects_row_keys_of_other_rows():
    """An operator whose edges are not the graph's refuses the shared keys."""
    g = _MIXED.graph
    ops, _ = build_model(_cfg(), _MIXED)
    row_keys, width = ops[-1].row_keys, ops[-1].buf.shape[1]
    buf = np.empty(len(row_keys))
    every = np.arange(g.m)

    def one_piece(edges):
        entries = piece_entries(g, 1, every[:0], [edges])
        return PieceOperator(g.n, 1, *entries, width, buf, row_keys)

    # the graph's own edges are accepted
    one_piece(every)
    # edge 0 taken twice and edge 1 left out: as many entries, other rows
    twice = every.copy()
    twice[1] = 0
    for residual in (every[1:], twice):
        with pytest.raises(DomainError, match="row keys"):
            one_piece(residual)


def test_k_sweep_rows_and_aggregates():
    cfg = _cfg()
    rows = sweep(k_cells(cfg, [1, 2], "connectivity_aware"), KSWEEP_COLUMNS,
                 _MIXED, seeds=[0, 1], p=4)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == set(KSWEEP_COLUMNS)
    cells = [r for r in rows if r["kind"] == "cell" and r["k"] == 2]
    agg = [r for r in rows if r["kind"] == "aggregate" and r["k"] == 2]
    assert len(cells) == 2 and len(agg) == 1
    mean = np.mean([r["test_acc"] for r in cells])
    assert abs(agg[0]["test_mean"] - mean) < 1e-15
    std = np.std([r["test_acc"] for r in cells])
    assert abs(agg[0]["test_std"] - std) < 1e-15
    with pytest.raises(DomainError):
        sweep(k_cells(cfg, [], "connectivity_aware"), KSWEEP_COLUMNS,
              _MIXED, seeds=[0])
    with pytest.raises(DomainError):
        sweep(k_cells(cfg, [0], "connectivity_aware"), KSWEEP_COLUMNS,
              _MIXED, seeds=[0])


@pytest.mark.parametrize("cells, seeds, message", [
    (lambda: k_cells(_cfg(), [1, 2], "none"), [0, 1], "all ones"),
    (lambda: k_cells(_cfg(), [1, 0], "random"), [0, 1], "entries >= 1"),
    (lambda: k_cells(_cfg(), [1, 2], "spectral"), [0, 1], "unknown source"),
    (lambda: depth_cells(_cfg(), [2, 1], ["gcn"], ["none", "random"], 2),
     [0, 1], "depth must be >= 2"),
    (lambda: depth_cells(_cfg(), [2], ["gcn", "mlp"], ["none"], 2), [0, 1],
     "unknown backbone"),
    (lambda: depth_cells(_cfg(), [2], ["gcn"], ["none", "spectral"], 2),
     [0, 1], "unknown source"),
    (lambda: k_cells(_cfg(), [], "random"), [0, 1], "0 cells"),
    (lambda: depth_cells(_cfg(), [2], ["gcn"], [], 2), [0, 1], "0 cells"),
    (lambda: k_cells(_cfg(), [1, 2], "random"), [], "0 seeds"),
    (lambda: depth_cells(_cfg(), [2], ["gcn"], ["none"], 2), [], "0 seeds"),
    # k is checked even when no cell is decomposed
    (lambda: depth_cells(_cfg(), [2], ["gcn"], ["none"], 0), [0, 1],
     "pieces per layer must be >= 1"),
], ids=["k-none", "k-k", "k-source", "depth-depth", "depth-backbone",
        "depth-source", "k-no-cells", "depth-no-cells", "k-no-seeds",
        "depth-no-seeds", "depth-k-none"])
def test_sweep_rejects_a_bad_cell_before_training(monkeypatch, cells, seeds,
                                                  message):
    """A bad later cell, or no cell or seed at all, fails before any trains."""
    calls = []
    monkeypatch.setattr(degnn.train, "train",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(DomainError, match=message):
        sweep(cells(), KSWEEP_COLUMNS, _MIXED, seeds=seeds)
    assert calls == []


@pytest.mark.parametrize("cells, columns", [
    (k_cells(_cfg(), [1, 2], "connectivity_aware"), KSWEEP_COLUMNS),
    (depth_cells(_cfg(), [2, 3], ["gcn", "jknet"], ["none", "random"], 2),
     DEPTHSWEEP_COLUMNS),
], ids=["k", "depth"])
def test_sweep_passes_its_settings_to_every_run(monkeypatch, cells, columns):
    """Every train call gets the sweep's p, discount, skeleton and cache."""
    calls = []

    def recorded(cfg, data, **kwargs):
        calls.append((cfg, kwargs))
        return TrainResult((), (), (), (), 0.5, 1, 1, kwargs["seed"])

    monkeypatch.setattr(degnn.train, "train", recorded)
    sweep(cells, columns, _MIXED, seeds=[0, 1], p=16, discount=True,
          with_skeleton=False)
    assert [(cfg, kw["source"], kw["seed"]) for cfg, kw in calls] == [
        (cfg, source, seed) for _, cfg, source in cells for seed in (0, 1)]
    for _, kwargs in calls:
        assert kwargs["p"] == 16
        assert kwargs["discount"] is True
        assert kwargs["with_skeleton"] is False
        assert kwargs["partitions"] is calls[0][1]["partitions"]
    assert isinstance(calls[0][1]["partitions"], dict)


def test_depth_sweep_rows_and_aggregates():
    cfg = _cfg()
    rows = sweep(depth_cells(cfg, [2], ["gcn"],
                             ["none", "connectivity_aware"], 2),
                 DEPTHSWEEP_COLUMNS, _MIXED, seeds=[0, 1], p=4)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == set(DEPTHSWEEP_COLUMNS)
    agg = [r for r in rows if r["kind"] == "aggregate"]
    assert len(agg) == 2
    cells = [r["test_acc"] for r in rows
             if r["kind"] == "cell" and r["source"] == "none"]
    target = [r for r in agg if r["source"] == "none"][0]
    assert abs(target["test_median"] - np.median(cells)) < 1e-15
    for row in agg:
        accs = [r["test_acc"] for r in rows
                if r["kind"] == "cell" and r["source"] == row["source"]]
        assert row["seed"] == "" and row["test_acc"] == ""
        assert abs(row["test_mean"] - np.mean(accs)) < 1e-15
        assert abs(row["test_median"] - np.median(accs)) < 1e-15
        assert abs(row["test_std"] - np.std(accs)) < 1e-15
    with pytest.raises(DomainError):
        depth_cells(cfg, [2], ["mlp"], ["none"], 2)


def _count_partitions(monkeypatch):
    """Record the (p, seed) of every real multilevel_partition call."""
    calls = []
    real = degnn.decompose.multilevel_partition

    def counted(g, p, seed, **kwargs):
        calls.append((g, p, tuple(seed.spawn_key), seed.entropy))
        return real(g, p, seed, **kwargs)

    monkeypatch.setattr(degnn.decompose, "multilevel_partition", counted)
    return calls


def _sweep_without_cache(monkeypatch, sweep):
    """Run sweep with every train() call partitioning for itself."""
    real = degnn.train.train

    def uncached(*args, partitions=None, **kwargs):
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(degnn.train, "train", uncached)
        return sweep()


def test_sweeps_partition_each_key_once(monkeypatch):
    cfg = _cfg(max_epochs=30, patience=30)
    calls = _count_partitions(monkeypatch)

    def depths():
        return sweep(depth_cells(cfg, [2, 6], ["gcn"],
                                 ["none", "connectivity_aware"], 4),
                     DEPTHSWEEP_COLUMNS, _MIXED, seeds=[0, 1, 2], p=16)

    rows = depths()
    assert len(calls) == 8
    keys = set(calls)
    calls.clear()
    assert _sweep_without_cache(monkeypatch, depths) == rows
    assert len(calls) == 24 and set(calls) == keys
    calls.clear()

    def ks():
        return sweep(k_cells(cfg, [1, 2, 3], "connectivity_aware"),
                     KSWEEP_COLUMNS, _MIXED, seeds=[0, 1], p=4)

    rows = ks()
    assert len(calls) == 3
    keys = set(calls)
    calls.clear()
    assert _sweep_without_cache(monkeypatch, ks) == rows
    assert len(calls) == 12 and set(calls) == keys


def test_history_csv_round_trip(tmp_path):
    cfg = _cfg(max_epochs=5, patience=5)
    res = train(cfg, _MIXED, source="none", seed=0)
    path = tmp_path / "history.csv"
    write_history_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == HISTORY_COLUMNS
    assert len(rows) == 1 + res.epochs_run
    for e, row in enumerate(rows[1:]):
        assert int(row[0]) == e + 1
        assert float(row[1]) == res.train_loss[e]
        assert float(row[4]) == res.val_acc[e]


def test_rows_csv_round_trip(tmp_path):
    cfg = _cfg()
    rows = sweep(k_cells(cfg, [2], "connectivity_aware"), KSWEEP_COLUMNS,
                 _MIXED, seeds=[0], p=4)
    path = tmp_path / "sweep.csv"
    write_csv(rows, KSWEEP_COLUMNS, path)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert tuple(back[0]) == KSWEEP_COLUMNS
    assert len(back) == 1 + len(rows)
    cell = back[1]
    assert float(cell[3]) == rows[0]["test_acc"]
