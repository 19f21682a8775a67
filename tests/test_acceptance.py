"""Release acceptance suite.

One test per release criterion. Each prints a single [PASS]/[FAIL] line
(visible with -s or on failure) and asserts the criterion at its stated
tolerance and runtime budget.
"""

import csv
import time

import numpy as np

from degnn.decompose import (
    connectivity_aware_decompose,
    piece_matrices,
    random_decompose,
)
from degnn.graphs import Graph, normalized_adjacency
from degnn.linalg import vec
from degnn.partition import cut_weight, multilevel_partition
from degnn.propagate import (
    LayerStack,
    decay_curve,
    forward,
    gcn_stack,
    linearized_map,
    quantized_entropy,
    random_unit_features,
    weights_with_top_singular,
    write_csv,
)
from degnn.spectral import singular_extremes
from degnn.train import (
    KSWEEP_COLUMNS,
    ModelConfig,
    SBMSpec,
    generate_sbm,
    k_cells,
    sweep,
    train,
)
from degnn.verify import check_kron_identities, check_split_spectrum
from oracles import (
    brute_cut,
    component_count,
    edge_union,
    finite_diff_gradcheck,
    merged_graph,
    piece_graph,
    random_balanced_partition,
)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert ok, line


def _random_graph(rng, n, m_target):
    seen, triples = set(), []
    tries = 0
    while len(triples) < m_target and tries < 20 * m_target:
        tries += 1
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or (min(i, j), max(i, j)) in seen:
            continue
        seen.add((min(i, j), max(i, j)))
        triples.append((i, j, float(rng.uniform(0.5, 2.0))))
    return Graph(n, triples)


def test_01_exact_linearization():
    """Forward pass equals the explicit operator product on random stacks."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    max_err = 0.0
    for t in range(100):
        n = int(rng.integers(2, 7))
        g = _random_graph(rng, n, max(1, n))
        a_mat = normalized_adjacency(g)
        depth = int(rng.integers(1, 6))
        dims = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
        slope = float(rng.uniform(0.05, 0.95))
        if t % 2 == 0:
            weights = [
                rng.normal(size=(dims[i], dims[i + 1])) for i in range(depth)
            ]
            stack = gcn_stack(a_mat, weights, slope=slope)
        else:
            k = int(rng.integers(1, 4))
            dec = random_decompose(g, k, seed=t)
            pieces = piece_matrices(dec)
            layer_weights = [
                [rng.normal(size=(dims[i], dims[i + 1])) for _ in range(k)]
                for i in range(depth)
            ]
            stack = LayerStack(pieces, layer_weights, slope=slope)
        x = rng.normal(size=(n, dims[0]))
        deep = forward(stack, x)[-1]
        _, mapped = linearized_map(stack, vec(x))
        max_err = max(max_err, float(np.max(np.abs(vec(deep) - mapped))))
    elapsed = time.monotonic() - started
    ok = max_err < 1e-9 and elapsed < 5.0
    _report(1, "exact linearization", ok,
            f"max_err={max_err:.3e} elapsed={elapsed:.1f}s")


def test_02_split_spectrum_closed_form():
    """Closed-form spectrum of per-direction splits matches brute force."""
    started = time.monotonic()
    rep = check_split_spectrum(trials=100, seed=0, tol=1e-8)
    elapsed = time.monotonic() - started
    ok = rep.ok and elapsed < 10.0
    _report(2, "split spectrum closed form", ok,
            f"{rep.passed}/{rep.total} max_err={rep.max_err:.3e} "
            f"elapsed={elapsed:.1f}s")


def test_03_kron_identities():
    """Product spectrum and vec factoring hold on random rectangles."""
    rep = check_kron_identities(trials=100, seed=0, sv_tol=1e-8,
                                vec_tol=1e-10)
    _report(3, "kron identities", rep.ok,
            f"{rep.passed}/{rep.total} max_err={rep.max_err:.3e}")


def test_04_contracting_stack_decay():
    """Contracting stacks decay geometrically and lose all information."""
    started = time.monotonic()
    rng = np.random.default_rng(4)
    g = _random_graph(rng, 12, 24)
    a_mat = normalized_adjacency(g)
    top, _ = singular_extremes(a_mat)
    depths = list(range(1, 13))
    weights = [
        weights_with_top_singular((2, 2), 0.5, 100 + i) for i in range(12)
    ]
    stack = gcn_stack(a_mat, weights, slope=0.2)
    scale = 1e-3
    inputs = [x * scale for x in random_unit_features(12, 2, 16, 0)]
    rows = decay_curve(stack, depths, n_samples=16, epsilon=1e-6, seed=0,
                       inputs=inputs)
    bound_ok = all(r["max_sv"] <= 0.5 ** r["depth"] + 1e-12 for r in rows)
    ents = [r["entropy_bits"] for r in rows]
    mono_ok = all(ents[i + 1] <= ents[i] + 1e-12 for i in range(len(ents) - 1))
    zero_rows = [r for r in rows if 0.5 ** r["depth"] * scale < 1e-6]
    zero_ok = len(zero_rows) > 0 and all(
        r["entropy_bits"] == 0.0 for r in zero_rows
    )
    elapsed = time.monotonic() - started
    ok = (abs(top - 1.0) <= 1e-9 and bound_ok and mono_ok and zero_ok
          and elapsed < 5.0)
    _report(4, "contracting stack decay", ok,
            f"sigma_A_err={abs(top - 1.0):.2e} bound_ok={bound_ok} "
            f"monotone={mono_ok} zero_tail={zero_ok} elapsed={elapsed:.1f}s")


def test_05_expanding_stack_preservation():
    """An expanding stack keeps all 1000 sampled inputs distinguishable."""
    n, d = 4, 2
    a_mat = 2.0 * np.eye(n)
    stack = gcn_stack(a_mat, [np.eye(d)] * 6, slope=0.6)
    rng = np.random.default_rng(5)
    inputs = [rng.normal(size=(n, d)) for _ in range(1000)]
    in_bits = quantized_entropy(np.stack([vec(x) for x in inputs]), 1e-6)
    full_bits = float(np.log2(1000))
    rows = decay_curve(stack, list(range(1, 7)), n_samples=1000,
                       epsilon=1e-6, seed=5, inputs=inputs)
    min_ok = all(r["min_sv"] >= 1.2 ** r["depth"] - 1e-9 for r in rows)
    ent_ok = all(r["entropy_bits"] == full_bits for r in rows)
    ok = in_bits == full_bits and min_ok and ent_ok
    _report(5, "expanding stack preservation", ok,
            f"input_bits={in_bits:.4f} min_sv_ok={min_ok} "
            f"entropy_preserved={ent_ok}")


def test_06_decomposition_invariants():
    """Piece unions, shared skeleton, and coverage hold on 200 graphs."""
    started = time.monotonic()
    rng = np.random.default_rng(6)
    bad = 0
    for t in range(200):
        n = int(rng.integers(2, 501))
        g = _random_graph(rng, n, int(rng.integers(1, 2 * n)))
        k = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        dec = connectivity_aware_decompose(g, p, k, seed=t)
        again = connectivity_aware_decompose(g, p, k, seed=t)
        edges = {(i, j) for (i, j, _) in g.edge_list()}
        skel = {(i, j) for (i, j, _) in dec.triples(dec.skeleton)}
        pieces = [dec.triples(piece) for piece in dec.pieces]
        ok = edge_union(dec) == edges
        for piece in pieces:
            ok = ok and skel <= {(i, j) for (i, j, _) in piece}
        residual = {}
        for piece in pieces:
            for (i, j, _) in piece:
                if (i, j) not in skel:
                    residual[(i, j)] = residual.get((i, j), 0) + 1
        ok = ok and all(v == 1 for v in residual.values())
        ok = ok and set(residual) == edges - skel
        gm = merged_graph(g, multilevel_partition(
            g, p, seed=np.random.SeedSequence(t).spawn(2)[0]))
        gm_comp = component_count(gm)
        for i in range(dec.k):
            pc = component_count(piece_graph(dec, i))
            ok = ok and pc <= gm_comp
        ok = ok and pieces == [again.triples(piece) for piece in again.pieces]
        ok = ok and dec.triples(dec.skeleton) == again.triples(again.skeleton)
        bad += not ok
    elapsed = time.monotonic() - started
    ok = bad == 0 and elapsed < 20.0
    _report(6, "decomposition invariants", ok,
            f"violations={bad}/200 elapsed={elapsed:.1f}s")


def test_07_partitioner_quality():
    """The multilevel cut never loses to a random balanced partition."""
    started = time.monotonic()
    rng = np.random.default_rng(7)
    bad = 0
    worst = 0.0
    for t in range(50):
        g = _random_graph(rng, 200, 600)
        for p in (2, 4, 8):
            part = multilevel_partition(g, p, seed=t)
            base = random_balanced_partition(200, p, seed=t)
            cut = cut_weight(g, part)
            base_cut = brute_cut(g.edge_list(), base)
            worst = max(worst, cut / max(base_cut, 1e-12))
            if cut > base_cut or part.imbalance() > 1.3:
                bad += 1
    elapsed = time.monotonic() - started
    ok = bad == 0
    _report(7, "partitioner quality", ok,
            f"violations={bad}/150 worst_cut_ratio={worst:.3f} "
            f"elapsed={elapsed:.1f}s")


def test_08_gradient_correctness():
    """Analytic gradients match central differences for every combo."""
    started = time.monotonic()
    data = generate_sbm(
        SBMSpec(n=90, b=3, p_in=0.25, p_out=0.02, d=5, noise=0.2), seed=3
    )
    worst = 0.0
    for backbone in ("gcn", "resgcn", "densegcn", "jknet"):
        for source in ("none", "random", "connectivity_aware"):
            sched = (1, 1, 1) if source == "none" else (2, 2, 2)
            cfg = ModelConfig(backbone=backbone, depth=3, hidden=8,
                              k_schedule=sched)
            err = finite_diff_gradcheck(cfg, data, source=source, p=4,
                                        seed=1)
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    _report(8, "gradient correctness", ok,
            f"max_rel_err={worst:.3e} over 12 combos elapsed={elapsed:.1f}s")


def test_09_depth_trend():
    """Accuracy falls with depth; decomposition holds it up at depth 6."""
    started = time.monotonic()
    data = generate_sbm(
        SBMSpec(n=400, b=4, p_in=0.08, p_out=0.005, d=8, noise=0.5), seed=7
    )
    medians = {}
    for depth in (2, 4, 6, 8):
        for source, k, p in (("none", 1, 4), ("connectivity_aware", 4, 16)):
            cfg = ModelConfig(backbone="gcn", depth=depth, hidden=16,
                              k_schedule=tuple([k] * depth))
            accs = [
                train(cfg, data, source=source, seed=s, p=p).test_acc
                for s in range(5)
            ]
            medians[(source, depth)] = float(np.median(accs))
    elapsed = time.monotonic() - started
    drops = medians[("none", 8)] < medians[("none", 2)]
    holds = (medians[("connectivity_aware", 6)] >= medians[("none", 6)])
    ok = drops and holds and elapsed < 300.0
    _report(9, "depth trend", ok,
            f"vanilla d8={medians[('none', 8)]:.3f} < "
            f"d2={medians[('none', 2)]:.3f}: {drops}; decomposed "
            f"d6={medians[('connectivity_aware', 6)]:.3f} >= vanilla "
            f"d6={medians[('none', 6)]:.3f}: {holds}; "
            f"elapsed={elapsed:.0f}s")


def test_10_piece_count_sweep(tmp_path):
    """The skeleton-off piece sweep yields a complete, repeatable table."""
    data = generate_sbm(
        SBMSpec(n=120, b=3, p_in=0.15, p_out=0.01, d=6, noise=0.3), seed=11
    )
    cfg = ModelConfig(backbone="gcn", depth=2, hidden=16, k_schedule=(1, 1))
    k_values = list(range(1, 9))
    seeds = [0, 1, 2]
    rows = sweep(k_cells(cfg, k_values, "connectivity_aware"), KSWEEP_COLUMNS,
                 data, seeds, p=4, with_skeleton=False)
    again = sweep(k_cells(cfg, k_values, "connectivity_aware"),
                  KSWEEP_COLUMNS, data, seeds, p=4, with_skeleton=False)
    complete = len(rows) == len(k_values) * (len(seeds) + 1)
    aggregates = [r for r in rows if r["kind"] == "aggregate"]
    finite = all(
        np.isfinite(r["test_mean"]) and np.isfinite(r["test_std"])
        for r in aggregates
    )
    covers = sorted(r["k"] for r in aggregates) == k_values
    path = tmp_path / "ksweep.csv"
    write_csv(rows, KSWEEP_COLUMNS, path)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    csv_ok = tuple(back[0]) == KSWEEP_COLUMNS and len(back) == 1 + len(rows)
    ok = complete and finite and covers and rows == again and csv_ok
    _report(10, "piece count sweep", ok,
            f"rows={len(rows)} aggregates={len(aggregates)} "
            f"deterministic={rows == again} csv_ok={csv_ok}")
