import gc
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from degnn.decompose import random_decompose, spectral_split
from degnn.errors import DomainError
from degnn.graphs import Graph, connected_components
from degnn.partition import (
    Partition,
    _adjacency_lists,
    _fm_refine,
    _integral,
    _pack,
    _unpack,
    _weights,
    cut_edges,
    cut_weight,
    multilevel_partition,
    partition_stats,
)
from degnn.propagate import gcn_stack
from degnn.spectral import svd
from degnn.train import SBMSpec, generate_sbm
from oracles import (
    best_balanced_bipartition_cut,
    brute_cut,
    fm_refine_reference,
    neighbor_dicts,
    random_balanced_partition,
)


def _random_graph(n, target_m, rng):
    edges = set()
    while len(edges) < target_m:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


def test_partition_container():
    part = Partition(labels=np.array([0, 1, 1, 0]), p=2)
    assert part.sizes().tolist() == [2, 2]
    assert part.imbalance() == 1.0
    with pytest.raises(DomainError):
        Partition(labels=np.array([0, 2]), p=2)


@pytest.mark.parametrize("make", [
    lambda: Partition(labels=np.array([0, 1]), p=2),
    lambda: svd(np.eye(3)),
    lambda: spectral_split(np.diag([3.0, 2.0, 1.0]), 2),
    lambda: gcn_stack(np.eye(2), [np.eye(2)]),
    lambda: generate_sbm(SBMSpec(n=12, b=2, p_in=0.8, p_out=0.1, d=2), 0),
    lambda: random_decompose(Graph(3, [(0, 1), (1, 2)]), 2, seed=0),
], ids=["Partition", "SVDResult", "SpectralSplit", "LayerStack", "NodeData",
        "Decomposition"])
def test_array_holders_compare_and_hash_by_identity(make):
    # equal arrays in two instances must not make == ask an array for a bool
    a, b = make(), make()
    assert a == a
    assert (a == b) is False
    assert len({a, b, a}) == 2


def test_partition_labels_are_read_only():
    own = np.array([0, 1, 1, 0])
    part = Partition(labels=own, p=2)
    with pytest.raises(ValueError):
        part.labels[0] = 1
    # the caller's array stays writable and is not shared with the Partition
    own[0] = 1
    assert part.labels.tolist() == [0, 1, 1, 0]
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    shared = multilevel_partition(g, 2, seed=0)
    with pytest.raises(ValueError):
        shared.labels[:] = 0


def test_cut_accounting():
    g = Graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
    part = Partition(labels=np.array([0, 0, 1, 1]), p=2)
    assert cut_edges(g, part) == [(1, 2)]
    assert cut_weight(g, part) == 3.0
    st = partition_stats(g, part)
    assert st["cut_edges"] == 1 and st["cut_weight"] == 3.0
    assert st["sizes"] == [2, 2] and st["imbalance"] == 1.0


def test_path_bipartition_is_optimal():
    # the one partition question small enough to answer by brute force:
    # an 8 node path splits 4|4 with a single crossing edge
    edges = [(i, i + 1) for i in range(7)]
    g = Graph(8, edges)
    opt = best_balanced_bipartition_cut(8, [(i, j, 1.0) for i, j in edges])
    assert opt == 1.0
    for seed in range(12):
        part = multilevel_partition(g, 2, seed=seed, max_imbalance=1.0)
        assert part.sizes().tolist() == [4, 4]
        assert cut_weight(g, part) == opt


def test_beats_random_and_respects_balance():
    for trial in range(6):
        rng = np.random.default_rng(100 + trial)
        g = _random_graph(120, 360, rng)
        for p in (2, 4, 8):
            part = multilevel_partition(g, p, seed=trial, max_imbalance=1.3)
            st = partition_stats(g, part)
            assert st["imbalance"] <= 1.3 + 1e-9
            assert min(part.sizes()) >= 1
            rnd = random_balanced_partition(g.n, p, seed=trial)
            assert cut_weight(g, part) <= brute_cut(g.edge_list(), rnd)


def test_deterministic_under_seed():
    rng = np.random.default_rng(42)
    g = _random_graph(150, 450, rng)
    a = multilevel_partition(g, 4, seed=9)
    b = multilevel_partition(g, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_respects_weights():
    # heavy middle edge: any sane bipartition cuts a light edge instead
    g = Graph(4, [(0, 1, 1.0), (1, 2, 100.0), (2, 3, 1.0)])
    part = multilevel_partition(g, 2, seed=0, max_imbalance=2.0)
    assert part.labels[1] == part.labels[2]


def test_disconnected_components_stay_whole_when_possible():
    # two triangles, p=2: zero cut is reachable and must be found
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = multilevel_partition(g, 2, seed=1)
    assert cut_weight(g, part) == 0.0
    assert part.sizes().tolist() == [3, 3]


def test_disconnected_dominant_component_gets_split():
    # a 199 node component plus an isolated node: packing whole components
    # cannot balance, so the big one must be split
    rng = np.random.default_rng(8)
    edges = set()
    while len(edges) < 500:
        i, j = rng.integers(0, 199, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    g = Graph(200, sorted(edges))
    assert int(connected_components(g).max()) + 1 >= 2
    part = multilevel_partition(g, 2, seed=3, max_imbalance=1.3)
    assert partition_stats(g, part)["imbalance"] <= 1.3 + 1e-9


def test_more_components_than_parts_packs_evenly():
    # five triangles onto two parts: perfect packing keeps cut at zero
    edges = []
    for t in range(5):
        b = 3 * t
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    g = Graph(15, edges)
    part = multilevel_partition(g, 2, seed=0, max_imbalance=1.3)
    assert cut_weight(g, part) == 0.0
    assert sorted(part.sizes().tolist()) == [6, 9]


def test_partition_leaves_the_graph_adjacency_unchanged():
    """The partitioner changes none of g's edge arrays and keeps no dicts.

    Its per-node dicts are its own: built from g's arrays, one level at a
    time, and all freed by the time it returns.
    """
    rng = np.random.default_rng(12)
    one = _random_graph(300, 900, rng)
    weighted = Graph(300, [(i, j, float(rng.uniform(0.5, 2.0)))
                           for (i, j, _) in one.edge_list()])
    assert int(connected_components(one).max()) == 0
    # big components are split in place, the small ones packed onto parts
    blocks = [_random_graph(n, m, rng) for n, m in ((120, 360), (80, 240),
                                                    (5, 6), (3, 2))]
    edges, base = [], 0
    for b in blocks:
        edges += [(i + base, j + base) for (i, j, _) in b.edge_list()]
        base += b.n
    many = Graph(base + 2, edges)
    assert int(connected_components(many).max()) + 1 >= 4
    for g, p in ((one, 8), (weighted, 8), (many, 10), (many, 3)):
        before = [a.copy() for a in g.edge_arrays()]
        first = multilevel_partition(g, p, seed=5)
        for a, b in zip(g.edge_arrays(), before):
            assert not a.flags.writeable
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # and so a second call gives the same labels
        again = multilevel_partition(g, p, seed=5)
        assert again.labels.tobytes() == first.labels.tobytes()

        # what a call leaves allocated is far below one set of dicts
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            adj = _adjacency_lists(g)
            dicts = tracemalloc.get_traced_memory()[0] - start
            del adj
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            part = multilevel_partition(g, p, seed=5)
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert part.labels.tobytes() == first.labels.tobytes()
        assert left < dicts / 10, (left, dicts)


def _permuted(g, rng):
    """g's edges listed in a random order, each flipped with probability 1/2."""
    edges = g.edge_list()
    out = []
    for e in rng.permutation(len(edges)).tolist():
        i, j, w = edges[e]
        out.append((j, i, w) if rng.random() < 0.5 else (i, j, w))
    return Graph(g.n, out)


def test_adjacency_lists_hold_the_edges_neighbors_ascending():
    """The finest level: one dict per node, its neighbors in ascending id
    order whatever order the edges were listed in, and each weight read
    from both ends."""
    rng = np.random.default_rng(41)
    base = _random_graph(120, 400, rng)
    tenths = rng.choice([0.1, 0.2, 0.3, 0.7], size=base.m).tolist()
    g = Graph(base.n + 3, [(i, j, w) for (i, j, _), w
                           in zip(base.edge_list(), tenths)])
    for h in (g, _permuted(g, rng), Graph(4)):
        got = [list(d.items()) for d in _adjacency_lists(h)]
        assert got == [sorted(d.items()) for d in neighbor_dicts(h)]
        assert len(got) == h.n and not got[-1]


def test_partition_does_not_depend_on_edge_listing_order():
    """Labels follow the sorted edge arrays, not the order edges were given.

    Tenths make float sums depend on their order and make gains tie often,
    so the order in which a level's dicts hold their neighbors matters
    there most.
    """
    rng = np.random.default_rng(31)
    base = _random_graph(300, 900, rng)
    pairs = [(i, j) for (i, j, _) in base.edge_list()]
    kinds = {
        "unit": [1.0] * base.m,
        "float": rng.uniform(0.5, 2.0, size=base.m).tolist(),
        "tenths": rng.choice([0.1, 0.2, 0.3, 0.7], size=base.m).tolist(),
    }
    for kind, ws in kinds.items():
        g = Graph(base.n, [(i, j, w) for (i, j), w in zip(pairs, ws)])
        shuffled = [_permuted(g, rng) for _ in range(5)]
        for h in shuffled:
            assert h.edge_list() == g.edge_list()
        for p in (2, 5, 8):
            want = multilevel_partition(g, p, seed=11).labels
            for t, h in enumerate(shuffled):
                got = multilevel_partition(h, p, seed=11).labels
                assert np.array_equal(got, want), (kind, p, t)


def test_single_part_and_errors():
    g = Graph(5, [(0, 1)])
    assert multilevel_partition(g, 1, seed=0).sizes().tolist() == [5]
    with pytest.raises(DomainError):
        multilevel_partition(g, 0, seed=0)
    with pytest.raises(DomainError):
        multilevel_partition(g, 6, seed=0)
    with pytest.raises(DomainError):
        multilevel_partition(g, 2, seed=0, max_imbalance=0.9)
    with pytest.raises(DomainError):
        multilevel_partition(g, 2, seed=0, max_imbalance=float("inf"))


# sha256 of multilevel_partition(...).labels.tobytes(), recorded before the
# FM inner loop was reworked; any change to the partitioner's arithmetic or
# tie-breaks shows up here first. The graphs and the partitioner's seeds come
# from numpy's Generator streams (recorded with numpy 2.4), which numpy does
# not promise to keep across releases.

def _sweep_sbm_cases():
    # the benchmark's depth_sweep graph: 8 layer seeds at p=16, each drawn
    # the way connectivity_aware_decompose derives its partition seed
    data = generate_sbm(SBMSpec(n=150, b=4, p_in=0.21, p_out=0.013, d=8,
                                noise=0.5), seed=7)
    for layer_seed in range(8):
        seed = np.random.SeedSequence(layer_seed).spawn(2)[0]
        yield f"sbm150_p16_layer{layer_seed}", data.graph, 16, seed


def _planted_cases():
    # 2,000 nodes in 10 planted blocks, about 8.8k edges
    rng = np.random.default_rng(2000)
    n, blocks = 2000, 10
    block_of = np.arange(n) % blocks
    members = [np.flatnonzero(block_of == b) for b in range(blocks)]
    edges = set()
    while len(edges) < 8000:
        a, c = rng.choice(members[int(rng.integers(0, blocks))], size=2)
        if a != c:
            edges.add((int(min(a, c)), int(max(a, c))))
    while len(edges) < 8800:
        a, c = (int(v) for v in rng.integers(0, n, size=2))
        if block_of[a] != block_of[c]:
            edges.add((min(a, c), max(a, c)))
    yield "planted2000_p16", Graph(n, sorted(edges)), 16, 3


def _weighted_cases():
    rng = np.random.default_rng(61)
    g = _random_graph(300, 900, rng)
    weights = rng.uniform(0.5, 2.0, size=g.m)
    g = Graph(g.n, [(i, j, float(w))
                   for (i, j, _), w in zip(g.edge_list(), weights)])
    for p in (2, 5, 8):
        yield f"weighted300_p{p}", g, p, 11


def _disconnected_cases():
    # nine components (sizes 180, 60, 25, 9, 4, 3, 3, 2, 1) onto 5 parts:
    # the large ones get split, the small ones packed whole
    rng = np.random.default_rng(9)
    edges = set()
    base = 0
    for size in (180, 60, 25, 9, 4, 3, 3, 2, 1):
        # a path keeps the component connected; chords triple its edges
        edges |= {(base + i, base + i + 1) for i in range(size - 1)}
        for _ in range(2 * (size - 1)):
            i, j = sorted(int(v) for v in rng.integers(0, size, size=2))
            if i != j:
                edges.add((base + i, base + j))
        base += size
    edges = sorted(edges)
    g = Graph(base, edges)
    assert int(connected_components(g).max()) + 1 == 9
    yield "disconnected9_p5", g, 5, 4


PINNED_LABELS = {
    "sbm150_p16_layer0":
        "4b06ee6191a45ae2a9e94746a0ecba06e049b6f774a7f8f4b3aa7c927d1aeca7",
    "sbm150_p16_layer1":
        "3aad07e47b20554814a293c92c6ff6a5b5dbf96a2af9248eff7f33fa00c51563",
    "sbm150_p16_layer2":
        "59916eccc93615a393da03882e133a7b8a8ba07c98f80706e841a7324a303813",
    "sbm150_p16_layer3":
        "16d8e3e057191623805aacafff3aab33c20c9e331a34443e3e6af17c2f20f0cb",
    "sbm150_p16_layer4":
        "42fd7cca1fa57c6fe655abb58a5ef90d7788dd88799bab9eb18c5f92cac2850d",
    "sbm150_p16_layer5":
        "0721367c877a58a28c72a2c18b9456700ace16fb9f1bf44109fc7efa0b63a236",
    "sbm150_p16_layer6":
        "9d6519070014f519ccb84895d38b6e8989059314e56eb26003d4ee6df429b896",
    "sbm150_p16_layer7":
        "9662ae1c33f91d280e996dcf67ac2d847e0e1132195c464d2868227652e7f03a",
    "planted2000_p16":
        "3297ff14f141b8b82747c7f827c35036f980041c93b3b08d072c394a59773d49",
    "weighted300_p2":
        "2a3d7c5b3dda510ca48335c5513b8e6298ac9a9525528b2f68d97fb655ad0fbf",
    "weighted300_p5":
        "6c03315cddcd2e2443389d47daa0a7264e0f2113dbc44434a131eb349573e039",
    "weighted300_p8":
        "ec9148789d5b79be59287edc1b4ce3efac62e85762687e4b29cc208a9e3d3833",
    "disconnected9_p5":
        "12560a2b424b3a42163ac2721faffa2c979de84d2767a1b8e0fbb4e40248cf62",
}


def _pinned_cases():
    for gen in (_sweep_sbm_cases, _planted_cases, _weighted_cases,
                _disconnected_cases):
        yield from gen()


def test_labels_pinned_across_rewrites():
    got = {}
    for name, g, p, seed in _pinned_cases():
        part = multilevel_partition(g, p, seed=seed)
        got[name] = hashlib.sha256(part.labels.tobytes()).hexdigest()
    assert got == PINNED_LABELS


def _fm_starts():
    """Seeded (adj, node_w, labels, p, cap) inputs for one FM refinement.

    Edge weights are unit, integers above 1, uniform floats, or tenths
    (whose sums depend on their order and whose gains often tie); node
    weights are unit or heavy, as at coarse levels. Each graph starts from
    random labels, from part 0 filled to the relaxed cap (every move into
    it is dropped until a node leaves it), and from single-node parts
    (every move out of one is dropped).
    """
    rng = np.random.default_rng(1010)
    for trial in range(8):
        for kind in ("unit", "integer", "float", "tenths"):
            n = int(rng.integers(40, 130))
            p = int(rng.integers(2, 17))
            m = int(rng.integers(2 * n, 4 * n))
            pairs = set()
            while len(pairs) < m:
                i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
                if i != j:
                    pairs.add((i, j))
            if kind == "unit":
                ws = [1.0] * m
            elif kind == "integer":
                ws = [float(w) for w in rng.integers(2, 6, size=m)]
            elif kind == "float":
                ws = [float(w) for w in rng.uniform(0.5, 2.0, size=m)]
            else:
                ws = [float(w) for w in rng.choice([0.1, 0.2, 0.3, 0.7], m)]
            adj = [dict() for _ in range(n)]
            for (i, j), w in zip(sorted(pairs), ws):
                adj[i][j] = adj[j][i] = w
            if trial % 2:
                node_w = [float(w) for w in rng.integers(1, 9, size=n)]
            else:
                node_w = [1.0] * n
            cap = max(1.3 * sum(node_w) / p, math.ceil(sum(node_w) / p))
            relaxed = cap + max(node_w)

            labels = [int(v) for v in rng.integers(0, p, size=n)]
            yield adj, node_w, labels, p, cap

            order = [int(v) for v in rng.permutation(n)]
            labels = [None] * n
            filled = 0.0
            rest = []
            for u in order:
                if filled + node_w[u] <= relaxed:
                    labels[u] = 0
                    filled += node_w[u]
                else:
                    rest.append(u)
            for u in rest:
                labels[u] = int(rng.integers(1, p))
            yield adj, node_w, labels, p, cap

            labels = [int(v) for v in rng.integers(0, 2, size=n)]
            for k, u in enumerate(order[: p - 2]):
                labels[u] = k + 2
            yield adj, node_w, labels, p, cap
    # a cycle cut into runs of three: every boundary move gains exactly 0
    for n, p in ((60, 4), (90, 16)):
        adj = [{(u - 1) % n: 1.0, (u + 1) % n: 1.0} for u in range(n)]
        labels = [(u // 3) % p for u in range(n)]
        yield adj, [1.0] * n, labels, p, 1.3 * n / p


def test_pack_round_trip_keeps_dict_order():
    """A packed level unpacks to equal dicts, items in the same order."""
    for adj, node_w, labels, p, cap in _fm_starts():
        shuffled = []
        for u, d in enumerate(adj):
            items = list(d.items())
            # insertion orders other than ascending, as coarse levels have
            order = np.random.default_rng(u).permutation(len(items))
            shuffled.append(dict(items[k] for k in order.tolist()))
        for level in (adj, shuffled):
            packed = _pack(level)
            assert [a.dtype for a in packed] == [np.int64, np.int64,
                                                 np.float64]
            back = _unpack(*packed)
            assert [list(d.items()) for d in back] == \
                [list(d.items()) for d in level]
            assert _weights(level).tobytes() == packed[2].tobytes()


def test_integral_flag_matches_the_listwise_rule():
    """_integral of a level's weight array is the boolean FM used to take
    from a list of every directed weight: a total below 2**53 summed in
    dict order, and every weight an integer."""
    def listwise(adj):
        weights = [w for nbrs in adj for w in nbrs.values()]
        return (sum(weights) < 2.0 ** 53
                and all(float(w).is_integer() for w in weights))

    def level(ws):
        adj = [dict() for _ in range(len(ws) + 1)]
        for u, w in enumerate(ws):
            adj[u][u + 1] = adj[u + 1][u] = w
        return adj

    big = 2.0 ** 50
    cases = [[], [1.0] * 5, [2.0, 3.0, 7.0], [0.5, 1.0], [0.1, 0.2, 0.7],
             [big, big, big], [big, big, big, big - 1.0],
             [big, big, big, big], [big, big, big, big, 0.5],
             [2.0 ** 52, 1.0], [2.0 ** 51, 2.0 ** 51 - 1.0],
             [2.0 ** 60], [1e300, 1e300], [1.7e308, 1.7e308], [1.5e-3]]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ws in cases:
            adj = level(ws)
            want = listwise(adj)
            assert _integral(_weights(adj)) is want, ws
            seen.add(want)
    for adj, *_ in _fm_starts():
        assert _integral(_weights(adj)) is listwise(adj)
    assert seen == {True, False}


def test_fm_refine_matches_reference_loop():
    # the incremental tables and the bucketed queue make the moves, drops
    # and rollbacks of the loop that recounts and re-pushes everything
    for case, (adj, node_w, labels, p, cap) in enumerate(_fm_starts()):
        want = fm_refine_reference(adj, node_w, list(labels), p, cap)
        got = _fm_refine(adj, node_w, list(labels), p, cap)
        assert got == want, f"case {case}"
