import json

import numpy as np
import pytest

from degnn.decompose import (
    connectivity_aware_decompose,
    decomposition_stats,
    layer_decompositions,
    load_decomposition,
    piece_matrices,
    random_decompose,
    random_spanning_forest,
    save_decomposition,
    spectral_split,
    spectral_splits,
)
from degnn.errors import DomainError, ParseError
from degnn.graphs import Graph, normalized_adjacency
from degnn.partition import Partition, cut_edges, multilevel_partition
from oracles import (
    component_count,
    connectivity_aware_decompose_reference,
    edge_union,
    merged_graph,
    piece_graph,
    piece_matrices_reference,
    random_decompose_reference,
)


def _pairs(d, index):
    return [(i, j) for (i, j, _) in d.triples(index)]


def _random_graph(n, target_m, rng):
    edges = set()
    while len(edges) < target_m:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


def _same_pieces(a, b):
    return len(a.pieces) == len(b.pieces) and all(
        np.array_equal(p, q) for p, q in zip(a.pieces, b.pieces))


def test_random_decompose_identity_and_full_split():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    one = random_decompose(g, 1, seed=0)
    assert _pairs(one, one.pieces[0]) == [(0, 1), (1, 2), (2, 3)]
    assert len(one.skeleton) == 0

    per_edge = random_decompose(g, 3, seed=5)
    assert sorted(len(p) for p in per_edge.pieces) == [1, 1, 1]


def test_random_decompose_properties():
    rng = np.random.default_rng(0)
    for trial in range(10):
        g = _random_graph(30, 60, rng)
        k = int(rng.integers(1, 7))
        d = random_decompose(g, k, seed=trial)
        sizes = [len(p) for p in d.pieces]
        assert max(sizes) - min(sizes) <= 1
        all_pairs = [e for p in d.pieces for e in _pairs(d, p)]
        assert sorted(all_pairs) == [(i, j) for (i, j, _) in g.edge_list()]
        again = random_decompose(g, k, seed=trial)
        assert _same_pieces(again, d)


def test_random_decompose_rejects_bad_k():
    g = Graph(2, [(0, 1)])
    for k in (0, -1, 1.5, True):
        with pytest.raises(DomainError):
            random_decompose(g, k, seed=0)


def test_merged_graph_drops_cut_edges():
    g = Graph(3, [(0, 1), (1, 2)])
    part = Partition(labels=np.array([0, 0, 1]), p=2)
    gm = merged_graph(g, part)
    assert [(i, j) for (i, j, _) in gm.edge_list()] == [(0, 1)]

    whole = merged_graph(g, Partition(labels=np.zeros(3, dtype=int), p=1))
    assert whole.edge_list() == g.edge_list()


def test_merged_graph_bridge_between_triangles():
    # partitioning two triangles joined by a bridge must cut the bridge only
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    part = multilevel_partition(g, 2, seed=0, max_imbalance=1.0)
    assert cut_edges(g, part) == [(2, 3)]
    gm = merged_graph(g, part)
    assert gm.m == 6
    assert component_count(gm) == 2


def test_spanning_forest_of_tree_is_tree():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    t = random_spanning_forest(g, np.arange(g.m), seed=3)
    assert t.dtype == np.int64
    assert t.tolist() == list(range(g.m))


def test_spanning_forest_triangle_and_empty():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    t = random_spanning_forest(g, np.arange(g.m), seed=1)
    assert len(t) == 2
    empty = Graph(4, [])
    assert len(random_spanning_forest(empty, np.arange(0), seed=0)) == 0
    # only the candidate edges are scanned
    only = random_spanning_forest(g, np.array([1]), seed=1)
    assert only.tolist() == [1]


def test_spanning_forest_properties():
    rng = np.random.default_rng(7)
    for trial in range(15):
        g = _random_graph(40, 50, rng)
        n_comp = component_count(g)
        t = random_spanning_forest(g, np.arange(g.m), seed=trial)
        assert len(t) == g.n - n_comp
        assert np.all(np.diff(t) > 0)
        # forest edges form an acyclic subgraph spanning every component
        lo, hi, w = g.edge_arrays()
        forest = Graph(g.n, zip(lo[t].tolist(), hi[t].tolist(), w[t].tolist()))
        assert component_count(forest) == n_comp
        again = random_spanning_forest(g, np.arange(g.m), seed=trial)
        assert np.array_equal(again, t)


def test_connectivity_aware_trivial_cases():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # tree input: residual is empty, every piece is the whole path
    d = connectivity_aware_decompose(path, 1, 3, seed=2)
    for piece in d.pieces:
        assert _pairs(d, piece) == [(0, 1), (1, 2), (2, 3)]
    single = connectivity_aware_decompose(path, 1, 1, seed=2)
    assert _pairs(single, single.pieces[0]) == [(0, 1), (1, 2), (2, 3)]


def test_connectivity_aware_triangle_trace():
    # seed 0 draws the forest {(0,1),(1,2)}; the lone residual edge (0,2)
    # goes to piece 0, so piece 1 is exactly the skeleton
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    d = connectivity_aware_decompose(g, 1, 2, seed=0)
    assert _pairs(d, d.skeleton) == [(0, 1), (1, 2)]
    assert _pairs(d, d.pieces[0]) == [(0, 1), (0, 2), (1, 2)]
    assert _pairs(d, d.pieces[1]) == [(0, 1), (1, 2)]


def test_connectivity_aware_invariants():
    rng = np.random.default_rng(11)
    for trial in range(12):
        g = _random_graph(50, 120, rng)
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        d = connectivity_aware_decompose(g, p, k, seed=trial)
        edge_pairs = {(i, j) for (i, j, _) in g.edge_list()}
        assert edge_union(d) == edge_pairs
        skel = set(_pairs(d, d.skeleton))
        residual_seen = []
        for piece in d.pieces:
            piece_pairs = set(_pairs(d, piece))
            assert skel <= piece_pairs
            residual_seen += sorted(piece_pairs - skel)
        # non-skeleton edges are covered exactly once
        assert len(residual_seen) == len(set(residual_seen))
        assert set(residual_seen) == edge_pairs - skel
        gm_comp = component_count(merged_graph(g, multilevel_partition(
            g, p, seed=np.random.SeedSequence(trial).spawn(2)[0])))
        g_comp = component_count(g)
        for i in range(k):
            pc = component_count(piece_graph(d, i))
            assert g_comp <= pc <= gm_comp
        again = connectivity_aware_decompose(g, p, k, seed=trial)
        assert _same_pieces(again, d)
        assert np.array_equal(again.skeleton, d.skeleton)


def test_connectivity_aware_without_skeleton():
    rng = np.random.default_rng(13)
    g = _random_graph(30, 80, rng)
    d = connectivity_aware_decompose(g, 3, 4, seed=9, with_skeleton=False)
    assert len(d.skeleton) == 0
    all_pairs = [e for piece in d.pieces for e in _pairs(d, piece)]
    assert sorted(all_pairs) == sorted({(i, j) for (i, j, _) in g.edge_list()})


def _planted(rng, n, blocks, deg_in=8.0, deg_out=0.8):
    """Sparse planted-partition graph, as the benchmark's partition input."""
    block_of = np.arange(n) % blocks
    members = [np.flatnonzero(block_of == b) for b in range(blocks)]
    edges = set()
    target = int(round(n * deg_in / 2))
    while len(edges) < target:
        a, c = rng.choice(members[int(rng.integers(0, blocks))], size=2)
        if a != c:
            edges.add((int(min(a, c)), int(max(a, c))))
    target = len(edges) + int(round(n * deg_out / 2))
    while len(edges) < target:
        a, c = (int(v) for v in rng.integers(0, n, size=2))
        if block_of[a] != block_of[c]:
            edges.add((min(a, c), max(a, c)))
    return Graph(n, sorted(edges))


def _reference_graphs():
    """(graph, p) cases: small shapes, weighted, disconnected and planted."""
    rng = np.random.default_rng(41)

    def weighted(g):
        return Graph(g.n, [(i, j, float(rng.uniform(0.5, 2.0)))
                           for (i, j, _) in g.edge_list()])

    two_triangles = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]
    return [
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 1),
        (Graph(3, [(0, 1), (1, 2), (0, 2)]), 1),
        (Graph(5, []), 2),
        (Graph(7, two_triangles), 2),
        (Graph(8, [(0, c) for c in range(1, 8)]), 3),
        (Graph(10, [(i, (i + 1) % 10) for i in range(10)]), 3),
        (Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]), 2),
        (_random_graph(40, 50, rng), 4),
        (weighted(_random_graph(40, 50, rng)), 4),
        (_random_graph(60, 200, rng), 5),
        (weighted(_random_graph(120, 400, rng)), 6),
        (weighted(_planted(rng, 300, 4)), 8),
        (_planted(np.random.default_rng(7), 2000, 10), 16),
    ]


def test_decompositions_match_tuple_reference():
    """Index-array pieces deal the same edges as the tuple-based loops."""
    cases = 0
    for g, p in _reference_graphs():
        partitions = {}
        for k in (1, 3, 4):
            for seed in (0, 7, 123):
                d = random_decompose(g, k, seed)
                assert tuple(map(d.triples, d.pieces)) == \
                    random_decompose_reference(g, k, seed)
                assert len(d.skeleton) == 0
                cases += 1
                for with_skeleton in (True, False):
                    d = connectivity_aware_decompose(
                        g, p, k, seed, with_skeleton=with_skeleton,
                        partitions=partitions)
                    pieces, skeleton = connectivity_aware_decompose_reference(
                        g, p, k, seed, with_skeleton=with_skeleton,
                        partitions=partitions)
                    assert tuple(map(d.triples, d.pieces)) == pieces
                    assert d.triples(d.skeleton) == skeleton
                    cases += 1
    assert cases == 351


def test_decomposition_arrays_are_read_only():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    d = connectivity_aware_decompose(g, 2, 2, seed=0)
    for a in (*d.edges, *d.pieces, d.skeleton):
        with pytest.raises(ValueError):
            a[:1] = 0


def test_spectral_split_exact_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    s = spectral_split(a, 1)
    assert np.array_equal(s.pieces[0], a)


def test_spectral_split_sums_back():
    rng = np.random.default_rng(4)
    for groups in (2, 3, 6):
        a = rng.normal(size=(6, 6))
        s = spectral_split(a, groups)
        assert len(s.pieces) == groups
        assert np.max(np.abs(s.reconstruct() - a)) < 1e-9


def test_spectral_split_diagonal_directions():
    s = spectral_split(np.diag([3.0, 2.0, 1.0]), 3)
    assert np.allclose(s.pieces[0], np.diag([3.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(s.pieces[1], np.diag([0.0, 2.0, 0.0]), atol=1e-12)
    assert np.allclose(s.pieces[2], np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    # round robin by descending singular index
    two = spectral_split(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(two.pieces[0], np.diag([3.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(two.pieces[1], np.diag([0.0, 2.0, 0.0]), atol=1e-12)


def test_spectral_split_rejects_bad_input():
    with pytest.raises(DomainError):
        spectral_split(np.ones((2, 3)), 1)
    with pytest.raises(DomainError):
        spectral_split(np.eye(3), 4)
    with pytest.raises(DomainError):
        spectral_split(np.eye(3), 0)


def test_spectral_splits_match_one_at_a_time():
    """A batch of mixed shapes and group counts splits like each alone."""
    rng = np.random.default_rng(5)
    deficient = rng.normal(size=(4, 4))
    deficient[:, 0] = deficient[:, -1]
    mats = [np.eye(4), rng.normal(size=(4, 4)), deficient,
            rng.normal(size=(2, 2)), np.zeros((3, 3)),
            np.asfortranarray(rng.normal(size=(4, 4))), np.array([[3.0]]),
            rng.normal(size=(3, 3))]
    groups = [4, 2, 4, 1, 3, 3, 1, 2]
    got = spectral_splits(mats, groups)
    assert len(got) == len(mats)
    for a, count, split in zip(mats, groups, got):
        want = spectral_split(a, count)
        assert split.groups == want.groups == count
        assert split.piece_of == want.piece_of
        assert np.array_equal(split.sigma, want.sigma)
        assert len(split.pieces) == len(want.pieces)
        for p, q in zip(split.pieces, want.pieces):
            assert np.array_equal(p, q)
    assert spectral_splits([], []) == []


@pytest.mark.parametrize("bad, count", [
    (np.ones((2, 3)), 1),
    (np.eye(3), 4),
    (np.eye(3), 0),
    (np.full((2, 2), np.nan), 1),
], ids=["not-square", "too-many-groups", "no-groups", "non-finite"])
def test_spectral_splits_raise_what_spectral_split_raises(bad, count):
    with pytest.raises(DomainError) as alone:
        spectral_split(bad, count)
    with pytest.raises(DomainError) as batched:
        spectral_splits([np.eye(2), bad, np.eye(3)], [2, count, 1])
    assert str(batched.value) == str(alone.value)


def test_spectral_splits_need_one_group_count_per_matrix():
    with pytest.raises(DomainError):
        spectral_splits([np.eye(2), np.eye(2)], [1])


def test_stats_duplication():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    st = decomposition_stats(g, random_decompose(g, 1, seed=0))
    assert st["duplication_factor"] == 1.0

    # tree input: every piece equals the skeleton, duplication = k
    d = connectivity_aware_decompose(g, 1, 3, seed=0)
    st = decomposition_stats(g, d)
    assert st["duplication_factor"] == 3.0
    assert st["skeleton_edges"] == 3

    rng = np.random.default_rng(1)
    g100 = _random_graph(60, 100, rng)
    st = decomposition_stats(g100, random_decompose(g100, 4, seed=2))
    assert st["piece_edges"] == [25, 25, 25, 25]


def test_piece_matrices_global_discount_sums_to_whole():
    rng = np.random.default_rng(17)
    g = _random_graph(20, 40, rng)
    d = connectivity_aware_decompose(g, 2, 3, seed=5)
    mats = piece_matrices(g, d, discount=True)
    want = normalized_adjacency(g)
    assert np.max(np.abs(sum(mats) - want)) < 1e-12
    # without discount the shared entries are replicated, so the sum drifts
    plain = piece_matrices(g, d, discount=False)
    assert np.max(np.abs(sum(plain) - want)) > 1e-6


def test_piece_matrices_match_dense_reference():
    """The scattered trainer entries are the bits of the dense masking."""
    cases = 0
    for g, p in _reference_graphs():
        if g.n > 300:
            continue
        for k in (1, 3):
            decs = [random_decompose(g, k, seed=5)] + [
                connectivity_aware_decompose(g, p, k, seed=5,
                                             with_skeleton=with_skeleton)
                for with_skeleton in (True, False)]
            for d in decs:
                for discount in (False, True):
                    got = piece_matrices(g, d, discount=discount)
                    want = piece_matrices_reference(g, d, discount=discount)
                    assert len(got) == k
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)
                        assert np.array_equal(a, a.T)
                    cases += 1
    assert cases == 144


def test_piece_matrices_reject_a_decomposition_of_other_edges():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for other in (Graph(4, [(0, 2), (0, 3), (1, 3)]), Graph(5, g.edge_list())):
        with pytest.raises(DomainError, match="not of this graph's edges"):
            piece_matrices(g, random_decompose(other, 1, seed=0))


def test_layer_decompositions_independent_per_layer():
    rng = np.random.default_rng(23)
    g = _random_graph(25, 60, rng)
    ds = layer_decompositions(g, [2, 2, 3], "random", p=1, seed=40)
    assert [d.k for d in ds] == [2, 2, 3]
    assert not _same_pieces(ds[0], ds[1])  # different layer seeds
    again = layer_decompositions(g, [2, 2, 3], "random", p=1, seed=40)
    assert all(_same_pieces(a, b) for a, b in zip(ds, again))
    with pytest.raises(DomainError):
        layer_decompositions(g, [2], "magic", p=1, seed=0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    g = _random_graph(15, 30, rng)
    for d in (random_decompose(g, 3, seed=7),
              connectivity_aware_decompose(g, 2, 3, seed=7)):
        out = tmp_path / d.source
        save_decomposition(d, out)
        assert (out / "meta.json").exists()
        assert (out / "skeleton.txt").exists()
        assert (out / "piece_2.txt").exists()
        # weights print as Python floats: "1.0", not "np.float64(1.0)"
        first = (out / "piece_0.txt").read_text().splitlines()[0]
        assert first.endswith(" 1.0")
        back = load_decomposition(out)
        assert (back.n, back.k, back.source, back.p, back.seed) == (
            d.n, d.k, d.source, d.p, d.seed)
        # every edge lies in some piece, so the files' edges are the graph's
        for got, want in zip(back.edges, d.edges):
            assert np.array_equal(got, want)
        assert _same_pieces(back, d)
        assert np.array_equal(back.skeleton, d.skeleton)
        assert back.triples(back.skeleton) == d.triples(d.skeleton)


def test_load_rejects_an_edge_with_two_weights(tmp_path):
    g = Graph(3, [(0, 1), (1, 2)])
    out = tmp_path / "dec"
    save_decomposition(random_decompose(g, 2, seed=0), out)
    (out / "skeleton.txt").write_text("0 1 2.5\n")
    with pytest.raises(ParseError, match="two weights"):
        load_decomposition(out)


def _stats_oracle(d):
    return [component_count(piece_graph(d, i)) for i in range(d.k)]


def test_stats_piece_components_match_dfs_oracle(tmp_path):
    """Union-find counts equal depth-first counts on every kind of piece."""
    rng = np.random.default_rng(43)
    cases = [(g, p) for g, p in _reference_graphs() if g.n < 1000]
    cases += [(_random_graph(n, m, rng), 3)
              for n, m in ((12, 4), (30, 20), (50, 45), (80, 300))]
    checked = 0
    for g, p in cases:
        partitions = {}
        for k in (1, 3, 4):
            decs = [random_decompose(g, k, seed=k)] + [
                connectivity_aware_decompose(
                    g, p, k, seed=k, with_skeleton=with_skeleton,
                    partitions=partitions)
                for with_skeleton in (True, False)]
            for d in decs:
                stats = decomposition_stats(g, d)
                assert stats["piece_components"] == _stats_oracle(d)
                checked += 1
                if k != 3:
                    continue
                out = tmp_path / str(checked)
                save_decomposition(d, out)
                back = load_decomposition(out)
                assert decomposition_stats(g, back) == stats
                assert _stats_oracle(back) == _stats_oracle(d)
    assert checked == 9 * len(cases)


_GOOD_LINE = "0 1 1.0\n"


@pytest.mark.parametrize("name, text, line", [
    ("piece_0.txt", "1 5 1.0", 2),
    ("piece_0.txt", "-1 1 1.0", 2),
    ("piece_1.txt", "2 1 1.0", 2),
    ("skeleton.txt", "1 1 1.0", 1),
    ("piece_0.txt", "0 x 1.0", 2),
    ("piece_0.txt", "0.5 1 1.0", 2),
    ("piece_0.txt", "0 2 heavy", 2),
    ("piece_1.txt", "0 2 inf", 2),
    ("piece_1.txt", "0 2 nan", 2),
    ("piece_0.txt", "0 2 0.0", 2),
    ("piece_0.txt", "0 2 -2.0", 2),
    ("piece_1.txt", "0 2", 2),
    ("skeleton.txt", "0 2 1.0 1.0", 1),
], ids=["id-past-n", "negative-id", "i-above-j", "self-loop",
        "non-integer-id", "float-id", "non-number-weight", "infinite-weight",
        "nan-weight", "zero-weight", "negative-weight", "two-fields",
        "four-fields"])
def test_load_rejects_bad_edge_lines(tmp_path, name, text, line):
    g = Graph(3, [(0, 1), (1, 2)])
    out = tmp_path / "dec"
    save_decomposition(random_decompose(g, 2, seed=0), out)
    prefix = "" if line == 1 else _GOOD_LINE
    (out / name).write_text(prefix + text + "\n")
    with pytest.raises(ParseError) as exc:
        load_decomposition(out)
    assert exc.value.path == str(out / name)
    assert exc.value.line == line


@pytest.mark.parametrize("edit", [
    lambda meta: {},
    lambda meta: {**meta, "n": None},
    lambda meta: {key: v for key, v in meta.items() if key != "n"},
    lambda meta: {**meta, "n": "3"},
    lambda meta: {**meta, "n": 2.5},
    lambda meta: {**meta, "n": 0},
    lambda meta: {key: v for key, v in meta.items() if key != "k"},
    lambda meta: {**meta, "k": "two"},
    lambda meta: {**meta, "k": True},
    lambda meta: {key: v for key, v in meta.items() if key != "source"},
    lambda meta: {**meta, "source": 3},
    lambda meta: {**meta, "p": "four"},
    lambda meta: {**meta, "seed": -1},
    lambda meta: [meta],
], ids=["empty", "null-n", "missing-n", "string-n", "float-n", "zero-n",
        "missing-k", "string-k", "bool-k", "missing-source", "int-source",
        "string-p", "negative-seed", "not-an-object"])
def test_load_rejects_bad_metadata(tmp_path, edit):
    g = Graph(3, [(0, 1), (1, 2)])
    out = tmp_path / "dec"
    save_decomposition(random_decompose(g, 2, seed=0), out)
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps(edit(meta)))
    with pytest.raises(ParseError) as exc:
        load_decomposition(out)
    assert exc.value.path == str(out / "meta.json")
