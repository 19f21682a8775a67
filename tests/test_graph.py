import numpy as np
import pytest

from degnn.errors import DomainError, ParseError
from degnn.graphs import (
    Graph,
    connected_components,
    induced_subgraph,
    load_edge_list,
    normalized_adjacency,
    normalized_values,
    self_looped_degrees,
)
from degnn.linalg import kron, vec
from oracles import (
    adjacency,
    connected_components_dfs,
    induced_subgraph_reference,
)


def test_graph_basic():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    assert g.n == 4
    assert g.m == 3
    assert g.edge_list() == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]
    # each undirected edge is stored once, as i < j; (0, 2) is not an edge
    i, j, w = g.edge_arrays()
    assert (i < j).all()
    assert not ((i == 0) & (j == 2)).any()
    # a node's neighbors and weights are read from both columns
    touches = (i == 1) | (j == 1)
    other = np.where(i == 1, j, i)
    assert sorted(zip(other[touches].tolist(),
                      w[touches].tolist())) == [(0, 1.0), (2, 2.0)]


def test_graph_sorts_its_edge_arrays():
    """Edges given in any order and orientation are stored sorted, i < j."""
    g = Graph(5, [(3, 1, 0.5), (4, 0), (0, 2, 2.5), (1, 0, 3.0), (2, 1)])
    i, j, w = g.edge_arrays()
    assert i.tolist() == [0, 0, 0, 1, 1] and j.tolist() == [1, 2, 4, 2, 3]
    assert w.tolist() == [3.0, 2.5, 1.0, 1.0, 0.5]
    assert g.edge_list() == list(zip(i.tolist(), j.tolist(), w.tolist()))
    assert g.m == 5
    for a in g.edge_arrays():
        with pytest.raises(ValueError):
            a[0] = 1
    empty = Graph(3)
    assert empty.m == 0 and empty.edge_list() == []
    assert [a.dtype for a in empty.edge_arrays()] == [np.int64, np.int64,
                                                       np.float64]


@pytest.mark.parametrize("edges, pair", [
    ([(0, 1), (1, 0)], (0, 1)),
    ([(0, 1), (0, 1)], (0, 1)),
    ([(2, 1, 0.5), (3, 0), (1, 2, 4.0)], (1, 2)),
    ([(3, 2), (0, 1), (1, 3), (0, 2), (1, 0, 2.0)], (0, 1)),
])
def test_graph_rejects_duplicate_edges(edges, pair):
    """(i, j) then (j, i), or (i, j) twice, anywhere in the list."""
    with pytest.raises(DomainError, match=rf"^duplicate edge \({pair[0]}, "
                                          rf"{pair[1]}\)$"):
        Graph(4, edges)


def test_graph_rejects_bad_edges():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization
    with pytest.raises(DomainError):
        Graph(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1, 0.0)])
    with pytest.raises(DomainError):
        Graph(0, [])


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n0 1\n2 3 2.5\n\n1 2\n")
    g = load_edge_list(path)
    assert g.n == 4
    assert g.edge_list() == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.5)]


def test_edge_list_duplicate_last_wins(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1.0\n1 0 4.0\n")
    g = load_edge_list(path)
    assert g.m == 1 and g.edge_list() == [(0, 1, 4.0)]
    assert g.edge_arrays()[2].tolist() == [4.0]


def test_edge_list_skips_self_loops_with_warning(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 1\n1 2\n")
    with pytest.warns(UserWarning):
        g = load_edge_list(path)
    assert g.m == 2


def test_edge_list_parse_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\nnope\n")
    with pytest.raises(ParseError) as exc:
        load_edge_list(path)
    assert ":2" in str(exc.value)

    path.write_text("0 1 2 3\n")
    with pytest.raises(ParseError):
        load_edge_list(path)

    path.write_text("0 -1\n")
    with pytest.raises(DomainError):
        load_edge_list(path)

    # a weight that is not finite and > 0 is named by its own line, even
    # when a later line gives the pair a valid weight
    for text, line in (("0 1\n1 2 -2\n", 2), ("0 1 -2\n0 1 1\n1 2\n", 1),
                       ("0 1 0\n", 1), ("0 1 nan\n", 1), ("0 1 inf\n", 1),
                       ("0 1 heavy\n", 1)):
        path.write_text(text)
        with pytest.raises(ParseError, match="finite number > 0") as exc:
            load_edge_list(path)
        assert (exc.value.path, exc.value.line) == (str(path), line)

    path.write_text("# only a comment\n\n")
    with pytest.raises(ParseError):
        load_edge_list(path)


def test_adjacency_symmetric():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    a = adjacency(g)
    assert np.array_equal(a, a.T)
    assert a[0, 1] == 2.0 and a[2, 1] == 3.0 and a[0, 2] == 0.0


def test_normalized_adjacency_known_values():
    # path on 3 nodes, self loops added: spectrum is 1, 1/2, 1/6
    g = Graph(3, [(0, 1), (1, 2)])
    a = normalized_adjacency(g)
    assert np.array_equal(a, a.T)
    assert abs(a[0, 0] - 0.5) < 1e-15
    assert abs(a[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
    assert abs(a[1, 1] - 1.0 / 3.0) < 1e-15


def test_normalized_adjacency_isolated_node():
    g = Graph(2, [])
    a = normalized_adjacency(g)  # self loops rescue isolated nodes
    assert np.allclose(a, np.eye(2))


def test_normalized_values_match_dense_matrix():
    """Weighted degrees and entries agree with the dense normalization."""
    g = Graph(5, [(0, 1, 0.3), (1, 2, 2.0), (0, 2, 1.7), (2, 3, 0.1)])
    i, j, w = g.edge_arrays()
    assert i.tolist() == [0, 0, 1, 2] and j.tolist() == [1, 2, 2, 3]
    assert w.tolist() == [0.3, 1.7, 2.0, 0.1]
    with pytest.raises(ValueError):
        w[0] = 1.0
    dense = adjacency(g) + np.eye(5)
    assert np.allclose(self_looped_degrees(g), dense.sum(axis=1),
                       rtol=1e-15, atol=0.0)
    want = normalized_adjacency(g)
    np.testing.assert_allclose(normalized_values(g, i, j, w), want[i, j],
                               rtol=1e-15, atol=0.0)
    diag = np.arange(5)
    np.testing.assert_allclose(normalized_values(g, diag, diag, 1.0),
                               np.diag(want), rtol=1e-15, atol=0.0)
    assert normalized_values(g, diag, diag, 1.0)[4] == 1.0  # isolated node


def test_connected_components_labels_first_seen():
    g = Graph(6, [(0, 2), (1, 3), (4, 5)])
    comp = connected_components(g)
    assert comp.tolist() == [0, 1, 0, 1, 2, 2]


def _random_graphs(rng, count, weighted=False):
    """Random graphs of 1 to 40 nodes, sparse to dense, isolated nodes too."""
    for _ in range(count):
        n = int(rng.integers(1, 41))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = int(rng.integers(0, len(pairs) + 1)) if rng.random() < 0.3 \
            else int(rng.integers(0, n + 1))
        chosen = rng.permutation(len(pairs))[:m]
        edges = [pairs[e] + ((float(rng.uniform(0.1, 3.0)),) if weighted
                             else ()) for e in chosen]
        yield Graph(n, edges)


def test_connected_components_match_dfs_oracle():
    """The union-find labels equal the depth-first search's on 400 graphs."""
    rng = np.random.default_rng(17)
    graphs = list(_random_graphs(rng, 400)) + [Graph(1), Graph(7)]
    counts = set()
    for g in graphs:
        got = connected_components(g)
        assert got.dtype == np.int64
        assert np.array_equal(got, connected_components_dfs(g))
        counts.add(int(got.max()) + 1)
    assert 1 in counts and max(counts) >= 20  # one and many components


def test_normalized_adjacency_matches_dense_formula():
    """Bits equal the upper triangle of the dense (A + I) * d^-1/2 (rows)
    * d^-1/2 (columns), mirrored, so the matrix is exactly symmetric."""
    rng = np.random.default_rng(19)
    for g in _random_graphs(rng, 150, weighted=True):
        inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
        upper = np.triu((adjacency(g) + np.eye(g.n)) * inv_sqrt[:, None]
                        * inv_sqrt[None, :])
        a = normalized_adjacency(g)
        assert np.array_equal(a, upper + np.triu(upper, 1).T)
        assert np.array_equal(a, a.T)


def test_induced_subgraph_keeps_weights():
    g = Graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    sub, mapping = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3
    assert mapping == [1, 2, 3]
    assert sub.edge_list() == [(0, 1, 2.0), (1, 2, 3.0)]


def test_induced_subgraph_matches_neighbor_walk():
    """The array selection equals the old walk over neighbor dicts.

    Random weighted graphs listed in random order, and node subsets given
    unsorted, with repeated ids, as lists, arrays and generators.
    """
    rng = np.random.default_rng(23)
    graphs = list(_random_graphs(rng, 120, weighted=True)) + [Graph(1)]
    for g in graphs:
        for _ in range(3):
            size = int(rng.integers(1, 2 * g.n + 1))
            ids = rng.integers(0, g.n, size=size)
            for nodes in (ids.tolist(), ids, (int(v) for v in ids)):
                want, want_map = induced_subgraph_reference(g, ids)
                got, got_map = induced_subgraph(g, nodes)
                assert got_map == want_map
                assert got.n == want.n
                assert got.edge_list() == want.edge_list()
                for a, b in zip(got.edge_arrays(), want.edge_arrays()):
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()
    with pytest.raises(DomainError):
        induced_subgraph(Graph(3, [(0, 1)]), [])
    with pytest.raises(DomainError):
        induced_subgraph(Graph(3, [(0, 1)]), [0, 3])


def test_vec_stacks_columns():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, d = rng.integers(1, 9, size=2)
        x = rng.normal(size=(n, d))
        v = vec(x)
        assert v.shape == (n * d,)
        for j in range(d):
            assert np.array_equal(v[j * n:(j + 1) * n], x[:, j])


def test_kron_matches_numpy_bytes_for_any_layout():
    rng = np.random.default_rng(5)
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    layouts = (np.ascontiguousarray, np.asfortranarray,
               lambda x: np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1])
    for sa in shapes:
        for sb in shapes:
            a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
            for fa in layouts:
                for fb in layouts:
                    a, b = fa(a0), fb(b0)
                    got, want = kron(a, b), np.kron(a, b)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def test_vec_of_matrix_product_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d = rng.integers(1, 8, size=2)
        a = rng.normal(size=(n, n))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, d))
        lhs = vec(a @ x @ w)
        rhs = kron(w.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
