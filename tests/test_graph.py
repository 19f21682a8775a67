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
from oracles import adjacency, connected_components_dfs


def test_graph_basic():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    assert g.n == 4
    assert g.m == 3
    assert g.neighbors(2)[1] == 2.0
    assert g.neighbors(1) == {0: 1.0, 2: 2.0}
    assert 2 not in g.neighbors(0) and 0 not in g.neighbors(2)
    assert g.edge_list() == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]


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
    assert g.neighbors(0)[1] == 4.0 and g.edge_list() == [(0, 1, 4.0)]


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
    """Bits equal the dense (A + I) * d^-1/2 (rows) * d^-1/2 (columns)."""
    rng = np.random.default_rng(19)
    for g in _random_graphs(rng, 150, weighted=True):
        inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
        want = ((adjacency(g) + np.eye(g.n)) * inv_sqrt[:, None]
                * inv_sqrt[None, :])
        assert np.array_equal(normalized_adjacency(g), want)


def test_induced_subgraph_keeps_weights():
    g = Graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    sub, mapping = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3
    assert mapping == [1, 2, 3]
    assert sub.edge_list() == [(0, 1, 2.0), (1, 2, 3.0)]


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
