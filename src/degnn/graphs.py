"""Undirected weighted graphs: construction, file ingestion, normalization.

The Graph type is the package currency for every structural operation. Edges
are canonical (i, j) pairs with i < j and positive finite weights. A Graph
stores them once, as read-only (i, j, w) arrays sorted by (i, j), and holds
nothing else: duplicates are found in the sorted arrays, and edge lists,
induced subgraphs and dense matrices are formed from them on request. The
partitioner builds its own per-node dicts from the arrays and frees them
before it returns. One union-find over edge index arrays gives connected
components here, and spanning forests and piece component counts in
degnn.decompose. Measured scale: a 3-block stochastic block model with
n=20,000 and m=45,012 loads from an edge list file with a 47 MiB peak RSS,
and one multilevel_partition of it into p=16 parts takes 6.6-7.9 s of CPU
and peaks at 67 MiB, on one core of a shared 2-core Intel Xeon host.
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

    Treat instances as frozen: no method changes the graph, and its edge
    arrays are read-only.
    """

    __slots__ = ("n", "_arrays")

    def __init__(self, n, edges=()):
        if not isinstance(n, (int, np.integer)) or n <= 0:
            raise DomainError(f"node count must be a positive int, got {n!r}")
        self.n = int(n)
        lo, hi, wt = [], [], []
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
            lo.append(i)
            hi.append(j)
            wt.append(w)
        lo = np.array(lo, dtype=np.int64)
        hi = np.array(hi, dtype=np.int64)
        order = np.lexsort((hi, lo))
        arrays = (lo[order], hi[order], np.array(wt, dtype=np.float64)[order])
        lo, hi, _ = arrays
        # a repeated pair sorts next to its first copy
        dup = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
        if len(dup):
            raise DomainError(f"duplicate edge ({lo[dup[0]]}, {hi[dup[0]]})")
        for a in arrays:
            a.flags.writeable = False
        self._arrays = arrays

    @property
    def m(self):
        """Number of undirected edges."""
        return len(self._arrays[0])

    def edge_list(self):
        """Sorted list of (i, j, weight) triples."""
        return list(zip(*(a.tolist() for a in self._arrays)))

    def edge_arrays(self):
        """Read-only (i, j, w) arrays of the edges, i < j, sorted by (i, j)."""
        return self._arrays

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(path):
    """Read a whitespace-separated edge list file into a Graph.

    Each non-blank line is "src dst" or "src dst weight"; text after '#' is
    a comment. Duplicate undirected pairs collapse to one edge (the last
    weight read wins); self-loop lines are skipped with a warning. Node
    count is 1 + max id seen.

    Raises ParseError (with 1-based line number) on malformed lines, on a
    weight that is not a finite number > 0, and on an empty file; and
    DomainError on negative ids.
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
                    w = np.nan
                if not 0.0 < w < np.inf:
                    raise ParseError(
                        f"weight must be a finite number > 0, got {parts[2]!r}",
                        path=path, line=lineno,
                    )
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


def self_looped_degrees(g):
    """Row sums of A + I: 1 plus each node's weighted degree, so at least 1."""
    i, j, w = g.edge_arrays()
    return 1.0 + np.bincount(i, w, g.n) + np.bincount(j, w, g.n)


def normalized_values(g, i, j, w):
    """Entries (i, j) of D^{-1/2} (A + I) D^{-1/2}, given those of A + I.

    w holds the matching entries of A + I: the edge weights, or 1 on the
    diagonal. No n x n array is formed; each entry is (w * d_i^{-1/2}) *
    d_j^{-1/2}.
    """
    inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
    return w * inv_sqrt[i] * inv_sqrt[j]


def piece_entries(g, k, skeleton, residuals, discount=False):
    """(rows, cols, slots, vals) of k pieces of D^{-1/2} (A + I) D^{-1/2}.

    skeleton and each of the k residuals are index arrays into
    g.edge_arrays(). Every piece holds the diagonal and the skeleton edges,
    stored once in a shared slot (k, or 0 when k is 1), and piece t its
    residual edges in slot t. discount divides the shared entries by k, so
    the pieces sum to the whole-graph matrix again. The diagonal comes
    first, then each edge (i < j) at (i, j) and (j, i) with one value.
    """
    n = g.n
    lo, hi, weight = g.edge_arrays()
    upper = np.concatenate([skeleton, *residuals])
    diag = np.arange(n)
    i = np.r_[diag, lo[upper]]
    j = np.r_[diag, hi[upper]]
    w = np.r_[np.ones(n), weight[upper]]
    shared_slot = k if k > 1 else 0
    slots = np.repeat([shared_slot, shared_slot, *range(k)],
                      [n, len(skeleton), *map(len, residuals)])
    vals = normalized_values(g, i, j, w)
    if discount:
        vals[:n + len(skeleton)] /= k
    off = slice(n, None)
    return (np.r_[i, j[off]], np.r_[j, i[off]], np.r_[slots, slots[off]],
            np.r_[vals, vals[off]])


def normalized_adjacency(g):
    """Symmetric degree-normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    Degrees are row sums of the self-looped matrix, so every degree is at
    least 1, isolated nodes included. The result has spectral norm 1. It is
    the one piece of piece_entries over every edge, as a dense array.
    """
    rows, cols, _, vals = piece_entries(g, 1, np.arange(0), [np.arange(g.m)])
    a = np.zeros((g.n, g.n))
    a[rows, cols] = vals
    return a


def union_find(n, lo, hi):
    """Join the trees of nodes 0..n-1 along edges (lo[e], hi[e]), in order.

    Returns (kept, root). kept holds, ascending, the positions e whose edge
    joined two different trees, so those edges form a spanning forest of
    the scanned edges and n - len(kept) is their graph's component count.
    root[v] is the root of node v's tree at the end: two nodes share a root
    exactly when the edges connect them.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for e, (i, j) in enumerate(zip(lo.tolist(), hi.tolist())):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            kept.append(e)
    root = [find(v) for v in range(n)]
    return np.array(kept, dtype=np.int64), np.array(root, dtype=np.int64)


def connected_components(g):
    """Label nodes by component: array of length n, labels 0..c-1.

    Component labels follow first-seen order scanning nodes by id, so the
    component containing node 0 is label 0.
    """
    lo, hi, _ = g.edge_arrays()
    _, root = union_find(g.n, lo, hi)
    _, first, inverse = np.unique(root, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


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
    index = np.full(g.n, -1, dtype=np.int64)
    index[nodes] = np.arange(len(nodes))
    lo, hi, w = g.edge_arrays()
    lo, hi = index[lo], index[hi]
    keep = (lo >= 0) & (hi >= 0)
    # relabeling keeps the order, so the kept edges stay sorted with i < j
    edges = zip(lo[keep].tolist(), hi[keep].tolist(), w[keep].tolist())
    return Graph(len(nodes), edges), nodes
