"""Edge decompositions of a graph into K overlapping or disjoint pieces.

Two strategies produce K subgraphs over the original node set: a uniform
random deal of the edges, and a connectivity-aware construction that first
shrinks the graph to intra-partition edges, plants a random spanning forest
of that merged graph into every piece, and deals the remaining edges round
robin. A third, spectral, construction splits a dense matrix along its
singular directions.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .graphs import Graph, connected_components, normalized_adjacency
from .partition import multilevel_partition
from .spectral import _svd_each


@dataclass(frozen=True)
class Decomposition:
    """K edge sets over a shared node set, with an optional shared skeleton.

    pieces holds one sorted tuple of (i, j, w) triples per piece. skeleton
    is the common edge set T replicated into every piece by the
    connectivity-aware strategy; it is empty for the random strategy. p and
    seed record how the decomposition was drawn, for serialization.
    """

    n: int
    k: int
    pieces: tuple
    skeleton: tuple
    source: str
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or len(self.pieces) != self.k:
            raise DomainError(f"need k >= 1 pieces, got k={self.k}")
        if self.source not in ("random", "connectivity_aware", "spectral"):
            raise DomainError(f"unknown decomposition source {self.source!r}")

    def piece_graph(self, idx):
        """Piece idx as a Graph over the full node set."""
        return Graph(self.n, self.pieces[idx])

    def edge_union(self):
        """Set of (i, j) pairs appearing in any piece."""
        return {(i, j) for piece in self.pieces for (i, j, _) in piece}


def _sorted_triples(triples):
    return tuple(sorted((int(i), int(j), float(w)) for (i, j, w) in triples))


def random_decompose(g, k, seed):
    """Deal the edges of g into k pieces of near-equal size.

    The edge list is shuffled by seed, then dealt round robin, so piece
    sizes differ by at most one. Every edge lands in exactly one piece and
    the skeleton is empty.
    """
    k = _check_k(k)
    rng = np.random.default_rng(seed)
    edges = g.edge_list()
    order = rng.permutation(len(edges))
    shuffled = [edges[i] for i in order]
    pieces = tuple(_sorted_triples(piece) for piece in _deal(shuffled, k))
    return Decomposition(
        n=g.n, k=k, pieces=pieces, skeleton=(), source="random", seed=int(seed)
    )


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise DomainError(f"piece count must be an int >= 1, got {k!r}")
    return int(k)


def _deal(items, k):
    """Round-robin deal preserving order: item t goes to pile t mod k."""
    return [items[j::k] for j in range(k)]


def merged_graph(g, part):
    """g with every cut edge removed; only intra-part edges survive."""
    if len(part.labels) != g.n:
        raise DomainError("partition does not cover the graph")
    labels = part.labels
    kept = [(i, j, w) for (i, j, w) in g.edge_list() if labels[i] == labels[j]]
    return Graph(g.n, kept)


def random_spanning_forest(g, seed):
    """Uniformly seeded spanning forest of g as sorted (i, j, w) triples.

    Scans the edges in a shuffled order and keeps each edge that joins two
    different trees (union-find), so the result has exactly
    n - #components edges and touches every component.
    """
    rng = np.random.default_rng(seed)
    edges = g.edge_list()
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for idx in rng.permutation(len(edges)):
        i, j, w = edges[idx]
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j, w))
    return _sorted_triples(chosen)


def connectivity_aware_decompose(g, p, k, seed, with_skeleton=True,
                                 partitions=None):
    """Decompose g into k pieces that all contain one connecting skeleton.

    Pipeline: partition the nodes into p parts; drop the cut edges to get
    the merged graph; draw a random spanning forest T of the merged graph;
    deal every remaining edge of g (cut edges included) round robin over
    the pieces, visiting nodes in id order and each node's higher-id
    residual neighbors in ascending order with one shared counter. Piece k
    is its residual share plus all of T. Larger p cuts more edges, which
    shrinks T and loosens the connectivity the pieces inherit.

    with_skeleton=False keeps the dealing order but plants no forest, so
    the pieces partition the edge set exactly.

    partitions, when given, is a dict that the caller shares between calls
    on the same graphs, such as the cells of one sweep. It maps
    (g, p, seed) to the partition drawn for that key, keyed by the graph
    object itself, so each key is partitioned once. The partition does not
    depend on k or with_skeleton.
    """
    k = _check_k(k)
    ss = np.random.SeedSequence(seed)
    seed_part, seed_forest = ss.spawn(2)
    if partitions is None:
        partitions = {}
    key = (g, p, seed)
    if key not in partitions:
        partitions[key] = multilevel_partition(g, p, seed=seed_part)
    part = partitions[key]
    gm = merged_graph(g, part)
    if with_skeleton:
        skeleton = random_spanning_forest(gm, seed_forest)
    else:
        skeleton = ()
    in_skeleton = {(i, j) for (i, j, _) in skeleton}

    shares = [[] for _ in range(k)]
    counter = 0
    for i in range(g.n):
        for j in sorted(g.neighbors(i)):
            if j <= i or (i, j) in in_skeleton:
                continue
            shares[counter].append((i, j, g.weight(i, j)))
            counter = (counter + 1) % k
    pieces = tuple(_sorted_triples(list(skeleton) + share) for share in shares)
    return Decomposition(
        n=g.n,
        k=k,
        pieces=pieces,
        skeleton=skeleton,
        source="connectivity_aware",
        p=int(p),
        seed=int(seed),
    )


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """Additive split of a square matrix along its singular directions.

    pieces sum to the input matrix; sigma holds its singular values in
    descending order; groups is the piece count. piece_of[s] names the
    piece that received singular direction s.
    """

    pieces: tuple
    sigma: np.ndarray
    groups: int
    piece_of: tuple

    def reconstruct(self):
        total = np.zeros_like(self.pieces[0])
        for piece in self.pieces:
            total = total + piece
        return total


def spectral_split(a, groups):
    """Split square a into `groups` pieces sharing its singular bases.

    Piece g sums the rank-one terms sigma_s u_s v_s^T whose descending
    singular index s falls on group g under a round-robin assignment.
    groups=n isolates every singular direction in its own piece; groups=1
    returns the input unchanged.
    """
    return spectral_splits([a], [groups])[0]


def spectral_splits(mats, groups):
    """spectral_split(mats[i], groups[i]) for every i, as a list.

    Every matrix is validated first, in input order, with spectral_split's
    errors; then the SVDs of all matrices of one shape are taken as one
    batch, and each split is the same bits as a split of its matrix alone.
    """
    if len(mats) != len(groups):
        raise DomainError(
            f"{len(mats)} matrices but {len(groups)} group counts"
        )
    arrays = []
    for a, count in zip(mats, groups):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("spectral split needs a square matrix")
        n = a.shape[0]
        if not (1 <= count <= n):
            raise DomainError(f"need 1 <= groups <= {n}, got {count}")
        arrays.append(a)
    return [_split(a, count, res)
            for a, count, res in zip(arrays, groups, _svd_each(arrays))]


def _split(a, groups, res):
    """The SpectralSplit of square a into groups pieces, from res = svd(a)."""
    n = a.shape[0]
    if groups == 1:
        return SpectralSplit(
            pieces=(a.copy(),),
            sigma=res.sigma,
            groups=1,
            piece_of=tuple([0] * n),
        )
    piece_of = tuple(s % groups for s in range(n))
    pieces = []
    for gidx in range(groups):
        member = [s for s in range(n) if piece_of[s] == gidx]
        cols_u = res.u[:, member]
        cols_v = res.v[:, member]
        pieces.append((cols_u * res.sigma[member]) @ cols_v.T)
    return SpectralSplit(
        pieces=tuple(pieces), sigma=res.sigma, groups=groups, piece_of=piece_of
    )


def decomposition_stats(g, d):
    """Size and connectivity summary of a decomposition of g."""
    if d.n != g.n:
        raise DomainError("decomposition is over a different node set")
    piece_edges = [len(piece) for piece in d.pieces]
    piece_components = [
        int(connected_components(d.piece_graph(i)).max()) + 1 for i in range(d.k)
    ]
    total = sum(piece_edges)
    duplication = total / g.m if g.m else 1.0
    return {
        "k": d.k,
        "source": d.source,
        "piece_edges": piece_edges,
        "piece_components": piece_components,
        "skeleton_edges": len(d.skeleton),
        "duplication_factor": duplication,
    }


def piece_matrices(g, d, discount=False):
    """Dense propagation matrices, one per piece of a decomposition.

    Entries come from the symmetrically normalized matrix of the whole graph
    (self loops included), masked to each piece; every piece shares the
    self-loop diagonal. For certificates and tests only: each matrix is
    n x n, so this is sized for small graphs. The trainer builds the same
    pieces sparsely (train.PieceOperator), and the tests use this function
    as its oracle.

    discount divides the shared entries (skeleton edges and the self-loop
    diagonal) by k in every piece so the pieces sum to the whole-graph
    matrix again.
    """
    if d.n != g.n:
        raise DomainError("decomposition is over a different node set")
    k = d.k
    shared = {(i, j) for (i, j, _) in d.skeleton}
    base = normalized_adjacency(g)
    out = []
    for piece in d.pieces:
        m = np.zeros_like(base)
        np.fill_diagonal(m, np.diag(base) / (k if discount else 1))
        for (i, j, _) in piece:
            v = base[i, j]
            if discount and (i, j) in shared:
                v = v / k
            m[i, j] = v
            m[j, i] = v
        out.append(m)
    return out


def layer_decompositions(g, k_schedule, strategy, p, seed, with_skeleton=True,
                         partitions=None):
    """One independent decomposition per layer, layer i drawn at seed + i.

    partitions is the optional partition cache of
    connectivity_aware_decompose; the random strategy does not use it.
    """
    if strategy not in ("random", "connectivity_aware"):
        raise DomainError(f"unknown decomposition strategy {strategy!r}")
    out = []
    for i, k_i in enumerate(k_schedule):
        layer_seed = int(seed) + i
        if strategy == "random":
            out.append(random_decompose(g, k_i, layer_seed))
        else:
            out.append(
                connectivity_aware_decompose(
                    g, p, k_i, layer_seed, with_skeleton=with_skeleton,
                    partitions=partitions,
                )
            )
    return out


def save_decomposition(d, dir_path):
    """Write piece_<i>.txt edge lists, skeleton.txt, and meta.json."""
    os.makedirs(dir_path, exist_ok=True)

    def dump(path, triples):
        with open(path, "w", encoding="utf-8") as fh:
            for (i, j, w) in triples:
                fh.write(f"{i} {j} {w!r}\n")

    for idx, piece in enumerate(d.pieces):
        dump(os.path.join(dir_path, f"piece_{idx}.txt"), piece)
    dump(os.path.join(dir_path, "skeleton.txt"), d.skeleton)
    meta = {
        "n": d.n,
        "k": d.k,
        "p": d.p,
        "seed": d.seed,
        "source": d.source,
    }
    with open(os.path.join(dir_path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_decomposition(dir_path):
    """Inverse of save_decomposition."""
    meta_path = os.path.join(dir_path, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read decomposition metadata: {exc}",
                         path=meta_path) from None

    def slurp(path):
        triples = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                fields = text.split()
                if len(fields) != 3:
                    raise ParseError("expected 'i j w'", path=path, line=lineno)
                triples.append((int(fields[0]), int(fields[1]), float(fields[2])))
        return _sorted_triples(triples)

    pieces = tuple(
        slurp(os.path.join(dir_path, f"piece_{idx}.txt"))
        for idx in range(int(meta["k"]))
    )
    skeleton = slurp(os.path.join(dir_path, "skeleton.txt"))
    return Decomposition(
        n=int(meta["n"]),
        k=int(meta["k"]),
        pieces=pieces,
        skeleton=skeleton,
        source=str(meta["source"]),
        p=int(meta.get("p", 1)),
        seed=int(meta.get("seed", 0)),
    )
