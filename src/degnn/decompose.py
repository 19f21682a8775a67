"""Edge decompositions of a graph into K overlapping or disjoint pieces.

Two strategies produce K subgraphs over the original node set: a uniform
random deal of the edges, and a connectivity-aware construction that keeps
only the intra-partition edges, plants a random spanning forest of them into
every piece, and deals the remaining edges round robin. A decomposition
holds the graph it decomposes and each piece as a sorted array of indices
into that graph's sorted edge arrays (Graph.edge_arrays), so the trainer
slices its pieces out of those arrays; (i, j, w) triples are formed only to
write or test one. The functions that read a decomposition (piece_matrices,
decomposition_stats, save_decomposition) take it alone. Spanning forests
and piece component counts come from graphs.union_find on index arrays,
without a Graph. A third, spectral, construction splits a dense matrix along
its singular directions.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import Graph, piece_entries, union_find
from .partition import check_part_count, multilevel_partition
from .spectral import svd_each

# the names of the decomposition strategies, as Decomposition.source holds them
SOURCES = ("random", "connectivity_aware")


def check_source(source):
    """Raise DomainError unless source is one of SOURCES."""
    if source not in SOURCES:
        raise DomainError(f"unknown source {source!r}")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """K edge sets of one graph, with an optional shared skeleton.

    graph is the decomposed Graph. pieces holds one sorted int64 array per
    piece: the indices of the piece's edges into graph.edge_arrays(), whose
    (i, j, w) arrays list the edges with i < j, sorted by (i, j). skeleton
    holds the sorted indices of the common edge set T that the
    connectivity-aware strategy replicates into every piece; it is empty
    for the random strategy. p and seed record how the decomposition was
    drawn, for serialization. Every index array is read-only.
    """

    graph: Graph
    k: int
    pieces: tuple
    skeleton: np.ndarray
    source: str
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or len(self.pieces) != self.k:
            raise DomainError(f"need k >= 1 pieces, got k={self.k}")
        check_source(self.source)
        for a in (*self.pieces, self.skeleton):
            if len(a) and (a.min() < 0 or a.max() >= self.graph.m):
                raise DomainError("decomposition is not of this graph's edges")
            a.flags.writeable = False

    def triples(self, index):
        """The edges at a sorted index array, as sorted (i, j, w) triples."""
        i, j, w = self.graph.edge_arrays()
        return tuple(zip(i[index].tolist(), j[index].tolist(),
                         w[index].tolist()))


def _no_edges():
    return np.empty(0, dtype=np.int64)


def random_decompose(g, k, seed):
    """Deal the edges of g into k pieces of near-equal size.

    The edge order is shuffled by seed, then dealt round robin, so piece
    sizes differ by at most one. Every edge lands in exactly one piece and
    the skeleton is empty.
    """
    k = _check_k(k)
    order = np.random.default_rng(seed).permutation(g.m)
    pieces = tuple(np.sort(order[t::k]) for t in range(k))
    return Decomposition(
        graph=g, k=k, pieces=pieces, skeleton=_no_edges(), source="random",
        seed=int(seed),
    )


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise DomainError(f"piece count must be an int >= 1, got {k!r}")
    return int(k)


def random_spanning_forest(g, candidates, seed):
    """Uniformly seeded spanning forest of some of g's edges, as indices.

    candidates is a sorted array of indices into g.edge_arrays(). They are
    scanned in a shuffled order, and each edge that joins two different
    trees is kept (graphs.union_find), so the forest has exactly
    n - #components edges of the graph the candidates form and touches every
    component of it. Returns the kept indices, sorted.
    """
    lo, hi, _ = g.edge_arrays()
    scan = candidates[np.random.default_rng(seed).permutation(len(candidates))]
    kept, _ = union_find(g.n, lo[scan], hi[scan])
    return np.sort(scan[kept])


def connectivity_aware_decompose(g, p, k, seed, with_skeleton=True,
                                 partitions=None):
    """Decompose g into k pieces that all contain one connecting skeleton.

    Pipeline: partition the nodes into p parts; keep the intra-part edges
    (the merged graph, g without its cut edges); draw a random spanning
    forest T of them; deal every remaining edge of g (cut edges included)
    round robin over the pieces in sorted edge order, which visits nodes in
    id order and each node's higher-id neighbors in ascending order with one
    shared counter. Piece t is its residual share plus all of T. Larger p
    cuts more edges, which shrinks T and loosens the connectivity the pieces
    inherit.

    with_skeleton=False keeps the dealing order but plants no forest, so
    the pieces partition the edge set exactly. Nothing then reads a
    partition, so none is drawn; p is still checked as the partitioner
    checks it. The pieces are then the same for every seed and every p.

    partitions, when given, is a dict that the caller shares between calls
    on the same graphs, such as the cells of one sweep. It maps
    (g, p, seed) to the partition drawn for that key, keyed by the graph
    object itself, so each key is partitioned once. The partition does not
    depend on k.
    """
    k = _check_k(k)
    ss = np.random.SeedSequence(seed)
    seed_part, seed_forest = ss.spawn(2)
    if with_skeleton:
        if partitions is None:
            partitions = {}
        key = (g, p, seed)
        if key not in partitions:
            partitions[key] = multilevel_partition(g, p, seed=seed_part)
        labels = partitions[key].labels
        lo, hi, _ = g.edge_arrays()
        intra = np.flatnonzero(labels[lo] == labels[hi])
        skeleton = random_spanning_forest(g, intra, seed_forest)
    else:
        check_part_count(g, p)
        skeleton = _no_edges()
    residual = np.delete(np.arange(g.m), skeleton)
    pieces = tuple(np.union1d(skeleton, residual[t::k]) for t in range(k))
    return Decomposition(
        graph=g,
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
            for a, count, res in zip(arrays, groups, svd_each(arrays))]


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


def decomposition_stats(d):
    """Size and connectivity summary of a decomposition."""
    g = d.graph
    piece_edges = [len(piece) for piece in d.pieces]
    # a piece has n components less one per edge of its spanning forest
    lo, hi, _ = g.edge_arrays()
    piece_components = [g.n - len(union_find(g.n, lo[piece], hi[piece])[0])
                        for piece in d.pieces]
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


def residuals(d):
    """Each piece's own edges: its indices that are not in the skeleton."""
    shared = np.zeros(d.graph.m, dtype=bool)
    shared[d.skeleton] = True
    return [piece[~shared[piece]] for piece in d.pieces]


def piece_matrices(d, discount=False):
    """Dense propagation matrices, one per piece of a decomposition.

    Piece t is the trainer's entries (graphs.piece_entries) of slot t and
    the shared slot, scattered into an n x n array: the normalized matrix
    (self loops included) masked to the piece's edges and the diagonal.
    For certificates and tests only, so sized for small graphs.

    discount divides the shared entries (skeleton edges and the self-loop
    diagonal) by k in every piece so the pieces sum to the whole-graph
    matrix again.
    """
    g = d.graph
    rows, cols, slots, vals = piece_entries(g, d.k, d.skeleton, residuals(d),
                                            discount)
    out = []
    for t in range(d.k):
        # the shared slot is k; with k = 1 every entry is in slot 0
        at = (slots == t) | (slots == d.k)
        m = np.zeros((g.n, g.n))
        m[rows[at], cols[at]] = vals[at]
        out.append(m)
    return out


def decompose_by(source, g, k, p, seed, with_skeleton=True, partitions=None):
    """random_decompose or connectivity_aware_decompose of g, by source."""
    check_source(source)
    if source == "random":
        return random_decompose(g, k, seed)
    return connectivity_aware_decompose(g, p, k, seed,
                                        with_skeleton=with_skeleton,
                                        partitions=partitions)


def layer_decompositions(g, k_schedule, source, p, seed, with_skeleton=True,
                         partitions=None):
    """One independent decomposition per layer, layer i drawn at seed + i.

    partitions is the optional partition cache of
    connectivity_aware_decompose; the random source does not use it.
    """
    return [decompose_by(source, g, k_i, p, int(seed) + i,
                         with_skeleton=with_skeleton, partitions=partitions)
            for i, k_i in enumerate(k_schedule)]


def save_decomposition(d, dir_path):
    """Write piece_<i>.txt edge lists, skeleton.txt, and meta.json."""
    os.makedirs(dir_path, exist_ok=True)

    def dump(path, index):
        with open(path, "w", encoding="utf-8") as fh:
            for (i, j, w) in d.triples(index):
                fh.write(f"{i} {j} {w!r}\n")

    for idx, piece in enumerate(d.pieces):
        dump(os.path.join(dir_path, f"piece_{idx}.txt"), piece)
    dump(os.path.join(dir_path, "skeleton.txt"), d.skeleton)
    meta = {
        "n": d.graph.n,
        "k": d.k,
        "p": d.p,
        "seed": d.seed,
        "source": d.source,
    }
    with open(os.path.join(dir_path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
