"""Deterministic multilevel k-way graph partitioner.

Pipeline per connected region: coarsen by heavy-edge matching until the
graph is small, grow an initial partition greedily from seeded start nodes,
then walk the levels back up refining with Fiduccia-Mattheyses passes
(single-node moves picked by gain, tentative sequences with rollback to the
best balanced prefix). All tie-breaks go to the smallest node id, so a seed
fully determines the output.

The finest level's per-node dicts are built from the graph's sorted edge
arrays, each node's neighbors in ascending id order, so the labels do not
depend on the order in which the graph's edges were listed. Only the level
being contracted or refined is held as dicts. A level that waits for
uncoarsening is packed into arrays (per-node lengths, then neighbors and
weights in dict order) and is unpacked when uncoarsening reaches it; the
coarser level's dicts are dropped first, so each level is freed as the
walk up leaves it, and no dict outlives the call.

Disconnected graphs are handled outside the pipeline: each component is
partitioned independently with part counts allocated proportionally to
component size (every component at least one part when p allows), or whole
components are packed onto parts when there are more components than parts.

Balance is measured as max part size / (n / p) and kept below the caller's
max_imbalance whenever feasible; moves never empty a part.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from degnn.errors import DomainError
from degnn.graphs import connected_components, induced_subgraph

COARSE_STOP_FACTOR = 8
COARSE_STOP_FLOOR = 30
MAX_FM_PASSES = 12
INITIAL_TRIES = 3


@dataclass(frozen=True, eq=False)
class Partition:
    """Node labels in [0, p). Empty parts only occur when unavoidable.

    labels is a read-only copy of the array given, so a Partition shared
    between callers (a sweep's partition cache) cannot be changed by any of
    them, and the caller's own array stays writable.
    """

    labels: np.ndarray
    p: int

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or len(labels) == 0:
            raise DomainError("labels must be a non-empty 1-D array")
        if self.p < 1 or labels.min() < 0 or labels.max() >= self.p:
            raise DomainError(f"labels must lie in [0, {self.p})")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def sizes(self):
        return np.bincount(self.labels, minlength=self.p)

    def imbalance(self):
        n = len(self.labels)
        return float(self.sizes().max() / (n / self.p))


def cut_edges(g, part):
    """Edges (i, j) of g whose endpoints land in different parts, sorted."""
    lo, hi, _ = g.edge_arrays()
    cut = part.labels[lo] != part.labels[hi]
    return list(zip(lo[cut].tolist(), hi[cut].tolist()))


def cut_weight(g, part):
    """Total weight of the cut edges, summed in sorted edge order."""
    lo, hi, w = g.edge_arrays()
    return float(sum(w[part.labels[lo] != part.labels[hi]].tolist()))


def partition_stats(g, part):
    """Summary dict: part count, sizes, imbalance, cut size and weight."""
    cut = cut_edges(g, part)
    return {
        "p": part.p,
        "n": g.n,
        "sizes": [int(s) for s in part.sizes()],
        "imbalance": part.imbalance(),
        "cut_edges": len(cut),
        "cut_weight": cut_weight(g, part),
    }


def check_part_count(g, p):
    """Raise DomainError unless p is an int with 1 <= p <= g.n."""
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise DomainError(f"p must be an int, got {p!r}")
    if not (1 <= p <= g.n):
        raise DomainError(f"need 1 <= p <= n={g.n}, got p={p}")


def _adjacency_lists(g):
    """g's edges as one dict neighbor -> weight per node, neighbors ascending.

    The finest level of a partition. It is built from g's sorted edge
    arrays, so it does not depend on the order in which g's edges were
    listed, and only the partition holds it.
    """
    lo, hi, w = g.edge_arrays()
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    order = np.lexsort((dst, src))
    return _unpack(np.bincount(src, minlength=g.n), dst[order],
                   np.concatenate((w, w))[order])


def _weights(adj):
    """A level's directed edge weights, in dict order, as a float array."""
    return np.fromiter(chain.from_iterable(map(dict.values, adj)),
                       dtype=np.float64)


def _pack(adj):
    """A level's dicts as (lengths, neighbors, weights) arrays in dict order."""
    lengths = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
    return lengths, np.fromiter(chain.from_iterable(adj), dtype=np.int64,
                                count=int(lengths.sum())), _weights(adj)


def _unpack(lengths, nbrs, wts):
    """The dicts of a packed level, each with its items in packed order.

    Every key is the level's one int object for that node id, and equal
    weights share one float object.
    """
    ids = list(range(len(lengths)))
    values, which = np.unique(wts, return_inverse=True)
    items = zip(map(ids.__getitem__, nbrs.tolist()),
                map(values.tolist().__getitem__, which.tolist()))
    return [dict(islice(items, k)) for k in lengths.tolist()]


def _unpack_level(level):
    """(dicts, node weights, coarse map, integral) of a packed level."""
    (lengths, nbrs, wts), node_w, cmap = level
    return (_unpack(lengths, nbrs, wts), node_w.tolist(), cmap.tolist(),
            _integral(wts))


def _integral(wts):
    """Whether FM may follow a move by -w/+w on a level with these weights.

    Positive integer weights whose total stays below 2**53 add exactly in
    any order, so a neighbor-part table updated by -w/+w still equals a
    recount. For such weights a sum in any order is below 2**53 exactly
    when the true total is, so summing the array answers as summing in
    dict order does; a total past the float range is inf, without a
    warning, as Python's sum gives it.
    """
    with np.errstate(over="ignore"):
        total = wts.sum()
    return bool(total < 2.0 ** 53 and (wts == np.floor(wts)).all())


def _contract(adj, node_w, rng):
    """One heavy-edge matching contraction. Returns (coarse adj, weights, map)."""
    n = len(adj)
    match = [-1] * n
    for u in rng.permutation(n):
        u = int(u)
        if match[u] != -1:
            continue
        best = -1
        best_w = -math.inf
        for v, w in adj[u].items():
            if match[v] != -1:
                continue
            if w > best_w or (w == best_w and (best == -1 or v < best)):
                best, best_w = v, w
        if best != -1:
            match[u] = best
            match[best] = u
    coarse_id = [-1] * n
    c = 0
    for u in range(n):
        if coarse_id[u] == -1:
            coarse_id[u] = c
            v = match[u]
            if v != -1:
                coarse_id[v] = c
            c += 1
    cadj = [dict() for _ in range(c)]
    cw = [0.0] * c
    for u in range(n):
        cw[coarse_id[u]] += node_w[u]
    for u in range(n):
        cu = coarse_id[u]
        for v, w in adj[u].items():
            if v <= u:
                continue
            cv = coarse_id[v]
            if cu == cv:
                continue
            cadj[cu][cv] = cadj[cu].get(cv, 0.0) + w
            cadj[cv][cu] = cadj[cv].get(cu, 0.0) + w
    return cadj, cw, coarse_id, c


def _grow_initial(adj, node_w, p, rng):
    """Greedy graph growing from p seeded start nodes."""
    n = len(adj)
    labels = [-1] * n
    part_w = [0.0] * p
    seeds = [int(s) for s in rng.choice(n, size=p, replace=False)]
    frontiers = []
    for k, s in enumerate(seeds):
        labels[s] = k
        part_w[k] += node_w[s]
        frontiers.append(deque(sorted(adj[s])))
    assigned = p
    unassigned_cursor = 0
    while assigned < n:
        # lightest part claims next, smallest part id on ties
        k = min(range(p), key=lambda q: (part_w[q], q))
        node = -1
        fr = frontiers[k]
        while fr:
            cand = fr.popleft()
            if labels[cand] == -1:
                node = cand
                break
        if node == -1:
            while labels[unassigned_cursor] != -1:
                unassigned_cursor += 1
            node = unassigned_cursor
        labels[node] = k
        part_w[k] += node_w[node]
        assigned += 1
        for v in sorted(adj[node]):
            if labels[v] == -1:
                fr.append(v)
    return labels


def _cut_of(adj, labels):
    total = 0.0
    for u in range(len(adj)):
        for v, w in adj[u].items():
            if v > u and labels[u] != labels[v]:
                total += w
    return total


def _fm_refine(adj, node_w, labels, p, cap, integral=None):
    """Fiduccia-Mattheyses passes until no improving balanced prefix exists.

    Each pass tentatively moves every node at most once, always taking the
    currently best (gain, smallest id) move whose target stays under a
    relaxed cap, then rolls back to the best strictly balanced prefix. On
    exit no single feasible move strictly reduces the cut, so the result is
    locally minimal under single-node moves.

    A move costs work in proportion to what it changes. Each unlocked
    neighbor's neighbor-part weights change in the two parts the move
    touched, and only the moves whose gain changed, or that left the queue
    since, are queued again. The tables stay bit-identical to a recount and
    the queue holds the same entries as one refilled with every move of
    every unlocked neighbor, so the moves are those of that simpler loop
    (tests/oracles.py keeps it as fm_refine_reference).

    integral is _integral of the level's weights; _partition_region takes
    it once per level, and it is computed from adj when not given. Callers
    pass p >= 2 and a level of at least p nodes.
    """
    n = len(adj)
    max_w = max(node_w)
    relaxed = cap + max_w
    part_w = [0.0] * p
    for u in range(n):
        part_w[labels[u]] += node_w[u]
    # Integral tables follow a move by -w/+w. Other weights re-sum the two
    # changed parts in adjacency order, the order in which neighbor_parts
    # adds them.
    if integral is None:
        integral = _integral(_weights(adj))

    def neighbor_parts(u):
        d = {}
        for v, w in adj[u].items():
            lv = labels[v]
            d[lv] = d.get(lv, 0.0) + w
        return d

    for _ in range(MAX_FM_PASSES):
        cut = _cut_of(adj, labels)
        start_cut = cut
        feasible0 = max(part_w) <= cap
        locked = [False] * n
        # The move queue: neg_gain -> a heap of codes u * p + tgt, and a heap
        # holding each neg_gain key once. Pops come out by (neg_gain, u, tgt),
        # as from one heap of such tuples, whatever the push order; -0.0 and
        # 0.0 share a bucket. An entry pushed while queued pops out right
        # behind itself and leaves with it, so it counts once. A bucket goes
        # as its last code pops: per-bucket sets of the queued codes would
        # cost a set for nearly every entry on float levels, where few gains
        # repeat.
        buckets = {}
        keys = []
        # each unlocked node's neighbor_parts, current once it is built: a
        # move updates the table of every unlocked neighbor that has one
        nbp_of = [None] * n
        # targets whose current entry a balance or empty-source test dropped
        # since the node was last queued; nothing else takes a current entry
        # of an unlocked node out of the queue
        dropped = [None] * n

        def push(neg_gain, code):
            heap = buckets.get(neg_gain)
            if heap is None:
                buckets[neg_gain] = [code]
                heapq.heappush(keys, neg_gain)
            else:
                heapq.heappush(heap, code)

        def push_moves(u):
            nbp = nbp_of[u]
            lab = labels[u]
            own = nbp.get(lab, 0.0)
            base = u * p
            for tgt, wsum in nbp.items():
                if tgt != lab:
                    push(-(wsum - own), base + tgt)
            dropped[u] = None

        for u in range(n):
            if any(labels[v] != labels[u] for v in adj[u]):
                nbp_of[u] = neighbor_parts(u)
                push_moves(u)

        moves = []
        best_idx = -1
        best_cut = cut if feasible0 else math.inf
        best_feasible = feasible0
        while keys:
            neg_gain = keys[0]
            heap = buckets[neg_gain]
            code = heapq.heappop(heap)
            while heap and heap[0] == code:
                heapq.heappop(heap)
            if not heap:
                heapq.heappop(keys)
                del buckets[neg_gain]
            u, tgt = divmod(code, p)
            if locked[u]:
                continue
            nbp = nbp_of[u]
            src = labels[u]
            gain = nbp.get(tgt, 0.0) - nbp.get(src, 0.0)
            if -neg_gain != gain:
                push(-gain, code)
                continue
            if (part_w[tgt] + node_w[u] > relaxed
                    or part_w[src] - node_w[u] <= 0.0):
                if dropped[u] is None:
                    dropped[u] = []
                dropped[u].append(tgt)
                continue
            labels[u] = tgt
            part_w[src] -= node_w[u]
            part_w[tgt] += node_w[u]
            locked[u] = True
            nbp_of[u] = None
            cut -= gain
            moves.append((u, src, tgt))
            feasible = max(part_w) <= cap
            if (feasible and not best_feasible) or (
                feasible == best_feasible and cut < best_cut
            ):
                best_idx = len(moves) - 1
                best_cut = cut
                best_feasible = feasible
            for v, w in adj[u].items():
                if locked[v]:
                    continue
                nbp = nbp_of[v]
                if nbp is None:
                    nbp_of[v] = neighbor_parts(v)
                    push_moves(v)
                    continue
                if integral:
                    left = nbp[src] - w
                    if left:
                        nbp[src] = left
                    else:
                        del nbp[src]
                    nbp[tgt] = nbp.get(tgt, 0.0) + w
                else:
                    w_src = w_tgt = 0.0
                    for x, wx in adj[v].items():
                        lx = labels[x]
                        if lx == src:
                            w_src += wx
                        elif lx == tgt:
                            w_tgt += wx
                    if w_src:
                        nbp[src] = w_src
                    else:
                        del nbp[src]
                    nbp[tgt] = w_tgt
                lab = labels[v]
                if lab == src or lab == tgt:
                    # v's own weight changed, and with it every gain of v
                    push_moves(v)
                    continue
                own = nbp.get(lab, 0.0)
                base = v * p
                if src in nbp:
                    push(-(nbp[src] - own), base + src)
                push(-(nbp[tgt] - own), base + tgt)
                if dropped[v] is not None:
                    for t in dropped[v]:
                        if t in nbp:
                            push(-(nbp[t] - own), base + t)
                    dropped[v] = None
        # roll back past the best prefix
        for u, src, tgt in reversed(moves[best_idx + 1:]):
            labels[u] = src
            part_w[tgt] -= node_w[u]
            part_w[src] += node_w[u]
        improved = best_cut < start_cut or (best_feasible and not feasible0)
        if not improved:
            break
    return labels


def _partition_region(g, p, cap, rng):
    """Multilevel pipeline on a connected graph; returns its labels as a list.

    Callers pass 2 <= p <= g.n. A level is kept only while the finer one
    has more than 8p nodes, and a matching keeps at least half of a level's
    nodes, so the coarsest level still has more than 4p nodes.

    Only the level being contracted or refined is held as dicts. Each finer
    level waits in `levels` packed (_pack), with its node weights and its
    map to the next coarser level, and uncoarsening pops, unpacks and
    refines one level at a time, dropping the coarser level's dicts first.
    Packing keeps every dict's insertion order, so FM's float sums run in
    the same order as on dicts that were never packed.
    """
    target = max(COARSE_STOP_FLOOR, COARSE_STOP_FACTOR * p)
    adj, node_w = _adjacency_lists(g), [1.0] * g.n
    levels = []
    while len(adj) > target:
        cadj, cw, cmap, c = _contract(adj, node_w, rng)
        if c >= 0.95 * len(adj):
            break
        levels.append((_pack(adj), np.array(node_w), np.array(cmap)))
        adj, node_w = cadj, cw
    # a last contraction that was not used is dropped
    cadj = cw = cmap = None
    integral = _integral(_weights(adj))
    labels = None
    best_key = None
    for _ in range(INITIAL_TRIES):
        cand = _grow_initial(adj, node_w, p, rng)
        cand = _fm_refine(adj, node_w, cand, p, cap, integral)
        part_w = [0.0] * p
        for u, lab in enumerate(cand):
            part_w[lab] += node_w[u]
        key = (max(part_w) > cap, _cut_of(adj, cand))
        if best_key is None or key < best_key:
            labels, best_key = cand, key
    while levels:
        del adj
        adj, node_w, cmap, integral = _unpack_level(levels.pop())
        labels = _fm_refine(adj, node_w, [labels[c] for c in cmap], p, cap,
                            integral)
    return labels


def _allocate_parts(sizes, p):
    """Largest-remainder allocation of p parts over component sizes.

    Allocations are proportional to size, capped at the component size, and
    may be zero: a component too small to earn a part is packed whole onto
    an existing part by the caller. The sum is exactly p: the floors start
    at most p, since each is at most its quota and the quotas sum to p.
    """
    total = sum(sizes)
    quotas = [s * p / total for s in sizes]
    alloc = [min(int(s), int(q)) for q, s in zip(quotas, sizes)]

    def remainder(i):
        return quotas[i] - alloc[i]

    while sum(alloc) < p:
        order = sorted(range(len(sizes)), key=lambda i: (-(remainder(i)), i))
        for i in order:
            if alloc[i] < sizes[i]:
                alloc[i] += 1
                break
        else:
            raise DomainError("cannot allocate parts: p exceeds node count")
    return alloc


def multilevel_partition(g, p, seed, max_imbalance=1.3):
    """Partition g into p parts, deterministically under seed.

    Returns a Partition whose imbalance stays within max_imbalance whenever
    that is feasible, with an edge cut locally minimal under single-node
    moves. Connected components never get split across parts unless their
    size demands it, and grouping whole components onto a part adds no cut
    edges.
    """
    check_part_count(g, p)
    if not (1.0 <= max_imbalance < math.inf):
        raise DomainError(
            f"max_imbalance must be finite and >= 1.0, got {max_imbalance}"
        )
    rng = np.random.default_rng(seed)
    labels = np.zeros(g.n, dtype=np.int64)
    if p == 1:
        return Partition(labels=labels, p=1)

    comp = connected_components(g)
    n_comp = int(comp.max()) + 1
    cap_global = max(max_imbalance * g.n / p, math.ceil(g.n / p))

    if n_comp == 1:
        region = _partition_region(g, p, cap_global, rng)
        return Partition(labels=np.asarray(region, dtype=np.int64), p=p)

    comp_nodes = [np.flatnonzero(comp == c) for c in range(n_comp)]
    sizes = [len(nodes) for nodes in comp_nodes]
    alloc = _allocate_parts(sizes, p)

    # components that earned parts are split within themselves
    part_w = [0.0] * p
    next_part = 0
    for c in range(n_comp):
        p_c = alloc[c]
        if p_c == 0:
            continue
        if p_c == 1:
            labels[comp_nodes[c]] = next_part
            part_w[next_part] += sizes[c]
        else:
            sub, mapping = induced_subgraph(g, comp_nodes[c])
            cap_c = max(cap_global, math.ceil(sizes[c] / p_c))
            region = _partition_region(sub, p_c, cap_c, rng)
            for local, orig in enumerate(mapping):
                labels[orig] = next_part + region[local]
            for lab in region:
                part_w[next_part + lab] += 1.0
        next_part += p_c

    # components with no part of their own pack onto the lightest part,
    # biggest first; they never add cut edges
    leftovers = sorted(
        (c for c in range(n_comp) if alloc[c] == 0),
        key=lambda c: (-sizes[c], c),
    )
    for c in leftovers:
        k = min(range(p), key=lambda q: (part_w[q], q))
        labels[comp_nodes[c]] = k
        part_w[k] += sizes[c]
    return Partition(labels=labels, p=p)
