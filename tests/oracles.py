"""Independent oracles used to cross-check the library's numerics.

Everything here is deliberately dumb and self-contained: no numpy.linalg
factorizations, nothing imported from degnn's certified code paths. The
point is that a bug in the library cannot hide behind the same bug here.

The exceptions are loops the library replaced, kept to show that the
replacement changed no result. fm_refine_reference is the partitioner's
earlier FM refinement; it shares MAX_FM_PASSES and the cut count with
degnn.partition. The per-trial verify suites at the end are the loops the
batched suites in degnn.verify replaced; they call the library functions
under test, one svd() per matrix. decay_curve_per_depth is
degnn.propagate.decay_curve with one svd_each() batch per requested depth.
The *_decompose_reference functions are the tuple-of-triples
decompositions that degnn.decompose's index arrays replaced. adjacency and
connected_components_dfs are the dense adjacency and the depth-first
search that degnn.graphs' edge arrays and union-find replaced, and
induced_subgraph_reference the neighbor-dict walk that its array selection
replaced. piece_matrices_reference is the dense masking that
degnn.decompose.piece_matrices replaced with a scatter of the trainer's
entries; neighbor_dicts rebuilds the per-node dicts that Graph dropped,
for both. piece_graph and edge_union read a decomposition back as Graphs
and pair sets. sbm_edges_dense is the one (n, n) uniform draw whose upper
triangle degnn.train's block-model sampler reproduces without drawing the
cells it never reads.

endtoend_extremes and finite_diff_gradcheck are test helpers built on the
library, not oracles: no program code calls them, so they live here.
"""

from __future__ import annotations

import heapq
import math
import warnings

import numpy as np

from degnn.partition import MAX_FM_PASSES, _cut_of


def det_gauss(m):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.float64, copy=True)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        a[col + 1:] -= np.outer(a[col + 1:, col] / a[col, col], a[col])
    return float(det)


def singular_values_charpoly(m, grid=8192):
    """Singular values of m as bisected roots of det(m^T m - lam I).

    Scans a uniform grid over [0, trace + margin] for sign changes of the
    characteristic polynomial of the Gram matrix, then bisects each bracket
    to ~1e-14 relative width. Intended for small matrices (n <= 8) whose
    squared singular values are separated wider than the grid step; callers
    choose seeds/sizes so that holds. Returns a descending array of length
    min(rows, cols).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    g = a.T @ a
    n = g.shape[0]
    hi = float(np.trace(g)) * (1.0 + 1e-9) + 1e-30

    def p(lam):
        return det_gauss(g - lam * np.eye(n))

    xs = np.linspace(-1e-12 * hi - 1e-300, hi, grid)
    vals = np.array([p(x) for x in xs])
    roots = []
    for k in range(len(xs) - 1):
        lo_v, hi_v = vals[k], vals[k + 1]
        if lo_v == 0.0:
            roots.append(xs[k])
            continue
        if lo_v * hi_v < 0.0:
            lo_x, hi_x = xs[k], xs[k + 1]
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                mv = p(mid)
                if mv == 0.0:
                    lo_x = hi_x = mid
                    break
                if mv * lo_v < 0.0:
                    hi_x = mid
                else:
                    lo_x = mid
                    lo_v = mv
            roots.append(0.5 * (lo_x + hi_x))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    # multiplicities the grid cannot see must be padded; pad with zeros,
    # which is correct for the rank-deficient cases used in the tests
    while len(roots) < n:
        roots.append(0.0)
    roots = np.sqrt(np.clip(np.array(sorted(roots, reverse=True)[:n]), 0.0, None))
    return roots


def jacobi_sweep_cyclic(bt, vt, delta):
    """One cyclic one-sided Jacobi sweep over a single matrix, in place.

    The reference for degnn._kernels.jacobi_sweep: the same skip test and
    rotation formulas, one pair at a time in row-cyclic order. bt holds the
    working matrix transposed (row k is column k of B), vt the accumulated
    rotations transposed; a vt with zero columns accumulates nothing.
    Returns the rotation count.
    """
    n = bt.shape[0]
    rotations = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            bi = bt[i]
            bj = bt[j]
            gamma = float(bi @ bj)
            if gamma == 0.0:
                continue
            alpha = float(bi @ bi)
            beta = float(bj @ bj)
            if abs(gamma) <= delta * math.sqrt(alpha * beta):
                continue
            zeta = (beta - alpha) / (2.0 * gamma)
            sign = 1.0 if zeta >= 0.0 else -1.0
            t = sign / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = c * t
            # evaluate both updates from the old rows before writing either
            new_bi = c * bi - s * bj
            new_bj = s * bi + c * bj
            bt[i] = new_bi
            bt[j] = new_bj
            vi = vt[i]
            vj = vt[j]
            new_vi = c * vi - s * vj
            new_vj = s * vi + c * vj
            vt[i] = new_vi
            vt[j] = new_vj
            rotations += 1
    return rotations


def singular_values_cyclic_jacobi(m, delta=1e-13, max_sweeps=60):
    """Descending singular values of m from cyclic Jacobi sweeps.

    Sweeps until one rotates no pair, which certifies every column pair
    orthogonal to within delta, and returns the sorted column norms.
    """
    a = np.asarray(m, dtype=np.float64)
    bt = np.array(a if a.shape[0] < a.shape[1] else a.T, order="C")
    vt = np.empty((bt.shape[0], 0))
    for _ in range(max_sweeps):
        if jacobi_sweep_cyclic(bt, vt, delta) == 0:
            return np.sort(np.sqrt((bt * bt).sum(axis=1)))[::-1]
    raise AssertionError(f"no convergence in {max_sweeps} cyclic sweeps")


def gram_state_single(bt, shape_max):
    """svd()'s convergence measures (off, rel, sig_cut) of one working matrix.

    The per-matrix form of degnn.spectral._gram_state: the off-diagonal
    Frobenius norm of bt's Gram matrix, the largest relative
    non-orthogonality among columns above the negligibility cut, and the cut.
    """
    gram = bt @ bt.T
    d = np.sqrt(np.clip(np.diag(gram).copy(), 0.0, None))
    np.fill_diagonal(gram, 0.0)
    off = float(np.sqrt((gram * gram).sum()))
    sig_cut = float(d.max()) * (2.0 ** -52) * shape_max if d.size else 0.0
    keep = np.flatnonzero(d > sig_cut)
    rel = 0.0
    if keep.size >= 2:
        sub = gram[np.ix_(keep, keep)] / np.outer(d[keep], d[keep])
        rel = float(np.abs(sub).max())
    return off, rel, sig_cut


def adjacency(g):
    """Dense symmetric n x n adjacency matrix with edge weights."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for i, j, w in g.edge_list():
        a[i, j] = w
        a[j, i] = w
    return a


def piece_matrices_reference(d, discount=False):
    """degnn.decompose.piece_matrices as a dense construction.

    The normalized matrix is formed densely, row scale first; each piece
    takes its diagonal and, for every edge (i, j) of the piece with i < j,
    the entry at (i, j), mirrored to (j, i). discount divides the diagonal
    and the skeleton edges by k.
    """
    from degnn.graphs import self_looped_degrees

    g = d.graph
    inv_sqrt = 1.0 / np.sqrt(self_looped_degrees(g))
    base = (adjacency(g) + np.eye(g.n)) * inv_sqrt[:, None] * inv_sqrt[None, :]
    scale = d.k if discount else 1
    skeleton = {(i, j) for (i, j, _) in d.triples(d.skeleton)}
    out = []
    for piece in d.pieces:
        m = np.zeros_like(base)
        np.fill_diagonal(m, np.diag(base) / scale)
        for i, j, _ in d.triples(piece):
            v = base[i, j]
            m[i, j] = m[j, i] = v / scale if (i, j) in skeleton else v
        out.append(m)
    return out


def neighbor_dicts(g):
    """One dict neighbor -> weight per node, filled in sorted edge order.

    These are the dicts a Graph kept beside its edge arrays, for graphs
    whose edges were listed sorted: each node's neighbors ascend by id.
    """
    adj = [dict() for _ in range(g.n)]
    for i, j, w in g.edge_list():
        adj[i][j] = w
        adj[j][i] = w
    return adj


def induced_subgraph_reference(g, nodes):
    """degnn.graphs.induced_subgraph as the walk over neighbor dicts."""
    from degnn.graphs import Graph

    nodes = sorted(set(int(v) for v in nodes))
    adj = neighbor_dicts(g)
    index = {v: k for k, v in enumerate(nodes)}
    edges = []
    for v in nodes:
        for u, w in adj[v].items():
            if u > v and u in index:
                edges.append((index[v], index[u], w))
    return Graph(len(nodes), edges), nodes


def connected_components_dfs(g):
    """Component labels by depth-first search, first-seen order by node id."""
    adj = neighbor_dicts(g)
    labels = np.full(g.n, -1, dtype=np.int64)
    c = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = c
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if labels[v] < 0:
                    labels[v] = c
                    stack.append(v)
        c += 1
    return labels


def component_count(g):
    """Number of connected components of g, by depth-first search."""
    return int(connected_components_dfs(g).max()) + 1


def piece_graph(d, idx):
    """Piece idx of decomposition d as a Graph over the full node set."""
    from degnn.graphs import Graph

    return Graph(d.graph.n, d.triples(d.pieces[idx]))


def edge_union(d):
    """Set of (i, j) pairs appearing in any piece of decomposition d."""
    union = np.unique(np.concatenate(d.pieces))
    return {(i, j) for (i, j, _) in d.triples(union)}


def brute_cut(edges, labels):
    """Total weight of edges whose endpoints carry different labels."""
    return sum(w for (i, j, w) in edges if labels[i] != labels[j])


def random_balanced_partition(n, p, seed):
    """Baseline part labels: a seeded shuffle dealt round-robin.

    Part sizes differ by at most one; the labels carry no structure of any
    graph, so a partitioner's cut should never be worse.
    """
    order = np.random.default_rng(seed).permutation(n)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = np.arange(n) % p
    return labels


def best_balanced_bipartition_cut(n, edges):
    """Exhaustive minimum cut over perfectly balanced bipartitions.

    n must be even and small (used for n <= 12). Edges are (i, j, w).
    """
    from itertools import combinations

    assert n % 2 == 0
    best = float("inf")
    nodes = list(range(n))
    for half in combinations(nodes[1:], n // 2 - 1):
        side = {0, *half}
        labels = [0 if v in side else 1 for v in nodes]
        best = min(best, brute_cut(edges, labels))
    return best


def fm_refine_reference(adj, node_w, labels, p, cap):
    """Fiduccia-Mattheyses passes until no improving balanced prefix exists.

    The heap-of-tuples loop that partition._fm_refine replaced, kept to
    show that the rewrite makes the same moves: every unlocked neighbor of
    a moved node rebuilds its neighbor-part weights and re-pushes all its
    moves, and a set of queued entries drops the duplicates.

    Each pass tentatively moves every node at most once, always taking the
    currently best (gain, smallest id) move whose target stays under a
    relaxed cap, then rolls back to the best strictly balanced prefix. On
    exit no single feasible move strictly reduces the cut, so the result is
    locally minimal under single-node moves.
    """
    n = len(adj)
    if p == 1 or n == 0:
        return labels
    max_w = max(node_w)
    relaxed = cap + max_w
    part_w = [0.0] * p
    for u in range(n):
        part_w[labels[u]] += node_w[u]

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
        heap = []
        # the entries now in the heap: a second identical copy would be
        # popped right behind the first and repeat its outcome or do nothing
        queued = set()
        # each unlocked node's neighbor_parts as of its last push_moves; a
        # move re-pushes every unlocked neighbor, so the dict is current
        # whenever an unlocked node's entry is popped
        nbp_of = [None] * n

        def push(entry):
            if entry not in queued:
                queued.add(entry)
                heapq.heappush(heap, entry)

        def push_moves(u):
            nbp = nbp_of[u] = neighbor_parts(u)
            own = nbp.get(labels[u], 0.0)
            for tgt, wsum in nbp.items():
                if tgt != labels[u]:
                    push((-(wsum - own), u, tgt))

        for u in range(n):
            if any(labels[v] != labels[u] for v in adj[u]):
                push_moves(u)

        moves = []
        best_idx = -1
        best_cut = cut if feasible0 else math.inf
        best_feasible = feasible0
        while heap:
            entry = heapq.heappop(heap)
            queued.remove(entry)
            neg_gain, u, tgt = entry
            if locked[u] or labels[u] == tgt:
                continue
            nbp = nbp_of[u]
            gain = nbp.get(tgt, 0.0) - nbp.get(labels[u], 0.0)
            if -neg_gain != gain:
                push((-gain, u, tgt))
                continue
            src = labels[u]
            if part_w[tgt] + node_w[u] > relaxed:
                continue
            if part_w[src] - node_w[u] <= 0.0:
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
            # the heap orders entries by value, so push order is immaterial
            for v in adj[u]:
                if not locked[v]:
                    push_moves(v)
        # roll back past the best prefix
        for u, src, tgt in reversed(moves[best_idx + 1:]):
            labels[u] = src
            part_w[tgt] -= node_w[u]
            part_w[src] += node_w[u]
        improved = best_cut < start_cut or (best_feasible and not feasible0)
        if not improved:
            break
    return labels


def prelu(z, slope):
    return np.where(z >= 0.0, z, slope * z)


def forward_reference(a_pieces, layer_weights, x0, slope):
    """Plain-matrix reference of the propagation rule, all layers activated.

    a_pieces: list of n x n arrays. layer_weights: per layer, a list of one
    weight per piece. Returns the list of per-layer outputs.
    """
    outs = []
    y = np.asarray(x0, dtype=np.float64)
    for wk in layer_weights:
        z = None
        for a_k, w_k in zip(a_pieces, wk):
            term = a_k @ y @ w_k
            z = term if z is None else z + term
        y = prelu(z, slope)
        outs.append(y)
    return outs


def check_split_spectrum_per_trial(trials, seed, tol=1e-8):
    """degnn.verify.check_split_spectrum with every SVD inside its trial."""
    from degnn.decompose import spectral_split
    from degnn.linalg import kron
    from degnn.spectral import kron_sum_spectrum, svd
    from degnn.verify import CheckReport

    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for t in range(trials):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        a_mat = rng.normal(size=(n, n))
        if t % 5 == 4:
            a_mat[:, 0] = a_mat[:, -1]
        split = spectral_split(a_mat, groups=n)
        w_pieces = [rng.normal(size=(d, d)) for _ in range(n)]
        closed = kron_sum_spectrum(split, w_pieces)
        total = sum(
            kron(w_k, a_k) for w_k, a_k in zip(w_pieces, split.pieces)
        )
        brute = svd(total).sigma
        err = float(np.max(np.abs(closed - brute)))
        max_err = max(max_err, err)
        passed += err < tol
    return CheckReport("lemma3", passed, trials, max_err)


def check_kron_identities_per_trial(trials, seed, sv_tol=1e-8,
                                    vec_tol=1e-10):
    """degnn.verify.check_kron_identities with every SVD inside its trial."""
    from degnn.linalg import kron, vec
    from degnn.spectral import svd
    from degnn.verify import CheckReport

    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for _ in range(trials):
        m, n, p, q = (int(rng.integers(1, 5)) for _ in range(4))
        a_mat = rng.normal(size=(m, n))
        b_mat = rng.normal(size=(p, q))
        direct = svd(kron(a_mat, b_mat)).sigma
        outer = np.sort(np.outer(svd(a_mat).sigma, svd(b_mat).sigma),
                        axis=None)
        products = np.zeros(direct.shape)
        products[: outer.size] = outer[::-1]
        sv_err = float(np.max(np.abs(direct - products)))

        left = rng.normal(size=(m, n))
        mid = rng.normal(size=(n, p))
        right = rng.normal(size=(p, q))
        lhs = vec(left @ mid @ right)
        rhs = kron(right.T, left) @ vec(mid)
        vec_err = float(np.max(np.abs(lhs - rhs)))

        max_err = max(max_err, sv_err, vec_err)
        passed += sv_err < sv_tol and vec_err < vec_tol
    return CheckReport("kron", passed, trials, max_err)


def _singular_extremes_full(m):
    from degnn.spectral import svd

    s = svd(m).sigma
    return float(s[0]), float(s[-1])


def _regime_per_matrix(sigma_a, gamma_a, sigma_w, gamma_w, slope):
    from degnn.propagate import _classify

    return _classify(sigma_a, gamma_a, sigma_w, gamma_w, slope)


def gcn_regime_per_matrix(a_mat, weights, slope):
    """degnn.propagate.gcn_regime with one full svd() per matrix."""
    sigma_a, gamma_a = _singular_extremes_full(a_mat)
    sigma_w = -np.inf
    gamma_w = np.inf
    for w in weights:
        hi, lo = _singular_extremes_full(w)
        sigma_w = max(sigma_w, hi)
        gamma_w = min(gamma_w, lo)
    return _regime_per_matrix(sigma_a, gamma_a, sigma_w, gamma_w, slope)


def graphcnn_regime_per_matrix(pieces, layer_weights, slope):
    """degnn.propagate.graphcnn_regime with one full svd() per layer."""
    from degnn.propagate import LayerStack

    stack = LayerStack(pieces, layer_weights, slope)
    sup_sigma = -np.inf
    inf_gamma = np.inf
    for i in range(stack.depth):
        hi, lo = _singular_extremes_full(stack.layer_operator(i))
        sup_sigma = max(sup_sigma, hi)
        inf_gamma = min(inf_gamma, lo)
    return _regime_per_matrix(sup_sigma, inf_gamma, 1.0, 1.0, slope)


def check_regimes_per_trial(trials, seed, tol=1e-9):
    """degnn.verify.check_regimes with one full svd() per matrix."""
    from degnn.decompose import spectral_split
    from degnn.propagate import gcn_stack, linearized_map
    from degnn.spectral import svd
    from degnn.verify import CheckReport

    def random_orthogonal(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(np.diag(r))

    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for t in range(trials):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 5))
        slope = float(rng.uniform(0.1, 0.9))
        kind = t % 3
        if kind == 0:
            a_mat = rng.normal(size=(n, n))
            weights = [rng.normal(size=(d, d)) for _ in range(depth)]
            sigma_a = svd(a_mat).sigma[0]
            sigma_w = max(svd(w).sigma[0] for w in weights)
            scale = 0.9 / (sigma_a * sigma_w)
            weights = [w * scale for w in weights]
            rep = gcn_regime_per_matrix(a_mat, weights, slope)
            stack = gcn_stack(a_mat, weights, slope=slope)
            x = rng.normal(size=n * d)
            hi, _ = _singular_extremes_full(linearized_map(stack, x)[0])
            err = max(0.0, hi - rep.bound_per_layer ** depth)
            ok = rep.regime == "decay" and err <= tol
        elif kind == 1:
            gain = float(rng.uniform(1.0 / slope + 0.05, 1.0 / slope + 1.0))
            a_mat = gain * random_orthogonal(n)
            weights = [random_orthogonal(d) for _ in range(depth)]
            rep = gcn_regime_per_matrix(a_mat, weights, slope)
            stack = gcn_stack(a_mat, weights, slope=slope)
            x = rng.normal(size=n * d)
            _, lo = _singular_extremes_full(linearized_map(stack, x)[0])
            err = max(0.0, rep.bound_per_layer ** depth - lo)
            ok = rep.regime == "preserve" and err <= tol
        else:
            k = int(rng.integers(1, min(4, n + 1)))
            a_mat = rng.normal(size=(n, n))
            split = spectral_split(a_mat, groups=k)
            layer_weights = [
                [rng.normal(size=(d, d)) for _ in range(k)]
                for _ in range(depth)
            ]
            rep = graphcnn_regime_per_matrix(split.pieces, layer_weights,
                                             slope)
            if rep.regime == "decay":
                ok = rep.sigma_a < 1.0
            elif rep.regime == "preserve":
                ok = slope * rep.gamma_a >= 1.0
            else:
                ok = rep.sigma_a >= 1.0 and slope * rep.gamma_a < 1.0
            err = 0.0 if ok else 1.0
        max_err = max(max_err, err)
        passed += ok
    return CheckReport("regimes", passed, trials, max_err)


def decay_curve_per_depth(stack, depths, n_samples=16, epsilon=1e-6, seed=0,
                          inputs=None):
    """degnn.propagate.decay_curve with one svd_each() batch per requested
    depth."""
    from degnn.linalg import vec
    from degnn.propagate import (
        _check_features,
        _realized_layers,
        quantized_entropy,
        random_unit_features,
    )
    from degnn.spectral import svd_each

    depths = [int(d) for d in depths]
    if inputs is None:
        inputs = random_unit_features(stack.n, stack.in_dim, n_samples, seed)
    else:
        n_samples = len(inputs)
    inputs = np.array([vec(_check_features(stack, x, "input"))
                       for x in inputs])

    per_layer = stack.regime().bound_per_layer
    want = set(depths)
    rows = []
    layers = _realized_layers(stack.prefix(depths[-1]), inputs)
    for li, (products, outputs) in enumerate(layers, start=1):
        if li not in want:
            continue
        sigma = np.array(svd_each(products, compute_uv=False))
        rows.append(
            {
                "depth": li,
                "bound": per_layer**li,
                "max_sv": float(sigma[:, 0].max()),
                "min_sv": float(sigma[:, -1].min()),
                "entropy_bits": quantized_entropy(outputs, epsilon),
                "n_samples": n_samples,
                "epsilon": epsilon,
                "seed": int(seed),
            }
        )
    return rows


def sbm_edges_dense(blocks, spec, rng):
    """Upper-triangle hits of one dense (n, n) uniform draw, row-major."""
    prob = np.where(blocks[:, None] == blocks[None, :], spec.p_in, spec.p_out)
    draw = rng.random((spec.n, spec.n))
    iu, ju = np.triu_indices(spec.n, k=1)
    hit = draw[iu, ju] < prob[iu, ju]
    return list(zip(iu[hit].tolist(), ju[hit].tolist()))


# The tuple-based decompositions that the index arrays of
# degnn.decompose replaced, kept to show that the replacement deals the same
# edges. Each returns sorted (i, j, w) triples, as Decomposition.triples
# does.


def _sorted_triples(triples):
    return tuple(sorted((int(i), int(j), float(w)) for (i, j, w) in triples))


def random_decompose_reference(g, k, seed):
    """Pieces of degnn.decompose.random_decompose, as tuples of triples."""
    rng = np.random.default_rng(seed)
    edges = g.edge_list()
    order = rng.permutation(len(edges))
    shuffled = [edges[i] for i in order]
    return tuple(_sorted_triples(shuffled[t::k]) for t in range(k))


def merged_graph(g, part):
    """g with every cut edge removed; only intra-part edges survive."""
    from degnn.errors import DomainError
    from degnn.graphs import Graph

    if len(part.labels) != g.n:
        raise DomainError("partition does not cover the graph")
    labels = part.labels
    kept = [(i, j, w) for (i, j, w) in g.edge_list() if labels[i] == labels[j]]
    return Graph(g.n, kept)


def random_spanning_forest_reference(g, seed):
    """Spanning forest of all of g's edges, as sorted triples."""
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


def connectivity_aware_decompose_reference(g, p, k, seed, with_skeleton=True,
                                           partitions=None):
    """(pieces, skeleton) of degnn.decompose.connectivity_aware_decompose.

    partitions is the same cache the library function takes, so both can
    share one partition per (g, p, seed).
    """
    from degnn.partition import multilevel_partition

    seed_part, seed_forest = np.random.SeedSequence(seed).spawn(2)
    if partitions is None:
        partitions = {}
    key = (g, p, seed)
    if key not in partitions:
        partitions[key] = multilevel_partition(g, p, seed=seed_part)
    gm = merged_graph(g, partitions[key])
    if with_skeleton:
        skeleton = random_spanning_forest_reference(gm, seed_forest)
    else:
        skeleton = ()
    in_skeleton = {(i, j) for (i, j, _) in skeleton}
    shares = [[] for _ in range(k)]
    counter = 0
    adj = neighbor_dicts(g)
    for i in range(g.n):
        for j in sorted(adj[i]):
            if j <= i or (i, j) in in_skeleton:
                continue
            shares[counter].append((i, j, adj[i][j]))
            counter = (counter + 1) % k
    pieces = tuple(_sorted_triples(list(skeleton) + share) for share in shares)
    return pieces, skeleton


def endtoend_extremes(stack, x):
    """(largest, smallest) singular value of the realized end-to-end map."""
    from degnn.propagate import linearized_map
    from degnn.spectral import singular_extremes

    product, _ = linearized_map(stack, x)
    return singular_extremes(product)


def _sign_pattern(zs):
    return [z >= 0.0 for z in zs]


def finite_diff_gradcheck(cfg, data, epsilon=1e-5, n_probes=10, seed=0,
                          source="none", p=4, discount=False,
                          with_skeleton=True):
    """Max relative error between analytic and central-difference gradients.

    Probes random weight entries. A probe is redrawn, 50 times at most in
    all, when the base pre-activations sit on the activation kink or when
    the +/- epsilon evaluations disagree on any activation sign, since the
    loss is not differentiable across those boundaries.
    """
    from degnn.errors import DomainError
    from degnn.train import _backward_pass, _forward_loss, build_model

    if not (1e-7 <= epsilon <= 1e-3):
        raise DomainError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    ops, weights = build_model(
        cfg, data, source=source, seed=seed, p=p, discount=discount,
        with_skeleton=with_skeleton,
    )
    _, prob, ys, zs, ins = _forward_loss(cfg, ops, weights, data)
    grads = _backward_pass(cfg, ops, weights, data, ys, zs, ins, prob)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    accepted = 0
    tries = 0
    while accepted < n_probes and tries < n_probes + 50:
        tries += 1
        li = int(rng.integers(cfg.depth))
        k = int(rng.integers(len(weights[li])))
        w = weights[li][k]
        i = int(rng.integers(w.shape[0]))
        j = int(rng.integers(w.shape[1]))

        orig = w[i, j]
        w[i, j] = orig + epsilon
        lp, _, _, zp, _ = _forward_loss(cfg, ops, weights, data)
        w[i, j] = orig - epsilon
        lm, _, _, zm, _ = _forward_loss(cfg, ops, weights, data)
        w[i, j] = orig

        flipped = any(
            not np.array_equal(a, b)
            for a, b in zip(_sign_pattern(zp[:-1]), _sign_pattern(zm[:-1]))
        )
        near_kink = min(
            min(float(np.min(np.abs(z))) for z in zp[:-1]),
            min(float(np.min(np.abs(z))) for z in zm[:-1]),
        ) < 1e-8
        if flipped or near_kink:
            continue
        fd = (lp - lm) / (2.0 * epsilon)
        an = grads[li][k][i, j]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
        worst = max(worst, rel)
        accepted += 1
    if accepted < n_probes:
        warnings.warn(
            f"only {accepted}/{n_probes} probes away from activation kinks"
        )
    return worst
