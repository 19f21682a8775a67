"""Desk-scale node-classification trainer with hand-written backprop.

Everything here is full-batch, deterministic under a single seed, and free
of autograd: gradients are derived layer by layer so they can be audited
against central differences. Four backbones share one propagation core
(sum over pieces of A_k H W_k); they differ only in how each layer's input
is assembled (previous output, residual add, concatenation of earlier
outputs, or a jumping concatenation before the classifier).

The core is PieceOperator: each layer's pieces are one sparse entry list
built from the decomposition's edges, with the diagonal and skeleton that
all pieces share stored once. A pass costs O(nnz * width) time and memory
for nnz = n + 2 * (edges in the layer's pieces, skeleton counted once), and
no n x n array is ever formed. Each layer's pieces are sliced out of the
graph's edge arrays by the decomposition's index arrays. Measured on a
shared 2-core Intel Xeon host with one BLAS thread: a 20,000-node block
model of average degree 4.5 builds a depth-8, K=5 gcn of random pieces in
0.27-0.30 s and trains it at 0.22-0.40 s an epoch. train() with three
epochs peaks at 296 MiB RSS, close to tools/train_memory.py's 297 MiB,
because both free each epoch's arrays before the next forward pass; with
two epochs' arrays alive at once, train() peaked at 311 MiB.
"""

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .decompose import SOURCES, check_source, layer_decompositions, residuals
from .errors import DomainError, ParseError, TrainingError
from .graphs import Graph, piece_entries
from .propagate import prelu, write_csv

BACKBONES = ("gcn", "resgcn", "densegcn", "jknet")
DECOMP_SOURCES = ("none", *SOURCES)

# per-block split shares; the rest of each block (0.2) is the test split
TRAIN_FRAC = 0.6
VAL_FRAC = 0.2
# redraws of a degenerate block model before generate_sbm gives up
SBM_RETRIES = 5
# uniform draws per row block of the block-model sampler
SBM_DRAW_CELLS = 1 << 16


@dataclass(frozen=True)
class SBMSpec:
    """Planted-partition graph recipe with block-coded node features."""

    n: int
    b: int
    p_in: float
    p_out: float
    d: int
    noise: float = 0.1

    def __post_init__(self):
        if self.n < self.b or self.b < 1:
            raise DomainError(f"need n >= b >= 1, got n={self.n}, b={self.b}")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise DomainError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in}, "
                f"p_out={self.p_out}"
            )
        if self.d < self.b:
            raise DomainError(
                f"feature dim must fit a block one-hot: d={self.d} < b={self.b}"
            )
        if not (0.0 <= self.noise < np.inf):
            raise DomainError(
                f"noise scale must be finite and non-negative, got {self.noise}"
            )


@dataclass(frozen=True, eq=False)
class NodeData:
    """A graph with block labels, features, and boolean split masks."""

    graph: Graph
    labels: np.ndarray
    features: np.ndarray
    masks: dict


def _sbm_edges(blocks, spec, rng):
    """Upper-triangle hits of one n x n uniform draw, in row-major order.

    The draw comes in blocks of about SBM_DRAW_CELLS cells (at least one
    row). Consecutive row blocks consume the generator's stream exactly as
    one (n, n) draw would, so the edges and every later draw are the same,
    without an n x n array.
    """
    n = spec.n
    step = max(1, SBM_DRAW_CELLS // n)
    cols = np.arange(n)
    hits_i, hits_j = [], []
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        prob = np.where(blocks[rows, None] == blocks[None, :], spec.p_in,
                        spec.p_out)
        hit = (rng.random((len(rows), n)) < prob) & (cols > rows[:, None])
        i, j = np.nonzero(hit)
        hits_i.append(rows[i])
        hits_j.append(j)
    return list(zip(np.concatenate(hits_i).tolist(),
                    np.concatenate(hits_j).tolist()))


def _sbm_once(spec, rng):
    blocks = np.repeat(np.arange(spec.b), -(-spec.n // spec.b))[: spec.n]
    edges = _sbm_edges(blocks, spec, rng)

    feats = np.zeros((spec.n, spec.d))
    feats[np.arange(spec.n), blocks] = 1.0
    feats += spec.noise * rng.normal(size=(spec.n, spec.d))

    masks = {
        "train": np.zeros(spec.n, dtype=bool),
        "val": np.zeros(spec.n, dtype=bool),
        "test": np.zeros(spec.n, dtype=bool),
    }
    for blk in range(spec.b):
        nodes = np.flatnonzero(blocks == blk)
        order = nodes[rng.permutation(len(nodes))]
        n_tr = int(TRAIN_FRAC * len(nodes))
        n_val = int(VAL_FRAC * len(nodes))
        masks["train"][order[:n_tr]] = True
        masks["val"][order[n_tr : n_tr + n_val]] = True
        masks["test"][order[n_tr + n_val :]] = True
    return edges, blocks, feats, masks


def generate_sbm(spec, seed):
    """Draw a stochastic block model graph with features and splits.

    Retries with a warning (bounded) when a block ends up without any
    internal edge or a split bucket comes out empty, which only happens for
    tiny or extremely sparse configurations.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(SBM_RETRIES + 1):
        edges, blocks, feats, masks = _sbm_once(spec, rng)
        intra = [0] * spec.b
        for i, j in edges:
            if blocks[i] == blocks[j]:
                intra[blocks[i]] += 1
        degenerate = min(intra) == 0 or any(
            not masks[name].any() for name in ("train", "val", "test")
        )
        if not degenerate:
            return NodeData(
                graph=Graph(spec.n, edges),
                labels=blocks,
                features=feats,
                masks=masks,
            )
        if attempt < SBM_RETRIES:
            warnings.warn(
                f"degenerate block model draw (attempt {attempt + 1}), retrying"
            )
    raise DomainError(
        "could not draw a non-degenerate block model within the retry budget"
    )


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and optimization settings for one training run."""

    backbone: str
    depth: int
    hidden: int
    k_schedule: tuple
    slope: float = 0.2
    lr: float = 0.05
    weight_decay: float = 5e-4
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise DomainError(f"unknown backbone {self.backbone!r}")
        if self.depth < 2:
            raise DomainError(f"depth must be >= 2, got {self.depth}")
        if self.hidden < 1:
            raise DomainError(f"hidden width must be >= 1, got {self.hidden}")
        sched = tuple(int(k) for k in self.k_schedule)
        if len(sched) != self.depth or any(k < 1 for k in sched):
            raise DomainError(
                f"k_schedule needs {self.depth} entries >= 1, got {sched}"
            )
        object.__setattr__(self, "k_schedule", sched)
        if not (0.0 < self.slope < 1.0):
            raise DomainError(f"slope must lie in (0, 1), got {self.slope}")
        if not (0.0 < self.lr < np.inf and 0.0 <= self.weight_decay < np.inf):
            raise DomainError(
                "lr must be finite and positive, weight_decay finite and "
                f"non-negative; got lr={self.lr}, "
                f"weight_decay={self.weight_decay}"
            )
        if self.max_epochs < 1 or self.patience < 1:
            raise DomainError("max_epochs and patience must be >= 1")


# every ModelConfig field is a key, read by its type; k_schedule is a comma
# list of ints
_CONFIG_KEYS = {**{f.name: f.type for f in fields(ModelConfig)},
                "k_schedule": lambda s: tuple(int(v) for v in s.split(","))}


def load_model_config(path):
    """Read a flat key=value file into a ModelConfig."""
    path = str(path)
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError("expected key=value", path=path, line=lineno)
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown key {key!r}", path=path, line=lineno)
            try:
                raw[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ParseError(
                    f"bad value for {key}: {value!r}", path=path, line=lineno
                ) from None
    for required in ("backbone", "depth", "hidden"):
        if required not in raw:
            raise ParseError(f"missing required key {required!r}", path=path)
    raw.setdefault("k_schedule", tuple([1] * raw["depth"]))
    try:
        return ModelConfig(**raw)
    except DomainError as exc:
        # semantic rejections should still name the file they came from
        raise ParseError(str(exc), path=path) from None


@dataclass(frozen=True)
class TrainResult:
    """Epoch history plus the test accuracy at the best validation epoch."""

    train_loss: tuple
    train_acc: tuple
    val_loss: tuple
    val_acc: tuple
    test_acc: float
    best_epoch: int
    epochs_run: int
    seed: int


def _sources(cfg, i):
    """Indices into the outputs ys (ys[0] = features) that feed layer i.

    Every densegcn layer after the first reads all earlier hidden outputs,
    and so does jknet's classifier; several sources are concatenated in
    index order.
    """
    L = cfg.depth
    if (cfg.backbone == "densegcn" and i >= 2) or (
        cfg.backbone == "jknet" and i == L
    ):
        return range(1, i)
    return (i - 1,)


def _residual(cfg, i):
    """Whether layer i adds its input back: resgcn's hidden-to-hidden layers."""
    return cfg.backbone == "resgcn" and 2 <= i <= cfg.depth - 1


def _layer_dims(cfg, in_dim, n_classes):
    """(fan_in, fan_out) per layer for each backbone's wiring."""
    L, h = cfg.depth, cfg.hidden
    widths = [in_dim] + [h] * (L - 1)  # of ys[0] .. ys[L - 1]
    return [
        (sum(widths[j] for j in _sources(cfg, i)), n_classes if i == L else h)
        for i in range(1, L + 1)
    ]


def _init_weights(cfg, in_dim, n_classes, rng):
    """Glorot-uniform weights, one per piece per layer, drawn in layer order."""
    weights = []
    for (fan_in, fan_out), k in zip(
        _layer_dims(cfg, in_dim, n_classes), cfg.k_schedule
    ):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(
            [rng.uniform(-s, s, size=(fan_in, fan_out)) for _ in range(k)]
        )
    return weights


class PieceOperator:
    """One layer's propagation H -> sum_k A_k H W_k over a sparse entry list.

    Every piece A_k holds the self-loop diagonal and the skeleton edges of
    the normalized whole-graph matrix, plus its own residual edges. The
    shared entries are stored once, in an extra slot that multiplies
    H (sum_k W_k), and each piece's residual edges in slot k. With one piece
    there is nothing to share, so all entries sit in slot 0. An entry e adds
    vals[e] * (H V_slot)[col] to its row, where V_k = W_k and V_shared is
    the sum of the W_k. The entries (rows, cols, slots, vals) are those
    of graphs.piece_entries, which piece_matrices scatters into dense
    pieces.

    Entries are sorted by (row, slot, col), the order in which each output
    sums them. Both passes gather `width` features per entry into buf, a
    flat float64 array of at least nnz * width entries that the operators
    of one model share, since their layers run one at a time; so the
    operators of one model are not safe to call from two threads at once.
    A bincount over int64 keys then sums the products per row (forward) or
    per (row, slot) (backward). Each key array holds nnz * width entries.
    The row keys, (rows * width + lane) in entry order, depend only on the
    sorted rows, which hold every node's self loop and its edges whatever
    the decomposition, so the operators of one model and width share one
    row-key array, passed in as row_keys; the constructor raises
    DomainError when its own rows differ from them. The run keys are built
    on the first backward gather. The rest of the operator is a few arrays
    of length nnz.

    The first layer always reads the same features, so fix_input propagates
    them once per slot: calls whose input is that array (by identity) then
    need only dense products of n rows, and every other input takes the
    gather path. A first layer that no other layer shares therefore never
    builds its run keys.
    """

    def __init__(self, n, k, rows, cols, slots, vals, width, buf, row_keys):
        order = np.lexsort((cols, slots, rows))
        rows, cols, slots = rows[order], cols[order], slots[order]
        if (len(row_keys) != len(rows) * width
                or not np.array_equal(row_keys[::width] // width, rows)):
            raise DomainError("the shared row keys do not match the "
                              "operator's rows")
        self.n = n
        self.k = k
        self.slots = k + 1 if k > 1 else 1
        self.vals = vals[order][:, None]
        self.cols = cols
        # row c * slots + s of (H V_0 | ... | H V_shared), viewed as
        # (n * slots, width), is row c of H V_s
        self.stacked_cols = cols * self.slots + slots
        self.row_keys = row_keys
        self.runs = rows * self.slots + slots
        self.run_keys = None
        self.buf = buf[: len(order) * width].reshape(len(order), width)
        self.fixed = None

    def fix_input(self, x):
        """Store x and (M_0 x | ... | M_shared x), M_s being slot s's matrix."""
        d = x.shape[1]
        keys = (self.runs[:, None] * d + np.arange(d)).ravel()
        products = np.take(x, self.cols, axis=0) * self.vals
        per_slot = np.bincount(keys, products.ravel(),
                               self.n * self.slots * d)
        self.fixed = (x, per_slot.reshape(self.n, self.slots * d))

    def _piece_grads(self, blocks):
        """d W_k from the per-slot blocks h^T M_s dz: piece k plus shared."""
        if self.k == 1:
            return blocks
        return [b + blocks[self.k] for b in blocks[:self.k]]

    def _stacked(self, weights, axis=1):
        """V_0, ..., V_shared side by side (axis 1) or stacked (axis 0)."""
        vs = list(weights) + ([sum(weights)] if self.k > 1 else [])
        return np.concatenate(vs, axis=axis)

    def _gather(self, src, index):
        """buf = vals * src[index], src having `width` columns."""
        np.take(src, index, axis=0, out=self.buf, mode="clip")
        self.buf *= self.vals

    def forward(self, h, weights):
        """sum_k A_k h W_k as an (n, width) array."""
        if self.fixed is not None and h is self.fixed[0]:
            return self.fixed[1] @ self._stacked(weights, axis=0)
        width = self.buf.shape[1]
        hv = h @ self._stacked(weights)
        self._gather(hv.reshape(-1, width), self.stacked_cols)
        out = np.bincount(self.row_keys, self.buf.ravel(), self.n * width)
        return out.reshape(self.n, width)

    def backward(self, h, dz, weights):
        """(d loss / d h, [d loss / d W_k]) given dz = d loss / d output.

        The pieces are symmetric, so A_k^T dz = A_k dz comes from the same
        gather as the forward pass, summed per (row, slot): column block s
        of u is M_s dz. For the fixed input, h^T M_s dz = (M_s h)^T dz needs
        no gather, and d loss / d h is None: the features need no gradient.
        """
        if self.fixed is not None and h is self.fixed[0]:
            d = h.shape[1]
            g = self.fixed[1].T @ dz
            return None, self._piece_grads(
                [g[s * d:(s + 1) * d] for s in range(self.slots)])
        width = self.buf.shape[1]
        if self.run_keys is None:
            self.run_keys = (self.runs[:, None] * width
                             + np.arange(width)).ravel()
        self._gather(dz, self.cols)
        u = np.bincount(self.run_keys, self.buf.ravel(),
                        self.n * self.slots * width)
        u = u.reshape(self.n, self.slots * width)
        d_h = u @ self._stacked(weights).T
        g = h.T @ u
        return d_h, self._piece_grads(
            [g[:, s * width:(s + 1) * width] for s in range(self.slots)])


def _layer_input(cfg, ys, i):
    """Assemble layer i's input from earlier outputs, per the backbone."""
    src = _sources(cfg, i)
    if len(src) == 1:
        return ys[src[0]]
    return np.concatenate([ys[j] for j in src], axis=1)


def _forward_pass(cfg, ops, weights, x):
    """All layer outputs plus the cached pre-activations and inputs."""
    ys = [x]
    zs = []
    ins = []
    L = cfg.depth
    for i in range(1, L + 1):
        h_in = _layer_input(cfg, ys, i)
        z = ops[i - 1].forward(h_in, weights[i - 1])
        y = z if i == L else prelu(z, cfg.slope)
        if _residual(cfg, i):
            y = y + ys[i - 1]
        ins.append(h_in)
        zs.append(z)
        ys.append(y)
    return ys, zs, ins


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_prob(cfg, weights, logits, labels, mask):
    prob = _softmax(logits)
    l2 = sum(float(np.sum(w * w)) for layer in weights for w in layer)
    return _masked_ce(prob, labels, mask) + 0.5 * cfg.weight_decay * l2, prob


def _forward_loss(cfg, ops, weights, data):
    """(train loss, class probabilities, ys, zs, ins) of one forward pass."""
    ys, zs, ins = _forward_pass(cfg, ops, weights, data.features)
    loss, prob = _loss_and_prob(
        cfg, weights, ys[-1], data.labels, data.masks["train"]
    )
    return loss, prob, ys, zs, ins


def _backward_pass(cfg, ops, weights, data, ys, zs, ins, prob):
    """Gradients of the masked cross-entropy + L2 loss w.r.t. every weight."""
    labels, mask = data.labels, data.masks["train"]
    n_train = int(mask.sum())
    L = cfg.depth

    d_logits = prob.copy()
    d_logits[np.arange(len(labels)), labels] -= 1.0
    d_logits[~mask] = 0.0
    d_logits /= n_train

    dys = [None] * (L + 1)
    dys[L] = d_logits
    grads = [None] * L

    def add_dy(idx, val):
        dys[idx] = val if dys[idx] is None else dys[idx] + val

    for i in range(L, 0, -1):
        dy = dys[i]
        if i == L:
            dz = dy
        else:
            gate = np.where(zs[i - 1] >= 0.0, 1.0, cfg.slope)
            dz = dy * gate
            if _residual(cfg, i):
                add_dy(i - 1, dy)
        d_in, grads[i - 1] = ops[i - 1].backward(ins[i - 1], dz,
                                                 weights[i - 1])
        if d_in is None:  # layer 1's input is the features: no gradient
            continue
        # route the input gradient back to the outputs that built the input
        offset = 0
        for j in _sources(cfg, i):
            width = ys[j].shape[1]
            add_dy(j, d_in[:, offset : offset + width])
            offset += width

    return [[g + cfg.weight_decay * w for g, w in zip(glayer, layer)]
            for glayer, layer in zip(grads, weights)]


def _gradient_step(cfg, ops, weights, data, ys, zs, ins, prob):
    """Step weights, in place, down the gradient at _forward_loss's outputs."""
    grads = _backward_pass(cfg, ops, weights, data, ys, zs, ins, prob)
    for layer, glayer in zip(weights, grads):
        for w, gw in zip(layer, glayer):
            w -= cfg.lr * gw


def _accuracy(prob, labels, mask):
    idx = np.flatnonzero(mask)
    return float(np.mean(prob[idx].argmax(axis=1) == labels[idx]))


def _masked_ce(prob, labels, mask):
    idx = np.flatnonzero(mask)
    return float(-np.mean(np.log(prob[idx, labels[idx]] + 1e-300)))


def _check_run(cfg, source):
    """Raise DomainError unless source is known and, if none, every K is 1."""
    if source != "none":
        check_source(source)
    elif any(k != 1 for k in cfg.k_schedule):
        raise DomainError("k_schedule must be all ones when no decomposition "
                          f"is used, got {cfg.k_schedule}")


def build_model(cfg, data, source="none", seed=0, p=4, discount=False,
                with_skeleton=True, partitions=None):
    """(per-layer PieceOperators, init weights) for a config on a dataset.

    partitions is the optional partition cache that
    connectivity_aware_decompose shares across calls on data.graph.
    """
    _check_run(cfg, source)
    g = data.graph
    n_classes = int(data.labels.max()) + 1
    in_dim = data.features.shape[1]
    # each layer's output width, the features that each of its operator's
    # gathers moves per entry
    widths = [fan_out for _, fan_out in _layer_dims(cfg, in_dim, n_classes)]
    if source == "none":
        # every layer propagates with the same matrix, so layers of one
        # width share one operator
        plain = (1, np.empty(0, dtype=np.int64), [np.arange(g.m)])
        distinct = sorted(set(widths))
        parts = [(*plain, width) for width in distinct]
        which = [distinct.index(width) for width in widths]
        discount = False
    else:
        decs = layer_decompositions(
            g, cfg.k_schedule, source, p=p, seed=seed,
            with_skeleton=with_skeleton, partitions=partitions,
        )
        parts = [(d.k, d.skeleton, residuals(d), width)
                 for d, width in zip(decs, widths)]
        which = range(len(parts))
    # each operator holds the diagonal and every edge twice, n + 2 m entries,
    # and layers run one at a time, so all operators gather into one buffer
    buf = np.empty((g.n + 2 * g.m) * max(widths))
    # every operator's sorted rows are node c once for its self loop and
    # once per edge at c, whatever the decomposition, so the operators of
    # one width share one row-key array
    lo, hi, _ = g.edge_arrays()
    degree = np.bincount(lo, minlength=g.n) + np.bincount(hi, minlength=g.n)
    rows = np.repeat(np.arange(g.n), degree + 1)
    row_keys = {width: (rows[:, None] * width + np.arange(width)).ravel()
                for width in set(widths)}
    ops = [PieceOperator(g.n, k, *piece_entries(g, k, skeleton, own, discount),
                         width, buf, row_keys[width])
           for k, skeleton, own, width in parts]
    ops = [ops[i] for i in which]
    ops[0].fix_input(data.features)
    rng = np.random.default_rng(seed)
    weights = _init_weights(cfg, in_dim, n_classes, rng)
    return ops, weights


def train(cfg, data, source="none", seed=0, p=4, discount=False,
          with_skeleton=True, partitions=None):
    """Full-batch gradient descent with early stopping on validation accuracy.

    Deterministic under (cfg, data, source, seed). Raises TrainingError
    carrying the last finite epoch if the loss leaves the finite range.
    partitions is build_model's optional partition cache; it changes no
    result, only how often data.graph is partitioned.
    """
    ops, weights = build_model(
        cfg, data, source=source, seed=seed, p=p, discount=discount,
        with_skeleton=with_skeleton, partitions=partitions,
    )
    labels = data.labels
    hist = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}
    best_val = -1.0
    best_epoch = 0
    best_test = 0.0
    since_best = 0
    # fp overflow is monitored through the loss itself, so numpy's
    # intermediate warnings on a diverging run are redundant noise
    with np.errstate(all="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            loss, prob, ys, zs, ins = _forward_loss(cfg, ops, weights, data)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"training loss became non-finite at epoch {epoch}",
                    last_epoch=epoch - 1,
                )
            hist["train_loss"].append(float(loss))
            hist["train_acc"].append(
                _accuracy(prob, labels, data.masks["train"])
            )
            hist["val_loss"].append(_masked_ce(prob, labels, data.masks["val"]))
            hist["val_acc"].append(_accuracy(prob, labels, data.masks["val"]))

            if hist["val_acc"][-1] > best_val:
                best_val = hist["val_acc"][-1]
                best_epoch = epoch
                best_test = _accuracy(prob, labels, data.masks["test"])
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

            _gradient_step(cfg, ops, weights, data, ys, zs, ins, prob)
            # free this epoch's arrays before the next forward pass
            del prob, ys, zs, ins
    return TrainResult(
        train_loss=tuple(hist["train_loss"]),
        train_acc=tuple(hist["train_acc"]),
        val_loss=tuple(hist["val_loss"]),
        val_acc=tuple(hist["val_acc"]),
        test_acc=best_test,
        best_epoch=best_epoch,
        epochs_run=len(hist["train_loss"]),
        seed=int(seed),
    )


KSWEEP_COLUMNS = ("k", "kind", "seed", "test_acc", "test_mean", "test_std")
DEPTHSWEEP_COLUMNS = (
    "backbone",
    "depth",
    "source",
    "kind",
    "seed",
    "test_acc",
    "test_mean",
    "test_median",
    "test_std",
)

_AGGREGATES = {"test_mean": np.mean, "test_median": np.median,
               "test_std": np.std}


def k_cells(cfg, k_values, source):
    """Sweep cells of cfg with k pieces in every layer, one per k."""
    return [({"k": int(k)}, replace(cfg, k_schedule=(int(k),) * cfg.depth),
             source) for k in k_values]


def depth_cells(cfg, depths, backbones, sources, k):
    """Sweep cells per (backbone, depth, source), in that nesting order.

    A decomposed cell has k pieces in every layer, a none cell one; k must
    be at least 1 whichever sources are listed.
    """
    if k < 1:
        raise DomainError(f"pieces per layer must be >= 1, got k={k}")
    return [({"backbone": backbone, "depth": depth, "source": source},
             replace(cfg, backbone=backbone, depth=depth,
                     k_schedule=(1 if source == "none" else k,) * depth),
             source)
            for backbone in backbones for depth in map(int, depths)
            for source in sources]


def sweep(cells, columns, data, seeds, p=4, discount=False,
          with_skeleton=True):
    """Test accuracy per cell: one row per (cell, seed), then an aggregate.

    A cell is (key, cfg, source); key fills the columns that name the cell,
    and each aggregate row fills whichever of test_mean, test_median and
    test_std are in columns. Every cell is checked before the first one
    trains. A partition depends on (graph, p, layer seed) only, so all cells
    share one partition cache.
    """
    seeds = [int(seed) for seed in seeds]
    if not cells or not seeds:
        raise DomainError("a sweep needs at least one cell and one seed, got "
                          f"{len(cells)} cells and {len(seeds)} seeds")
    for _, cfg, source in cells:
        _check_run(cfg, source)
    partitions = {}
    rows = []
    for key, cfg, source in cells:
        accs = [train(cfg, data, source=source, seed=seed, p=p,
                      discount=discount, with_skeleton=with_skeleton,
                      partitions=partitions).test_acc for seed in seeds]
        blank = {**dict.fromkeys(columns, ""), **key}
        rows += [{**blank, "kind": "cell", "seed": seed, "test_acc": acc}
                 for seed, acc in zip(seeds, accs)]
        rows.append({**blank, "kind": "aggregate",
                     **{c: float(f(accs)) for c, f in _AGGREGATES.items()
                        if c in columns}})
    return rows


HISTORY_COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


def write_history_csv(result, path):
    series = zip(result.train_loss, result.train_acc, result.val_loss,
                 result.val_acc)
    rows = [dict(zip(HISTORY_COLUMNS, (epoch, *values)))
            for epoch, values in enumerate(series, start=1)]
    write_csv(rows, HISTORY_COLUMNS, path)
