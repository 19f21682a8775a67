"""Layer stacks: their regime certificates, exact linearization, entropy.

A stack propagates node features through L layers of Y -> sigma(sum_k
A_k Y W_k) with a parametric ReLU. Because that activation multiplies each
coordinate by either 1 or the slope, every realized forward pass equals an
explicit linear map: the product of per-layer (W_k^T kron A_k) sums, each
premultiplied by a diagonal {slope, 1} mask read off the pre-activation
signs. That product's singular extremes certify how much of the input
survives the stack, and a quantization-based entropy of sampled outputs
tracks the same story empirically.

The regime certificates read a LayerStack and give one of three labels:
  decay          per-layer contraction < 1, end-to-end map shrinks to zero
  preserve       per-layer expansion >= 1 even through the activation floor,
                 the end-to-end map stays injective
  indeterminate  neither certificate applies
For the decomposed propagation rule the per-layer operator is the explicit
Kronecker sum M_i = sum_k (W_k^T kron A_k) (LayerStack.layer_operator):
its largest singular value upper bounds the masked layer and
`slope * smallest` lower bounds it, because the activation mask is diagonal
with entries in {slope, 1}.
"""

import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError
from .linalg import as_matrix, as_vector, kron, vec
from .spectral import check_svd_side, singular_extremes, svd_each


@dataclass(frozen=True, eq=False)
class LayerStack:
    """L layers of piece matrices with per-piece, per-layer weights.

    pieces: K square matrices shared by all layers. layer_weights: one
    sequence of K weight matrices per layer, chained so layer i's column
    count feeds layer i+1's rows. Both are stored as tuples of validated
    float64 arrays (linalg.as_matrix). One piece is the plain GCN stack,
    several the decomposed one; regime() picks the certificate that fits.
    """

    pieces: tuple
    layer_weights: tuple
    slope: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(
            as_matrix(a, "piece") for a in self.pieces))
        object.__setattr__(self, "layer_weights", tuple(
            tuple(as_matrix(w, "weight") for w in layer)
            for layer in self.layer_weights))
        # slope 1 makes the stack linear (mask = identity)
        object.__setattr__(self, "slope", float(self.slope))
        if not (0.0 < self.slope <= 1.0):
            raise DomainError(f"slope must lie in (0, 1], got {self.slope}")
        if not self.pieces:
            raise DomainError("need at least one piece matrix")
        n = self.pieces[0].shape[0]
        if any(a.shape != (n, n) for a in self.pieces):
            raise DomainError("piece matrices must be square and same size")
        if not self.layer_weights:
            raise DomainError("need at least one layer")
        d_prev = None
        for li, layer in enumerate(self.layer_weights):
            if len(layer) != len(self.pieces):
                raise DomainError(
                    f"layer {li} has {len(layer)} weight matrices for "
                    f"{len(self.pieces)} pieces"
                )
            shape = layer[0].shape
            if any(w.shape != shape for w in layer):
                raise DomainError(f"layer {li} weights disagree on shape")
            if d_prev is not None and shape[0] != d_prev:
                raise DomainError(
                    f"layer {li} expects {shape[0]} input columns, "
                    f"previous layer emits {d_prev}"
                )
            d_prev = shape[1]

    @property
    def depth(self):
        return len(self.layer_weights)

    @property
    def n(self):
        return self.pieces[0].shape[0]

    @property
    def in_dim(self):
        return self.layer_weights[0][0].shape[0]

    def prefix(self, depth):
        """The stack truncated to its first `depth` layers."""
        if not (1 <= depth <= self.depth):
            raise DomainError(f"depth must lie in [1, {self.depth}]")
        return LayerStack(self.pieces, self.layer_weights[:depth], self.slope)

    def layer_operator(self, i):
        """Layer i's operator sum_k (W_k^T kron A_k), summed in piece order."""
        return reduce(np.add, (kron(w.T, a) for a, w in
                               zip(self.pieces, self.layer_weights[i])))

    def regime(self):
        """gcn_regime's report for one piece, graphcnn_regime's for several."""
        return (gcn_regime if len(self.pieces) == 1 else graphcnn_regime)(self)


def gcn_stack(a_mat, weights, slope=0.2):
    """One-piece LayerStack: propagation matrix a_mat, one weight per layer."""
    return LayerStack((a_mat,), tuple((w,) for w in weights), slope)


@dataclass(frozen=True)
class RegimeReport:
    """Certificate inputs and the resulting regime label.

    For the plain propagation rule sigma_a/gamma_a are the adjacency
    extremes and sigma_w/gamma_w the sup/inf of weight extremes over layers.
    For the decomposed rule the weight factors fold into the per-layer
    operator, so sigma_a/gamma_a carry that operator's extremes
    (sup over layers for sigma_a, inf for gamma_a) and sigma_w = gamma_w = 1.
    Either way the classification reads:
        decay        iff sigma_a * sigma_w < 1
        preserve     iff slope * gamma_a * gamma_w >= 1
        indeterminate otherwise
    (the two certificates are mutually exclusive because gamma <= sigma on
    each factor: with LayerStack's slope <= 1, slope * gamma_a * gamma_w <=
    sigma_a * sigma_w). bound_per_layer is the geometric factor the
    certificate propagates: sigma_a * sigma_w in the decay and
    indeterminate cases, slope * gamma_a * gamma_w under preserve.
    """

    sigma_a: float
    gamma_a: float
    sigma_w: float
    gamma_w: float
    slope: float
    regime: str
    bound_per_layer: float


def _classify(sigma_a, gamma_a, sigma_w, gamma_w, slope):
    if sigma_a * sigma_w < 1.0:
        regime = "decay"
        bound = sigma_a * sigma_w
    elif slope * gamma_a * gamma_w >= 1.0:
        regime = "preserve"
        bound = slope * gamma_a * gamma_w
    else:
        regime = "indeterminate"
        bound = sigma_a * sigma_w
    return RegimeReport(
        sigma_a=float(sigma_a),
        gamma_a=float(gamma_a),
        sigma_w=float(sigma_w),
        gamma_w=float(gamma_w),
        slope=slope,
        regime=regime,
        bound_per_layer=float(bound),
    )


def gcn_regime(stack):
    """Classify a one-piece stack from its factor spectra.

    The piece is the (already normalized, if desired) propagation matrix A,
    and each layer holds one weight matrix W. The per-layer linear map is
    the masked (W^T kron A), whose singular values are bounded by the
    products of the factor extremes. Raises DomainError on a stack of
    several pieces.
    """
    if len(stack.pieces) != 1:
        raise DomainError(
            f"gcn_regime takes one piece, got {len(stack.pieces)}")
    s_a, *s_w = svd_each([*stack.pieces, *(w for (w,) in stack.layer_weights)],
                         compute_uv=False)
    sigma_w = max(float(s[0]) for s in s_w)
    gamma_w = min(float(s[-1]) for s in s_w)
    return _classify(float(s_a[0]), float(s_a[-1]), sigma_w, gamma_w,
                     stack.slope)


def graphcnn_regime(stack):
    """Classify a stack of any piece count by its per-layer operators.

    Builds M_i = stack.layer_operator(i) for every layer and classifies on
    sup_i sigma(M_i) and inf_i gamma(M_i); the diagonal activation mask can
    only scale singular values by a factor in [slope, 1], which is what the
    classification rule accounts for. Every M_i's shape is checked against
    svd's size cap before any is formed.
    """
    for layer in stack.layer_weights:
        d_in, d_out = layer[0].shape
        check_svd_side((d_out * stack.n, d_in * stack.n))
    sigmas = svd_each([stack.layer_operator(i) for i in range(stack.depth)],
                      compute_uv=False)
    sup_sigma = max(float(s[0]) for s in sigmas)
    inf_gamma = min(float(s[-1]) for s in sigmas)
    return _classify(sup_sigma, inf_gamma, 1.0, 1.0, stack.slope)


def prelu(z, slope):
    """max(z, slope*z) elementwise; equals z for z >= 0, slope*z below."""
    return np.maximum(z, slope * z)


def _check_features(stack, x, name):
    """x as a validated (n, in_dim) feature matrix of the stack."""
    x = as_matrix(x, name)
    if x.shape != (stack.n, stack.in_dim):
        raise DomainError(
            f"features must be {stack.n} x {stack.in_dim}, got {x.shape}"
        )
    return x


def forward(stack, x0):
    """All L per-layer outputs of the stack applied to features x0."""
    x0 = _check_features(stack, x0, "x0")
    outs = []
    y = x0
    for layer in stack.layer_weights:
        z = sum(a @ y @ w for a, w in zip(stack.pieces, layer))
        y = prelu(z, stack.slope)
        outs.append(y)
    return outs


def _realized_layers(stack, inputs):
    """Per layer: (products, outputs) realized on vectorized inputs.

    inputs holds one vectorized input per row, validated here. The layer's
    operator (LayerStack.layer_operator) is built once and shared by every
    row; row s's mask
    is the {slope, 1} diagonal read off the signs of its pre-activation
    (entry >= 0 maps to 1). Row s of outputs is that mask times the
    pre-activation, and products[s], in a fresh array per layer, is the
    masked operator times the previous products[s]: row s's end-to-end map.
    """
    ys = as_matrix(inputs, "input")
    if ys.shape[1] != stack.n * stack.in_dim:
        raise DomainError(
            f"input must have {stack.n * stack.in_dim} entries, "
            f"got {ys.shape[1]}"
        )
    products = None
    for i in range(stack.depth):
        m = stack.layer_operator(i)
        z = np.array([m @ y for y in ys])
        masks = np.where(z >= 0.0, 1.0, stack.slope)
        nxt = np.empty((len(ys), m.shape[0], stack.n * stack.in_dim))
        for s, mask in enumerate(masks):
            layer_mat = mask[:, None] * m
            nxt[s] = layer_mat if products is None else layer_mat @ products[s]
        products = nxt
        ys = masks * z
        yield products, ys


def linearized_map(stack, x):
    """Explicit end-to-end matrix realized by the stack on input vector x.

    Returns (matrix, matrix @ x). The matrix is the product, last layer
    leftmost, of mask-scaled per-layer operators; its action reproduces the
    vectorized forward pass exactly up to float roundoff.
    """
    x = as_vector(x, "x")
    for products, _ in _realized_layers(stack, x[None, :]):
        product = products[0]
    return product, product @ x


def quantized_entropy(samples, epsilon):
    """log2 of the number of distinct epsilon-quantized sample vectors.

    Each coordinate is truncated toward zero to a multiple of epsilon, so
    any value of magnitude below epsilon lands exactly on 0. For a
    deterministic map fed uniform samples this counts surviving outcomes,
    an entropy in bits.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise DomainError("samples must be a non-empty 2-D array")
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")
    epsilon = float(epsilon)
    if not (0.0 < epsilon < np.inf):
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    # +0.0 folds -0.0 into 0.0 so the byte view is canonical
    q = np.trunc(samples / epsilon) + 0.0
    distinct = len({row.tobytes() for row in q})
    return float(np.log2(distinct))


def random_unit_features(n, d, n_samples, seed):
    """n_samples feature matrices with max-abs entry exactly 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        x = rng.normal(size=(n, d))
        x /= np.max(np.abs(x))
        out.append(x)
    return out


def weights_with_top_singular(shape, sigma, seed):
    """Random weight matrix rescaled so its largest singular value is sigma."""
    sigma = float(sigma)
    # a negative scale flips the sign, leaving the top singular value |sigma|
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(
            f"a top singular value must be finite and >= 0, got {sigma}"
        )
    if len(shape) != 2 or min(shape) < 1:
        raise DomainError(
            f"a weight shape needs two positive dimensions, got {tuple(shape)}"
        )
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    hi, _ = singular_extremes(w)
    if hi == 0.0:
        raise DomainError("degenerate random draw cannot be rescaled")
    return w * (sigma / hi)


DECAY_COLUMNS = (
    "depth",
    "bound",
    "max_sv",
    "min_sv",
    "entropy_bits",
    "n_samples",
    "epsilon",
    "seed",
)


# bytes of end-to-end products that decay_curve holds for one singular-value
# batch (32 MiB): consecutive requested depths share a batch while their
# products fit, so the Jacobi kernel sweeps about as often as the slowest of
# them needs, not once per depth. A batch near the cap peaks at under five
# times it: depths 1..6 of 16 products of 200 x 200 hold 29.3 MiB, and
# decay_curve's tracemalloc peak on them is 151.6 MiB (4.7 times the cap)
DECAY_BATCH_BYTES = 1 << 25


def _batches(sizes, cap):
    """Consecutive runs of positions into sizes, each summing to at most cap.

    Runs are filled greedily in order; a size above cap alone makes a run of
    one.
    """
    runs = []
    total = 0
    for pos, size in enumerate(sizes):
        if runs and total + size <= cap:
            runs[-1].append(pos)
            total += size
        else:
            runs.append([pos])
            total = size
    return runs


def decay_curve(stack, depths, n_samples=16, epsilon=1e-6, seed=0, inputs=None):
    """Certificate bound vs realized behavior at each prefix depth.

    For every depth l in `depths` (sorted ascending, all within the stack)
    this evaluates the depth-l prefix on a common set of sampled inputs and
    reports the certificate factor raised to l, the extreme singular values
    of the realized end-to-end maps over the sample, and the quantized
    entropy of the depth-l outputs. inputs may supply explicit feature
    matrices; otherwise n_samples are drawn at unit max-abs scale by seed.

    All samples advance one layer at a time, each layer's products in a
    fresh (n_samples, rows, cols) array. Consecutive requested depths are
    held until their products would pass DECAY_BATCH_BYTES, then all of
    them go to the SVD kernel as one batch (svd_each, singular values only);
    a depth whose products alone pass it is taken alone. Each matrix keeps
    its own stopping rule, so row values are the bits of one svd() per
    depth. Every requested depth's product shape is checked against svd's
    size cap before any layer is realized. Peak memory is about five times
    the batch: the held products, the kernel's working copy of them, and
    the kernel's two round buffers (tracemalloc peak: 31 stacks for depths
    1..6 of 16 products of 80 x 80 or of 200 x 200, the latter a batch of
    29.3 MiB peaking at 4.7 times DECAY_BATCH_BYTES; 5.5 stacks for one
    depth alone at 80 x 80, the bound where one depth's products alone
    pass DECAY_BATCH_BYTES).
    """
    depths = [int(d) for d in depths]
    if not depths or depths != sorted(set(depths)):
        raise DomainError("depths must be distinct and sorted ascending")
    if depths[0] < 1 or depths[-1] > stack.depth:
        raise DomainError(f"depths must lie in [1, {stack.depth}]")
    for d in depths:
        check_svd_side((stack.n * stack.layer_weights[d - 1][0].shape[1],
                        stack.n * stack.in_dim))
    if inputs is None:
        inputs = random_unit_features(stack.n, stack.in_dim, n_samples, seed)
    else:
        n_samples = len(inputs)
    if n_samples < 1:
        raise DomainError("need at least one sample")
    inputs = np.array([vec(_check_features(stack, x, "input"))
                       for x in inputs])

    per_layer = stack.regime().bound_per_layer
    want = set(depths)
    sizes = [inputs.nbytes * stack.layer_weights[d - 1][0].shape[1]
             * stack.n for d in depths]
    last = {depths[run[-1]] for run in _batches(sizes, DECAY_BATCH_BYTES)}
    rows = []
    held = []  # the products of each row since the last batch
    layers = _realized_layers(stack.prefix(depths[-1]), inputs)
    for li, (products, outputs) in enumerate(layers, start=1):
        if li not in want:
            continue
        rows.append(
            {
                "depth": li,
                "bound": per_layer**li,
                "max_sv": None,
                "min_sv": None,
                "entropy_bits": quantized_entropy(outputs, epsilon),
                "n_samples": n_samples,
                "epsilon": epsilon,
                "seed": int(seed),
            }
        )
        held.append(products)
        if li not in last:
            continue
        sigma = svd_each([p for h in held for p in h], compute_uv=False)
        for b, row in enumerate(rows[-len(held):]):
            per_sample = np.array(sigma[b * n_samples:(b + 1) * n_samples])
            row["max_sv"] = float(per_sample[:, 0].max())
            row["min_sv"] = float(per_sample[:, -1].min())
        held = []
    return rows


def write_csv(rows, columns, path):
    """Write dict rows under a header of columns; floats as their repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def write_decay_csv(rows, path):
    """Write decay rows to CSV with the mandatory header."""
    write_csv(rows, DECAY_COLUMNS, path)
