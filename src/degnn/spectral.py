"""Singular value machinery and information-flow regime certificates.

svd() is a one-sided Jacobi implementation and svd_each() the same for many
matrices at once (the sweeps live in degnn._kernels). numpy's own
factorizations are deliberately not used here: the verification suite
cross-checks this routine against an independent characteristic-polynomial
oracle, so the certified path must be this code and nothing else.

The regime classifiers turn singular-value extremes into one of three labels:
  decay          per-layer contraction < 1, end-to-end map shrinks to zero
  preserve       per-layer expansion >= 1 even through the activation floor,
                 the end-to-end map stays injective
  indeterminate  neither certificate applies
For the decomposed propagation rule the per-layer operator is the explicit
Kronecker sum M_i = sum_k (W_k^T kron A_k); its largest singular value upper
bounds the masked layer and `slope * smallest` lower bounds it, because the
activation mask is diagonal with entries in {slope, 1}.
"""

from dataclasses import dataclass

import numpy as np

from degnn import _kernels
from degnn.errors import DomainError, NumericError
from degnn.linalg import as_matrix, kron

MAX_SVD_SIDE = 2048
MAX_SWEEPS = 60
# converged once the Gram off-diagonal is below GRAM_TOL * ||m||_F and every
# significant column pair is orthogonal to REL_ORTH_TOL of its own scale; a
# sweep skips a pair already orthogonal to PAIR_TOL
GRAM_TOL = 1e-12
REL_ORTH_TOL = 1e-10
PAIR_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Factorization m = u @ diag(sigma) @ v.T with sigma descending.

    u has orthonormal columns (rows x k), v likewise (cols x k), where
    k = min(rows, cols); for square input both are square orthogonal.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        return self.u @ np.diag(self.sigma) @ self.v.T


def _project_out(vec, ut, filled):
    """vec minus its components along the filled rows, re-run for stability."""
    e = vec.astype(np.float64).copy()
    for _ in range(2):
        for r in filled:
            e -= (e @ ut[r]) * ut[r]
    return e, float(np.sqrt(e @ e))


def _orthonormal_direction(ut, filled, seed_vec=None):
    """A unit vector orthogonal to the filled rows of ut.

    Tries seed_vec first (kept only when most of it survives projection),
    then the canonical basis vector carrying the least energy inside the
    filled span. That vector's exact residual norm is sqrt(1 - energy),
    at least sqrt(1/m) while a complement direction exists, so a fixed
    acceptance cutoff would wrongly reject it for large m. Used for columns
    whose singular value is negligible, where the rotated working column no
    longer carries a trustworthy direction.
    """
    if seed_vec is not None:
        e, nrm = _project_out(seed_vec, ut, filled)
        if nrm > 0.25:
            return e / nrm
    m = ut.shape[1]
    energy = np.zeros(m)
    for r in filled:
        energy += ut[r] * ut[r]
    cand = np.zeros(m)
    cand[int(np.argmin(energy))] = 1.0
    e, nrm = _project_out(cand, ut, filled)
    if nrm > 1e-6:
        return e / nrm
    raise NumericError("could not complete an orthonormal basis")


def _gram_state(bt, shape_max):
    """Convergence measures of every working matrix of a stack.

    bt is a (count, n, m) stack of working matrices. Returns three arrays of
    length count, (off, rel, sig_cut): per matrix, the off-diagonal
    Frobenius norm of its Gram matrix, the largest relative
    non-orthogonality among column pairs whose norms sit above the
    negligibility cut, and the cut itself. Negligible columns (norm <= float
    rounding noise of the largest column) cannot be driven to relative
    orthogonality and are handled at extraction instead.
    """
    gram = bt @ bt.swapaxes(-1, -2)
    diag = np.arange(gram.shape[-1])
    d = np.sqrt(np.clip(gram[:, diag, diag], 0.0, None))
    gram[:, diag, diag] = 0.0
    off = np.sqrt((gram * gram).sum(axis=(1, 2)))
    sig_cut = d.max(axis=1) * (2.0 ** -52) * shape_max
    keep = d > sig_cut[:, None]
    # only pairs of kept columns count; their norms are far from zero, and
    # the zeroed diagonal adds nothing to the maximum
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(gram) / (d[:, :, None] * d[:, None, :])
    pairs = keep[:, :, None] & keep[:, None, :]
    rel = np.where(pairs, ratio, 0.0).max(axis=(1, 2))
    return off, rel, sig_cut


def _no_convergence(off, rel, threshold, where):
    where = f" (mats[{where}])" if where is not None else ""
    return NumericError(
        f"jacobi svd did not converge in {MAX_SWEEPS} sweeps{where} "
        f"(gram off-diagonal {off:.3e} vs {threshold:.3e}, "
        f"relative {rel:.3e} vs {REL_ORTH_TOL:g})"
    )


def check_svd_side(shape):
    """Raise DomainError unless svd() takes a matrix of this shape."""
    if min(shape) > MAX_SVD_SIDE:
        raise DomainError(
            f"svd supports min(rows, cols) <= {MAX_SVD_SIDE}, got {shape}"
        )


def _scaled_working(a, out):
    """Write svd()'s working state for matrix a into out.

    out is a C-contiguous (min(rows, cols), max(rows, cols)) array; it gets
    the working columns as rows (wide input is transposed first), scaled to
    unit Frobenius norm, so rotations touch contiguous memory. Returns
    (scale, exponent, threshold): each singular value is a working column
    norm times scale * 2**exponent, and threshold is the Gram criterion in
    the scaled frame.

    a is first scaled by the power of two that brings max |a| into
    [0.5, 1). That is exact, so the Frobenius norm can neither underflow
    nor overflow, and where the squares of the entries stay in range the
    results are the same bits as without it.
    """
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    fro = float(np.sqrt((a * a).sum()))
    scale = fro if fro > 0.0 else 1.0
    work = a.T if a.shape[0] < a.shape[1] else a
    np.divide(work.T, scale, out=out)
    return scale, exponent, GRAM_TOL * (fro / scale)


def _sorted_norms(bt):
    """Descending column norms of working matrices, and their order.

    bt is one working matrix or a stack of them; both results have the
    shape of bt without its last axis.
    """
    norms = np.sqrt((bt * bt).sum(axis=-1))
    order = np.argsort(-norms, axis=-1, kind="stable")
    return np.take_along_axis(norms, order, axis=-1), order


def svd(m, compute_uv=True):
    """Singular value decomposition via one-sided Jacobi rotations.

    m is one 2-D matrix (DomainError otherwise); svd_each takes many.

    Convergence requires both the contract criterion (off-diagonal Frobenius
    norm of the implicit Gram matrix B^T B below 1e-12 * ||m||_F) and a
    relative one: every pair of columns above the negligibility cut must be
    orthogonal to 1e-10 of its own scale; the second condition is what makes
    the singular vectors of near-zero singular values orthonormal too. Capped
    at MAX_SWEEPS sweeps (NumericError beyond, or on a stall where the pair
    tolerance cannot push the Gram criterion any lower). Supports any shape
    with min(rows, cols) <= 2048; wide input is handled by transposing.

    The iteration runs on m scaled to unit Frobenius norm (singular values
    scale linearly and are multiplied back), so convergence behavior does
    not depend on the scale: the Gram criterion in the scaled frame is exactly
    off < 1e-12 * ||m_scaled||_F. Without the pre-scaling, float64 rounding
    noise in the Gram entries (~2e-16 * ||m||_F^2) would exceed the absolute
    threshold for ||m||_F beyond ~1e3 regardless of algorithm. A power of
    two taken out first keeps ||m||_F itself in range, so
    svd(m * 2**k).sigma == svd(m).sigma * 2**k exactly while no entry or
    singular value leaves the normal float range.

    compute_uv=False returns the singular values alone, as a descending
    array: the sweeps accumulate no V and no U is completed; sigma is the
    same as with compute_uv=True.
    """
    return svd_each([m], compute_uv)[0]


def _factors(bt, vt, sigma, sig_cut, wide):
    """svd()'s SVDResult of one matrix from its converged working state.

    bt and vt are the matrix's working columns and accumulated V, as rows,
    as _jacobi leaves them; sigma and sig_cut are its singular values and
    negligibility cut, and wide says the input had more columns than rows
    (it was swept transposed). Significant columns keep their rotated
    direction; negligible ones get re-orthonormalized, which perturbs the
    reconstruction by at most the negligibility cut per column.
    """
    snorms, order = _sorted_norms(bt)
    bt = bt[order]
    vt = vt[order]
    ut = np.zeros_like(bt)
    filled = []
    for r in range(len(snorms)):
        if snorms[r] > sig_cut:
            ut[r] = bt[r] / snorms[r]
        else:
            seed_vec = bt[r] / snorms[r] if snorms[r] > 0.0 else None
            ut[r] = _orthonormal_direction(ut, filled, seed_vec)
        filled.append(r)

    u = ut.T.copy()
    v = vt.T.copy()
    if wide:
        u, v = v, u
    return SVDResult(u=u, sigma=sigma, v=v)


def _jacobi(a, with_v, names):
    """Sweep every matrix of a to svd()'s stopping rule, as one batch.

    a is a sequence of 2-D float64 arrays of one shape (a 3-D array is
    one), each read where it lies, so a matrix gives the same bits
    whatever its memory layout. Each matrix gets its own working state and
    stopping rule; a converged matrix leaves the batch, so the sweeps
    shrink as the stack converges. The working states fill one array the
    size of the stack, bt, and V accumulates in vt when with_v; both are
    compacted in place as matrices leave. Before each sweep one batched
    Gram product tests the whole live stack.

    Returns (sigma, sig_cut, states): row b of sigma holds the descending
    singular values of a[b] and sig_cut[b] the negligibility cut of its
    converged working matrix. With with_v, states is (bt, vt), where bt[b]
    and vt[b] hold matrix b's converged working state: a matrix that
    converges while others still sweep is copied out before compaction
    overwrites it. Without with_v, states is None. Raises NumericError
    after MAX_SWEEPS sweeps, or on a stall (a sweep that moved no pair of a
    matrix while its convergence tests still fail), naming a[b] as names[b].
    """
    count = len(a)
    rows, cols = np.shape(a[0])
    side, shape_max = min(rows, cols), max(rows, cols)
    bt = np.empty((count, side, shape_max))
    vt = np.zeros((count, side, side if with_v else 0))
    if with_v:
        vt[:, range(side), range(side)] = 1.0
    scale = np.empty(count)
    exponent = np.empty(count, dtype=np.int64)
    threshold = np.empty(count)
    for b, x in enumerate(a):
        scale[b], exponent[b], threshold[b] = _scaled_working(x, bt[b])
    sigma = np.empty((count, side))
    sig_cut = np.empty(count)
    live = np.arange(count)
    states = None
    rotations = None
    # a convergence test before each sweep and after the last: MAX_SWEEPS
    # sweeps in all
    for swept in range(MAX_SWEEPS + 1):
        off, rel, cut = _gram_state(bt, shape_max)
        sig_cut[live] = cut
        converged = (off <= threshold[live]) & (rel <= REL_ORTH_TOL)
        if rotations is not None:
            # no pair of such a matrix moved last sweep: a stall
            stalled = np.flatnonzero(~converged & (rotations == 0))
            if stalled.size:
                pos = stalled[0]
                raise _no_convergence(off[pos], rel[pos],
                                      threshold[live[pos]], names[live[pos]])
        done = live[converged]
        if done.size:
            norms = _sorted_norms(bt[converged])[0]
            sigma[done] = np.ldexp(norms * scale[done, None],
                                   exponent[done, None])
        keep = np.flatnonzero(~converged)
        if with_v and done.size and (keep.size or states is not None):
            if states is None:
                states = np.empty_like(bt), np.empty_like(vt)
            states[0][done] = bt[converged]
            states[1][done] = vt[converged]
        if not keep.size:
            if with_v and states is None:
                # all converged in one test, before any compaction
                states = bt, vt
            return sigma, sig_cut, states
        if swept == MAX_SWEEPS:
            pos = keep[0]
            raise _no_convergence(off[pos], rel[pos], threshold[live[pos]],
                                  names[live[pos]])
        if keep.size < live.size:
            bt[: keep.size] = bt[keep]
            vt[: keep.size] = vt[keep]
            bt = bt[: keep.size]
            vt = vt[: keep.size]
            live = live[keep]
        # looked up at call time, so a wrapper set on the module takes effect
        rotations = _kernels.jacobi_sweep(bt, vt, PAIR_TOL)


def svd_each(mats, compute_uv=True):
    """svd(m, compute_uv) of every matrix m of mats, as a list in input order.

    mats is a sequence of 2-D arrays or a (count, rows, cols) array. Every
    matrix is validated, and its shape checked against the size cap, before
    any is swept. Matrices of one shape are then swept as one batch by the
    same kernel as svd() (degnn._kernels.jacobi_sweep), one _jacobi call per
    shape, in a working array the batch's own size; each round of a sweep
    rotates a gathered copy of the rows it pairs. Each matrix keeps its own
    stopping rule, a converged matrix leaves its batch, and a batch raises
    NumericError whenever one of its matrices would, naming mats[i] if there
    are several. Each matrix is read where it lies, so result i is the same
    bits as svd(mats[i], compute_uv) for any memory layout, Fortran-ordered
    and strided views included: an SVDResult with compute_uv, the
    descending singular values without.
    """
    arrays = [as_matrix(m, "m") for m in mats]
    by_shape = {}
    for i, a in enumerate(arrays):
        check_svd_side(a.shape)
        by_shape.setdefault(a.shape, []).append(i)
    out = [None] * len(arrays)
    for shape, idx in by_shape.items():
        names = idx if len(arrays) > 1 else [None]
        sigma, sig_cut, states = _jacobi([arrays[i] for i in idx],
                                         compute_uv, names)
        for b, i in enumerate(idx):
            if compute_uv:
                out[i] = _factors(states[0][b], states[1][b], sigma[b],
                                  sig_cut[b], wide=shape[0] < shape[1])
            else:
                out[i] = sigma[b]
    return out


def singular_extremes(m):
    """(largest, smallest) singular value of m."""
    s = svd(m, compute_uv=False)
    return float(s[0]), float(s[-1])


@dataclass(frozen=True)
class RegimeReport:
    """Certificate inputs and the resulting regime label.

    For the plain propagation rule sigma_a/gamma_a are the adjacency
    extremes and sigma_w/gamma_w the sup/inf of weight extremes over layers.
    For the decomposed rule the weight factors fold into the per-layer
    composite operator, so sigma_a/gamma_a carry that operator's extremes
    (sup over layers for sigma_a, inf for gamma_a) and sigma_w = gamma_w = 1.
    Either way the classification reads:
        decay        iff sigma_a * sigma_w < 1
        preserve     iff slope * gamma_a * gamma_w >= 1
        indeterminate otherwise
    (the two certificates are mutually exclusive because slope < 1 and
    gamma <= sigma on each factor). bound_per_layer is the geometric factor
    the certificate propagates: sigma_a * sigma_w in the decay and
    indeterminate cases, slope * gamma_a * gamma_w under preserve.
    """

    sigma_a: float
    gamma_a: float
    sigma_w: float
    gamma_w: float
    slope: float
    regime: str
    bound_per_layer: float


def _check_slope(slope):
    slope = float(slope)
    if not (0.0 < slope < 1.0):
        raise DomainError(f"activation slope must lie in (0, 1), got {slope}")
    return slope


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


def gcn_regime(a_mat, weights, slope=0.2):
    """Classify a plain propagation stack from its factor spectra.

    a_mat is the (already normalized, if desired) propagation matrix;
    weights is the per-layer list of weight matrices. The per-layer linear
    map is the masked (W^T kron A), whose singular values are bounded by
    the products of the factor extremes.
    """
    slope = _check_slope(slope)
    a_mat = as_matrix(a_mat, "a_mat")
    if a_mat.shape[0] != a_mat.shape[1]:
        raise DomainError("propagation matrix must be square")
    if not weights:
        raise DomainError("need at least one weight matrix")
    weights = [as_matrix(w, "weight") for w in weights]
    s_a, *s_w = svd_each([a_mat, *weights], compute_uv=False)
    sigma_w = max(float(s[0]) for s in s_w)
    gamma_w = min(float(s[-1]) for s in s_w)
    return _classify(float(s_a[0]), float(s_a[-1]), sigma_w, gamma_w, slope)


def composite_operator(pieces, piece_weights):
    """Explicit per-layer operator sum_k (W_k^T kron A_k) of a decomposed layer."""
    if len(pieces) != len(piece_weights):
        raise DomainError(
            f"{len(pieces)} pieces but {len(piece_weights)} weight matrices"
        )
    total = None
    for a_k, w_k in zip(pieces, piece_weights):
        a_k = as_matrix(a_k, "piece")
        w_k = as_matrix(w_k, "piece weight")
        term = kron(w_k.T, a_k)
        total = term if total is None else total + term
    return total


def graphcnn_regime(pieces, layer_weights, slope=0.2):
    """Classify a decomposed stack by its per-layer composite operators.

    pieces: list of n x n piece matrices A_k (shared across layers).
    layer_weights: one list of per-piece weight matrices per layer.
    Builds M_i = sum_k (W_k^T kron A_k) explicitly for every layer and
    classifies on sup_i sigma(M_i) and inf_i gamma(M_i); the diagonal
    activation mask can only scale singular values by a factor in
    [slope, 1], which is what the classification rule accounts for.
    """
    slope = _check_slope(slope)
    if not pieces:
        raise DomainError("need at least one piece matrix")
    if not layer_weights:
        raise DomainError("need at least one layer of weights")
    n, cols = as_matrix(pieces[0], "piece").shape
    if n != cols:
        raise DomainError("piece matrices must be square")
    # each M_i's shape against svd's cap, before any M_i is formed
    for wk in layer_weights:
        if len(wk):
            d_in, d_out = as_matrix(wk[0], "piece weight").shape
            check_svd_side((d_out * n, d_in * n))
    sigmas = svd_each([composite_operator(pieces, wk)
                       for wk in layer_weights], compute_uv=False)
    sup_sigma = max(float(s[0]) for s in sigmas)
    inf_gamma = min(float(s[-1]) for s in sigmas)
    return _classify(sup_sigma, inf_gamma, 1.0, 1.0, slope)


def kron_sum_spectrum(split, w_pieces):
    """Singular values of sum_k (W_k kron A_k) for spectrally split pieces.

    When the pieces come from a one-singular-value-per-piece spectral split
    (A_k = u_k sigma_k v_k^T sharing A's singular bases), the sum's singular
    values are exactly every product sigma_k * (singular value j of W_k):
    the shared bases rotate the sum into a block structure where piece k
    contributes the block sigma_k * W_k, so no large factorization is
    needed. Returns the full multiset as a descending array of length n*d.

    split: a SpectralSplit with one piece per singular value (groups == n).
    w_pieces: n weight matrices, all d x d.
    """
    n = len(split.sigma)
    if split.groups != n:
        raise DomainError(
            "closed-form spectrum needs one singular value per piece "
            f"(groups={split.groups}, n={n})"
        )
    if len(w_pieces) != n:
        raise DomainError(f"expected {n} weight matrices, got {len(w_pieces)}")
    ws = []
    for k, w_k in enumerate(w_pieces):
        w_k = as_matrix(w_k, f"w_pieces[{k}]")
        if w_k.shape[0] != w_k.shape[1]:
            raise DomainError("weight pieces must be square")
        if ws and w_k.shape != ws[0].shape:
            raise DomainError("weight pieces must share one dimension")
        ws.append(w_k)
    out = np.concatenate([split.sigma[k] * sw for k, sw in
                          enumerate(svd_each(ws, compute_uv=False))])
    out.sort()
    return out[::-1].copy()
