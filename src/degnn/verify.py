"""Randomized self-checks certifying the library's linear-map identities.

Each check runs seeded trials against an independent reconstruction of the
claimed identity (explicit Kronecker sums, brute-force SVD, direct forward
passes) and reports how many trials passed together with the worst error
seen. They are cheap enough to run at every release and are exposed through
the command line as named suites.
"""

from dataclasses import dataclass

import numpy as np

from .decompose import spectral_splits
from .errors import DomainError
from .linalg import kron, vec
from .propagate import LayerStack, forward, gcn_stack, linearized_map
from .spectral import gcn_regime, graphcnn_regime, kron_sum_spectrum, svd_each

# trials a batched suite draws, factors and scores at a time, so its memory
# does not grow with the trial count; the rng stream runs on from block to
# block, so no report depends on this size
TRIAL_BLOCK = 128


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized suite: trials passed and the worst error.

    name is the suite's token, and summary() is the line `degnn verify`
    prints for it.
    """

    name: str
    passed: int
    total: int
    max_err: float

    @property
    def ok(self):
        return self.passed == self.total

    def summary(self):
        return (
            f"{self.name}: {self.passed}/{self.total} pass "
            f"(max err {self.max_err:.3e})"
        )


def _check_trials(trials):
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    return trials


def _trial_blocks(trials):
    """range(trials) as consecutive ranges of at most TRIAL_BLOCK trials."""
    return [range(start, min(start + TRIAL_BLOCK, trials))
            for start in range(0, trials, TRIAL_BLOCK)]


def check_linearization(trials=100, seed=0, tol=1e-9):
    """Forward pass equals the explicit mask-scaled operator product.

    Alternates plain and decomposed stacks over random sizes (n <= 6,
    widths <= 3, depth <= 5) and compares the deep output against the
    end-to-end matrix applied to the stacked input.
    """
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for t in range(trials):
        n = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 6))
        dims = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
        slope = float(rng.uniform(0.05, 0.95))
        if t % 2 == 0:
            a_mat = rng.normal(size=(n, n)) / np.sqrt(n)
            weights = [
                rng.normal(size=(dims[i], dims[i + 1])) for i in range(depth)
            ]
            stack = gcn_stack(a_mat, weights, slope=slope)
        else:
            k = int(rng.integers(1, 4))
            pieces = [rng.normal(size=(n, n)) / np.sqrt(n) for _ in range(k)]
            layer_weights = [
                [rng.normal(size=(dims[i], dims[i + 1])) for _ in range(k)]
                for i in range(depth)
            ]
            stack = LayerStack(pieces, layer_weights, slope=slope)
        x = rng.normal(size=(n, dims[0]))
        deep = forward(stack, x)[-1]
        _, mapped = linearized_map(stack, vec(x))
        err = float(np.max(np.abs(vec(deep) - mapped)))
        max_err = max(max_err, err)
        passed += err < tol
    return CheckReport("lemma1", passed, trials, max_err)


def check_split_spectrum(trials=100, seed=0, tol=1e-8):
    """Closed-form spectrum of a one-direction-per-piece split is exact.

    Splits a random square matrix into one piece per singular direction,
    attaches a random square weight to each piece, and compares the product
    formula against a brute-force SVD of the explicit Kronecker sum. Each
    block of TRIAL_BLOCK trials is drawn first; then its splits run as one
    spectral_splits batch, kron_sum_spectrum scores each trial, and the
    brute-force spectra are taken one SVD batch per shape.
    """
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for block in _trial_blocks(trials):
        a_mats = []
        w_sets = []
        for t in block:
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            a_mat = rng.normal(size=(n, n))
            if t % 5 == 4:
                # rank-deficient input: zero singular values must carry
                # through
                a_mat[:, 0] = a_mat[:, -1]
            a_mats.append(a_mat)
            w_sets.append([rng.normal(size=(d, d)) for _ in range(n)])
        splits = spectral_splits(a_mats, [len(a) for a in a_mats])
        closed = [kron_sum_spectrum(split, w_pieces)
                  for split, w_pieces in zip(splits, w_sets)]
        totals = [
            sum(kron(w_k, a_k) for w_k, a_k in zip(w_pieces, split.pieces))
            for split, w_pieces in zip(splits, w_sets)
        ]
        for c, brute in zip(closed, svd_each(totals, compute_uv=False)):
            err = float(np.max(np.abs(c - brute)))
            max_err = max(max_err, err)
            passed += err < tol
    return CheckReport("lemma3", passed, trials, max_err)


def check_kron_identities(trials=100, seed=0, sv_tol=1e-8, vec_tol=1e-10):
    """Kronecker spectrum and vec factoring identities hold numerically.

    Singular values of kron(A, B) must be all products of the factors'
    singular values, and vec(A B C) must equal (C^T kron A) vec(B). The
    singular values of each block of TRIAL_BLOCK trials are taken after its
    draws, one SVD batch per shape.
    """
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for block in _trial_blocks(trials):
        mats = []
        vec_errs = []
        for _ in block:
            m, n, p, q = (int(rng.integers(1, 5)) for _ in range(4))
            a_mat = rng.normal(size=(m, n))
            b_mat = rng.normal(size=(p, q))
            mats += [kron(a_mat, b_mat), a_mat, b_mat]

            left = rng.normal(size=(m, n))
            mid = rng.normal(size=(n, p))
            right = rng.normal(size=(p, q))
            lhs = vec(left @ mid @ right)
            rhs = kron(right.T, left) @ vec(mid)
            vec_errs.append(float(np.max(np.abs(lhs - rhs))))

        sigmas = svd_each(mats, compute_uv=False)
        for t, vec_err in enumerate(vec_errs):
            direct, sa, sb = sigmas[3 * t:3 * t + 3]
            outer = np.sort(np.outer(sa, sb), axis=None)
            # rectangular factors: the product multiset lists the nonzero
            # part of the spectrum, the rest of kron(A, B)'s values are
            # exact zeros
            products = np.zeros(direct.shape)
            products[: outer.size] = outer[::-1]
            sv_err = float(np.max(np.abs(direct - products)))
            max_err = max(max_err, sv_err, vec_err)
            passed += sv_err < sv_tol and vec_err < vec_tol
    return CheckReport("kron", passed, trials, max_err)


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _draw_regime_trial(kind, rng):
    """The random inputs of one check_regimes trial of the given kind.

    A dict with kind, depth, slope, a_mat and weights (one list of
    per-piece weights per layer for kind 2), plus the input x for kinds 0
    and 1 and the piece count k for kind 2. The draws come in the order of
    the rng stream that fixes every report.
    """
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 5))
    slope = float(rng.uniform(0.1, 0.9))
    trial = {"kind": kind, "depth": depth, "slope": slope}
    if kind == 0:
        trial["a_mat"] = rng.normal(size=(n, n))
        trial["weights"] = [rng.normal(size=(d, d)) for _ in range(depth)]
        trial["x"] = rng.normal(size=n * d)
    elif kind == 1:
        # orthogonal weights, amplified orthogonal propagation: preserve
        gain = float(rng.uniform(1.0 / slope + 0.05, 1.0 / slope + 1.0))
        trial["a_mat"] = gain * _random_orthogonal(n, rng)
        trial["weights"] = [_random_orthogonal(d, rng) for _ in range(depth)]
        trial["x"] = rng.normal(size=n * d)
    else:
        k = trial["k"] = int(rng.integers(1, min(4, n + 1)))
        trial["a_mat"] = rng.normal(size=(n, n))
        trial["weights"] = [
            [rng.normal(size=(d, d)) for _ in range(k)] for _ in range(depth)
        ]
    return trial


def check_regimes(trials=100, seed=0, tol=1e-9):
    """Regime certificates bound the realized end-to-end singular values.

    Cycles three constructions: stacks rescaled into the decaying regime
    (kind 0), stacks built from orthogonal factors certified to preserve
    (kind 1), and raw random decomposed stacks over a spectral split whose
    label is cross-checked against the definition (kind 2). In the
    certified cases the realized extreme must respect the per-layer bound
    raised to the depth.

    Each block of TRIAL_BLOCK trials is drawn first. Then kind 0's
    pre-scale spectra are one SVD batch per shape and kind 2's splits one
    spectral_splits batch; gcn_regime or graphcnn_regime classifies each
    trial, and the realized end-to-end maps' spectra are again one SVD
    batch per shape.
    """
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    passed = 0
    max_err = 0.0
    for block in _trial_blocks(trials):
        drawn = [_draw_regime_trial(t % 3, rng) for t in block]
        # force decay: rescale the weights so sigma_a * sigma_w = 0.9
        decaying = [tr for tr in drawn if tr["kind"] == 0]
        sigmas = iter(svd_each(
            [m for tr in decaying for m in (tr["a_mat"], *tr["weights"])],
            compute_uv=False,
        ))
        for tr in decaying:
            sigma_a = next(sigmas)[0]
            sigma_w = max(next(sigmas)[0] for _ in tr["weights"])
            scale = 0.9 / (sigma_a * sigma_w)
            tr["weights"] = [w * scale for w in tr["weights"]]
        raw = [tr for tr in drawn if tr["kind"] == 2]
        splits = spectral_splits([tr["a_mat"] for tr in raw],
                                 [tr["k"] for tr in raw])
        for tr, split in zip(raw, splits):
            tr["pieces"] = split.pieces

        reports = []
        maps = []
        for tr in drawn:
            if tr["kind"] == 2:
                reports.append(graphcnn_regime(tr["pieces"], tr["weights"],
                                               slope=tr["slope"]))
                continue
            reports.append(gcn_regime(tr["a_mat"], tr["weights"],
                                      slope=tr["slope"]))
            stack = gcn_stack(tr["a_mat"], tr["weights"], slope=tr["slope"])
            maps.append(linearized_map(stack, tr["x"])[0])

        realized = iter(svd_each(maps, compute_uv=False))
        for tr, rep in zip(drawn, reports):
            if tr["kind"] == 2:
                # the label must match the rule
                if rep.regime == "decay":
                    ok = rep.sigma_a < 1.0
                elif rep.regime == "preserve":
                    ok = tr["slope"] * rep.gamma_a >= 1.0
                else:
                    ok = (rep.sigma_a >= 1.0
                          and tr["slope"] * rep.gamma_a < 1.0)
                err = 0.0 if ok else 1.0
            else:
                s = next(realized)
                bound = rep.bound_per_layer ** tr["depth"]
                if tr["kind"] == 0:
                    err = max(0.0, float(s[0]) - bound)
                    ok = rep.regime == "decay" and err <= tol
                else:
                    err = max(0.0, bound - float(s[-1]))
                    ok = rep.regime == "preserve" and err <= tol
            max_err = max(max_err, err)
            passed += ok
    return CheckReport("regimes", passed, trials, max_err)


# suite token -> check, in the order `degnn verify` runs them; each check's
# report carries its token as its name
SUITES = {
    "lemma1": check_linearization,
    "lemma3": check_split_spectrum,
    "kron": check_kron_identities,
    "regimes": check_regimes,
}
