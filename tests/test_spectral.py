import numpy as np
import pytest

from degnn import _kernels, spectral
from degnn.errors import DomainError, NumericError
from degnn.graphs import Graph, normalized_adjacency
from degnn.linalg import kron
from degnn.propagate import LayerStack, gcn_regime, gcn_stack, graphcnn_regime
from degnn.spectral import singular_extremes, svd, svd_each
from oracles import gram_state_single, singular_values_charpoly


def test_svd_known_values():
    # frozen from the characteristic-polynomial oracle; closed form is
    # sqrt(15 +- sqrt(221))
    res = svd(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(res.sigma[0] - 5.464985704219043) < 1e-12
    assert abs(res.sigma[1] - 0.365966190626257) < 1e-12


def _check_factorization(m, res, tol=1e-10):
    scale = max(1.0, float(np.linalg.norm(m)))
    assert np.max(np.abs(res.reconstruct() - m)) < tol * scale
    k = len(res.sigma)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) < 1e-9
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) < 1e-9
    assert all(res.sigma[i] >= res.sigma[i + 1] for i in range(k - 1))
    assert res.sigma[-1] >= 0.0


def test_svd_matches_oracle():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 12))
        m = rng.normal(size=(n, d))
        if trial % 3 == 0:
            m *= 10.0 ** rng.integers(-6, 7)
        if trial % 4 == 0 and min(n, d) > 1:
            m[:, -1] = m[:, 0]  # force rank deficiency
        res = svd(m)
        _check_factorization(m, res)
        want = singular_values_charpoly(m)
        scale = max(1.0, want[0])
        assert np.max(np.abs(res.sigma - want)) < 1e-8 * scale


def test_svd_degenerate_inputs():
    z = svd(np.zeros((3, 2)))
    assert np.allclose(z.sigma, 0.0)
    _check_factorization(np.zeros((3, 2)), z)

    eye = svd(np.eye(4))
    assert np.allclose(eye.sigma, 1.0)

    d = svd(np.diag([3.0, -2.0, 0.0]))
    assert np.allclose(d.sigma, [3.0, 2.0, 0.0])


def test_svd_wide_input():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 7))
    res = svd(m)
    assert res.u.shape == (3, 3) and res.v.shape == (7, 3)
    _check_factorization(m, res)


def test_svd_null_direction_spread_across_coordinates():
    # every canonical vector overlaps the range space here, so completing
    # the basis for the zero singular value cannot rely on a fixed residual
    # cutoff once the side grows
    for m in (8, 32, 200):
        a = np.eye(m) - np.ones((m, m)) / m
        res = svd(a)
        _check_factorization(a, res)
        assert res.sigma[-1] < 1e-12

    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    vals = np.concatenate([np.linspace(2.0, 0.5, 50), np.zeros(14)])
    a = (basis * vals) @ basis.T
    res = svd(a)
    _check_factorization(a, res)
    assert np.allclose(res.sigma[50:], 0.0, atol=1e-12)


def test_svd_rejects_bad_input():
    with pytest.raises(DomainError):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        svd(np.ones(4))


def test_singular_extremes_order():
    hi, lo = singular_extremes(np.diag([2.0, 5.0, 0.5]))
    assert abs(hi - 5.0) < 1e-12 and abs(lo - 0.5) < 1e-12


def test_regime_decay():
    rep = gcn_regime(gcn_stack(0.9 * np.eye(3),
                               [0.5 * np.eye(2), 0.8 * np.eye(2)]))
    assert rep.regime == "decay"
    assert abs(rep.sigma_w - 0.8) < 1e-12
    assert abs(rep.gamma_w - 0.5) < 1e-12
    assert abs(rep.bound_per_layer - 0.72) < 1e-12


def test_regime_preserve():
    # slope * gamma_a * gamma_w = 0.6 * 2 * 1 = 1.2 >= 1
    rep = gcn_regime(gcn_stack(2.0 * np.eye(3), [np.eye(2)], slope=0.6))
    assert rep.regime == "preserve"
    assert abs(rep.bound_per_layer - 1.2) < 1e-12


def test_regime_indeterminate():
    rep = gcn_regime(gcn_stack(np.eye(3), [np.eye(2)], slope=0.2))
    assert rep.regime == "indeterminate"


def test_regime_normalized_adjacency_is_decay_with_contracting_weights():
    # self-loop normalization pins the top singular value at exactly 1, so
    # any weight stack with sup sigma_w < 1 certifies decay
    g = Graph(3, [(0, 1), (1, 2)])
    a = normalized_adjacency(g)
    hi, lo = singular_extremes(a)
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo - 1.0 / 6.0) < 1e-12
    rep = gcn_regime(gcn_stack(a, [0.5 * np.eye(4)]))
    assert rep.regime == "decay"
    assert abs(rep.bound_per_layer - 0.5) < 1e-10


def test_regime_rejects_bad_slope():
    for slope in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            gcn_regime(gcn_stack(np.eye(2), [np.eye(2)], slope=slope))


def test_layer_operator_matches_direct_sum():
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        pieces = [rng.normal(size=(n, n)) for _ in range(k)]
        ws = [rng.normal(size=(d, d)) for _ in range(k)]
        got = LayerStack(pieces, [ws]).layer_operator(0)
        want = sum(np.kron(w.T, a) for a, w in zip(pieces, ws))
        assert np.max(np.abs(got - want)) < 1e-12


def test_graphcnn_regime_single_piece_matches_plain():
    rng = np.random.default_rng(33)
    a = 0.3 * rng.normal(size=(4, 4))
    w = 0.4 * rng.normal(size=(3, 3))
    plain = gcn_regime(gcn_stack(a, [w]))
    # one piece, one layer: composite operator is exactly W^T kron A, whose
    # extremes are the products of the factor extremes
    comp = graphcnn_regime(LayerStack([a], [[w]]))
    assert comp.regime == plain.regime
    assert abs(comp.sigma_a - plain.sigma_a * plain.sigma_w) < 1e-9
    assert abs(comp.gamma_a - plain.gamma_a * plain.gamma_w) < 1e-9
    assert comp.sigma_w == 1.0 and comp.gamma_w == 1.0


def test_svd_handles_tiny_and_huge_scales():
    rng = np.random.default_rng(77)
    for expo in (-8, -4, 4, 8):
        m = rng.normal(size=(6, 5)) * 10.0**expo
        res = svd(m)
        _check_factorization(m, res)
        want = singular_values_charpoly(m)
        assert np.max(np.abs(res.sigma - want)) < 1e-8 * max(want[0], 1e-300)


def test_svd_scales_exactly_by_powers_of_two():
    # scaling by 2**k is exact, so sigma must scale exactly too, even where
    # the squares of the entries leave the float range
    rng = np.random.default_rng(15)
    for shape in ((6, 5), (3, 7)):
        signs = rng.choice([-1.0, 1.0], size=(2, *shape))
        m = rng.uniform(0.5, 2.0, size=(2, *shape)) * signs
        want = svd_each(m, compute_uv=False)
        for k in (-1000, -600, 600, 1000):
            scaled = np.ldexp(m, k)
            got = svd_each(scaled, compute_uv=False)
            assert np.array_equal(got, np.ldexp(want, k))
            for b in range(len(m)):
                assert np.array_equal(svd(scaled[b]).sigma, got[b])
                assert np.array_equal(svd(scaled[b], compute_uv=False), got[b])
    diag = np.diag([3.0, 2.0, 1.0])
    for scale in (1e-170, 1e160):
        want = np.array([3.0, 2.0, 1.0]) * scale
        res = svd(diag * scale)
        assert np.allclose(res.sigma, want, rtol=1e-15, atol=0.0)
        assert np.allclose(svd(diag * scale, compute_uv=False), want,
                           rtol=1e-15, atol=0.0)
        stacked = svd_each((diag * scale)[None], compute_uv=False)
        assert np.allclose(stacked[0], want, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(res.reconstruct() / scale - diag)) < 1e-14


def test_svd_stack_matches_per_matrix_sigma():
    rng = np.random.default_rng(13)
    tall = rng.normal(size=(5, 7, 5))
    tall[0] = 0.0
    tall[1][:, -1] = tall[1][:, 0] + tall[1][:, 1]  # rank-deficient
    tall[2] *= np.logspace(-12, 0, 5)  # graded column scales
    tall[3] *= 1e-150  # scaled apart from the rest of the stack
    wide = rng.normal(size=(3, 4, 9))
    wide[1][-1] = wide[1][0]  # rank-deficient
    for stack in (tall, wide, wide[2:], np.asfortranarray(tall)):
        got = svd_each(stack, compute_uv=False)
        factors = svd_each(stack)
        assert np.shape(got) == (len(stack), min(stack.shape[1:]))
        for b, m in enumerate(stack):
            want = svd(m)
            assert np.array_equal(got[b], want.sigma)
            _assert_same_factors(factors[b], want)
            assert np.array_equal(svd(m, compute_uv=False), want.sigma)


def test_batched_gram_state_matches_per_matrix():
    """One batched convergence test gives each matrix's own bits."""
    rng = np.random.default_rng(21)
    square = rng.normal(size=(5, 6, 6))
    square[0] = 0.0
    square[1][-1] = square[1][0] + square[1][1]  # rank-deficient
    square[2] *= np.logspace(-12, 0, 6)[:, None]  # graded rows (columns of B)
    square[3] *= 2.0 ** -500
    ones = rng.normal(size=(3, 1, 1))
    ones[1] = 0.0
    stacks = [square, ones, rng.normal(size=(4, 4, 9)),  # wide
              rng.normal(size=(3, 9, 4)), rng.normal(size=(2, 1, 7))]
    for stack in stacks:
        shape_max = max(stack.shape[1:])
        off, rel, cut = spectral._gram_state(stack, shape_max)
        for b, bt in enumerate(stack):
            want = gram_state_single(bt, shape_max)
            got = (float(off[b]), float(rel[b]), float(cut[b]))
            assert got == want, (stack.shape, b)


def test_sigma_each_groups_by_shape_in_input_order(monkeypatch):
    rng = np.random.default_rng(22)
    shapes = [(3, 4), (1, 5), (5, 1), (3, 4), (2, 2), (1, 5), (1, 1),
              (5, 1), (4, 3)]
    mats = [rng.normal(size=shape) for shape in shapes]
    want = [svd(m, compute_uv=False) for m in mats]
    calls = []
    inner = spectral._jacobi

    def counting(a, with_v, names):
        calls.append((np.shape(a[0]), len(a), with_v))
        return inner(a, with_v, names)

    monkeypatch.setattr(spectral, "_jacobi", counting)
    got = svd_each(mats, compute_uv=False)
    # one batch per shape, in order of first appearance, without V
    assert calls == [(shape, shapes.count(shape), False)
                     for shape in dict.fromkeys(shapes)]
    assert len(got) == len(mats)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _assert_same_factors(got, want):
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.sigma, want.sigma)
    assert np.array_equal(got.v, want.v)


def test_svd_each_factors_match_svd(monkeypatch):
    """Full factors of a mixed batch are the bits of svd() one at a time."""
    rng = np.random.default_rng(23)
    square = rng.normal(size=(6, 6))
    deficient = rng.normal(size=(6, 6))
    deficient[:, -1] = deficient[:, 0] + deficient[:, 1]
    graded = rng.normal(size=(6, 6)) * np.logspace(-12, 0, 6)
    mats = [
        # converged before any sweep, ahead of one that sweeps: compaction
        # moves the random matrix's rows over the identity's
        np.eye(6), square, np.zeros((6, 6)), deficient, graded,
        square * 2.0 ** -500, np.diag([3.0, 1.0, 2.0, 0.0, 5.0, 4.0]),
        rng.normal(size=(4, 9)), np.eye(9)[:4], rng.normal(size=(4, 9)),
        rng.normal(size=(9, 4)), np.zeros((9, 4)),
        np.array([[2.5]]), np.zeros((1, 1)), np.array([[-1.0]]),
    ]
    want = [svd(m) for m in mats]
    calls = []
    inner = spectral._jacobi

    def counting(a, with_v, names):
        calls.append((np.shape(a[0]), len(a), with_v))
        return inner(a, with_v, names)

    monkeypatch.setattr(spectral, "_jacobi", counting)
    got = svd_each(mats)
    assert calls == [((6, 6), 7, True), ((4, 9), 3, True), ((9, 4), 2, True),
                     ((1, 1), 3, True)]
    assert len(got) == len(mats)
    for g, w in zip(got, want):
        _assert_same_factors(g, w)


def test_svd_each_reads_any_memory_layout():
    """Fortran-ordered and strided members give the bits of svd(m)."""
    rng = np.random.default_rng(24)
    base = rng.normal(size=(12, 10)) * rng.uniform(0.1, 10.0, size=(12, 1))
    mats = [
        np.asfortranarray(base[:6, :5]),
        base[::2, ::2],
        base[1::2, 1::2].T.copy().T,  # Fortran-ordered via a transpose
        base[6:, 5:].copy(),
    ]
    sigmas = svd_each(mats, compute_uv=False)
    factors = svd_each(mats)
    for m, sigma, res in zip(mats, sigmas, factors):
        want = svd(m)
        assert np.array_equal(sigma, want.sigma)
        _assert_same_factors(res, want)
        assert np.array_equal(svd(m, compute_uv=False), want.sigma)


def test_svd_bits_do_not_depend_on_memory_layout():
    """Fortran-ordered and reverse-strided views give the C copy's bits."""
    # this (5, 3) matrix's Fortran copy once summed its squares in another
    # order and moved sigma_3 by one ulp
    first = np.random.default_rng(25).normal(size=(4, 5, 3))[3]
    rng = np.random.default_rng(26)
    for m in (first, first.T, rng.normal(size=(7, 4)),
              rng.normal(size=(3, 8))):
        c = np.ascontiguousarray(m)
        spaced = np.zeros((2 * c.shape[0], 3 * c.shape[1]))
        spaced[::2, ::3] = c
        views = [np.asfortranarray(c), c[::-1, ::-1].copy()[::-1, ::-1],
                 spaced[::2, ::3]]
        want = svd(c)
        for v in views:
            assert np.array_equal(v, c)
            _assert_same_factors(svd(v), want)
            assert np.array_equal(svd(v, compute_uv=False), want.sigma)


def test_gcn_regime_needs_one_piece():
    stack = LayerStack([np.eye(3), np.eye(3)], [[np.eye(2), np.eye(2)]])
    with pytest.raises(DomainError, match="takes one piece, got 2"):
        gcn_regime(stack)
    # the operator sum is 2 I: sigma 2, and slope * gamma = 0.4
    assert graphcnn_regime(stack).regime == "indeterminate"


def test_svd_stack_raises_whenever_a_matrix_would(monkeypatch):
    rng = np.random.default_rng(14)
    stack = rng.normal(size=(3, 6, 6))
    stack[0] = np.eye(6)  # converged before any sweep
    outcomes = set()
    for cap in range(12):
        monkeypatch.setattr(spectral, "MAX_SWEEPS", cap)
        failing = []
        for b, m in enumerate(stack):
            try:
                svd(m)
            except NumericError:
                failing.append(b)
        outcomes.add(bool(failing))
        if failing:
            with pytest.raises(NumericError):
                svd_each(stack, compute_uv=False)
        else:
            svd_each(stack, compute_uv=False)
    # the cap range covers both a failing and a converging stack
    assert outcomes == {True, False}


def test_svd_sweeps_at_most_max_sweeps(monkeypatch):
    # the test after the last allowed sweep raises; it does not sweep again
    sweeps = []
    inner = _kernels.jacobi_sweep

    def counting(bt, vt, delta):
        sweeps.append(bt.shape[0])
        return inner(bt, vt, delta)

    monkeypatch.setattr(_kernels, "jacobi_sweep", counting)
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 2)
    m = np.random.default_rng(3).normal(size=(8, 8))
    with pytest.raises(NumericError, match="in 2 sweeps"):
        svd(m)
    assert len(sweeps) == 2
    sweeps.clear()
    with pytest.raises(NumericError, match="in 2 sweeps"):
        svd_each(np.stack([np.eye(8), m]), compute_uv=False)
    assert len(sweeps) == 2


def test_svd_each_names_the_failing_matrix_by_its_input_index(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 2)
    m = np.random.default_rng(3).normal(size=(8, 8))
    # the failing matrix is second in its shape batch, third in the input
    with pytest.raises(NumericError, match=r"in 2 sweeps \(mats\[2\]\)"):
        svd_each([np.eye(3), np.eye(8), m], compute_uv=False)
    # alone in its shape batch, it is still named
    with pytest.raises(NumericError, match=r"in 2 sweeps \(mats\[0\]\)"):
        svd_each([m, np.eye(3)])
    # a single matrix needs no name
    with pytest.raises(NumericError, match=r"in 2 sweeps \(gram"):
        svd_each([m])


def test_svd_stack_rejects_bad_input():
    for compute_uv in (True, False):
        with pytest.raises(DomainError, match="2-D"):
            svd(np.ones((2, 3, 3)), compute_uv=compute_uv)  # one matrix only
    with pytest.raises(DomainError):
        svd_each(np.full((2, 3, 3), np.nan), compute_uv=False)
    # an empty stack is an empty sequence of matrices
    assert svd_each(np.ones((0, 3, 3)), compute_uv=False) == []
    assert svd_each([]) == []


def test_oversize_matrices_are_rejected_before_any_sweep(monkeypatch):
    sweeps = []
    inner = _kernels.jacobi_sweep

    def counting(bt, vt, delta):
        sweeps.append(bt.shape[0])
        return inner(bt, vt, delta)

    monkeypatch.setattr(_kernels, "jacobi_sweep", counting)
    monkeypatch.setattr(spectral, "MAX_SVD_SIDE", 4)
    rng = np.random.default_rng(26)
    small, big = rng.normal(size=(6, 4)), rng.normal(size=(5, 7))
    message = r"min\(rows, cols\) <= 4, got \(5, 7\)"
    for compute_uv in (True, False):
        with pytest.raises(DomainError, match=message):
            svd(big, compute_uv=compute_uv)
        # a batch that sweeps comes first, the oversize matrix last
        with pytest.raises(DomainError, match=message):
            svd_each([small, small.T, big], compute_uv=compute_uv)
    assert sweeps == []
    # at the cap, the same matrices sweep
    svd_each([small, small.T])
    assert sweeps


def test_graphcnn_regime_checks_the_cap_before_forming_operators(
        monkeypatch):
    formed = []
    inner = LayerStack.layer_operator

    def counting(stack, i):
        formed.append(len(stack.pieces))
        return inner(stack, i)

    monkeypatch.setattr(LayerStack, "layer_operator", counting)
    monkeypatch.setattr(spectral, "MAX_SVD_SIDE", 10)
    rng = np.random.default_rng(27)
    pieces = [rng.normal(size=(6, 6)) for _ in range(2)]
    layers = [[rng.normal(size=(2, 2)) for _ in pieces] for _ in range(5)]
    with pytest.raises(DomainError, match=r"<= 10, got \(12, 12\)"):
        graphcnn_regime(LayerStack(pieces, layers))
    assert formed == []
    # narrower layers ahead of the wide ones change nothing: a 2 -> 1 layer
    # and a 1 -> 2 layer that chains it to them
    narrow = [[rng.normal(size=(2, 1)) for _ in pieces]]
    widen = [[rng.normal(size=(1, 2)) for _ in pieces]]
    with pytest.raises(DomainError, match=r"got \(12, 12\)"):
        graphcnn_regime(LayerStack(pieces, narrow + widen + layers))
    assert formed == []
    graphcnn_regime(LayerStack(pieces, narrow))
    assert formed == [2]
