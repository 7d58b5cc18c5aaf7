import copy
import math
import pickle

import numpy as np
import pytest

from kernmetric import (
    DegeneracyError,
    DiagonalScale,
    DiscreteLaplace,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanMetric,
    ExpSqrt,
    FuncLp,
    Gaussian,
    InjectivityError,
    LinearGridMap,
    LpMetric,
    MeasurePoints,
    ProfileClassError,
    QuadratureGrid,
    ShapeError,
    dirac,
    gram,
    kme_sq_norm,
    make_distance_kernel,
    make_fourier_measure,
    make_kme_measure,
    make_lp_operator,
    make_metric_phi,
    make_mixture,
    make_quantile_monge,
    make_radial_hilbert,
    make_tee_radial,
    measure_difference,
    permutation_test,
    quantile_sq_w2,
    trapezoid_grid,
)

from kernmetric.kernels import _quantile_breaks, _quantile_sq_dists
from kernmetric.selfcheck import sample_kernels

from conftest import random_function, random_prob_measure

E1, E2 = Euclidean(1), Euclidean(2)
PHI = Gaussian(alpha=0.5)


def one_d(x):
    return np.array([float(x)])


# ---------------------------------------------------------------------------
# radial kernels on Hilbert spaces


def test_radial_hilbert_diagonal():
    k = make_radial_hilbert(PHI, E1)
    x = one_d(0.7)
    assert k(x, x) == 1.0


def test_profile_kernel_diag_evaluates_no_profile(monkeypatch):
    phi = DiscreteLaplace(atoms=((1.0, 0.3), (2.0, 0.5)))
    k = make_radial_hilbert(phi, E2)
    pts = np.array([[0.0, 1.0], [2.0, -3.0]])
    calls = []
    base_phi = DiscreteLaplace.__call__
    monkeypatch.setattr(DiscreteLaplace, "__call__",
                        lambda phi, t: calls.append(t) or base_phi(phi, t))
    diag = k.diag(pts)
    assert np.array_equal(k.diag(pts[::-1]), diag)
    assert calls == [0.0]  # phi(0) is evaluated once per kernel
    assert np.array_equal(diag, [base_phi(phi, 0.0)] * 2)
    assert np.array_equal(diag, [k(x, x) for x in pts])
    # the stored phi(0) takes no part in equality, hashing or the repr
    twin = copy.copy(k)
    assert twin == k and hash(twin) == hash(k) and "_phi0" not in repr(k)
    assert np.array_equal(pickle.loads(pickle.dumps(k)).diag(pts), diag)


def test_radial_hilbert_known_value():
    k = make_radial_hilbert(PHI, E2)
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])  # squared distance 2
    assert k(x, y) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_radial_hilbert_rejects_flat_profile():
    with pytest.raises(ProfileClassError):
        make_radial_hilbert(DiscreteLaplace(atoms=((0.0, 1.0),)), E1)


def test_radial_hilbert_rejects_non_hilbert_lp():
    grid = trapezoid_grid(11)
    with pytest.raises(DomainError):
        make_radial_hilbert(PHI, FuncLp(grid, 1.5))


def test_func_lp_defaults_to_the_hilbert_space_l2():
    grid = trapezoid_grid(11)
    assert FuncLp(grid) == FuncLp(grid, 2.0)
    k = make_radial_hilbert(PHI, FuncLp(grid))
    f, g = np.zeros(11), np.ones(11)  # ||f - g||^2 = 1 on [0, 1]
    assert k(f, g) == pytest.approx(PHI(1.0), rel=1e-15)


def test_tee_diagonal_scale_value():
    k = make_tee_radial(PHI, DiagonalScale((2.0,)), E1)
    assert k(one_d(0.0), one_d(1.0)) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_tee_zero_factor_rejected():
    with pytest.raises(InjectivityError):
        DiagonalScale((2.0, 0.0))


def test_linear_grid_map_rank_check():
    LinearGridMap(np.eye(3))
    with pytest.raises(InjectivityError):
        LinearGridMap(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_linear_grid_map_is_compared_and_hashed_by_identity():
    a = LinearGridMap(np.eye(2))
    assert a == a and hash(a) == hash(a)
    assert a != LinearGridMap(np.eye(2))
    assert len({a, LinearGridMap(np.eye(2))}) == 2


@pytest.mark.parametrize("k,x,y", [
    (make_tee_radial(PHI, DiagonalScale((10.0,)), E1), one_d(1e308), one_d(1e308)),
    (make_tee_radial(PHI, LinearGridMap(np.array([[10.0]])), E1), one_d(1e308), one_d(1e308)),
    (make_fourier_measure(PHI, [[1e10]], [1.0]), dirac(E1, one_d(1e300)), dirac(E1, one_d(0.0))),
], ids=["diagonal_scale", "linear_grid_map", "fourier_features"])
def test_rows_past_the_float_range_are_refused_without_a_warning(k, x, y):
    # finite points whose mapped rows overflow: numpy's overflow or invalid-value
    # warning, an error under the suite's filter, must not come before the refusal
    with pytest.raises(DomainError, match="profile argument must be nonnegative, got nan"):
        k(x, y)


# ---------------------------------------------------------------------------
# L^p operator kernels


@pytest.fixture
def grid():
    return trapezoid_grid(12)


@pytest.fixture
def base_kernel():
    return make_radial_hilbert(Gaussian(alpha=50.0), E1)


def test_lp_operator_diagonal(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 1.5)
    f = random_function(rng, grid)
    assert k(f, f) == 1.0


def test_lp_operator_constant_shift_matches_double_loop(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 1.5)
    c = 0.7
    f = random_function(rng, grid)
    g = f - c
    # brute-force double quadrature sum oracle
    q = 0.0
    for i, (xi, wi) in enumerate(zip(grid.nodes, grid.weights)):
        for j, (xj, wj) in enumerate(zip(grid.nodes, grid.weights)):
            q += wi * wj * base_kernel(one_d(xi), one_d(xj)) * c * c
    assert k(f, g) == pytest.approx(PHI(q), rel=1e-12)


def test_lp_operator_random_pair_matches_double_loop(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 2.5)
    f, g = random_function(rng, grid), random_function(rng, grid)
    h = f - g
    q = 0.0
    for i, (xi, wi) in enumerate(zip(grid.nodes, grid.weights)):
        for j, (xj, wj) in enumerate(zip(grid.nodes, grid.weights)):
            q += wi * wj * base_kernel(one_d(xi), one_d(xj)) * h[i] * h[j]
    assert k(f, g) == pytest.approx(PHI(max(q, 0.0)), rel=1e-10)


def test_lp_operator_rejects_p_one_and_inf(grid, base_kernel):
    with pytest.raises(DomainError):
        make_lp_operator(PHI, base_kernel, grid, 1.0)
    with pytest.raises(DomainError):
        make_lp_operator(PHI, base_kernel, grid, float("inf"))


def _distance_base(*z0s):
    """A distance kernel on R^1 for one z0; for several, their equal-weight mixture."""
    ks = [make_distance_kernel(EuclideanMetric(1), one_d(z)) for z in z0s]
    return ks[0] if len(ks) == 1 else make_mixture([(k, 1.0 / len(ks)) for k in ks])


def test_lp_operator_rejects_degenerate_base(grid):
    # z0 is node 0, where k1(x, x) = 2 |x - z0| = 0
    with pytest.raises(DegeneracyError):
        make_lp_operator(PHI, _distance_base(0.0), grid, 1.5)


@pytest.mark.parametrize("alpha", [0.5, 50.0])
@pytest.mark.parametrize("m", [8, 64, 256])
def test_lp_operator_accepts_gaussian_base(alpha, m, rng):
    """A Gaussian base is strictly PD on any nodes, however ill-conditioned its form."""
    grid = trapezoid_grid(m)
    k = make_lp_operator(PHI, make_radial_hilbert(Gaussian(alpha), E1), grid, 1.5)
    f, g = random_function(rng, grid), random_function(rng, grid)
    assert k(f, f) == 1.0
    wh = grid.weights * (f - g)
    q = wh @ np.exp(-alpha * np.subtract.outer(grid.nodes, grid.nodes) ** 2) @ wh
    assert k(f, g) == pytest.approx(PHI(q), rel=1e-10)
    zeros, ones = np.zeros((20, m)), np.ones((20, m))
    assert permutation_test(k, zeros, ones, n_perm=99, seed=1).p_value == pytest.approx(0.01)


@pytest.mark.parametrize("z0s,accepted", [
    ((-1.0,), True),
    ((0.0, 1.0), True),  # nodes 0 and 11: no node is the z0 of both components
    ((0.0, 0.0), False),
])
def test_lp_operator_distance_base_gate(grid, z0s, accepted):
    k1 = _distance_base(*z0s)
    if accepted:
        assert make_lp_operator(PHI, k1, grid, 1.5).space == FuncLp(grid, 1.5)
    else:
        with pytest.raises(DegeneracyError):
            make_lp_operator(PHI, k1, grid, 1.5)


# ---------------------------------------------------------------------------
# metric kernels


def test_metric_phi_is_laplace_kernel(rng):
    k = make_metric_phi(Gaussian(alpha=1.0), EuclideanMetric(1))
    for _ in range(20):
        x, y = one_d(rng.normal()), one_d(rng.normal())
        assert k(x, y) == pytest.approx(math.exp(-abs(x[0] - y[0])), rel=1e-14)
    assert k(one_d(0.5), one_d(0.5)) == 1.0


def test_metric_phi_rejects_bad_exponent():
    grid = trapezoid_grid(11)
    with pytest.raises(DomainError):
        make_metric_phi(PHI, LpMetric(grid, 3.0))


def test_metric_phi_rejects_flat_profile():
    with pytest.raises(ProfileClassError):
        make_metric_phi(DiscreteLaplace(atoms=((0.0, 1.0),)), EuclideanMetric(1))


def test_distance_kernel_examples():
    k = make_distance_kernel(EuclideanMetric(1), one_d(0.0))
    for x in (0.5, -2.0, 7.0):
        assert k(one_d(x), one_d(0.0)) == 0.0
    assert k(one_d(3.0), one_d(3.0)) == 6.0
    assert k(one_d(0.0), one_d(1.0)) == 0.0


def test_distance_kernel_diag():
    k = make_distance_kernel(EuclideanMetric(2), np.array([3.0, 4.0]))
    np.testing.assert_array_equal(k.diag([[0.0, 0.0], [3.0, 4.0]]), [10.0, 0.0])
    with pytest.raises(ShapeError):
        k.diag([[0.0, 0.0, 0.0]])
    # |x - z0| overflows when squared, so k(x, x) = 2 |x - z0| is not finite
    with pytest.raises(DomainError):
        make_distance_kernel(EuclideanMetric(1), one_d(1e200)).diag([one_d(0.0)])


def test_distance_kernels_compare_by_identity():
    a = make_distance_kernel(EuclideanMetric(2), np.zeros(2))
    b = make_distance_kernel(EuclideanMetric(2), np.zeros(2))
    assert a != b
    assert a == a
    assert len({a, b}) == 2
    hash(make_mixture([(a, 1.0)]))
    x, y = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
    assert pickle.loads(pickle.dumps(a))(x, y) == a(x, y)


def test_distance_kernel_nonnegative(rng):
    k = make_distance_kernel(EuclideanMetric(2), rng.normal(size=2))
    for _ in range(100):
        assert k(rng.normal(size=2), rng.normal(size=2)) >= 0.0


# ---------------------------------------------------------------------------
# mixtures


def test_single_component_mixture(rng):
    k1 = make_radial_hilbert(PHI, E2)
    k = make_mixture([(k1, 1.0)])
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert k(x, y) == k1(x, y)


def test_two_gaussian_mixture_value():
    k = make_mixture(
        [
            (make_radial_hilbert(Gaussian(alpha=1.0), E1), 0.5),
            (make_radial_hilbert(Gaussian(alpha=2.0), E1), 0.5),
        ]
    )
    val = k(one_d(0.0), one_d(1.0))  # squared distance 1
    assert val == pytest.approx(0.5 * math.exp(-1.0) + 0.5 * math.exp(-2.0), rel=1e-14)


def test_mixture_gram_is_weighted_sum(rng):
    comps = [
        (make_radial_hilbert(Gaussian(alpha=a), E2), w)
        for a, w in ((0.5, 0.4), (2.0, 0.6))
    ]
    k = make_mixture(comps)
    pts = [rng.normal(size=2) for _ in range(6)]
    expected = sum(w * gram(ck, pts).entries for ck, w in comps)
    np.testing.assert_allclose(gram(k, pts).entries, expected, rtol=1e-14)


def test_mixture_rejects_bad_input():
    with pytest.raises(DomainError):
        make_mixture([])
    k1 = make_radial_hilbert(PHI, E1)
    with pytest.raises(DomainError):
        make_mixture([(k1, 0.0)])
    k2 = make_radial_hilbert(PHI, E2)
    with pytest.raises(ShapeError):
        make_mixture([(k1, 0.5), (k2, 0.5)])


# ---------------------------------------------------------------------------
# kernels on measures


def test_kme_measure_diagonal(rng):
    base = make_radial_hilbert(PHI, E2)
    k = make_kme_measure(PHI, base)
    mu = random_prob_measure(rng)
    assert k(mu, mu) == 1.0


def test_kme_measure_two_diracs():
    base = make_radial_hilbert(PHI, E2)
    k = make_kme_measure(PHI, base)
    mu = dirac(E2, np.array([0.0, 0.0]))
    nu = dirac(E2, np.array([1.0, 1.0]))  # squared distance 2
    arg = 2.0 - 2.0 * math.exp(-1.0)
    assert k(mu, nu) == pytest.approx(PHI(arg), rel=1e-14)
    assert arg == pytest.approx(1.2642411, abs=1e-7)


def test_kme_measure_blocks_with_an_empty_side(rng):
    k = make_kme_measure(PHI, make_radial_hilbert(PHI, E2))
    ms = [random_prob_measure(rng) for _ in range(3)]
    assert gram(k, []).entries.shape == (0, 0)
    assert k.pairwise([], ms).shape == (0, 3)
    assert k.pairwise(ms, []).shape == (3, 0)


def test_kme_measure_of_close_diracs_settles_as_kme_sq_norm():
    # K1(0, h) rounds to 1 - 4u at h = 3e-8: the computed squared distance, 8.9e-16,
    # lies in the zero band of delta_0 - delta_h, where kme_sq_norm reads 0
    k1 = make_radial_hilbert(PHI, E1)
    k2 = make_kme_measure(PHI, k1)
    d0, dh = dirac(E1, one_d(0.0)), dirac(E1, one_d(3e-8))
    assert k2(d0, dh) == k2(d0, d0)
    assert k2.arg((d0,), (dh,))[0, 0] == kme_sq_norm(k1, measure_difference(d0, dh)) == 0.0


def test_kme_measure_refuses_equal_measures_on_an_overflowing_base_kernel():
    # K1(x, x) = 2 |x - z0| overflows, so the form of mu - mu is not finite and has
    # no zero to settle to, as kme_sq_norm(K1, mu) has none
    k1 = make_distance_kernel(EuclideanMetric(1), one_d(0.0))
    k2 = make_kme_measure(PHI, k1)
    mu = dirac(E1, one_d(1e308))
    for evaluate in (lambda: k2(mu, mu), lambda: gram(k2, [mu, mu]),
                     lambda: kme_sq_norm(k1, mu)):
        with pytest.raises(DomainError, match="overflow"):
            evaluate()


def test_kme_measure_matches_double_loop(rng):
    base = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    k = make_kme_measure(PHI, base)
    for _ in range(10):
        mu, nu = random_prob_measure(rng), random_prob_measure(rng)
        naive = 0.0
        pts = np.concatenate([mu.points, nu.points])
        w = np.concatenate([mu.weights, -nu.weights])
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                naive += w[i] * w[j] * base(x, y)
        assert k(mu, nu) == pytest.approx(PHI(max(naive, 0.0)), rel=1e-12)


def test_kme_gram_evaluates_each_self_term_once(monkeypatch):
    k = make_kme_measure(ExpSqrt(c=1.0), make_radial_hilbert(Gaussian(1.0), E2))
    rng = np.random.default_rng(3)
    ms = [random_prob_measure(rng, atoms=4) for _ in range(12)]
    calls = []
    base_phi = Gaussian.__call__
    monkeypatch.setattr(Gaussian, "__call__", lambda phi, t: calls.append(t) or base_phi(phi, t))
    gram(k, ms)
    # one base block for all 48 atoms against themselves, each ||Phi(mu)||^2 read off
    # it, and phi(0), every K1(z, z), once
    assert sorted(np.shape(t) for t in calls) == [(), (48, 48)]


@pytest.mark.parametrize("diff_block,shapes", [
    (None, [(48, 48)]),  # the whole Gram in one base block
    (400, [(8, 48)] * 6),  # 400 // 48 = 8 rows: two measures per block
    (40, [(4, 48)] * 12),  # fewer rows than one measure has atoms: one measure per block
])
def test_kme_base_blocks_are_bounded_by_diff_block(diff_block, shapes, monkeypatch):
    from kernmetric import spaces

    if diff_block is not None:
        monkeypatch.setattr(spaces, "DIFF_BLOCK", diff_block)
    k = make_kme_measure(ExpSqrt(c=1.0), make_radial_hilbert(Gaussian(1.0), E2))
    rng = np.random.default_rng(3)
    ms = [random_prob_measure(rng, atoms=4) for _ in range(12)]
    calls = []
    base_phi = Gaussian.__call__
    monkeypatch.setattr(Gaussian, "__call__", lambda phi, t: calls.append(t) or base_phi(phi, t))
    gram(k, ms)
    # the 2-D argument blocks; phi(0), every K1(z, z), is no base block
    assert [t.shape for t in calls if np.ndim(t) == 2] == shapes


def _kme_blocks(k, xs, ys):
    return [gram(k, xs).entries, k.pairwise(xs, ys), k.pairwise(ys, xs), k.pairwise(xs[:1], xs),
            np.array([k(mu, nu) for mu in xs[:6] for nu in ys])]


@pytest.mark.parametrize("signed", [False, True])
def test_kme_blocks_do_not_depend_on_diff_block(signed, monkeypatch):
    from kernmetric import spaces

    k = make_kme_measure(ExpSqrt(c=1.0), make_radial_hilbert(Gaussian(1.0), E2))
    rng = np.random.default_rng(4)

    def measure():
        atoms = int(rng.integers(1, 25))
        w = rng.normal(size=atoms) if signed else rng.dirichlet(np.ones(atoms))
        return DiscreteMeasure(E2, rng.normal(size=(atoms, 2)), w)

    xs, ys = [measure() for _ in range(13)], [measure() for _ in range(5)]
    xs.append(xs[3])  # the same measure twice: its distance is exactly 0
    runs = _kme_blocks(k, xs, ys)  # several measures of xs per base block
    for diff_block in (40, 400):  # one measure of xs per base block; runs cut mid-list
        monkeypatch.setattr(spaces, "DIFF_BLOCK", diff_block)
        for a, b in zip(_kme_blocks(k, xs, ys), runs):
            assert np.array_equal(a, b)


def _gaussian_atoms(n: int, dim: int, seed: int) -> tuple:
    """n seeded standard-Gaussian frequency atoms, each of weight 1/n."""
    return np.random.default_rng(seed).standard_normal((n, dim)), np.full(n, 1 / n)


def test_fourier_measure_single_frequency():
    k = make_fourier_measure(Gaussian(alpha=1.0), [[1.0]], [1.0])
    mu = dirac(E1, one_d(0.0))
    nu = dirac(E1, one_d(math.pi))
    assert k(mu, mu) == 1.0
    assert k(mu, nu) == pytest.approx(math.exp(-4.0), rel=1e-12)
    # one atom misses every difference whose characteristic function vanishes on it:
    # not characteristic
    assert abs(k(mu, dirac(E1, one_d(2.0 * math.pi))) - k(mu, mu)) <= 1e-15


def test_fourier_measure_matches_trig_oracle(rng):
    freqs, fw = _gaussian_atoms(64, 1, seed=7)
    k = make_fourier_measure(PHI, freqs, fw)
    for _ in range(10):
        mu = random_prob_measure(rng, dim=1, atoms=5)
        nu = random_prob_measure(rng, dim=1, atoms=5)
        pts = np.concatenate([mu.points, nu.points]).ravel()
        a = np.concatenate([mu.weights, -nu.weights])
        arg = 0.0
        for s, ws in zip(freqs.ravel(), fw):
            total = 0.0
            for i in range(len(pts)):
                for j in range(len(pts)):
                    total += a[i] * a[j] * math.cos((pts[i] - pts[j]) * s)
            arg += ws * total
        assert k(mu, nu) == pytest.approx(PHI(max(arg, 0.0)), rel=1e-10)


def test_fourier_measure_weight_normalization():
    with pytest.raises(DomainError):
        make_fourier_measure(PHI, [[1.0], [2.0]], [0.5, 0.6])


def test_fourier_measure_leaves_caller_arrays_writeable():
    freqs, fw = _gaussian_atoms(4, 1, seed=0)
    k = make_fourier_measure(PHI, freqs, fw)
    assert freqs.flags.writeable and fw.flags.writeable
    mu, nu = dirac(E1, one_d(0.0)), dirac(E1, one_d(1.0))
    before = k(mu, nu)
    freqs[:] = 0.0  # the kernel keeps its own copy
    assert k(mu, nu) == before


def test_linear_grid_map_leaves_caller_matrix_writeable():
    a = np.eye(2)
    tee = LinearGridMap(a)
    assert a.flags.writeable
    a[0, 0] = 5.0  # the map keeps its own copy
    np.testing.assert_array_equal(tee.matrix, np.eye(2))


@pytest.mark.parametrize("freqs,weights,error", [
    ([[1.0]], 1.0, ShapeError),
    ([[[1.0]]], [1.0], ShapeError),
    ([[np.nan]], [1.0], DomainError),
    ([[1.0], [2.0]], [np.nan, 0.5], DomainError),
])
def test_fourier_measure_rejects_malformed_frequencies(freqs, weights, error):
    with pytest.raises(error):
        make_fourier_measure(PHI, freqs, weights)


# ---------------------------------------------------------------------------
# quantile (1-D optimal transport) kernels


def u_grid():
    return trapezoid_grid(16, 0.0, 1.0)


def test_quantile_monge_diracs():
    k = make_quantile_monge(Gaussian(alpha=1.0), u_grid())
    mu = dirac(E1, one_d(0.0))
    nu = dirac(E1, one_d(1.0))
    assert k(mu, nu) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_quantile_monge_uniform_shift():
    mu = DiscreteMeasure(E1, (one_d(0.0), one_d(1.0)), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(E1, (one_d(0.5), one_d(1.5)), np.array([0.5, 0.5]))
    assert math.sqrt(quantile_sq_w2(mu, nu)) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("grid", [QuadratureGrid(np.array([2.0, 3.0]), np.array([0.5, 0.5])),
                                  trapezoid_grid(4, 2.0, 3.0), trapezoid_grid(4, -0.5, 1.0)],
                         ids=["nodes_above", "trapezoid_above", "trapezoid_below"])
def test_quantile_monge_u_grid_must_lie_in_the_unit_interval(grid):
    with pytest.raises(DomainError, match=r"u_grid must discretize \[0, 1\]"):
        make_quantile_monge(PHI, grid)


def test_quantile_monge_rejects_signed_measures():
    k = make_quantile_monge(PHI, u_grid())
    mu = dirac(E1, one_d(0.0))
    bad = DiscreteMeasure(E1, (one_d(0.0), one_d(1.0)), np.array([1.5, -0.5]))
    with pytest.raises(DomainError):
        k(mu, bad)


def _pairwise_merge_sq_dists(xs, ys) -> np.ndarray:
    """Oracle: ``quantile_sq_w2`` for every pair; each pair's quantile functions are
    constant between the merged breakpoints, so they are compared at midpoints."""
    by = [_quantile_breaks(nu) for nu in ys]
    out = np.empty((len(xs), len(by)))
    for i, (x_mu, cum_mu) in enumerate(map(_quantile_breaks, xs)):
        for j, (x_nu, cum_nu) in enumerate(by):
            hi = np.union1d(cum_mu, cum_nu)
            hi = hi[(hi > 0.0) & (hi <= 1.0)]
            lo = np.concatenate([[0.0], hi[:-1]])
            mid = 0.5 * (lo + hi)
            d = x_mu[np.searchsorted(cum_mu, mid)] - x_nu[np.searchsorted(cum_nu, mid)]
            out[i, j] = np.sum((hi - lo) * d * d)
    return out


def _line_measure(points, weights):
    weights = np.asarray(weights, dtype=float)
    return DiscreteMeasure(E1, tuple(points), weights / weights.sum())


def _disjoint_breaks(rng):
    # distinct random weights: no breakpoint below 1 is shared by two measures
    return [_line_measure(rng.normal(size=n), rng.uniform(0.1, 1.0, size=n))
            for n in (1, 2, 3, 5, 8, 13, 30)]


def _ties_and_diracs(rng):
    return [
        dirac(E1, one_d(0.0)), dirac(E1, one_d(0.0)), dirac(E1, one_d(-2.5)),
        _line_measure((1.0, 1.0, 1.0), (1, 1, 1)),  # one atom three times: a Dirac
        _line_measure((0.5, -1.0, 0.5, 2.0), (1, 1, 1, 1)),  # tied atoms
        _line_measure((0.0, 1.0, 2.0, 3.0), (1, 1, 1, 1)),  # the breakpoints of the line above
        _line_measure((3.0, 2.0, 1.0, 0.0), (1, 1, 1, 1)),  # the same measure, reordered
        _line_measure((0.0, 1.0), (1, 3)),
        _line_measure(rng.normal(size=6), (1, 2, 1, 2, 1, 2)),
    ]


@pytest.mark.parametrize("block", [_disjoint_breaks, _ties_and_diracs])
@pytest.mark.parametrize("diff_block", [None, 40])
def test_quantile_block_embedding_matches_pairwise_merge(block, diff_block, monkeypatch):
    from kernmetric import spaces

    if diff_block is not None:
        monkeypatch.setattr(spaces, "DIFF_BLOCK", diff_block)  # several blocks of rows
    rng = np.random.default_rng(7)
    ms = block(rng)
    extra = _disjoint_breaks(rng)[2:5]
    k = make_quantile_monge(PHI, u_grid())
    for xs, ys in ((ms, ms), (ms, extra), (extra, ms[:1]), (ms[1:2], ms[2:3])):
        oracle = _pairwise_merge_sq_dists(xs, ys)
        np.testing.assert_allclose(_quantile_sq_dists(xs, ys), oracle, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(k.pairwise(xs, ys), PHI(oracle), rtol=1e-12, atol=0.0)
    g = gram(k, ms).entries
    np.testing.assert_allclose(g, PHI(_pairwise_merge_sq_dists(ms, ms)), rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(g, g.T)
    for mu in ms:
        for nu in ms:
            assert k(mu, nu) == k(nu, mu)
            assert quantile_sq_w2(mu, nu) == pytest.approx(
                _pairwise_merge_sq_dists([mu], [nu])[0, 0], rel=1e-12, abs=0.0)


def test_quantile_monge_unequal_weights(rng):
    # oracle: dense-grid Riemann sum over the quantile gap
    k = make_quantile_monge(PHI, u_grid())
    mu = DiscreteMeasure(E1, (one_d(-1.0), one_d(0.5)), np.array([0.25, 0.75]))
    nu = DiscreteMeasure(E1, (one_d(0.0), one_d(2.0)), np.array([0.6, 0.4]))
    us = (np.arange(200000) + 0.5) / 200000

    def quantile(m, u):
        xs = np.sort(m.points.ravel())
        order = np.argsort(m.points.ravel())
        cum = np.cumsum(m.weights[order])
        return xs[np.searchsorted(cum, u, side="left")]

    riemann = float(np.mean((quantile(mu, us) - quantile(nu, us)) ** 2))
    assert quantile_sq_w2(mu, nu) == pytest.approx(riemann, rel=1e-4)


# ---------------------------------------------------------------------------
# batched evaluation: every rule against its scalar calls


def _kernels():
    grid = trapezoid_grid(9)
    e3 = Euclidean(3)
    gen_e3 = lambda rng: rng.normal(size=3)  # noqa: E731
    gen_f = lambda rng: random_function(rng, grid)  # noqa: E731
    base = make_radial_hilbert(Gaussian(alpha=50.0), E1)
    rules = [
        ("radial_euclidean", make_radial_hilbert(PHI, e3), gen_e3),
        ("radial_l2", make_radial_hilbert(PHI, FuncLp(grid, 2.0)), gen_f),
        ("tee_diagonal", make_tee_radial(PHI, DiagonalScale((1.0, -2.0, 0.5)), e3), gen_e3),
        ("tee_matrix_l2", make_tee_radial(
            PHI, LinearGridMap(np.eye(9) + 0.1 * np.ones((9, 9))), FuncLp(grid, 2.0)), gen_f),
        ("lp_operator", make_lp_operator(PHI, base, trapezoid_grid(6), 1.5),
         lambda rng: random_function(rng, trapezoid_grid(6))),
        ("metric_phi_euclidean", make_metric_phi(PHI, EuclideanMetric(3)), gen_e3),
        ("metric_phi_lp", make_metric_phi(PHI, LpMetric(grid, 1.5)), gen_f),
        ("distance_euclidean", make_distance_kernel(EuclideanMetric(3), np.ones(3)), gen_e3),
        ("distance_lp", make_distance_kernel(
            LpMetric(grid, 1.5), np.zeros(9)), gen_f),
        ("mixture", make_mixture([(make_radial_hilbert(PHI, e3), 0.3),
                                  (make_metric_phi(Gaussian(2.0), EuclideanMetric(3)), 0.7)]),
         gen_e3),
        ("mixture_with_distance",
         make_mixture([(make_radial_hilbert(PHI, e3), 0.5),
                       (make_distance_kernel(EuclideanMetric(3), np.ones(3)), 0.5)]), gen_e3),
        # probability measures of unequal sizes; with up to 24 atoms, the roundoff of
        # ||Phi(mu)||^2 + ||Phi(mu)||^2 - 2 <Phi(mu), Phi(mu)> shows through ExpSqrt
        # unless k(mu, mu) is exactly phi(0)
        ("kme_measure", make_kme_measure(ExpSqrt(c=1.0), make_radial_hilbert(Gaussian(1.0), E2)),
         lambda rng: random_prob_measure(rng, atoms=int(rng.integers(1, 25)))),
        ("fourier_measure", make_fourier_measure(PHI, *_gaussian_atoms(16, 2, seed=3)),
         lambda rng: random_prob_measure(rng, atoms=int(rng.integers(1, 5)))),
        ("quantile_monge", make_quantile_monge(PHI, u_grid()),
         lambda rng: random_prob_measure(rng, dim=1, atoms=int(rng.integers(1, 5)))),
    ]
    return [pytest.param(k, gen, id=name) for name, k, gen in rules]


@pytest.mark.parametrize("k,gen", _kernels())
def test_batched_gram_matches_scalar_calls(k, gen, monkeypatch):
    from kernmetric import DiscreteMeasure, kme_inner, spaces

    rng = np.random.default_rng(99)
    pts = [gen(rng) for _ in range(12)]
    g = gram(k, pts).entries
    scalar = np.array([[k(x, y) for y in pts] for x in pts])
    np.testing.assert_allclose(g, scalar, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(g, g.T)
    assert np.array_equal(np.diag(g), k.diag(pts))
    monkeypatch.setattr(spaces, "DIFF_BLOCK", 40)  # several blocks of rows
    np.testing.assert_allclose(gram(k, pts).entries, scalar, rtol=1e-12, atol=0.0)

    mu = DiscreteMeasure(k.space, tuple(pts[:5]), rng.normal(size=5))
    nu = DiscreteMeasure(k.space, tuple(pts[5:]), rng.normal(size=7))
    double_sum = sum(wx * wy * k(x, y) for x, wx in zip(mu.points, mu.weights)
                     for y, wy in zip(nu.points, nu.weights))
    assert kme_inner(k, mu, nu) == pytest.approx(double_sum, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("k,gen", _kernels())
def test_kernels_pickle(k, gen):
    rng = np.random.default_rng(5)
    pts = [gen(rng) for _ in range(4)]
    np.testing.assert_array_equal(gram(pickle.loads(pickle.dumps(k)), pts).entries,
                                  gram(k, pts).entries)


_ROW_RULES = [(name, k, gen) for name, k, gen in sample_kernels(np.random.default_rng(0))
              if not isinstance(k.space, MeasurePoints)]


@pytest.mark.parametrize("k,gen", [pytest.param(k, gen, id=name) for name, k, gen in _ROW_RULES])
def test_pairwise_on_an_array_equals_pairwise_on_its_rows(k, gen):
    rng = np.random.default_rng(8)
    xs = np.array([gen(rng) for _ in range(7)])
    ys = np.array([gen(rng) for _ in range(3)])
    for a, b in ((xs, xs), (xs, ys)):
        assert k.pairwise(a, b).tobytes() == k.pairwise(list(a), list(b)).tobytes()
    assert gram(k, xs).entries.tobytes() == gram(k, list(xs)).entries.tobytes()


@pytest.mark.parametrize("k,gen", [pytest.param(k, gen, id=name) for name, k, gen in
                                   sample_kernels(np.random.default_rng(0))])
def test_gram_is_the_mirrored_upper_triangle(k, gen):
    """The Gram matrix has the bits of the pairwise block's upper triangle added to
    its mirror, and equals its own transpose exactly."""
    rng = np.random.default_rng(4)
    pts = [gen(rng) for _ in range(9)]
    block = k.pairwise(pts, pts)
    g = gram(k, pts).entries
    assert g.tobytes() == (np.triu(block) + np.triu(block, 1).T).tobytes()
    assert g.tobytes() == g.T.tobytes()


def test_batched_gram_rejects_non_finite_points():
    k = make_radial_hilbert(PHI, E2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            gram(k, [np.zeros(2), np.array([0.0, bad])])
        with pytest.raises(DomainError):
            k(np.zeros(2), np.array([bad, 0.0]))
