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
    FunctionSample,
    Gaussian,
    Identity,
    InjectivityError,
    LinearGridMap,
    LpMetric,
    ProfileClassError,
    ShapeError,
    check_lp_nondegeneracy,
    dirac,
    gaussian_frequencies,
    gram,
    make_distance_kernel,
    make_fourier_measure,
    make_kme_measure,
    make_lp_operator,
    make_metric_phi,
    make_mixture,
    make_quantile_monge,
    make_radial_hilbert,
    make_tee_radial,
    quantile_sq_w2,
    trapezoid_grid,
)

from kernmetric.kernels import _quantile_breaks, _quantile_embedding, _sq_dists

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


def test_tee_identity_reduces_to_radial(rng):
    k1 = make_radial_hilbert(PHI, E2)
    k2 = make_tee_radial(PHI, Identity(), E2)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert k1(x, y) == k2(x, y)


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


# ---------------------------------------------------------------------------
# L^p operator kernels


@pytest.fixture
def grid():
    return trapezoid_grid(12)


@pytest.fixture
def base_kernel():
    # narrow enough that the weighted Gram form is numerically full rank
    return make_radial_hilbert(Gaussian(alpha=50.0), E1)


def test_lp_operator_diagonal(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 1.5)
    f = random_function(rng, grid)
    assert k(f, f) == 1.0


def test_lp_operator_constant_shift_matches_double_loop(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 1.5)
    c = 0.7
    f = random_function(rng, grid)
    g = FunctionSample(grid, f.values - c)
    # brute-force double quadrature sum oracle
    q = 0.0
    for i, (xi, wi) in enumerate(zip(grid.nodes, grid.weights)):
        for j, (xj, wj) in enumerate(zip(grid.nodes, grid.weights)):
            q += wi * wj * base_kernel(one_d(xi), one_d(xj)) * c * c
    assert k(f, g) == pytest.approx(PHI(q), rel=1e-12)


def test_lp_operator_random_pair_matches_double_loop(grid, base_kernel, rng):
    k = make_lp_operator(PHI, base_kernel, grid, 2.5)
    f, g = random_function(rng, grid), random_function(rng, grid)
    h = f.values - g.values
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


def test_lp_operator_rejects_degenerate_base(grid):
    # very wide profile: numerically rank deficient on the grid
    wide = make_radial_hilbert(Gaussian(alpha=1e-9), E1)
    with pytest.raises(DegeneracyError):
        make_lp_operator(PHI, wide, grid, 1.5)


def test_check_lp_nondegeneracy(grid, base_kernel):
    assert check_lp_nondegeneracy(base_kernel, grid)
    wide = make_radial_hilbert(Gaussian(alpha=1e-9), E1)
    assert not check_lp_nondegeneracy(wide, grid)


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


def test_kme_measure_matches_double_loop(rng):
    base = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    k = make_kme_measure(PHI, base)
    for _ in range(10):
        mu, nu = random_prob_measure(rng), random_prob_measure(rng)
        naive = 0.0
        pts = mu.points + nu.points
        w = np.concatenate([mu.weights, -nu.weights])
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                naive += w[i] * w[j] * base(x, y)
        assert k(mu, nu) == pytest.approx(PHI(max(naive, 0.0)), rel=1e-12)


def test_fourier_measure_single_frequency():
    k = make_fourier_measure(Gaussian(alpha=1.0), [[1.0]], [1.0])
    mu = dirac(E1, one_d(0.0))
    nu = dirac(E1, one_d(math.pi))
    assert k(mu, mu) == 1.0
    assert k(mu, nu) == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_fourier_measure_matches_trig_oracle(rng):
    freqs, fw = gaussian_frequencies(64, 1, seed=7)
    k = make_fourier_measure(PHI, freqs, fw)
    for _ in range(10):
        mu = random_prob_measure(rng, dim=1, atoms=5)
        nu = random_prob_measure(rng, dim=1, atoms=5)
        pts = np.concatenate([mu.points_array(), nu.points_array()]).ravel()
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
    freqs, fw = gaussian_frequencies(4, 1, seed=0)
    k = make_fourier_measure(PHI, freqs, fw)
    assert freqs.flags.writeable and fw.flags.writeable
    mu, nu = dirac(E1, one_d(0.0)), dirac(E1, one_d(1.0))
    before = k(mu, nu)
    freqs[:] = 0.0  # the kernel keeps its own copy
    assert k(mu, nu) == before


@pytest.mark.parametrize("freqs,weights,error", [
    ([[1.0]], 1.0, ShapeError),
    ([[[1.0]]], [1.0], ShapeError),
    ([[np.nan]], [1.0], DomainError),
    ([[1.0], [2.0]], [np.nan, 0.5], DomainError),
])
def test_fourier_measure_rejects_malformed_frequencies(freqs, weights, error):
    with pytest.raises(error):
        make_fourier_measure(PHI, freqs, weights)


def test_fourier_frequencies_deterministic():
    f1, w1 = gaussian_frequencies(16, 2, seed=7)
    f2, w2 = gaussian_frequencies(16, 2, seed=7)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(w1, w2)


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


def test_quantile_monge_matches_sorting_oracle(rng):
    for _ in range(30):
        n = 5
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        mu = DiscreteMeasure(E1, tuple(one_d(x) for x in xs), np.full(n, 1.0 / n))
        nu = DiscreteMeasure(E1, tuple(one_d(y) for y in ys), np.full(n, 1.0 / n))
        w2_sq = float(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
        assert quantile_sq_w2(mu, nu) == pytest.approx(w2_sq, abs=1e-12)
        assert quantile_sq_w2(mu, nu) >= w2_sq - 1e-12


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
        np.testing.assert_allclose(_sq_dists(*_quantile_embedding(xs, ys)), oracle,
                                   rtol=1e-12, atol=0.0)
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
        xs = np.sort(m.points_array().ravel())
        order = np.argsort(m.points_array().ravel())
        cum = np.cumsum(m.weights[order])
        return xs[np.searchsorted(cum, u, side="left")]

    riemann = float(np.mean((quantile(mu, us) - quantile(nu, us)) ** 2))
    assert quantile_sq_w2(mu, nu) == pytest.approx(riemann, rel=1e-4)


# ---------------------------------------------------------------------------
# symmetry / diagonal across all rules (small randomized sweep)


def test_all_rules_symmetric_and_bounded(rng):
    from kernmetric.selfcheck import _sample_kernels

    for name, k, gen in _sample_kernels(rng):
        for _ in range(10):
            x, y = gen(rng), gen(rng)
            assert k(x, y) == k(y, x)
            if name != "distance":
                assert abs(k(x, y)) <= k.diag_value + 1e-12


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
            LpMetric(grid, 1.5), FunctionSample(grid, np.zeros(9))), gen_f),
        ("mixture", make_mixture([(make_radial_hilbert(PHI, e3), 0.3),
                                  (make_metric_phi(Gaussian(2.0), EuclideanMetric(3)), 0.7)]),
         gen_e3),
        # probability measures of unequal sizes; with up to 24 atoms, the roundoff of
        # ||Phi(mu)||^2 + ||Phi(mu)||^2 - 2 <Phi(mu), Phi(mu)> shows through ExpSqrt
        # unless k(mu, mu) is exactly phi(0)
        ("kme_measure", make_kme_measure(ExpSqrt(c=1.0), make_radial_hilbert(Gaussian(1.0), E2)),
         lambda rng: random_prob_measure(rng, atoms=int(rng.integers(1, 25)))),
        ("fourier_measure", make_fourier_measure(PHI, *gaussian_frequencies(16, 2, seed=3)),
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
    if k.diag_value is not None:
        assert np.all(np.diag(g) == k.diag_value)
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


def test_batched_gram_rejects_non_finite_points():
    k = make_radial_hilbert(PHI, E2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            gram(k, [np.zeros(2), np.array([0.0, bad])])
        with pytest.raises(DomainError):
            k(np.zeros(2), np.array([bad, 0.0]))
