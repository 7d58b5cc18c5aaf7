import math

import numpy as np
import pytest

from kernmetric import (
    DiscreteLaplace,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanMetric,
    ExpSqrt,
    FuncLp,
    Gaussian,
    InverseRational,
    dirac,
    divergence,
    energy_distance,
    expected_score,
    kernel_score,
    kernel_scores,
    kme_inner,
    kme_sq_norm,
    make_distance_kernel,
    make_kme_measure,
    make_lp_operator,
    make_mixture,
    make_quantile_monge,
    make_radial_hilbert,
    measure_difference,
    mmd,
    mmd_u_statistic,
    permutation_test,
    trapezoid_grid,
)

from conftest import random_prob_measure

E1, E2 = Euclidean(1), Euclidean(2)
PHI = Gaussian(alpha=0.5)


def one_d(x):
    return np.array([float(x)])


@pytest.fixture
def k2():
    return make_radial_hilbert(PHI, E2)


# ---------------------------------------------------------------------------
# mmd


def test_mmd_identical_measures(k2, rng):
    mu = random_prob_measure(rng)
    assert mmd(k2, mu, mu) == 0.0


def test_mmd_two_diracs(k2):
    mu = dirac(E2, np.array([0.0, 0.0]))
    nu = dirac(E2, np.array([1.0, 1.0]))  # squared distance 2
    val = mmd(k2, mu, nu)
    assert val == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-1.0)), rel=1e-14)
    assert val == pytest.approx(1.1243847, abs=1e-7)


def test_mmd_double_sum_expansion(k2, rng):
    for _ in range(10):
        p, q = random_prob_measure(rng), random_prob_measure(rng)
        expanded = kme_sq_norm(k2, p) - 2.0 * kme_inner(k2, p, q) + kme_sq_norm(k2, q)
        assert mmd(k2, p, q) == pytest.approx(math.sqrt(max(expanded, 0.0)), abs=1e-12)


def test_mmd_symmetry_exact(k2, rng):
    for _ in range(20):
        p, q = random_prob_measure(rng), random_prob_measure(rng)
        assert mmd(k2, p, q) == mmd(k2, q, p)


def test_mmd_symmetry_exact_on_measures_of_measures(rng):
    k = make_kme_measure(PHI, make_radial_hilbert(Gaussian(alpha=1.0), E2))

    def meta(atoms):
        w = rng.uniform(0.1, 1.0, size=atoms)
        mus = tuple(random_prob_measure(rng, atoms=int(rng.integers(1, 5))) for _ in range(atoms))
        return DiscreteMeasure(k.space, mus, w / w.sum())

    for _ in range(10):
        p, q = meta(3), meta(4)
        assert mmd(k, p, q) == mmd(k, q, p)
        assert mmd(k, p, q) > 0.0
        assert mmd(k, p, p) == 0.0


def test_mmd_triangle_inequality(k2, rng):
    for _ in range(200):
        p = random_prob_measure(rng)
        q = random_prob_measure(rng)
        r = random_prob_measure(rng)
        assert mmd(k2, p, q) <= mmd(k2, p, r) + mmd(k2, r, q) + 1e-10


def test_mmd_rejects_signed_measure(k2):
    bad = DiscreteMeasure(E2, (np.zeros(2), np.ones(2)), np.array([1.5, -0.5]))
    good = dirac(E2, np.zeros(2))
    with pytest.raises(DomainError):
        mmd(k2, bad, good)


# ---------------------------------------------------------------------------
# near zero: mmd, scores, divergence and energy distance settle the roundoff of
# their quadratic form by one rule (embeddings.settle_form)

#: each profile family, with phi(0) - phi(t) computed without cancellation
PROFILE_GAPS = [
    (Gaussian(alpha=0.5), lambda t: -math.expm1(-0.5 * t)),
    (ExpSqrt(c=1.0), lambda t: -math.expm1(-math.sqrt(t))),
    (InverseRational(beta=1.0, scale=1.0), lambda t: -math.expm1(-math.log1p(t))),
    (DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5))),
     lambda t: -0.5 * math.expm1(-t) - 0.5 * math.expm1(-2.0 * t)),
]
PROFILE_IDS = ["gaussian", "exp_sqrt", "inverse_rational", "discrete_laplace"]


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("phi,gap", PROFILE_GAPS, ids=PROFILE_IDS)
def test_mmd_of_close_diracs_keeps_its_digits(phi, gap, h):
    # a characteristic kernel tells delta_0 from delta_h: mmd^2 = 2 (phi(0) - phi(h^2))
    k = make_radial_hilbert(phi, E1)
    val = mmd(k, dirac(E1, one_d(0.0)), dirac(E1, one_d(h)))
    assert val != 0.0
    assert val == pytest.approx(math.sqrt(2.0 * gap(h * h)), rel=1e-2)


@pytest.mark.parametrize("phi,gap", PROFILE_GAPS, ids=PROFILE_IDS)
def test_score_mmd_and_divergence_of_close_diracs_agree(phi, gap):
    h = 1e-6
    k = make_radial_hilbert(phi, E1)
    p, q = dirac(E1, one_d(0.0)), dirac(E1, one_d(h))
    values = [kernel_score(k, p, one_d(h)), 0.5 * mmd(k, p, q) ** 2, divergence(k, p, q)]
    # each is half a form over two atoms of mass 2 and scale phi(0), within half of
    # that form's bound 2 (2 + 1) u 2^2 phi(0) of half the form's exact value
    bound = 12 * np.finfo(float).eps / 2 * phi(0.0)
    assert max(values) - min(values) <= bound
    assert min(values) > 0.0


def test_reordered_atoms_give_exactly_zero(k2, rng):
    metric = EuclideanMetric(2)
    for atoms in range(2, 8):
        for _ in range(20):
            p = random_prob_measure(rng, atoms=atoms)
            order = rng.permutation(atoms)
            q = DiscreteMeasure(E2, p.points[order], p.weights[order])
            assert mmd(k2, p, q) == 0.0
            assert divergence(k2, p, q) == 0.0
            assert energy_distance(metric, p, q) == 0.0


def test_divergence_and_energy_distance_are_bitwise_symmetric(k2, rng):
    metric = EuclideanMetric(2)
    for _ in range(100):
        p, q = random_prob_measure(rng, atoms=5), random_prob_measure(rng, atoms=4)
        assert divergence(k2, p, q) == divergence(k2, q, p)
        assert energy_distance(metric, p, q) == energy_distance(metric, q, p)


# ---------------------------------------------------------------------------
# kernel scores


def test_kernel_score_point_mass_at_outcome(k2):
    x = np.array([0.4, -1.1])
    assert kernel_score(k2, dirac(E2, x), x) == 0.0


def test_kernel_score_dirac_value(k2):
    omega = np.array([0.0, 0.0])
    x = np.array([1.0, 1.0])  # squared distance 2
    val = kernel_score(k2, dirac(E2, omega), x)
    assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert val == pytest.approx(0.6321206, abs=1e-7)


def test_kernel_score_is_half_squared_mmd_to_dirac(k2, rng):
    for _ in range(20):
        p = random_prob_measure(rng)
        x = rng.normal(size=2)
        lhs = kernel_score(k2, p, x)
        rhs = 0.5 * mmd(k2, p, dirac(E2, x)) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_kernel_score_nonnegative(k2, rng):
    for _ in range(100):
        assert kernel_score(k2, random_prob_measure(rng), rng.normal(size=2)) >= 0.0


def test_kernel_scores_compute_the_self_term_once(k2, rng, monkeypatch):
    import kernmetric.stats as stats

    p = random_prob_measure(rng, atoms=6)
    xs = [rng.normal(size=2) for _ in range(9)]
    one_by_one = [kernel_score(k2, p, x) for x in xs]
    calls = []
    monkeypatch.setattr(stats, "kme_sq_norm", lambda k, mu: calls.append(mu) or kme_sq_norm(k, mu))
    np.testing.assert_array_equal(kernel_scores(k2, p, xs), one_by_one)
    q = random_prob_measure(rng, atoms=5)
    expected_score(k2, p, q)
    assert len(calls) == 2


def test_distance_kernel_diagonal_is_one_batch(rng, monkeypatch):
    """k(z, z) of a distance kernel is read in one batch per point list, so the
    metric evaluations of a score or a divergence do not grow with the outcomes."""
    import kernmetric.kernels as kernels

    k = make_distance_kernel(EuclideanMetric(2), np.zeros(2))
    forecast = random_prob_measure(rng, atoms=6)
    calls = []
    metric_dists = kernels.metric_dists
    monkeypatch.setattr(kernels, "metric_dists",
                        lambda *a: calls.append(1) or metric_dists(*a))

    for stat in (lambda p: kernel_scores(k, forecast, p.points),
                 lambda p: divergence(k, p, forecast)):
        counts = []
        for n in (10, 200):
            outcomes = random_prob_measure(rng, atoms=n)
            calls.clear()
            stat(outcomes)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _one_point_forecast(rng, atoms=5):
    """A forecast with all its atoms at one point x, with random weights, and x."""
    x = rng.normal(size=2)
    w = rng.uniform(0.1, 1.0, size=atoms)
    return DiscreteMeasure(E2, tuple(x for _ in range(atoms)), w / w.sum()), x


def test_score_and_divergence_roundoff_scales_with_the_kernel():
    # k(z, z) = 1e6: the score of the forecast at x and its divergence from the
    # point mass at x are 0, computed with about 1e6 times the roundoff of phi(0) = 1
    k = make_mixture([(make_radial_hilbert(PHI, E2), 1e6)])
    for seed in range(200):
        p, x = _one_point_forecast(np.random.default_rng(seed))
        assert 0.0 <= kernel_scores(k, p, [x])[0] <= 1e-4
        for a, b in ((p, dirac(E2, x)), (dirac(E2, x), p)):
            assert 0.0 <= divergence(k, a, b) <= 1e-4


def test_expected_score_self(k2, rng):
    p = random_prob_measure(rng, atoms=4)
    g = np.array([[k2(x, y) for y in p.points] for x in p.points])
    w = p.weights
    expected = 0.5 * float(w @ np.diag(g)) - 0.5 * float(w @ g @ w)
    assert expected_score(k2, p, p) == pytest.approx(expected, abs=1e-13)


def test_expected_score_dirac_self(k2):
    d = dirac(E2, np.zeros(2))
    assert expected_score(k2, d, d) == 0.0


def test_propriety(k2, rng):
    for _ in range(200):
        p, q = random_prob_measure(rng), random_prob_measure(rng)
        assert expected_score(k2, q, p) >= expected_score(k2, p, p) - 1e-10


def test_mmd_score_identity(k2, rng):
    for _ in range(20):
        p, q = random_prob_measure(rng), random_prob_measure(rng)
        gap = 2.0 * (expected_score(k2, q, p) - expected_score(k2, p, p))
        assert mmd(k2, p, q) == pytest.approx(math.sqrt(max(gap, 0.0)), abs=1e-10)


# ---------------------------------------------------------------------------
# divergence


def test_divergence_identical(k2, rng):
    p = random_prob_measure(rng)
    assert divergence(k2, p, p) == 0.0


def test_divergence_diracs(k2):
    p = dirac(E2, np.array([0.0, 0.0]))
    q = dirac(E2, np.array([1.0, 1.0]))
    assert divergence(k2, p, q) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_divergence_identity_chain(k2, rng):
    for _ in range(20):
        p, q = random_prob_measure(rng), random_prob_measure(rng)
        d = divergence(k2, p, q)
        half_mmd_sq = 0.5 * mmd(k2, p, q) ** 2
        half_kme = 0.5 * kme_sq_norm(k2, measure_difference(p, q))
        assert d == pytest.approx(half_mmd_sq, rel=1e-12)
        assert d == pytest.approx(half_kme, rel=1e-12)


def test_divergence_positive_for_distinct_supports(k2, rng):
    p = random_prob_measure(rng)
    q = random_prob_measure(rng, scale=3.0)
    assert divergence(k2, p, q) > 0.0


# ---------------------------------------------------------------------------
# U-statistic


def test_u_statistic_separated_pairs():
    k = make_radial_hilbert(PHI, E1)
    val = mmd_u_statistic(k, [one_d(0.0), one_d(0.0)], [one_d(1.0), one_d(1.0)])
    assert val == pytest.approx(2.0 - 2.0 * math.exp(-0.5), rel=1e-14)
    assert val == pytest.approx(0.7869387, abs=1e-7)


def test_u_statistic_unbiased_under_null(rng):
    k = make_radial_hilbert(PHI, E1)
    vals = []
    for _ in range(1000):
        xs = [one_d(v) for v in rng.normal(size=5)]
        ys = [one_d(v) for v in rng.normal(size=5)]
        vals.append(mmd_u_statistic(k, xs, ys))
    # mean of the unbiased estimator under the null is 0
    assert abs(np.mean(vals)) < 3.0 * np.std(vals) / math.sqrt(1000)


def test_u_statistic_needs_two_points():
    k = make_radial_hilbert(PHI, E1)
    with pytest.raises(DomainError):
        mmd_u_statistic(k, [one_d(0.0)], [one_d(1.0), one_d(2.0)])


# ---------------------------------------------------------------------------
# permutation test


def test_permutation_separated_functions():
    grid = trapezoid_grid(12)
    base = make_radial_hilbert(Gaussian(alpha=50.0), E1)
    k = make_lp_operator(PHI, base, grid, 1.5)
    zeros, ones = np.zeros((20, 12)), np.ones((20, 12))
    res = permutation_test(k, zeros, ones, n_perm=99, seed=1)
    assert res.p_value == pytest.approx(0.01, abs=1e-15)


def _null_setup(rule):
    """A kernel and a generator of draws from one distribution."""
    if rule.startswith("lp_operator"):
        # the CLI's default base kernel (alpha = 0.5) on 64 nodes, or alpha = 50 on 12
        alpha, m = (0.5, 64) if rule.endswith("default_base") else (50.0, 12)
        base = make_radial_hilbert(Gaussian(alpha=alpha), E1)
        return (make_lp_operator(PHI, base, trapezoid_grid(m), 1.5),
                lambda rng: rng.normal(size=m))
    return (make_quantile_monge(PHI, trapezoid_grid(8, 0.0, 1.0)),
            lambda rng: DiscreteMeasure(E1, tuple(np.array([v]) for v in rng.normal(size=3)),
                                        np.full(3, 1.0 / 3.0)))


@pytest.mark.parametrize("rule", ["lp_operator", "quantile", "lp_operator_default_base"])
def test_permutation_null_calibration(rule):
    # both samples from one distribution: 400 tests at level 0.05 reject
    # 20 times on average, and 7..33 is 20 +- 3 binomial standard deviations
    k, draw = _null_setup(rule)
    rejections = 0
    for trial in range(400):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(0, trial)))
        xs = [draw(rng) for _ in range(10)]
        ys = [draw(rng) for _ in range(10)]
        res = permutation_test(k, xs, ys, n_perm=99, seed=int(rng.integers(2**32)))
        rejections += res.p_value <= 0.05
    assert 7 <= rejections <= 33


def test_permutation_p_value_range(rng):
    k = make_radial_hilbert(PHI, E1)
    xs = [one_d(v) for v in rng.normal(size=5)]
    ys = [one_d(v) for v in rng.normal(size=5)]
    res = permutation_test(k, xs, ys, n_perm=99, seed=0)
    assert 0.0 < res.p_value <= 1.0
    assert res.estimator == "u_statistic"


def test_permutation_rejects_zero_perms():
    k = make_radial_hilbert(PHI, E1)
    pts = [one_d(0.0), one_d(1.0)]
    for n_perm in (0, 9.5, "9"):
        with pytest.raises(DomainError, match="n_perm"):
            permutation_test(k, pts, pts, n_perm=n_perm, seed=0)


@pytest.mark.parametrize("seed", [1.5, "3", -1])
def test_permutation_rejects_bad_seed(seed):
    k = make_radial_hilbert(PHI, E1)
    pts = [one_d(0.0), one_d(1.0)]
    with pytest.raises(DomainError, match="seed"):
        permutation_test(k, pts, pts, n_perm=9, seed=seed)


@pytest.mark.parametrize("n_perm", [1, 127, 128, 129, 999])
def test_permutation_streams_match_numpy_spawn(n_perm):
    from kernmetric.stats import _permutations

    for seed in [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 2**200 + 1]:
        for size in [2, 200]:
            expected = [np.random.default_rng(child).permutation(size)
                        for child in np.random.SeedSequence(seed).spawn(n_perm)]
            np.testing.assert_array_equal(
                np.concatenate(list(_permutations(seed, n_perm, size))), expected)


@pytest.mark.parametrize("lo", [0, 127, 128])
@pytest.mark.parametrize("seed", [0, 2**32, 2**128 - 1, 2**128, 2**200 + 1])
def test_child_seed_words_match_numpy_spawn(seed, lo):
    # the seeds have 1, 2, 4, 5 and 7 entropy words
    from kernmetric.stats import _child_seed_words

    hi = lo + 130
    words = _child_seed_words(np.random.SeedSequence(seed), np.arange(lo, hi, dtype=np.uint32))
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    expected = [child.generate_state(4, np.uint64)
                for child in np.random.SeedSequence(seed).spawn(hi)[lo:]]
    np.testing.assert_array_equal(words, expected)


def test_seed_words_refuse_what_pcg64_cannot_read_safely():
    # PCG64 reads the returned buffer unchecked: strided rows would seed other
    # states and short ones would be read past their end
    from kernmetric.stats import _SeedWords

    children = np.random.SeedSequence(5).spawn(3)
    seed_words = _SeedWords(np.array([c.generate_state(4, np.uint64) for c in children]))
    for child in children:
        np.testing.assert_array_equal(np.random.PCG64(seed_words).random_raw(3),
                                      np.random.PCG64(child).random_raw(3))
    with pytest.raises(ValueError, match="used"):
        np.random.PCG64(seed_words)
    words = np.arange(24, dtype=np.uint64).reshape(3, 8)
    for bad in [words[:, ::2], words[:, :4], words[:, :2].copy(), words[:, :4].astype(np.uint32),
                words[0, :4].copy()]:
        with pytest.raises(ValueError, match="C-contiguous"):
            _SeedWords(bad)
    for n_words, dtype in [(4, np.uint32), (2, np.uint64), (8, np.uint64)]:
        with pytest.raises(ValueError, match="only 4 uint64"):
            _SeedWords(words[:, :4].copy()).generate_state(n_words, dtype)


def test_permutation_rejects_more_perms_than_one_word_spawn_keys():
    # child 2**32 has a two-word spawn key; refused before any replicate is drawn
    k = make_radial_hilbert(PHI, E1)
    pts = [one_d(0.0), one_d(1.0)]
    with pytest.raises(DomainError, match="n_perm"):
        permutation_test(k, pts, pts, n_perm=2**32 + 1, seed=0)


def _copy_loop_permutation_test(k, xs, ys, n_perm, seed):
    """Reference: every replicate's statistic from its own permuted Gram copy."""
    from kernmetric.kernels import _base_gram
    from kernmetric.stats import _u_statistic_from_gram

    n, m = len(xs), len(ys)
    g = _base_gram(k, list(xs) + list(ys))
    observed = _u_statistic_from_gram(g, n, m)
    count = 0
    for stream in np.random.SeedSequence(seed).spawn(n_perm):
        perm = np.random.default_rng(stream).permutation(n + m)
        if _u_statistic_from_gram(g[np.ix_(perm, perm)], n, m) >= observed:
            count += 1
    return observed, (1.0 + count) / (n_perm + 1.0)


@pytest.mark.parametrize("n,m,n_perm", [(2, 2, 5), (3, 7, 130), (20, 20, 99), (100, 100, 999)])
def test_permutation_matches_copy_loop_bitwise(n, m, n_perm):
    # small samples repeat the observed split, so exact ties are common there
    k = make_radial_hilbert(PHI, E2)
    rng = np.random.default_rng(n * 1000 + m)
    for seed in range(6 if n < 100 else 1):
        xs = list(rng.normal(size=(n, 2)))
        ys = list(rng.normal(size=(m, 2)) + 0.2 * seed)
        res = permutation_test(k, xs, ys, n_perm=n_perm, seed=seed)
        assert (res.statistic, res.p_value) == _copy_loop_permutation_test(k, xs, ys, n_perm, seed)


def test_permutation_test_result_json(rng):
    k = make_radial_hilbert(PHI, E1)
    xs = [one_d(v) for v in rng.normal(size=4)]
    ys = [one_d(v) for v in rng.normal(size=4)]
    res = permutation_test(k, xs, ys, n_perm=19, seed=3)
    d = res.to_json()
    assert set(d) == {"statistic", "p_value", "n_permutations", "seed", "estimator"}
    assert d["n_permutations"] == 19 and d["seed"] == 3


# ---------------------------------------------------------------------------
# energy distance


def test_energy_distance_identical(rng):
    metric = EuclideanMetric(2)
    p = random_prob_measure(rng)
    assert energy_distance(metric, p, p) == pytest.approx(0.0, abs=1e-15)


def test_energy_distance_two_diracs():
    metric = EuclideanMetric(1)
    p = dirac(E1, one_d(0.0))
    q = dirac(E1, one_d(1.0))
    assert energy_distance(metric, p, q) == 2.0


@pytest.mark.parametrize("p_atoms", [1, 2])
def test_energy_distance_overflow_is_domain_error(p_atoms):
    # |x - y| overflows when squared: 2 inf - 0 - 0 = inf with one far atom,
    # 2 inf - inf - 0 = NaN with two
    far = np.array([1e200, 0.0])
    p = DiscreteMeasure(E2, (far, np.zeros(2))[:p_atoms], np.full(p_atoms, 1.0 / p_atoms))
    q = dirac(E2, np.ones(2))
    with pytest.raises(DomainError, match="overflow"):
        energy_distance(EuclideanMetric(2), p, q)


def test_energy_distance_of_an_overflowing_difference_is_one_domain_error():
    # 1e308 - (-1e308) overflows to inf quietly: the suite makes a numpy warning an error
    p = DiscreteMeasure(E2, np.array([[1e308, 2.0], [-1e308, 4.0]]), np.full(2, 0.5))
    with pytest.raises(DomainError, match="overflow"):
        energy_distance(EuclideanMetric(2), p, dirac(E2, np.array([5.0, 6.0])))
