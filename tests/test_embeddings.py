import math

import numpy as np
import pytest

from kernmetric import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanMetric,
    Gaussian,
    GramMatrix,
    ShapeError,
    dirac,
    gram,
    kme_inner,
    kme_sq_norm,
    make_distance_kernel,
    make_kme_measure,
    make_mixture,
    make_radial_hilbert,
    measure_difference,
    min_eigenvalue,
)
from kernmetric.embeddings import settle_form
from kernmetric.selfcheck import sample_kernels

from conftest import random_prob_measure, random_signed_measure

E1, E2 = Euclidean(1), Euclidean(2)
PHI = Gaussian(alpha=0.5)


def one_d(x):
    return np.array([float(x)])


def test_gram_two_points():
    k = make_radial_hilbert(PHI, E1)
    g = gram(k, [one_d(0.0), one_d(math.sqrt(2.0))])  # squared distance 2
    expected = np.array([[1.0, math.exp(-1.0)], [math.exp(-1.0), 1.0]])
    np.testing.assert_allclose(g.entries, expected, rtol=1e-15)
    assert g.entries.shape == (2, 2)


def test_gram_exactly_symmetric(rng):
    k = make_radial_hilbert(Gaussian(alpha=1.3), E2)
    pts = [rng.normal(size=2) for _ in range(8)]
    g = gram(k, pts).entries
    assert np.array_equal(g, g.T)


def test_gram_entries_read_only():
    k = make_radial_hilbert(PHI, E1)
    g = gram(k, [one_d(0.0), one_d(1.0)])
    with pytest.raises(ValueError):
        g.entries[0, 0] = 2.0


def test_gram_matrix_shape_validation():
    with pytest.raises(ShapeError):
        GramMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        GramMatrix(np.zeros(4))
    with pytest.raises(DomainError):
        GramMatrix(np.array([[np.nan]]))


def test_gram_matrix_leaves_caller_array_writeable():
    a = np.eye(2)
    g = GramMatrix(a)
    assert a.flags.writeable
    a[0, 1] = 5.0  # the Gram matrix keeps its own copy
    np.testing.assert_array_equal(g.entries, np.eye(2))


def test_min_eigenvalue_known_2x2():
    # eigenvalues of [[1, r], [r, 1]] are 1 - r and 1 + r
    r = math.exp(-1.0)
    g = GramMatrix(np.array([[1.0, r], [r, 1.0]]))
    assert min_eigenvalue(g) == pytest.approx(1.0 - r, rel=1e-14)


def test_min_eigenvalue_char_poly_oracle(rng):
    # independent oracle: smallest root of the characteristic polynomial
    k = make_radial_hilbert(Gaussian(alpha=2.0), E2)
    pts = [rng.normal(size=2) for _ in range(4)]
    g = gram(k, pts)
    coeffs = np.poly(np.asarray(g.entries))
    roots = np.roots(coeffs)
    assert min_eigenvalue(g) == pytest.approx(float(np.min(roots.real)), abs=1e-10)


def test_gram_psd_on_random_points(rng):
    k = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    pts = [rng.normal(size=2) for _ in range(12)]
    assert min_eigenvalue(gram(k, pts)) > 0.0


# ---------------------------------------------------------------------------
# kernel mean embeddings


def test_kme_sq_norm_single_dirac():
    k = make_radial_hilbert(PHI, E2)
    mu = dirac(E2, np.array([0.3, -0.7]))
    assert kme_sq_norm(k, mu) == 1.0


def test_kme_sq_norm_dirac_difference():
    from kernmetric import measure_difference

    k = make_radial_hilbert(PHI, E2)
    mu = dirac(E2, np.array([0.0, 0.0]))
    nu = dirac(E2, np.array([1.0, 1.0]))
    val = kme_sq_norm(k, measure_difference(mu, nu))
    assert val == pytest.approx(2.0 - 2.0 * math.exp(-1.0), rel=1e-14)
    assert val == pytest.approx(1.2642411, abs=1e-7)


def test_kme_sq_norm_matches_double_sum(rng):
    k = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    for _ in range(10):
        mu = random_signed_measure(rng, atoms=4)
        naive = 0.0
        for x, wx in zip(mu.points, mu.weights):
            for y, wy in zip(mu.points, mu.weights):
                naive += wx * wy * k(x, y)
        assert kme_sq_norm(k, mu) == pytest.approx(max(naive, 0.0), abs=1e-12)


def test_kme_inner_polarization(rng):
    from kernmetric import measure_difference

    k = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    mu, nu = random_prob_measure(rng), random_prob_measure(rng)
    lhs = kme_sq_norm(k, measure_difference(mu, nu))
    rhs = kme_sq_norm(k, mu) + kme_sq_norm(k, nu) - 2.0 * kme_inner(k, mu, nu)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_kme_cauchy_schwarz(rng):
    k = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    for _ in range(20):
        mu = random_signed_measure(rng, atoms=3)
        nu = random_signed_measure(rng, atoms=3)
        inner = kme_inner(k, mu, nu)
        assert inner * inner <= kme_sq_norm(k, mu) * kme_sq_norm(k, nu) + 1e-10


def test_kme_mixture_linearity(rng):
    comps = [
        (make_radial_hilbert(Gaussian(alpha=0.5), E2), 0.3),
        (make_radial_hilbert(Gaussian(alpha=2.0), E2), 0.7),
    ]
    k = make_mixture(comps)
    mu = random_signed_measure(rng, atoms=4)
    expected = sum(w * kme_sq_norm(ck, mu) for ck, w in comps)
    assert kme_sq_norm(k, mu) == pytest.approx(expected, abs=1e-13)


def test_kme_space_mismatch():
    k = make_radial_hilbert(PHI, E2)
    with pytest.raises(ShapeError):
        kme_sq_norm(k, dirac(E1, one_d(0.0)))


def test_kme_measure_kernel_gram_strict_pd(rng):
    # kernel on measures: Gram over distinct diracs must be strictly PD
    base = make_radial_hilbert(Gaussian(alpha=1.0), E2)
    k = make_kme_measure(PHI, base)
    measures = [dirac(E2, rng.normal(size=2)) for _ in range(5)]
    assert min_eigenvalue(gram(k, measures)) > 1e-8


def test_distance_kernel_gram_psd_on_signed_null_mass(rng):
    # the distance kernel is conditionally PD; its quadratic form is
    # nonnegative on measures with total mass zero
    from kernmetric import measure_difference

    k = make_distance_kernel(EuclideanMetric(2), np.zeros(2))
    for _ in range(10):
        mu = random_prob_measure(rng, atoms=4)
        nu = random_prob_measure(rng, atoms=4)
        assert kme_sq_norm(k, measure_difference(mu, nu)) >= 0.0


def test_overflowing_kernel_values_are_domain_errors():
    # |x - z0| overflows when squared, so k(x, y) = inf + inf - |x - y|
    k = make_distance_kernel(EuclideanMetric(2), np.array([1e200, 0.0]))
    mu, nu = dirac(E2, np.zeros(2)), dirac(E2, np.array([1.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="overflow"):
            k.pairwise([np.zeros(2)], [np.array([1.0, 0.0])])
        with pytest.raises(DomainError, match="overflow"):
            kme_inner(k, mu, nu)


def test_forms_of_measures_past_the_float_range_are_domain_errors():
    # one signed measure whose forms overflow: each is refused, with no numpy warning
    # (an error under the suite's filter) and no quiet inf
    k = make_radial_hilbert(PHI, E1)
    mu = DiscreteMeasure(E1, [[0.0], [1.0]], [1e200, -1e200])
    nu = DiscreteMeasure(E1, [[0.0], [1.0]], [1e200, 1e200])
    with pytest.raises(DomainError, match="overflow"):
        kme_inner(k, mu, mu)
    with pytest.raises(DomainError, match="overflow"):
        make_kme_measure(PHI, k)(mu, nu)
    with pytest.raises(DomainError, match="overflow"):
        kme_sq_norm(k, mu)


def test_settle_form_gate_zero_band_and_bound():
    # two atoms of mass 2 and scale 1: the gate is -4e-10, the bound 2 (2 + 1) u 4 = 12 eps
    bound = 12 * np.finfo(float).eps
    assert settle_form(bound, 2.0, 1.0, 2) == 0.0
    assert settle_form(np.nextafter(bound, 1.0), 2.0, 1.0, 2) == np.nextafter(bound, 1.0)
    assert settle_form(-4e-10, 2.0, 1.0, 2) == 0.0
    with pytest.raises(DomainError, match="negative beyond roundoff"):
        settle_form(np.nextafter(-4e-10, -1.0), 2.0, 1.0, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="overflow"):
            settle_form(bad, 2.0, 1.0, 2)
    # an array of forms, each with its own scale
    forms, scales = np.array([1e-14, 1e-14]), np.array([1.0, 100.0])
    np.testing.assert_array_equal(settle_form(forms, 2.0, scales, 2), [1e-14, 0.0])


@pytest.mark.parametrize("name,k,gen", sample_kernels(np.random.default_rng(0)),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_kme_sq_norm_of_mu_minus_mu_is_zero(rng, name, k, gen):
    for _ in range(5):
        mu = DiscreteMeasure(k.space, tuple(gen(rng) for _ in range(4)), rng.normal(size=4))
        assert kme_sq_norm(k, measure_difference(mu, mu)) == 0.0
