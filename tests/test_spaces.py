import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernmetric import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    FunctionSample,
    LpMetric,
    MeasurePoints,
    QuadratureGrid,
    ShapeError,
    dirac,
    measure_difference,
    metric_dist,
    trapezoid_grid,
)
from kernmetric.spaces import as_point, stack_points

from conftest import random_function


def test_trapezoid_weights_sum_to_length():
    grid = trapezoid_grid(51, 0.0, 1.0)
    assert float(np.sum(grid.weights)) == pytest.approx(1.0, abs=1e-12)
    grid = trapezoid_grid(17, -2.0, 3.0)
    assert float(np.sum(grid.weights)) == pytest.approx(5.0, abs=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        QuadratureGrid(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        QuadratureGrid(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        trapezoid_grid(1)


@pytest.mark.parametrize("nodes,weights", [
    ([0.0, np.nan, 1.0], [0.25, 0.5, 0.25]),
    ([0.0, 0.5, np.inf], [0.25, 0.5, 0.25]),
    ([0.0, 0.5, 1.0], [0.25, np.nan, 0.25]),
    ([0.0, 0.5, 1.0], [0.25, 0.5, np.inf]),
])
def test_grid_rejects_non_finite(nodes, weights):
    with pytest.raises(DomainError, match="finite"):
        QuadratureGrid(np.array(nodes), np.array(weights))


def test_stack_points_checks_every_function_sample():
    g, h = trapezoid_grid(8), trapezoid_grid(9)
    space = FuncLp(g)
    f_g = FunctionSample(g, np.arange(8.0))
    f_h = FunctionSample(h, np.arange(9.0))
    for bad in (f_h, np.arange(8.0)):
        with pytest.raises(ShapeError) as stacked:
            stack_points(space, [f_g, f_g, bad])
        with pytest.raises(ShapeError) as single:
            as_point(space, bad)
        assert str(stacked.value) == str(single.value)


def test_stack_points_accepts_an_equal_grid_object():
    g, same = trapezoid_grid(8), trapezoid_grid(8)
    assert same is not g
    samples = [FunctionSample(g, np.arange(8.0)), FunctionSample(same, -np.arange(8.0))]
    np.testing.assert_array_equal(stack_points(FuncLp(g), samples),
                                  [np.arange(8.0), -np.arange(8.0)])


def test_sq_dist_examples():
    grid = trapezoid_grid(1001)
    m = LpMetric(grid, 2.0)
    f = FunctionSample(grid, np.ones(1001))
    g = FunctionSample(grid, np.zeros(1001))
    lin = FunctionSample(grid, grid.nodes)
    assert metric_dist(m, f, f) == 0.0
    assert metric_dist(m, f, g) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert metric_dist(m, lin, g) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_sq_dist_grid_mismatch():
    f = FunctionSample(trapezoid_grid(5), np.zeros(5))
    g = FunctionSample(trapezoid_grid(6), np.zeros(6))
    with pytest.raises(ShapeError):
        metric_dist(LpMetric(f.grid, 2.0), f, g)


def test_euclidean_metric_345():
    m = EuclideanMetric(2)
    assert metric_dist(m, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_lp_metric_p2_is_sqrt_sq_dist(rng):
    grid = trapezoid_grid(21)
    m = LpMetric(grid, 2.0)
    f, g = random_function(rng, grid), random_function(rng, grid)
    d = f.values - g.values
    assert metric_dist(m, f, g) == pytest.approx(math.sqrt(np.sum(grid.weights * d * d)),
                                                 rel=1e-12)


def test_lp_metric_p15_on_indicator():
    grid = trapezoid_grid(101)
    m = LpMetric(grid, 1.5)
    f = FunctionSample(grid, np.ones(101))
    g = FunctionSample(grid, np.zeros(101))
    assert metric_dist(m, f, g) == pytest.approx(1.0, abs=1e-12)


def test_lp_metric_exponent_whitelist():
    grid = trapezoid_grid(11)
    for p in (1.0, 2.5, 3.0):
        with pytest.raises(DomainError):
            LpMetric(grid, p)
    LpMetric(grid, 1.0001)
    LpMetric(grid, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triangle_inequality_euclidean(data):
    pts = [
        np.array(data.draw(st.lists(st.floats(-50, 50), min_size=3, max_size=3)))
        for _ in range(3)
    ]
    m = EuclideanMetric(3)
    x, y, z = pts
    assert metric_dist(m, x, z) <= metric_dist(m, x, y) + metric_dist(m, y, z) + 1e-12


def test_measure_flags():
    space = Euclidean(1)
    mu = DiscreteMeasure(space, (np.array([0.0]), np.array([1.0])), np.array([0.3, 0.7]))
    assert mu.is_probability
    assert not mu.is_zero_mass
    nu = DiscreteMeasure(space, (np.array([0.0]),), np.array([-0.4]))
    assert not nu.is_probability


def test_measure_difference_examples():
    space = Euclidean(1)
    mu = DiscreteMeasure(
        space, (np.array([0.0]), np.array([1.0])), np.array([0.3, 0.7])
    )
    d = measure_difference(mu, mu)
    assert d.total_mass == 0.0
    assert d.is_zero_mass

    dx, dy = dirac(space, np.array([0.0])), dirac(space, np.array([2.0]))
    d = measure_difference(dx, dy)
    assert list(d.weights) == [1.0, -1.0]

    da = dirac(space, np.array([0.0]))
    d = measure_difference(mu, da)
    assert list(d.weights) == [0.3, 0.7, -1.0]
    assert abs(d.total_mass) <= 1e-15


def test_measure_difference_space_mismatch():
    mu = dirac(Euclidean(1), np.array([0.0]))
    nu = dirac(Euclidean(2), np.array([0.0, 0.0]))
    with pytest.raises(ShapeError):
        measure_difference(mu, nu)


@settings(max_examples=100, deadline=None)
@given(
    w1=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    w2=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
)
def test_measure_difference_mass_exact(w1, w2):
    space = Euclidean(1)
    mu = DiscreteMeasure(space, tuple(np.array([float(i)]) for i in range(len(w1))), np.array(w1))
    nu = DiscreteMeasure(space, tuple(np.array([float(i)]) for i in range(len(w2))), np.array(w2))
    assert measure_difference(mu, nu).total_mass == mu.total_mass - nu.total_mass


def test_measure_difference_mass_is_a_field_outside_equality():
    space = Euclidean(1)
    mu = DiscreteMeasure(space, (0.1, 0.2, 0.7), np.array([0.1, 0.2, 0.7]))
    nu = DiscreteMeasure(space, (0.3,), np.array([1.0]))
    assert mu._mass_override is None
    d = measure_difference(mu, nu)
    assert d._mass_override == mu.total_mass - nu.total_mass == d.total_mass
    # the same atoms and weights, with the total mass summed from the weights
    plain = DiscreteMeasure(space, d.points, d.weights)
    assert plain._mass_override is None
    assert plain == d and hash(plain) == hash(d)


def test_measure_hash_covers_support():
    space = Euclidean(2)
    w = np.array([0.25, 0.75])
    mu = DiscreteMeasure(space, (np.zeros(2), np.ones(2)), w)
    nu = DiscreteMeasure(space, (np.zeros(2), np.full(2, 2.0)), w)
    assert mu != nu and hash(mu) != hash(nu)
    # equal measures hash alike, also where a coordinate is -0.0 on one side
    twin = DiscreteMeasure(space, (np.array([-0.0, 0.0]), np.ones(2)), w.copy())
    assert twin == mu and hash(twin) == hash(mu)
    assert len({mu, nu, twin}) == 2


def test_equal_samples_and_grids_hash_alike_across_signed_zeros():
    grid = QuadratureGrid(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.25]))
    twin = QuadratureGrid(np.array([-0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.25]))
    assert twin == grid and hash(twin) == hash(grid)
    f = FunctionSample(grid, [0.0, 1.0, 2.0])
    g = FunctionSample(twin, [-0.0, 1.0, 2.0])
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


@pytest.mark.parametrize("points,dim,error", [
    ((0.0, np.nan), 1, DomainError),
    ((np.array([0.0]), np.array([np.inf])), 1, DomainError),
    ((np.zeros(2), np.array([1.0, -np.inf])), 2, DomainError),
    ((np.zeros(2), np.zeros(3)), 2, ShapeError),  # ragged
    ((np.zeros(2), np.zeros(2)), 3, ShapeError),  # wrong dimension
    ((0.0, 1.0), 2, ShapeError),  # scalars in R^2
    ((np.zeros((1, 1)),), 1, ShapeError),
    (("a", "b"), 1, ShapeError),
])
def test_measure_rejects_bad_support(points, dim, error):
    with pytest.raises(error):
        DiscreteMeasure(Euclidean(dim), points, np.full(len(points), 1.0 / len(points)))


def test_measure_support_as_scalars_or_rows():
    space = Euclidean(1)
    w = np.array([0.5, 0.5])
    scalars = DiscreteMeasure(space, (0.5, 2.0), w)
    rows = DiscreteMeasure(space, (np.array([0.5]), np.array([2.0])), w)
    assert scalars == rows
    np.testing.assert_array_equal(scalars.points_array(), [[0.5], [2.0]])
    assert all(p.shape == (1,) for p in scalars.points)


def test_measure_support_is_a_read_only_copy():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    mu = DiscreteMeasure(Euclidean(2), pts, np.array([0.5, 0.5]))
    pts[0, 0] = 9.0
    np.testing.assert_array_equal(mu.points_array(), [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        mu.points[0][0] = 9.0


def test_measure_space_nesting_limited():
    inner = MeasurePoints(Euclidean(1))
    with pytest.raises(DomainError):
        MeasurePoints(inner)


def test_func_lp_p_range():
    grid = trapezoid_grid(5)
    with pytest.raises(DomainError):
        FuncLp(grid, 1.0)
    with pytest.raises(DomainError):
        FuncLp(grid, float("inf"))
