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
    LpMetric,
    MeasurePoints,
    QuadratureGrid,
    ShapeError,
    dirac,
    measure_difference,
    metric_dist,
    trapezoid_grid,
)
from kernmetric.spaces import join_points, stack_points

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


def test_grid_near_the_double_limit_is_checked_quietly():
    """Nodes are compared, not subtracted, so nodes near +-1.8e308 raise no overflow
    warning (the suite makes one an error); a trapezoid rule whose width b - a
    overflows is refused."""
    assert QuadratureGrid([-1.7e308, 1.7e308], [0.5, 0.5]).nodes.tolist() == [-1.7e308, 1.7e308]
    with pytest.raises(DomainError, match="strictly increasing"):
        QuadratureGrid([1.7e308, -1.7e308], [0.5, 0.5])
    with pytest.raises(DomainError, match="width b - a must be finite"):
        trapezoid_grid(3, -1.7e308, 1.7e308)


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
    space = FuncLp(trapezoid_grid(8))
    f = np.arange(8.0)
    for bad, error in ((np.arange(9.0), ShapeError), (np.full(8, np.nan), DomainError),
                       (np.array([0.0] * 7 + [np.inf]), DomainError)):
        with pytest.raises(error):
            stack_points(space, [f, f, bad])
        with pytest.raises(error):
            stack_points(space, [bad])
    np.testing.assert_array_equal(stack_points(space, [f, -f]), [f, -f])
    np.testing.assert_array_equal(stack_points(space, [f]), [f])


def test_stack_points_accepts_an_equal_grid_object():
    # a point of L^p is its row of values; the grid is the space's, so a measure on
    # an equal grid object belongs to the measure space over the grid
    g, same = trapezoid_grid(8), trapezoid_grid(8)
    assert same is not g
    mu = DiscreteMeasure(FuncLp(same), [np.arange(8.0), -np.arange(8.0)], np.array([0.5, 0.5]))
    assert stack_points(MeasurePoints(FuncLp(g)), [mu]) == (mu,)
    np.testing.assert_array_equal(mu.points, [np.arange(8.0), -np.arange(8.0)])


def test_sq_dist_examples():
    grid = trapezoid_grid(1001)
    m = LpMetric(grid, 2.0)
    f, g, lin = np.ones(1001), np.zeros(1001), grid.nodes
    assert metric_dist(m, f, f) == 0.0
    assert metric_dist(m, f, g) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert metric_dist(m, lin, g) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_sq_dist_grid_mismatch():
    f, g = np.zeros(5), np.zeros(6)
    with pytest.raises(ShapeError):
        metric_dist(LpMetric(trapezoid_grid(5), 2.0), f, g)


def test_euclidean_metric_345():
    m = EuclideanMetric(2)
    assert metric_dist(m, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_lp_metric_p2_is_sqrt_sq_dist(rng):
    grid = trapezoid_grid(21)
    m = LpMetric(grid, 2.0)
    f, g = random_function(rng, grid), random_function(rng, grid)
    d = f - g
    assert metric_dist(m, f, g) == pytest.approx(math.sqrt(np.sum(grid.weights * d * d)),
                                                 rel=1e-12)


def test_lp_metric_p15_on_indicator():
    grid = trapezoid_grid(101)
    m = LpMetric(grid, 1.5)
    assert metric_dist(m, np.ones(101), np.zeros(101)) == pytest.approx(1.0, abs=1e-12)


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
    nu = DiscreteMeasure(space, (np.array([0.0]),), np.array([-0.4]))
    assert not nu.is_probability


def test_measure_difference_examples():
    space = Euclidean(1)
    mu = DiscreteMeasure(
        space, (np.array([0.0]), np.array([1.0])), np.array([0.3, 0.7])
    )
    d = measure_difference(mu, mu)
    assert d.total_mass == 0.0

    dx, dy = dirac(space, np.array([0.0])), dirac(space, np.array([2.0]))
    d = measure_difference(dx, dy)
    assert list(d.weights) == [1.0, -1.0]

    da = dirac(space, np.array([0.0]))
    d = measure_difference(mu, da)
    assert list(d.weights) == [0.3, 0.7, -1.0]
    assert abs(d.total_mass) <= 1e-15


@pytest.mark.parametrize("space", [Euclidean(2), FuncLp(trapezoid_grid(2))],
                         ids=["euclidean", "function"])
def test_measure_difference_concatenates_array_supports(space):
    mu = DiscreteMeasure(space, np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.25, 0.75]))
    nu = DiscreteMeasure(space, np.array([[4.0, 5.0], [6.0, 7.0]]), np.array([0.5, 0.5]))
    d = measure_difference(mu, nu)
    np.testing.assert_array_equal(d.points, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    np.testing.assert_array_equal(d.weights, [0.25, 0.75, -0.5, -0.5])
    assert d.space == space


def test_join_points_joins_any_number_of_point_sets_in_order():
    rows = [np.array([[float(i), -float(i)]]) for i in range(3)]
    np.testing.assert_array_equal(join_points(*rows), [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
    ms = tuple(dirac(Euclidean(1), np.array([float(i)])) for i in range(3))
    assert join_points(ms[:1], ms[1:2], ms[2:]) == ms


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
    # measures on sampled functions, equal but for the sign of a zero value
    w = np.array([0.5, 0.5])
    f = DiscreteMeasure(FuncLp(grid), [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], w)
    g = DiscreteMeasure(FuncLp(twin), [[-0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], w)
    h = DiscreteMeasure(FuncLp(grid), [[0.0, 1.0, 2.0], [3.0, 4.0, 6.0]], w)
    assert f == g and hash(f) == hash(g)
    assert f != h and hash(f) != hash(h)
    assert len({f, g, h}) == 2


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
    np.testing.assert_array_equal(scalars.points, [[0.5], [2.0]])
    assert scalars.points.shape == (2, 1)


def test_measure_support_is_a_read_only_copy():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    mu = DiscreteMeasure(Euclidean(2), pts, np.array([0.5, 0.5]))
    pts[0, 0] = 9.0
    np.testing.assert_array_equal(mu.points, [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        mu.points[0][0] = 9.0


def test_measure_and_grid_leave_caller_arrays_writeable():
    w = np.array([0.25, 0.75])
    mu = DiscreteMeasure(Euclidean(1), (0.0, 1.0), w)
    nodes, weights = np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.25])
    grid = QuadratureGrid(nodes, weights)
    assert w.flags.writeable and nodes.flags.writeable and weights.flags.writeable
    w[0], nodes[0], weights[0] = 9.0, -1.0, 9.0  # each object keeps its own copy
    np.testing.assert_array_equal(mu.weights, [0.25, 0.75])
    np.testing.assert_array_equal(grid.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(grid.weights, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError):
        mu.weights[0] = 9.0


def test_total_mass_sums_left_to_right():
    # a compensated sum (math.fsum, or sum() on Python >= 3.12) gives 1 + 2^-52 here
    mu = DiscreteMeasure(Euclidean(1), (0.0, 1.0, 2.0, 3.0), np.array([1.0, 1e-16, 1e-16, 1e-16]))
    assert mu.total_mass == 1.0 and type(mu.total_mass) is float
    assert math.fsum(mu.weights) != 1.0


def _lp_sums(w):
    return lambda diff: np.power(np.abs(diff, out=diff), 1.5, out=diff) @ w


@pytest.mark.parametrize("d", [1, 2, 3, 16, 480])
@pytest.mark.parametrize("n,m", [(7, 5), (1, 6), (6, 1), (4, 0), (0, 3)])
@pytest.mark.parametrize("diff_block", [None, 40])
def test_reduce_diffs_matches_broadcast_differences(d, n, m, diff_block, monkeypatch):
    from kernmetric import spaces

    if diff_block is not None:
        monkeypatch.setattr(spaces, "DIFF_BLOCK", diff_block)  # one row per block
    rng = np.random.default_rng(d)
    xs, ys, w = rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.uniform(size=d)
    for reduce in (spaces.sum_sq, lambda diff: np.einsum("ijk,ijk,k->ij", diff, diff, w),
                   _lp_sums(w)):
        got = spaces.reduce_diffs(reduce, xs, ys)
        assert got.shape == (n, m)
        assert np.array_equal(got, reduce(xs[:, None, :] - ys[None]))


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
