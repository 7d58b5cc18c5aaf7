"""Discretized input spaces: quadrature grids, Euclidean and L^p point spaces,
metrics, and finitely supported signed measures.

A point of Euclidean(d) is a row of d coordinates, and a point of
FuncLp(grid) is the row of a function's values at the grid's nodes; a point
set is an (n, d) array or a list of rows (``stack_points``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "QuadratureGrid",
    "Euclidean",
    "FuncLp",
    "MeasurePoints",
    "PointSpace",
    "EuclideanMetric",
    "LpMetric",
    "MetricSpec",
    "DiscreteMeasure",
    "trapezoid_grid",
    "stack_points",
    "join_points",
    "metric_dist",
    "metric_dists",
    "reduce_diffs",
    "measure_difference",
    "measure_key",
    "dirac",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights discretizing integration over [a, b]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copied, so that freezing them leaves the caller's arrays writeable
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ShapeError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size < 2:
            raise DomainError("a grid needs at least 2 nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise DomainError("grid nodes and weights must be finite")
        # compared, not subtracted: the difference of nodes near +-1.8e308 overflows
        if np.any(nodes[1:] <= nodes[:-1]):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size

    def __eq__(self, other):
        return (
            isinstance(other, QuadratureGrid)
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        # + 0.0 reads a node -0.0 as 0.0, so that equal grids hash alike
        return hash(((self.nodes + 0.0).tobytes(), self.weights.tobytes()))


def trapezoid_grid(m: int, a: float = 0.0, b: float = 1.0) -> QuadratureGrid:
    """Uniform m-node trapezoid rule on [a, b]; weights sum to b - a."""
    if m < 2:
        raise DomainError("trapezoid grid needs at least 2 nodes")
    width = float(b) - float(a)
    if not math.isfinite(width):
        raise DomainError(f"trapezoid grid on [{a}, {b}]: the width b - a must be finite")
    nodes = np.linspace(a, b, m)
    h = width / (m - 1)
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2
    return QuadratureGrid(nodes, weights)


@dataclass(frozen=True)
class Euclidean:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be positive")


@dataclass(frozen=True)
class FuncLp:
    grid: QuadratureGrid
    p: float = 2.0

    def __post_init__(self):
        if not (1.0 < self.p < np.inf):
            raise DomainError(f"p must lie in (1, inf), got {self.p}")


@dataclass(frozen=True)
class MeasurePoints:
    """Space whose points are discrete measures over a base space."""

    base: "PointSpace"

    def __post_init__(self):
        if isinstance(self.base, MeasurePoints):
            raise DomainError("measure spaces may not be nested")


PointSpace = Union[Euclidean, FuncLp, MeasurePoints]


def stack_points(space: PointSpace, points):
    """Check that points belong to the space, and stack them as the kernels take them.

    On Euclidean(d) and on FuncLp(grid), with d = len(grid), the points are rows
    of d finite values, given as an (n, d) array or a list of rows; they are
    returned as one (n, d) float array (on R^1, n scalars are n points).  On a
    measure space they are returned as the tuple of the n measures, each a
    DiscreteMeasure on the base space.
    """
    if isinstance(space, MeasurePoints):
        points = tuple(points)
        for x in points:
            if not (isinstance(x, DiscreteMeasure) and x.space == space.base):
                raise ShapeError(f"point {type(x).__name__} does not belong to {space}")
        return points
    if isinstance(space, Euclidean):
        d = space.dim
    elif isinstance(space, FuncLp):
        d = len(space.grid)
    else:
        raise ShapeError(f"{space} is not a point space")
    try:
        xs = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"points do not stack into rows of {d} values: {exc}") from exc
    if xs.ndim == 1 and (d == 1 or xs.size == 0):
        xs = xs.reshape(-1, d)
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ShapeError(f"expected points of {d} values each, got shape {xs.shape[1:]}")
    if not np.all(np.isfinite(xs)):
        raise DomainError("points must be finite")
    return xs


def join_points(*point_sets):
    """The point sets joined in order, each as ``stack_points`` returns it."""
    return sum(point_sets, ()) if isinstance(point_sets[0], tuple) else np.concatenate(point_sets)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported signed measure; duplicate support points allowed.

    ``points`` holds the support as ``stack_points`` returns it: a read-only
    (n, d) array on a Euclidean or function space, the tuple of the measures
    on a measure space.  ``_mass_override``, when set, is the exact total mass
    (see ``measure_difference``); it takes no part in equality.
    """

    space: PointSpace
    points: Union[np.ndarray, tuple]
    weights: np.ndarray
    _mass_override: Optional[float] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        points = stack_points(self.space, self.points)
        if isinstance(points, np.ndarray):
            # copied, so that the measure shares no array with its caller
            points = points.copy()
            points.setflags(write=False)
        # copied, as the points are, so that freezing it leaves the caller's array writeable
        weights = np.array(self.weights, dtype=float)
        if len(points) < 1:
            raise DomainError("a measure needs at least one support point")
        if weights.shape != (len(points),):
            raise ShapeError("weights must match the number of support points")
        if not np.all(np.isfinite(weights)):
            raise DomainError("weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        if not (isinstance(other, DiscreteMeasure) and self.space == other.space
                and np.array_equal(self.weights, other.weights)):
            return False
        if isinstance(self.points, tuple):
            return self.points == other.points
        return np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(measure_key(self))

    @property
    def total_mass(self) -> float:
        if self._mass_override is not None:
            return self._mass_override
        # left to right, as Python floats: the order is fixed for reproducibility
        total = 0.0
        for w in self.weights.tolist():
            total += w
        return total

    @property
    def is_probability(self) -> bool:
        return bool(np.all(self.weights > 0)) and abs(self.total_mass - 1.0) <= 1e-12


def measure_key(m: DiscreteMeasure) -> bytes:
    """The bytes of a measure's weights and support points, for ordering arguments
    and for hashing.

    Symmetric quantities are evaluated with their two measures in key order,
    so that swapping the arguments gives the same bits.  -0.0 is read as 0.0,
    so that equal measures have equal keys; equal keys of measures on one
    Euclidean or function space mean equal weights and support.  A
    measure-valued support point contributes its own key.
    """
    weights = (m.weights + 0.0).tobytes()
    if isinstance(m.points, tuple):
        return b"".join([weights, *map(measure_key, m.points)])
    return weights + (m.points + 0.0).tobytes()


def dirac(space: PointSpace, x) -> DiscreteMeasure:
    return DiscreteMeasure(space, (x,), np.array([1.0]))


@dataclass(frozen=True)
class EuclideanMetric:
    dim: int

    def space(self) -> PointSpace:
        return Euclidean(self.dim)


@dataclass(frozen=True)
class LpMetric:
    """L^p metric on functions given by their values on the grid; restricted to 1 < p <= 2.

    Separable L^p with 1 < p <= 2 is of strong negative type, which is
    what the metric-based kernel constructions require; other exponents
    are rejected at construction.
    """

    grid: QuadratureGrid
    p: float = 2.0

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise DomainError(f"LpMetric requires 1 < p <= 2, got {self.p}")

    def space(self) -> PointSpace:
        return FuncLp(self.grid, self.p)


MetricSpec = Union[EuclideanMetric, LpMetric]


def metric_dist(m: MetricSpec, x, y) -> float:
    """Distance under the metric; symmetric and triangle-inequality safe."""
    space = m.space()
    return float(metric_dists(m, stack_points(space, [x]), stack_points(space, [y]))[0, 0])


#: entries of the difference array x_i - y_j that ``reduce_diffs`` holds at
#: once (256 KiB), so that its temporaries do not grow with the point count
DIFF_BLOCK = 1 << 15


def reduce_diffs(reduce, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (n, m) array of ``reduce`` over the differences of two stacked point arrays.

    ``reduce`` maps a C-contiguous (rows, m, d) array of differences x_i - y_j,
    which it may overwrite, to its (rows, m) values; it is applied to blocks of
    rows of xs of at most DIFF_BLOCK difference entries each.  Each block is
    filled with its rows of xs repeated m times, and ys is subtracted in place,
    so that numpy's inner loop runs over all m * d entries of a row rather than
    over the d coordinates of one pair; the differences are the same bits.
    numpy's overflow warnings are off: a difference past the float range is inf,
    its exact rounding, which a profile maps to phi(inf) = 0 or a caller's
    finiteness check refuses.
    """
    n, m = len(xs), len(ys)
    rows = max(1, DIFF_BLOCK // max(1, m * xs.shape[1]))
    out = np.empty((n, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            diff = np.repeat(xs[lo:lo + rows, None, :], m, axis=1)
            diff -= ys
            out[lo:lo + rows] = reduce(diff)
            del diff  # freed before the next block is made, so that its memory is reused
    return out


def sum_sq(diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis."""
    return np.einsum("ijk,ijk->ij", diff, diff)


def metric_dists(m: MetricSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distances between the rows of two stacked point arrays (``stack_points``)."""
    if isinstance(m, EuclideanMetric):
        return np.sqrt(reduce_diffs(sum_sq, xs, ys))
    w = m.grid.weights

    def lp_sums(diff):
        # in place, so that the difference block is the only temporary
        return np.power(np.abs(diff, out=diff), m.p, out=diff) @ w

    return reduce_diffs(lp_sums, xs, ys) ** (1.0 / m.p)


def measure_difference(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """The signed measure mu - nu on the concatenated support.

    The total mass is fixed to ``mu.total_mass - nu.total_mass`` exactly,
    rather than re-summed over the concatenated weights, so the mass
    identity holds without roundoff.
    """
    if mu.space != nu.space:
        raise ShapeError("measures live on different spaces")
    return DiscreteMeasure(
        mu.space,
        join_points(mu.points, nu.points),
        np.concatenate([mu.weights, -nu.weights]),
        _mass_override=mu.total_mass - nu.total_mass,
    )
