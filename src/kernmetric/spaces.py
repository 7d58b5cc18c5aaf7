"""Discretized input spaces: quadrature grids, L^p function samples,
Euclidean points, metrics, and finitely supported signed measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "QuadratureGrid",
    "FunctionSample",
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
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ShapeError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size < 2:
            raise DomainError("a grid needs at least 2 nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise DomainError("grid nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))

    def __len__(self):
        return self.nodes.size

    def __eq__(self, other):
        return (
            isinstance(other, QuadratureGrid)
            and self.domain == other.domain
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        # + 0.0 reads a node -0.0 as 0.0, so that equal grids hash alike
        return hash((self.domain, (self.nodes + 0.0).tobytes(), self.weights.tobytes()))


def trapezoid_grid(m: int, a: float = 0.0, b: float = 1.0) -> QuadratureGrid:
    """Uniform m-node trapezoid rule on [a, b]; weights sum to b - a."""
    if m < 2:
        raise DomainError("trapezoid grid needs at least 2 nodes")
    nodes = np.linspace(a, b, m)
    h = (b - a) / (m - 1)
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2
    return QuadratureGrid(nodes, weights, (a, b))


@dataclass(frozen=True)
class FunctionSample:
    """An element of L^p(lambda) represented by its values on a grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ShapeError(
                f"values length {values.shape} does not match grid ({len(self.grid)} nodes)"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionSample)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.grid, (self.values + 0.0).tobytes()))


@dataclass(frozen=True)
class Euclidean:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be positive")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == (self.dim,) and bool(np.all(np.isfinite(x)))


@dataclass(frozen=True)
class FuncLp:
    grid: QuadratureGrid
    p: float = 2.0

    def __post_init__(self):
        if not (1.0 < self.p < np.inf):
            raise DomainError(f"p must lie in (1, inf), got {self.p}")

    def contains(self, x) -> bool:
        return isinstance(x, FunctionSample) and x.grid == self.grid


@dataclass(frozen=True)
class MeasurePoints:
    """Space whose points are discrete measures over a base space."""

    base: "PointSpace"

    def __post_init__(self):
        if isinstance(self.base, MeasurePoints):
            raise DomainError("measure spaces may not be nested")

    def contains(self, x) -> bool:
        return isinstance(x, DiscreteMeasure) and x.space == self.base


PointSpace = Union[Euclidean, FuncLp, MeasurePoints]


def as_point(space: PointSpace, x):
    """Coerce and validate a raw point for the given space."""
    if isinstance(space, Euclidean):
        return stack_points(space, [x])[0]
    if not space.contains(x):
        raise ShapeError(f"point {type(x).__name__} does not belong to {space}")
    return x


def stack_points(space: PointSpace, points) -> np.ndarray:
    """Validate points of a Euclidean or function space and stack them as rows.

    Returns an (n, d) array: the coordinates of n points in R^d, or the
    values of n function samples on a d-node grid.  Euclidean points must
    be finite (function samples are checked when they are built).  Each
    distinct grid object of the samples is compared with the space's grid once.
    """
    if isinstance(space, FuncLp):
        # grids found equal to space.grid, by id; held here, so that no id is reused
        on_grid = {id(space.grid): space.grid}
        values = []
        for x in points:
            if not (isinstance(x, FunctionSample)
                    and (id(x.grid) in on_grid or x.grid == space.grid)):
                raise ShapeError(f"point {type(x).__name__} does not belong to {space}")
            on_grid[id(x.grid)] = x.grid
            values.append(x.values)
        return np.array(values).reshape(-1, len(space.grid))
    if not isinstance(space, Euclidean):
        raise ShapeError(f"points of {space} do not stack into an array")
    try:
        xs = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"points do not stack into points of R^{space.dim}: {exc}") from exc
    if xs.ndim == 1 and (space.dim == 1 or xs.size == 0):
        xs = xs.reshape(-1, space.dim)
    if xs.ndim != 2 or xs.shape[1] != space.dim:
        raise ShapeError(f"expected points in R^{space.dim}, got shape {xs.shape[1:]}")
    if not np.all(np.isfinite(xs)):
        raise DomainError("Euclidean points must be finite")
    return xs


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported signed measure; duplicate support points allowed.

    A Euclidean support is validated as one array, which ``points_array``
    returns and whose rows are ``points``.  ``_mass_override``, when set, is
    the exact total mass (see ``measure_difference``); it takes no part in
    equality.
    """

    space: PointSpace
    points: tuple
    weights: np.ndarray
    _mass_override: Optional[float] = field(default=None, compare=False, repr=False)
    _rows: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.space, Euclidean):
            # copied, so that the measure shares no array with its caller
            rows = stack_points(self.space, self.points).copy()
            rows.setflags(write=False)
            object.__setattr__(self, "_rows", rows)
            points = tuple(rows)
        else:
            points = tuple(as_point(self.space, p) for p in self.points)
        weights = np.asarray(self.weights, dtype=float)
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
        return (
            isinstance(other, DiscreteMeasure)
            and self.space == other.space
            and len(self.points) == len(other.points)
            and all(np.array_equal(np.asarray(p), np.asarray(q)) if not isinstance(p, FunctionSample) else p == q
                    for p, q in zip(self.points, other.points))
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(measure_key(self))

    @property
    def total_mass(self) -> float:
        if self._mass_override is not None:
            return self._mass_override
        # left-to-right order fixed for reproducibility
        total = 0.0
        for w in self.weights:
            total += w
        return total

    @property
    def is_probability(self) -> bool:
        return bool(np.all(self.weights > 0)) and abs(self.total_mass - 1.0) <= 1e-12

    @property
    def is_zero_mass(self) -> bool:
        return abs(self.total_mass) <= 1e-12

    def points_array(self) -> np.ndarray:
        """Support as a read-only (n, d) array; Euclidean base only."""
        if self._rows is None:
            raise ShapeError("points_array is defined for Euclidean support only")
        return self._rows

    @property
    def support(self):
        """The support as kernels take it: ``points_array()`` on a Euclidean base,
        so that it is not stacked again, else ``points``."""
        return self.points if self._rows is None else self._rows


def measure_key(m: DiscreteMeasure) -> bytes:
    """The bytes of a measure's weights and support points, for ordering arguments
    and for hashing.

    Symmetric quantities are evaluated with their two measures in key order,
    so that swapping the arguments gives the same bits.  -0.0 is read as 0.0,
    so that equal measures have equal keys; equal keys of measures on one
    Euclidean or function space mean equal weights and support.  A
    measure-valued support point contributes its own key.
    """
    if isinstance(m.space, Euclidean):
        return (m.weights + 0.0).tobytes() + (m.points_array() + 0.0).tobytes()
    parts = [(m.weights + 0.0).tobytes()]
    for p in m.points:
        if isinstance(p, FunctionSample):
            parts.append((p.values + 0.0).tobytes())
        else:
            parts.append(measure_key(p))
    return b"".join(parts)


def dirac(space: PointSpace, x) -> DiscreteMeasure:
    return DiscreteMeasure(space, (x,), np.array([1.0]))


@dataclass(frozen=True)
class EuclideanMetric:
    dim: int

    def space(self) -> PointSpace:
        return Euclidean(self.dim)


@dataclass(frozen=True)
class LpMetric:
    """L^p metric on function samples; restricted to 1 < p <= 2.

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

    ``reduce`` maps a (rows, m, d) array of differences x_i - y_j to its
    (rows, m) values; it is applied to blocks of rows of xs of at most
    DIFF_BLOCK difference entries each.
    """
    n, m = len(xs), len(ys)
    rows = max(1, DIFF_BLOCK // max(1, m * xs.shape[1]))
    out = np.empty((n, m))
    for lo in range(0, n, rows):
        out[lo:lo + rows] = reduce(xs[lo:lo + rows, None, :] - ys[None, :, :])
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
        mu.points + nu.points,
        np.concatenate([mu.weights, -nu.weights]),
        _mass_override=mu.total_mass - nu.total_mass,
    )
