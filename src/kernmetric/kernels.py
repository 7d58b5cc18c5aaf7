"""Kernel constructions: radial kernels on Hilbert spaces, operator-based
kernels on L^p, metric kernels on spaces of strong negative type, distance
kernels, mixtures, and kernels on spaces of discrete measures.

Every kernel is an immutable evaluation rule ``k(x, y)`` over a point
space; evaluation is pure and symmetric by construction.  ``k.pairwise(xs,
ys)`` evaluates the whole cross block of two point lists with array
operations, and a scalar ``k(x, y)`` is its 1 x 1 block.

Five rules are radial kernels of a row embedding E into a Hilbert space,
k(x, y) = phi(||E(x) - E(y)||^2), and one class evaluates them all.  E is
the identity (``make_radial_hilbert``), the map T (``make_tee_radial``),
f -> f R with R R' the double quadrature form of the base kernel
(``make_lp_operator``), the (Re, Im) characteristic function at the
frequency atoms, scaled by the root frequency weights
(``make_fourier_measure``), or the quantile function at the midpoints of
the cells between all breakpoints of a block (``make_quantile_monge``).  On
L^2 the grid weights, and for quantiles the cell widths, weight the squared
column differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DegeneracyError,
    DomainError,
    InjectivityError,
    ProfileClassError,
    ShapeError,
)
from .profiles import PhiProfile, is_strictly_pd_class
from .spaces import (
    DiscreteMeasure,
    Euclidean,
    FuncLp,
    MeasurePoints,
    MetricSpec,
    PointSpace,
    QuadratureGrid,
    as_point,
    measure_key,
    metric_dists,
    reduce_diffs,
    stack_points,
    sum_sq,
)

__all__ = [
    "KernelSpec",
    "Identity",
    "DiagonalScale",
    "LinearGridMap",
    "MapSpec",
    "make_radial_hilbert",
    "make_tee_radial",
    "make_lp_operator",
    "make_metric_phi",
    "make_distance_kernel",
    "make_mixture",
    "make_kme_measure",
    "make_fourier_measure",
    "make_quantile_monge",
    "check_lp_nondegeneracy",
    "gaussian_frequencies",
    "quantile_sq_w2",
]


class KernelSpec:
    """Base class: a symmetric positive definite evaluation rule."""

    space: PointSpace
    #: value of k(x, x) where constant (phi(0)); None for distance kernels
    diag_value: Optional[float] = None

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def pairwise(self, xs, ys) -> np.ndarray:
        """Cross block ``[[k(x, y) for y in ys] for x in xs]``."""
        raise NotImplementedError

    def _one(self, x, y) -> float:
        """k(x, y) as the 1 x 1 block of ``pairwise``."""
        return float(self.pairwise([x], [y])[0, 0])


def _require_strict(phi: PhiProfile):
    if not is_strictly_pd_class(phi):
        raise ProfileClassError(
            "profile has mixing measure supported on {0}; the induced radial "
            "kernel is constant and not strictly positive definite"
        )


# ---------------------------------------------------------------------------
# maps for composed radial kernels; ``apply`` maps the rows of a stacked
# (n, d) point array (``stack_points``)


@dataclass(frozen=True)
class Identity:
    def apply(self, xs: np.ndarray) -> np.ndarray:
        return xs


@dataclass(frozen=True)
class DiagonalScale:
    factors: tuple

    def __post_init__(self):
        factors = tuple(float(f) for f in self.factors)
        if not all(np.isfinite(factors)):
            raise DomainError("scale factors must be finite")
        if any(f == 0.0 for f in factors):
            raise InjectivityError("diagonal scaling with a zero factor is not injective")
        object.__setattr__(self, "factors", factors)

    def apply(self, xs: np.ndarray) -> np.ndarray:
        if len(self.factors) != xs.shape[1]:
            raise ShapeError("scale factors do not match the point dimension")
        return xs * np.asarray(self.factors)


@dataclass(frozen=True)
class LinearGridMap:
    """Square matrix applied to a sample's values; must be numerically injective."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2:
            raise ShapeError("matrix must be 2-D")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            raise InjectivityError(
                f"matrix is numerically rank deficient (sigma_min/sigma_max = {s[-1] / s[0]:.2e})"
            )
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    def apply(self, xs: np.ndarray) -> np.ndarray:
        if self.matrix.shape[1] != xs.shape[1]:
            raise ShapeError("matrix does not match the point dimension")
        return xs @ self.matrix.T


MapSpec = Union[Identity, DiagonalScale, LinearGridMap]


# ---------------------------------------------------------------------------
# kernel rules


#: ``embed(xs, ys) -> (ex, ey, col_weights)``: the embedded rows of two point
#: lists, and the weights of the squared column differences (None: all ones)
Embedding = Callable[[Sequence, Sequence], Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]


def _rows_pair(rows: Callable[[Sequence], np.ndarray], xs, ys):
    """(rows(xs), rows(ys)), with rows evaluated once when ys is xs, as in every Gram."""
    ex = rows(xs)
    return ex, ex if ys is xs else rows(ys)


def _sq_dists(ex: np.ndarray, ey: np.ndarray, col_weights: Optional[np.ndarray]) -> np.ndarray:
    """Squared distances between the rows of ex and ey, columns weighted by col_weights."""
    if col_weights is None:
        return reduce_diffs(sum_sq, ex, ey)
    return reduce_diffs(lambda diff: np.einsum("ijk,ijk,k->ij", diff, diff, col_weights),
                        ex, ey)


@dataclass(frozen=True)
class _RadialEmbedding(KernelSpec):
    """k(x, y) = phi(||E(x) - E(y)||^2) for a row embedding E (see the module docstring)."""

    phi: PhiProfile
    space: PointSpace
    embed: Embedding

    @property
    def diag_value(self):
        return self.phi(0.0)

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def pairwise(self, xs, ys) -> np.ndarray:
        return self.phi(_sq_dists(*self.embed(xs, ys)))


@dataclass(frozen=True)
class _MetricPhi(KernelSpec):
    """k(x, y) = phi(rho(x, y)); the metric enters unsquared."""

    phi: PhiProfile
    metric: MetricSpec
    space: PointSpace

    @property
    def diag_value(self):
        return self.phi(0.0)

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def pairwise(self, xs, ys) -> np.ndarray:
        return self.phi(metric_dists(self.metric,
                                     *_rows_pair(partial(stack_points, self.space), xs, ys)))


@dataclass(frozen=True)
class _DistanceKernel(KernelSpec):
    """k(x, y) = rho(x, z0) + rho(y, z0) - rho(x, y)."""

    metric: MetricSpec
    z0: object
    space: PointSpace

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def pairwise(self, xs, ys) -> np.ndarray:
        xs, ys = _rows_pair(partial(stack_points, self.space), xs, ys)
        z0 = stack_points(self.space, [self.z0])
        return (
            metric_dists(self.metric, xs, z0)
            + metric_dists(self.metric, z0, ys)
            - metric_dists(self.metric, xs, ys)
        )


@dataclass(frozen=True)
class _Mixture(KernelSpec):
    components: tuple  # of (KernelSpec, weight)
    space: PointSpace

    @property
    def diag_value(self):
        vals = [k.diag_value for k, _ in self.components]
        if any(v is None for v in vals):
            return None
        return float(sum(w * v for (_, w), v in zip(self.components, vals)))

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def pairwise(self, xs, ys) -> np.ndarray:
        xs, ys = _rows_pair(list, xs, ys)
        return sum(w * k.pairwise(xs, ys) for k, w in self.components)


@dataclass(frozen=True)
class _KmeMeasure(KernelSpec):
    """k2(mu, nu) = phi(||Phi_{k1}(mu) - Phi_{k1}(nu)||^2)."""

    phi: PhiProfile
    k1: KernelSpec
    space: PointSpace

    @property
    def diag_value(self):
        return self.phi(0.0)

    def embedding_sq_dists(self, xs, ys) -> np.ndarray:
        """||Phi(mu) - Phi(nu)||^2 over xs and ys from <Phi(mu), Phi(nu)> = w_mu' K1 w_nu,
        one mu at a time so that no temporary spans the atoms of two measures of
        xs; exactly 0 where both sides are the same measure (equal ``measure_key``)."""
        xs, ys = [as_point(self.space, m) for m in xs], [as_point(self.space, m) for m in ys]
        if not xs or not ys:
            return np.zeros((len(xs), len(ys)))
        atoms = [p for nu in ys for p in nu.points]
        if isinstance(self.k1.space, Euclidean):
            # stacked once here rather than by k1.pairwise once per measure of xs
            atoms = stack_points(self.k1.space, atoms)
        wy = np.concatenate([nu.weights for nu in ys])
        starts = np.cumsum([0] + [len(nu.points) for nu in ys[:-1]])
        inner = np.array([np.add.reduceat(mu.weights @ self.k1.pairwise(mu.points, atoms) * wy,
                                          starts) for mu in xs])
        sx, sy = ([m.weights @ self.k1.pairwise(m.points, m.points) @ m.weights for m in ms]
                  for ms in (xs, ys))
        d2 = np.add.outer(sx, sy) - 2.0 * inner
        ids = {}
        ix = [ids.setdefault(measure_key(m), len(ids)) for m in xs]
        iy = [ids.setdefault(measure_key(m), len(ids)) for m in ys]
        d2[np.equal.outer(ix, iy)] = 0.0
        return d2

    def embedding_sq_dist(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return float(self.embedding_sq_dists([mu], [nu])[0, 0])

    def __call__(self, mu, nu) -> float:
        mu, nu = as_point(self.space, mu), as_point(self.space, nu)
        # canonical order, so the value is bitwise symmetric in (mu, nu)
        if measure_key(nu) < measure_key(mu):
            mu, nu = nu, mu
        return self._one(mu, nu)

    def pairwise(self, xs, ys) -> np.ndarray:
        return self.phi(np.maximum(self.embedding_sq_dists(xs, ys), 0.0))


# ---------------------------------------------------------------------------
# constructors (validation lives here)


def make_radial_hilbert(phi: PhiProfile, space: PointSpace) -> KernelSpec:
    """Radial kernel k(x, y) = phi(||x - y||^2) on a Hilbert point space."""
    return _map_radial(phi, Identity(), space)


def make_tee_radial(phi: PhiProfile, tee: MapSpec, space: PointSpace) -> KernelSpec:
    """k(x, y) = phi(||T(x) - T(y)||^2) for an injective map T."""
    return _map_radial(phi, tee, space)


def _map_radial(phi: PhiProfile, tee: MapSpec, space: PointSpace) -> KernelSpec:
    """E = T on the stacked points; on L^2 the grid weights weight the columns."""
    _require_strict(phi)
    if isinstance(space, FuncLp) and space.p != 2.0:
        raise DomainError(
            f"radial kernels need a Hilbert norm; L^p with p = {space.p} is not one"
        )
    if isinstance(space, MeasurePoints):
        raise ShapeError("radial kernels on measure points are built by make_kme_measure")
    return _RadialEmbedding(phi, space, partial(_map_embedding, tee, space))


def _map_embedding(tee: MapSpec, space: PointSpace, xs, ys):
    w = space.grid.weights if isinstance(space, FuncLp) else None
    return (*_rows_pair(lambda pts: tee.apply(stack_points(space, pts)), xs, ys), w)


def make_lp_operator(
    phi: PhiProfile, k1: KernelSpec, grid: QuadratureGrid, p: float
) -> KernelSpec:
    """Operator kernel on L^p(lambda) built from a base kernel on the grid line."""
    if not (1.0 < p < np.inf):
        raise DomainError(f"cases p in {{1, inf}} are excluded; got p = {p}")
    _require_strict(phi)
    if not isinstance(k1.space, Euclidean) or k1.space.dim != 1:
        raise ShapeError("the base kernel must live on the 1-D point space of the grid")
    # the double quadrature form f' M f is ||f R||^2, with R R' = M from eigh
    form = _weighted_form(k1, grid)
    lam, vecs = np.linalg.eigh(form)
    if not _nondegenerate(lam, form):
        raise DegeneracyError(
            "base kernel is degenerate on the grid: the weighted Gram form "
            "annihilates some nonzero function"
        )
    root = vecs * np.sqrt(np.maximum(lam, 0.0))
    root.setflags(write=False)
    space = FuncLp(grid, float(p))
    return _RadialEmbedding(phi, space, partial(_operator_embedding, space, root))


def _operator_embedding(space: FuncLp, root: np.ndarray, xs, ys):
    return (*_rows_pair(lambda pts: stack_points(space, pts) @ root, xs, ys), None)


def check_lp_nondegeneracy(k1: KernelSpec, grid: QuadratureGrid) -> bool:
    """Discrete surrogate of the strict quadratic-form condition.

    Builds M[i, j] = w_i k1(x_i, x_j) w_j and requires its smallest
    eigenvalue to exceed 1e-10 * trace(M).
    """
    form = _weighted_form(k1, grid)
    return _nondegenerate(np.linalg.eigvalsh(form), form)


def _nondegenerate(lam: np.ndarray, form: np.ndarray) -> bool:
    """Whether the smallest of the ascending eigenvalues lam of form exceeds 1e-10 * trace."""
    return bool(lam[0] > 1e-10 * np.trace(form))


def _weighted_form(k1: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    """M[i, j] = w_i k1(x_i, x_j) w_j over the grid nodes."""
    w = grid.weights
    return (w[:, None] * _base_gram(k1, grid.nodes[:, None])) * w[None, :]


def make_metric_phi(phi: PhiProfile, metric: MetricSpec) -> KernelSpec:
    """k(x, y) = phi(rho(x, y)) over a metric of strong negative type."""
    _require_strict(phi)
    # LpMetric enforces 1 < p <= 2 at construction; EuclideanMetric is whitelisted
    return _MetricPhi(phi, metric, metric.space())


def make_distance_kernel(metric: MetricSpec, z0) -> KernelSpec:
    """Distance kernel k(x, y) = rho(x, z0) + rho(y, z0) - rho(x, y)."""
    space = metric.space()
    z0 = as_point(space, z0)
    return _DistanceKernel(metric, z0, space)


def make_mixture(components: Sequence[Tuple[KernelSpec, float]]) -> KernelSpec:
    """Convex (positively weighted) combination of kernels on one space."""
    components = tuple((k, float(w)) for k, w in components)
    if not components:
        raise DomainError("a mixture needs at least one component")
    space = components[0][0].space
    for k, w in components:
        if not 0 < w < np.inf:
            raise DomainError(f"mixture weights must be positive and finite, got {w}")
        if k.space != space:
            raise ShapeError("all mixture components must share one point space")
    return _Mixture(components, space)


def make_kme_measure(phi: PhiProfile, k1: KernelSpec) -> KernelSpec:
    """Kernel on discrete measures through the mean embedding of k1."""
    _require_strict(phi)
    if isinstance(k1.space, MeasurePoints):
        raise ShapeError("the base kernel must live on the base point space")
    base_phi = getattr(k1, "phi", None)
    if base_phi is not None:
        _require_strict(base_phi)
    return _KmeMeasure(phi, k1, MeasurePoints(k1.space))


def gaussian_frequencies(n: int, dim: int, seed: int) -> tuple:
    """n standard-Gaussian frequency atoms with uniform weights 1/n."""
    if n < 1 or dim < 1:
        raise DomainError("need at least one frequency atom of positive dimension")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal((n, dim))
    weights = np.full(n, 1.0 / n)
    return freqs, weights


def make_fourier_measure(phi: PhiProfile, freqs, freq_weights) -> KernelSpec:
    """Kernel on probability measures over R^d comparing Fourier transforms.

    Frequency atoms discretize the L^2(lambda) norm of the difference of
    characteristic functions: ``freqs`` holds the n atoms as rows and
    ``freq_weights`` their n weights.
    """
    _require_strict(phi)
    # copied, so that freezing it leaves the caller's array writeable
    fr = np.atleast_2d(np.array(freqs, dtype=float))
    fw = np.asarray(freq_weights, dtype=float)
    if fr.ndim != 2 or fw.ndim != 1 or fr.shape[0] != fw.shape[0]:
        raise ShapeError("frequency atoms must be the rows of a 2-D array, one weight each")
    if not (np.all(np.isfinite(fr)) and np.all(np.isfinite(fw))):
        raise DomainError("frequency atoms and weights must be finite")
    if np.any(fw <= 0):
        raise DomainError("frequency weights must be positive")
    if abs(float(np.sum(fw)) - 1.0) > 1e-12:
        raise DomainError(f"frequency weights must sum to 1, got {np.sum(fw)}")
    fr.setflags(write=False)
    space = MeasurePoints(Euclidean(fr.shape[1]))
    return _RadialEmbedding(phi, space, partial(_fourier_embedding, space, fr, np.sqrt(fw)))


def _fourier_embedding(space: MeasurePoints, freqs: np.ndarray, scale: np.ndarray, xs, ys):
    def rows(measures):
        cf = np.array([m.weights @ np.exp(1j * (as_point(space, m).points_array() @ freqs.T))
                       for m in measures])
        cf = cf.reshape(-1, len(scale)) * scale
        return np.concatenate([cf.real, cf.imag], axis=1)

    return (*_rows_pair(rows, xs, ys), None)


def make_quantile_monge(phi: PhiProfile, u_grid: QuadratureGrid) -> KernelSpec:
    """Kernel on 1-D probability measures through the quantile embedding."""
    _require_strict(phi)
    a, b = u_grid.domain
    if not (a >= 0.0 and b <= 1.0):
        raise DomainError("u_grid must discretize [0, 1]")
    return _RadialEmbedding(phi, _LINE_MEASURES, _quantile_embedding)


# ---------------------------------------------------------------------------
# helpers


def _base_gram(k: KernelSpec, points) -> np.ndarray:
    """Exactly symmetric Gram matrix of a kernel on a list (or stacked array) of
    points: the upper triangle of the ``pairwise`` block, mirrored.  Raises DomainError
    when an entry is not finite, so that no statistic built on it is NaN."""
    pts = points if isinstance(points, np.ndarray) else list(points)
    g = np.triu(k.pairwise(pts, pts))
    if not np.all(np.isfinite(g)):
        raise DomainError("kernel values overflow or are undefined on these points")
    return g + np.triu(g, 1).T


_LINE_MEASURES = MeasurePoints(Euclidean(1))


def _quantile_breaks(mu: DiscreteMeasure):
    """Sorted support and cumulative weights: the quantile function's steps."""
    if not mu.is_probability:
        raise DomainError("quantile embedding requires probability measures")
    xs = mu.points_array().ravel()
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cum = np.cumsum(mu.weights[order])
    cum[-1] = 1.0  # guard the top breakpoint against roundoff
    return xs, cum


def _quantile_embedding(xs, ys):
    """Every quantile function of the block at the midpoints of the cells between
    all the block's breakpoints, with the cell widths as column weights.

    Each quantile function is constant on each cell, so the weighted squared
    distance of two rows is the exact squared L^2 distance of the two functions.
    """
    bx, by = _rows_pair(lambda ms: [_quantile_breaks(as_point(_LINE_MEASURES, m)) for m in ms],
                        xs, ys)
    # 1.0 is every quantile function's top breakpoint
    hi = np.unique(np.concatenate([[1.0], *(cum for _, cum in bx), *(cum for _, cum in by)]))
    hi = hi[(hi > 0.0) & (hi <= 1.0)]
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)

    def rows(breaks):
        return np.array([x[np.searchsorted(cum, mid)] for x, cum in breaks]).reshape(-1, len(mid))

    return (*_rows_pair(rows, bx, by), hi - lo)


def quantile_sq_w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared L^2([0,1]) distance of the two quantile functions.

    Integrates the piecewise-constant quantile functions over the merged
    breakpoint partition; for 1-D measures this equals the squared
    2-Wasserstein distance.
    """
    return float(_sq_dists(*_quantile_embedding([mu], [nu]))[0, 0])
