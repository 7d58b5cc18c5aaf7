"""Kernel constructions: radial kernels on Hilbert spaces, operator-based
kernels on L^p, metric kernels on spaces of strong negative type, distance
kernels, mixtures, and kernels on spaces of discrete measures.

Every kernel is an immutable evaluation rule ``k(x, y)`` over a point
space; evaluation is pure and symmetric by construction.  ``k.pairwise(xs,
ys)`` evaluates the whole cross block of two point lists with array
operations, and a scalar ``k(x, y)`` is its 1 x 1 block.  ``pairwise``
checks and stacks each list once and rejects a block that is not finite; the
rules compute only ``_block`` from the stacked points (``stack_points``).
``k.diag(xs)`` evaluates k(x, x) at every point the same way, through the
rule's ``_diag``.

Seven rules are a completely monotone profile of a negative-type argument,
k(x, y) = phi(arg(x, y)), and one class evaluates them all from the
argument block ``arg(xs, ys)``:

- ||E(x) - E(y)||^2 for a row embedding E into a Hilbert space.  E is the
  identity (``make_radial_hilbert``), the map T (``make_tee_radial``),
  f -> f R with R R' the double quadrature form of the base kernel
  (``make_lp_operator``), the (Re, Im) characteristic function at the
  frequency atoms, scaled by the root frequency weights
  (``make_fourier_measure``), or the quantile function at the midpoints of
  the cells between all breakpoints of a block (``make_quantile_monge``).
  On L^2 the grid weights, and for quantiles the cell widths, weight the
  squared column differences.
- rho(x, y), unsquared, for a metric of strong negative type
  (``make_metric_phi``).
- ||Phi(mu) - Phi(nu)||^2 for the mean embedding Phi of a base kernel
  (``make_kme_measure``).

With finitely many frequency atoms the Fourier rule is positive definite but
characteristic only in the limit, as a quadrature grid is for L^p.  For
N(0, I) atoms the limit is the mean-embedding rule over Gaussian(alpha=0.5)
(Bochner), which the spec ``{"freqs": "gaussian"}`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import spaces
from .errors import (
    OVERFLOW,
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
    "quantile_sq_w2",
]


class KernelSpec:
    """Base class: a symmetric positive definite evaluation rule."""

    space: PointSpace

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def pairwise(self, xs, ys) -> np.ndarray:
        """Cross block ``[[k(x, y) for y in ys] for x in xs]``; each list is checked and
        stacked once (once in all when ys is xs, as in every Gram matrix), and an
        entry that is not finite raises DomainError, so that no statistic is NaN."""
        return _finite(self._block(*_rows_pair(partial(stack_points, self.space), xs, ys)))

    def diag(self, xs) -> np.ndarray:
        """The diagonal ``[k(x, x) for x in xs]``; xs is checked and stacked once, and an
        entry that is not finite raises DomainError, as in ``pairwise``."""
        return _finite(self._diag(stack_points(self.space, xs)))

    def _block(self, xs, ys) -> np.ndarray:
        """The cross block of two stacked point lists (``stack_points``)."""
        raise NotImplementedError

    def _diag(self, xs) -> np.ndarray:
        """The diagonal of ``_block(xs, xs)``, bit for bit, for a stacked point list."""
        raise NotImplementedError

    def _one(self, x, y) -> float:
        """k(x, y) as the 1 x 1 block of ``pairwise``."""
        return float(self.pairwise([x], [y])[0, 0])


def _finite(values: np.ndarray) -> np.ndarray:
    """values, or DomainError where one is not finite: the one guard on overflow."""
    if not np.all(np.isfinite(values)):
        raise DomainError(OVERFLOW)
    return values


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
        # copied, so that freezing it leaves the caller's array writeable
        a = np.array(self.matrix, dtype=float)
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


def _embedded_sq_dists(rows: Callable, col_weights: Optional[np.ndarray], xs, ys) -> np.ndarray:
    return _sq_dists(*_rows_pair(rows, xs, ys), col_weights)


def _kme_groups(bounds: list, limit: int):
    """(first, last) for runs of consecutive measures, the atoms of measure i being
    bounds[i] to bounds[i + 1]: each run spans at most limit atoms, or is one measure."""
    first = 0
    for last in range(1, len(bounds)):
        if last == len(bounds) - 1 or bounds[last + 1] - bounds[first] > limit:
            yield first, last
            first = last


def _kme_sq_dists(k1: KernelSpec, xs: tuple, ys: tuple) -> np.ndarray:
    """||Phi(mu) - Phi(nu)||^2 over xs and ys from <Phi(mu), Phi(nu)> = w_mu' K1 w_nu;
    exactly 0 where both sides are the same measure (equal ``measure_key``), and
    clamped at 0 against roundoff.

    K1 is evaluated for runs of consecutive measures of xs against all atoms of
    ys.  A run spans at most max(one measure's atoms, DIFF_BLOCK // atoms of ys)
    rows, so that a block of K1 holds at most DIFF_BLOCK entries or the rows of a
    single measure.  When ys is xs, each ||Phi(mu)||^2 = w_mu' K1 w_mu is read
    off mu's diagonal block in its run; otherwise each side's own blocks give it.
    """
    if not xs or not ys:
        return np.zeros((len(xs), len(ys)))
    ax, ay = _rows_pair(lambda ms: np.concatenate([m.points for m in ms]), xs, ys)
    wy = np.concatenate([nu.weights for nu in ys])
    starts = np.cumsum([0] + [len(nu.weights) for nu in ys[:-1]])
    bx = np.cumsum([0] + [len(mu.weights) for mu in xs]).tolist()
    inner, sx = np.empty((len(xs), len(ys))), np.empty(len(xs))
    for first, last in _kme_groups(bx, spaces.DIFF_BLOCK // len(ay)):
        block = k1._block(ax[bx[first]:bx[last]], ay)
        for i in range(first, last):
            w, rows = xs[i].weights, block[bx[i] - bx[first]:bx[i + 1] - bx[first]]
            inner[i] = np.add.reduceat(w @ rows * wy, starts)
            if ys is xs:
                sx[i] = w @ rows[:, bx[i]:bx[i + 1]] @ w
    sy = sx
    if ys is not xs:
        sx, sy = ([m.weights @ k1._block(m.points, m.points) @ m.weights for m in ms]
                  for ms in (xs, ys))
    d2 = np.add.outer(sx, sy) - 2.0 * inner
    ids = {}
    ix = [ids.setdefault(measure_key(m), len(ids)) for m in xs]
    iy = [ids.setdefault(measure_key(m), len(ids)) for m in ys]
    d2[np.equal.outer(ix, iy)] = 0.0
    return np.maximum(d2, 0.0)


@dataclass(frozen=True)
class _ProfileKernel(KernelSpec):
    """k(x, y) = phi(arg(x, y)) for a negative-type argument (see the module docstring)."""

    phi: PhiProfile
    space: PointSpace
    #: ``arg(xs, ys)``: the argument block of two stacked point lists
    arg: Callable[[Sequence, Sequence], np.ndarray]

    def __post_init__(self):
        _require_strict(self.phi)

    @cached_property
    def _phi0(self) -> float:
        """phi(0), every k(x, x): evaluated once per kernel, at its first ``diag``."""
        return self.phi(0.0)

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def _block(self, xs, ys) -> np.ndarray:
        return self.phi(self.arg(xs, ys))

    def _diag(self, xs) -> np.ndarray:
        # arg(x, x) is exactly 0
        return np.full(len(xs), self._phi0)


class _KmeMeasure(_ProfileKernel):
    """k2(mu, nu) = phi(||Phi_{k1}(mu) - Phi_{k1}(nu)||^2)."""

    def __call__(self, mu, nu) -> float:
        # canonical order, so the value is bitwise symmetric in (mu, nu)
        return self._one(*sorted(stack_points(self.space, (mu, nu)), key=measure_key))


@dataclass(frozen=True, eq=False)
class _DistanceKernel(KernelSpec):
    """k(x, y) = rho(x, z0) + rho(y, z0) - rho(x, y), with z0 stacked as a (1, d) array;
    compared and hashed by identity, as z0 is an array."""

    metric: MetricSpec
    z0: np.ndarray
    space: PointSpace

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def _block(self, xs, ys) -> np.ndarray:
        rho = partial(metric_dists, self.metric)
        # inf - inf where distances overflow: NaN, which ``_finite`` refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return rho(xs, self.z0) + rho(self.z0, ys) - rho(xs, ys)

    def _diag(self, xs) -> np.ndarray:
        # rho(x, x) is exactly 0 and rho(x, z0) + rho(z0, x) exactly 2 rho(x, z0)
        return 2.0 * metric_dists(self.metric, xs, self.z0)[:, 0]


@dataclass(frozen=True)
class _Mixture(KernelSpec):
    components: tuple  # of (KernelSpec, weight)
    space: PointSpace

    def __call__(self, x, y) -> float:
        return self._one(x, y)

    def _block(self, xs, ys) -> np.ndarray:
        return sum(w * k._block(xs, ys) for k, w in self.components)

    def _diag(self, xs) -> np.ndarray:
        return sum(w * k._diag(xs) for k, w in self.components)


# ---------------------------------------------------------------------------
# constructors (validation lives here)


def _radial(phi: PhiProfile, space: PointSpace, rows: Callable, col_weights=None) -> KernelSpec:
    """phi(||E(x) - E(y)||^2) for the row map E = ``rows`` of the stacked points, the
    squared column differences weighted by col_weights (None: all ones)."""
    return _ProfileKernel(phi, space, partial(_embedded_sq_dists, rows, col_weights))


def make_radial_hilbert(phi: PhiProfile, space: PointSpace) -> KernelSpec:
    """Radial kernel k(x, y) = phi(||x - y||^2) on a Hilbert point space."""
    return _map_radial(phi, Identity(), space)


def make_tee_radial(phi: PhiProfile, tee: MapSpec, space: PointSpace) -> KernelSpec:
    """k(x, y) = phi(||T(x) - T(y)||^2) for an injective map T."""
    return _map_radial(phi, tee, space)


def _map_radial(phi: PhiProfile, tee: MapSpec, space: PointSpace) -> KernelSpec:
    """E = T on the stacked points; on L^2 the grid weights weight the columns."""
    if isinstance(space, FuncLp) and space.p != 2.0:
        raise DomainError(
            f"radial kernels need a Hilbert norm; L^p with p = {space.p} is not one"
        )
    if isinstance(space, MeasurePoints):
        raise ShapeError("radial kernels on measure points are built by make_kme_measure")
    w = space.grid.weights if isinstance(space, FuncLp) else None
    return _radial(phi, space, tee.apply, w)


def make_lp_operator(
    phi: PhiProfile, k1: KernelSpec, grid: QuadratureGrid, p: float
) -> KernelSpec:
    """Operator kernel on L^p(lambda) built from a base kernel on the grid line.

    The kernel is characteristic when k1 is strictly PD on the (distinct) nodes.
    On R^1 every base kernel the library builds is strictly PD wherever its
    diagonal is positive, so DegeneracyError is raised exactly where k1(x, x) = 0
    at a node: a profile rule has k1(x, x) = phi(0) > 0 and a strict profile; a
    distance kernel, 2 |x - z0| on the diagonal, is strictly PD off z0 since R^1
    has strong negative type; a mixture is degenerate only at a node that is
    every component's z0.
    """
    if not (1.0 < p < np.inf):
        raise DomainError(f"cases p in {{1, inf}} are excluded; got p = {p}")
    if not isinstance(k1.space, Euclidean) or k1.space.dim != 1:
        raise ShapeError("the base kernel must live on the 1-D point space of the grid")
    k1_gram = _base_gram(k1, grid.nodes[:, None])
    # its diagonal is k1.diag(nodes), bit for bit
    if not np.all(np.diag(k1_gram) > 0.0):
        raise DegeneracyError("base kernel is degenerate on the grid: k1(x, x) = 0 at a node")
    # the double quadrature form f' M f, M[i, j] = w_i k1(x_i, x_j) w_j, is ||f R||^2,
    # with R R' = M from eigh
    w = grid.weights
    lam, vecs = np.linalg.eigh((w[:, None] * k1_gram) * w[None, :])
    root = vecs * np.sqrt(np.maximum(lam, 0.0))
    root.setflags(write=False)
    # f -> f R, as the bound method, so that the kernel pickles
    return _radial(phi, FuncLp(grid, float(p)), root.__rmatmul__)


def make_metric_phi(phi: PhiProfile, metric: MetricSpec) -> KernelSpec:
    """k(x, y) = phi(rho(x, y)) over a metric of strong negative type."""
    # LpMetric enforces 1 < p <= 2 at construction; EuclideanMetric is whitelisted
    return _ProfileKernel(phi, metric.space(), partial(metric_dists, metric))


def make_distance_kernel(metric: MetricSpec, z0) -> KernelSpec:
    """Distance kernel k(x, y) = rho(x, z0) + rho(y, z0) - rho(x, y)."""
    space = metric.space()
    return _DistanceKernel(metric, stack_points(space, [z0]), space)


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
    if isinstance(k1.space, MeasurePoints):
        raise ShapeError("the base kernel must live on the base point space")
    return _KmeMeasure(phi, MeasurePoints(k1.space), partial(_kme_sq_dists, k1))


def make_fourier_measure(phi: PhiProfile, freqs, freq_weights) -> KernelSpec:
    """Kernel on probability measures over R^d comparing Fourier transforms.

    Frequency atoms discretize the L^2(lambda) norm of the difference of
    characteristic functions: ``freqs`` holds the n atoms as rows and
    ``freq_weights`` their n weights.  The kernel is positive definite, but
    characteristic only in the limit, as a quadrature grid is for L^p: one atom
    omega = 1 gives k(delta_0, delta_{2 pi}) = k(delta_0, delta_0).
    """
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
    return _radial(phi, MeasurePoints(Euclidean(fr.shape[1])),
                   partial(_fourier_features, fr, np.sqrt(fw)))


def _fourier_features(freqs: np.ndarray, scale: np.ndarray, measures: tuple) -> np.ndarray:
    """The (Re, Im) characteristic function of each measure at the frequency atoms, scaled."""
    cf = np.array([m.weights @ np.exp(1j * (m.points @ freqs.T)) for m in measures])
    cf = cf.reshape(-1, len(scale)) * scale
    return np.concatenate([cf.real, cf.imag], axis=1)


def make_quantile_monge(phi: PhiProfile, u_grid: QuadratureGrid) -> KernelSpec:
    """Kernel on 1-D probability measures through the quantile embedding."""
    a, b = u_grid.domain
    if not (a >= 0.0 and b <= 1.0):
        raise DomainError("u_grid must discretize [0, 1]")
    return _ProfileKernel(phi, _LINE_MEASURES, _quantile_sq_dists)


# ---------------------------------------------------------------------------
# helpers


def _base_gram(k: KernelSpec, points) -> np.ndarray:
    """Exactly symmetric Gram matrix of a kernel on a list (or stacked array) of
    points: the upper triangle of the ``pairwise`` block, mirrored."""
    pts = points if isinstance(points, np.ndarray) else list(points)
    g = np.triu(k.pairwise(pts, pts))
    return g + np.triu(g, 1).T


_LINE_MEASURES = MeasurePoints(Euclidean(1))


def _quantile_breaks(mu: DiscreteMeasure):
    """Sorted support and cumulative weights: the quantile function's steps."""
    if not mu.is_probability:
        raise DomainError("quantile embedding requires probability measures")
    xs = mu.points.ravel()
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cum = np.cumsum(mu.weights[order])
    cum[-1] = 1.0  # guard the top breakpoint against roundoff
    return xs, cum


def _quantile_sq_dists(xs: tuple, ys: tuple) -> np.ndarray:
    """Squared L^2 distances of the quantile functions of two lists of line measures:
    the rows are each function at the midpoints of the cells between all the
    block's breakpoints, and the cell widths weight the columns.

    Each quantile function is constant on each cell, so the weighted squared
    distance of two rows is the exact squared L^2 distance of the two functions.
    """
    bx, by = _rows_pair(lambda ms: [_quantile_breaks(m) for m in ms], xs, ys)
    # 1.0 is every quantile function's top breakpoint
    hi = np.unique(np.concatenate([[1.0], *(cum for _, cum in bx), *(cum for _, cum in by)]))
    hi = hi[(hi > 0.0) & (hi <= 1.0)]
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)

    def rows(breaks):
        return np.array([x[np.searchsorted(cum, mid)] for x, cum in breaks]).reshape(-1, len(mid))

    return _sq_dists(*_rows_pair(rows, bx, by), hi - lo)


def quantile_sq_w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared L^2([0,1]) distance of the two quantile functions.

    Integrates the piecewise-constant quantile functions over the merged
    breakpoint partition; for 1-D measures this equals the squared
    2-Wasserstein distance.
    """
    mu, nu = stack_points(_LINE_MEASURES, (mu, nu))
    return float(_quantile_sq_dists([mu], [nu])[0, 0])
