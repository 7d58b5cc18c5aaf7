"""Radial profile functions: Laplace transforms of finite measures on [0, inf).

A profile ``phi`` is completely monotone with ``phi(t) = int exp(-x t) dnu(x)``
for a finite Borel mixing measure ``nu``.  The strictly positive definite
subclass consists of those profiles whose mixing measure is nonzero with
support different from {0}.  Every profile evaluates a scalar ``t`` to a
float and an array ``t`` elementwise to an array of the same shape.  Four
evaluable families are shipped:

- ``DiscreteLaplace``: finite atomic mixing measure.
- ``Gaussian``: single atom at ``alpha``, i.e. ``exp(-alpha * t)``.
- ``ExpSqrt``: ``exp(-c * sqrt(t))`` (completely monotone, non-atomic nu).
- ``InverseRational``: ``(1 + t / scale) ** -beta`` (Gamma mixing measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "PhiProfile",
    "DiscreteLaplace",
    "Gaussian",
    "ExpSqrt",
    "InverseRational",
    "is_strictly_pd_class",
    "complete_monotonicity_check",
]


@dataclass(frozen=True)
class DiscreteLaplace:
    """phi(t) = sum_i w_i * exp(-x_i * t) for atoms (x_i, w_i)."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        if not atoms:
            raise DomainError("DiscreteLaplace needs at least one atom")
        for rate, weight in atoms:
            if not 0 <= rate < np.inf:
                raise DomainError(f"atom rate must be nonnegative and finite, got {rate}")
            _check_positive("atom weight", weight)
        object.__setattr__(self, "atoms", atoms)

    def __call__(self, t):
        t, scalar = _check_t(t)
        # as in _decay; an atom at rate 0 is the constant w, at t = inf too, where
        # 0 * inf would be NaN; a sum of weights past the float range is inf, which
        # the kernel's finiteness check refuses
        with np.errstate(over="ignore"):
            return _result(sum(w * np.exp(-x * t) if x else np.full(t.shape, w)
                               for x, w in self.atoms), scalar)

    @property
    def strictly_pd(self) -> bool:
        return any(rate > 0 for rate, _ in self.atoms)


@dataclass(frozen=True)
class Gaussian:
    """phi(t) = exp(-alpha * t); the squared-exponential radial profile."""

    alpha: float = 0.5

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    strictly_pd = True

    def __call__(self, t):
        t, scalar = _check_t(t)
        return _result(_decay(self.alpha, t), scalar)


@dataclass(frozen=True)
class ExpSqrt:
    """phi(t) = exp(-c * sqrt(t)); completely monotone, non-atomic mixing."""

    c: float = 1.0

    def __post_init__(self):
        _check_positive("c", self.c)

    strictly_pd = True

    def __call__(self, t):
        t, scalar = _check_t(t)
        return _result(_decay(self.c, np.sqrt(t)), scalar)


@dataclass(frozen=True)
class InverseRational:
    """phi(t) = (1 + t / scale) ** -beta; Gamma mixing measure."""

    beta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("beta", self.beta)
        _check_positive("scale", self.scale)

    strictly_pd = True

    def __call__(self, t):
        t, scalar = _check_t(t)
        # phi = exp(-beta * log(1 + t / scale)); t / scale is formed only where it is
        # at most 1, and log t - log scale + log1p(scale / t) stands for the log
        # elsewhere, so that no quotient overflows however small the scale
        near = t <= self.scale
        far = t[~near]
        log_base = np.empty_like(t)
        log_base[near] = np.log1p(t[near] / self.scale)
        log_base[~near] = np.log(far) - np.log(self.scale) + np.log1p(self.scale / far)
        return _result(_decay(self.beta, log_base), scalar)


PhiProfile = Union[DiscreteLaplace, Gaussian, ExpSqrt, InverseRational]


def _check_positive(name: str, value: float):
    """A profile parameter must be a positive finite number (NaN is neither)."""
    if not 0 < value < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _check_t(t):
    """(t as an array of at least one dimension, whether t was a scalar).

    Every entry must be >= 0 (inf is, NaN is not).  A scalar is evaluated as a
    one-element array, so that it takes the same numpy loops as the entries of an
    array argument and gives the same bits.
    """
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0).all():
        raise DomainError(f"profile argument must be nonnegative, got {np.min(arr[~(arr >= 0)])}")
    return np.atleast_1d(arr), arr.ndim == 0


def _decay(rate: float, values: np.ndarray) -> np.ndarray:
    """exp(-rate * values) for a rate and values that are nonnegative.

    numpy's overflow warning is off: a product past the float range is inf, and
    exp(-inf) = 0 is the exact limit of the profile.
    """
    with np.errstate(over="ignore"):
        return np.exp(-rate * values)


def _result(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def is_strictly_pd_class(profile: PhiProfile) -> bool:
    """True iff the mixing measure is nonzero with support other than {0}.

    These are exactly the profiles inducing strictly positive definite
    radial kernels; a purely constant profile (single atom at rate 0)
    is excluded.
    """
    return bool(profile.strictly_pd)


def complete_monotonicity_check(
    profile: Union[PhiProfile, Callable[[float], float]],
    t_grid: Sequence[float],
    max_order: int = 4,
) -> bool:
    """Numerical Bernstein-style sanity check of complete monotonicity.

    Verifies that forward finite differences of the profile alternate in
    sign, ``(-1)^n * diff^n phi >= -tol`` for n = 0..max_order at every
    feasible grid point, with ``tol = 1e-10 * phi(0)``.  This is a
    heuristic desk check, not a proof of membership.
    """
    grid = np.asarray(list(t_grid), dtype=float)
    if grid.size == 0:
        raise DomainError("t_grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("t_grid must be strictly increasing")
    if max_order > 6:
        raise DomainError("max_order must be at most 6")

    values = np.array([profile(t) for t in grid])
    tol = 1e-10 * abs(float(profile(0.0)))
    diffs = values
    for order in range(max_order + 1):
        if not np.all(((-1.0) ** order) * diffs >= -tol):
            return False
        diffs = np.diff(diffs)
    return True
