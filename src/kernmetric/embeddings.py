"""Kernel mean embedding arithmetic for discrete measures: Gram matrices,
RKHS semi-norms and inner products, and PSD diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OVERFLOW, DomainError, ShapeError
from .kernels import KernelSpec, _base_gram
from .spaces import DiscreteMeasure

__all__ = ["GramMatrix", "gram", "kme_sq_norm", "kme_inner", "min_eigenvalue"]


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray

    def __post_init__(self):
        # copied, so that freezing it leaves the caller's array writeable
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeError("entries must be a square matrix")
        if not np.all(np.isfinite(e)):
            raise DomainError("Gram entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def gram(k: KernelSpec, points: Sequence) -> GramMatrix:
    """Exactly symmetric Gram matrix of the kernel on the given points."""
    return GramMatrix(_base_gram(k, points))


def kme_sq_norm(k: KernelSpec, mu: DiscreteMeasure) -> float:
    """Squared RKHS semi-norm ``sum_ij w_i w_j k(z_i, z_j)`` of the embedded measure, its
    roundoff settled by ``settle_form`` with s the largest k(z, z) over the support
    (phi(0) for a profile kernel), which bounds every |k(z_i, z_j)|: DomainError below
    -1e-10 (sum |w|)^2 s, exactly 0 up to 2 (n + 1) u (sum |w|)^2 s over n atoms
    (u = 2**-53), so that mu - mu has norm 0, and the computed value above that."""
    if mu.space != k.space:
        raise ShapeError("measure does not live on the kernel's space")
    g = _base_gram(k, mu.points)
    w = mu.weights
    return float(settle_form(w @ (g @ w), np.sum(np.abs(w)), np.max(np.diag(g)), len(w)))


def settle_form(val, mass: float, scale, n: int) -> np.ndarray:
    """A computed quadratic form w'Kw >= 0 of a signed measure (or an array of them, and
    of their scales), roundoff settled: DomainError where val is not finite or is below
    -1e-10 mass^2 scale; exactly 0 up to 2 (n + 1) u mass^2 scale; val above that.

    mass is sum |w_i| over the n atoms summed, scale the largest |K_ij| and u = 2**-53.
    In any order of summation w'(Kw) is off by at most ((1 + g)^2 - 1) mass^2 scale,
    g = n u / (1 - n u), which is below the zero band's bound while n u <= 1e-9, far
    past any Gram matrix that fits in memory.
    """
    if not np.all(np.isfinite(val)):
        raise DomainError(OVERFLOW)
    size = mass * mass * scale
    if np.any(val < -1e-10 * size):
        raise DomainError(f"quadratic form is negative beyond roundoff ({np.min(val)})")
    return np.where(val <= (n + 1) * np.finfo(float).eps * size, 0.0, val)


def kme_inner(k: KernelSpec, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """RKHS inner product of two embedded measures (bilinear double sum)."""
    if mu.space != k.space or nu.space != k.space:
        raise ShapeError("measure does not live on the kernel's space")
    return float(mu.weights @ (k.pairwise(mu.points, nu.points) @ nu.weights))


def min_eigenvalue(g: GramMatrix) -> float:
    """Smallest eigenvalue of the symmetric Gram matrix."""
    return float(np.linalg.eigvalsh(g.entries)[0])
