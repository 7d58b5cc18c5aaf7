"""Kernel mean embedding arithmetic for discrete measures: Gram matrices,
RKHS semi-norms and inner products, and PSD diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .kernels import KernelSpec, _base_gram
from .spaces import DiscreteMeasure

__all__ = ["GramMatrix", "gram", "kme_sq_norm", "kme_inner", "min_eigenvalue"]


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
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
    """Squared RKHS semi-norm of the embedded measure, clamped at zero.

    The analytic value ``sum_ij w_i w_j k(z_i, z_j)`` is nonnegative for any
    positive definite kernel; roundoff can make the double sum slightly
    negative, so values within ``-1e-10 * (sum |w|)^2 * scale`` are clamped
    to 0, where ``scale`` is phi(0) for profile-based kernels.
    """
    if mu.space != k.space:
        raise ShapeError("measure does not live on the kernel's space")
    g = _base_gram(k, mu.support)
    w = mu.weights
    val = float(w @ (g @ w))
    scale = k.diag_value
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(g))))
    tol = 1e-10 * float(np.sum(np.abs(w))) ** 2 * scale
    if val < -tol:
        raise DomainError(
            f"quadratic form is negative beyond roundoff ({val}); kernel is not PSD"
        )
    # symmetric clamp: |val| <= tol collapses to exactly 0, so the norm of
    # mu - mu is 0 and square roots downstream are safe
    if abs(val) <= tol:
        return 0.0
    return val


def kme_inner(k: KernelSpec, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """RKHS inner product of two embedded measures (bilinear double sum)."""
    if mu.space != k.space or nu.space != k.space:
        raise ShapeError("measure does not live on the kernel's space")
    return float(mu.weights @ (k.pairwise(mu.support, nu.support) @ nu.weights))


def min_eigenvalue(g: GramMatrix) -> float:
    """Smallest eigenvalue of the symmetric Gram matrix."""
    return float(np.linalg.eigvalsh(g.entries)[0])
