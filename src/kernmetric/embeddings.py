"""Kernel mean embedding arithmetic for discrete measures: Gram matrices,
RKHS semi-norms and inner products, and PSD diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OVERFLOW, DomainError, ShapeError
from .kernels import KernelSpec, _base_gram, self_forms, settle_form
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
    w = mu.weights
    return float(settle_form(self_forms(k, [mu])[0], np.sum(np.abs(w)),
                             np.max(k.diag(mu.points)), len(w)))


def kme_inner(k: KernelSpec, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """RKHS inner product of two embedded measures (bilinear double sum); DomainError
    where the sum is not finite."""
    if mu.space != k.space or nu.space != k.space:
        raise ShapeError("measure does not live on the kernel's space")
    with np.errstate(over="ignore", invalid="ignore"):
        val = mu.weights @ (k.pairwise(mu.points, nu.points) @ nu.weights)
    if not np.isfinite(val):
        raise DomainError(OVERFLOW)
    return float(val)


def min_eigenvalue(g: GramMatrix) -> float:
    """Smallest eigenvalue of the symmetric Gram matrix."""
    return float(np.linalg.eigvalsh(g.entries)[0])
