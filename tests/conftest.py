import numpy as np
import pytest

from kernmetric import DiscreteMeasure, Euclidean, trapezoid_grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_prob_measure(rng, dim=2, atoms=3, scale=1.0):
    pts = tuple(scale * rng.normal(size=dim) for _ in range(atoms))
    w = rng.uniform(0.1, 1.0, size=atoms)
    return DiscreteMeasure(Euclidean(dim), pts, w / w.sum())


def random_signed_measure(rng, dim=2, atoms=3, scale=1.0):
    pts = tuple(scale * rng.normal(size=dim) for _ in range(atoms))
    w = rng.normal(size=atoms)
    while not np.any(w):
        w = rng.normal(size=atoms)
    return DiscreteMeasure(Euclidean(dim), pts, w)


def random_function(rng, grid):
    return rng.normal(size=len(grid))
