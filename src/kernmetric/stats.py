"""MMD, kernel scores, divergences, sample estimators, permutation
two-sample tests, and the energy distance."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import kme_sq_norm
from .errors import DomainError, ShapeError
from .kernels import KernelSpec, _base_gram
from .spaces import (
    DiscreteMeasure,
    MetricSpec,
    measure_difference,
    measure_key,
    metric_dists,
    stack_points,
)

__all__ = [
    "TestResult",
    "mmd",
    "kernel_score",
    "kernel_scores",
    "expected_score",
    "divergence",
    "mmd_u_statistic",
    "permutation_test",
    "energy_distance",
]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    estimator: str = "u_statistic"

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
            "estimator": self.estimator,
        }


def _require_probability(m: DiscreteMeasure, name: str = "measure"):
    if not m.is_probability:
        raise DomainError(f"{name} must be a probability measure")


def mmd(k: KernelSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Maximum mean discrepancy: RKHS norm of the embedded difference.

    The argument order is canonicalized before evaluation so that
    mmd(P, Q) == mmd(Q, P) bit for bit.
    """
    _require_probability(p, "P")
    _require_probability(q, "Q")
    if measure_key(q) < measure_key(p):
        p, q = q, p
    return float(np.sqrt(kme_sq_norm(k, measure_difference(p, q))))


def kernel_score(k: KernelSpec, p: DiscreteMeasure, x) -> float:
    """Kernel score of forecast p at outcome x (nonnegative convention).

    S(p, x) = -sum_i w_i k(z_i, x) + 0.5 sum_ij w_i w_j k(z_i, z_j)
              + 0.5 k(x, x).
    The half-diagonal term makes the score equal to half the squared MMD
    between p and the point mass at x, hence nonnegative.
    """
    return float(kernel_scores(k, p, [x])[0])


def kernel_scores(k: KernelSpec, p: DiscreteMeasure, xs: Sequence) -> np.ndarray:
    """Kernel scores ``kernel_score(k, p, x)`` of one forecast at every outcome in xs.

    The forecast's self-term sum_ij w_i w_j k(z_i, z_j) is computed once.
    """
    _require_probability(p, "forecast")
    xs = xs if isinstance(xs, np.ndarray) else list(xs)
    # summed atom by atom, so that each outcome's score has the same bits
    # whatever the other outcomes are
    cross = sum(w * row for w, row in zip(p.weights, k.pairwise(p.support, xs)))
    diag = k.diag_value
    if diag is None:
        diag = np.array([k(x, x) for x in xs])
    val = -cross + 0.5 * kme_sq_norm(k, p) + 0.5 * diag
    if np.any(val < -1e-10):
        raise DomainError(f"kernel score is negative beyond roundoff ({np.min(val)})")
    return np.where(val < 0, 0.0, val)


def expected_score(k: KernelSpec, q: DiscreteMeasure, p: DiscreteMeasure) -> float:
    """Expected kernel score of forecast q under outcome distribution p."""
    _require_probability(q, "forecast")
    _require_probability(p, "outcome distribution")
    return float(p.weights @ kernel_scores(k, q, p.support))


def divergence(k: KernelSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Score divergence d(P, Q) = S(Q, P) - S(P, P); equals half the squared MMD."""
    val = expected_score(k, q, p) - expected_score(k, p, p)
    if val < 0:
        if val < -1e-10:
            raise DomainError(f"divergence is negative beyond roundoff ({val})")
        val = 0.0
    return val


def _u_statistic_from_gram(g: np.ndarray, n: int, m: int) -> float:
    gxx = g[:n, :n]
    gyy = g[n:, n:]
    gxy = g[:n, n:]
    sxx = (gxx.sum() - np.trace(gxx)) / (n * (n - 1))
    syy = (gyy.sum() - np.trace(gyy)) / (m * (m - 1))
    sxy = gxy.sum() * 2.0 / (n * m)
    return float(sxx + syy - sxy)


def mmd_u_statistic(k: KernelSpec, xs: Sequence, ys: Sequence) -> float:
    """Unbiased estimator of the squared MMD between two samples."""
    xs, ys = list(xs), list(ys)
    n, m = len(xs), len(ys)
    if n < 2 or m < 2:
        raise DomainError("both samples need at least 2 points")
    g = _base_gram(k, xs + ys)
    return _u_statistic_from_gram(g, n, m)


#: permutation replicates evaluated together, as the rows of one label matrix
PERM_CHUNK = 128

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hashmix(values: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array; returns it and the next hash constant."""
    values = values ^ np.uint32(const)
    const = const * mult & _MASK32
    values = values * np.uint32(const)
    return values ^ values >> np.uint32(16), const


def _child_seed_words(parent: np.random.SeedSequence, spawn_words: np.ndarray) -> list:
    """``generate_state(4, uint64)`` of the children of a fresh parent whose spawn keys
    are the one-word tuples (w,) for w in spawn_words, as four uint64 arrays.

    A child's entropy is the parent's, padded with zeros to the 4-word pool, followed
    by its spawn word, so its mixer equals ``parent.pool`` until the spawn word is
    mixed into each pool word.  Before that, 4 * max(entropy words, 4) hashmix calls
    have advanced the hash constant.
    """
    n_entropy = max(1, -(-parent.entropy.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 * max(n_entropy, 4), 2**32) & _MASK32
    mixer = []
    for word in parent.pool.tolist():
        hashed, const = _hashmix(spawn_words, const, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        mixer.append(mixed ^ mixed >> np.uint32(16))
    const = _INIT_B
    state = []
    for j in range(8):
        hashed, const = _hashmix(mixer[j % 4], const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return [state[j] | state[j + 1] << np.uint64(32) for j in range(0, 8, 2)]


def _permutations(seed: int, n_perm: int, size: int):
    """Yield the permutations of range(size), PERM_CHUNK rows at a time: row i is
    ``default_rng(SeedSequence(seed).spawn(n_perm)[i]).permutation(size)``."""
    parent = np.random.SeedSequence(seed)
    gen = np.random.default_rng()
    for lo in range(0, n_perm, PERM_CHUNK):
        spawn_words = np.arange(lo, min(lo + PERM_CHUNK, n_perm), dtype=np.uint32)
        words = _child_seed_words(parent, spawn_words)
        # permutation(size) shuffles arange(size) in place; so does each row here
        perms = np.empty((len(spawn_words), size), dtype=np.intp)
        perms[:] = np.arange(size)
        for row, s_hi, s_lo, i_hi, i_lo in zip(perms, *(w.tolist() for w in words)):
            # PCG64's seeding: state 0, one step, add the seed, one more step
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            gen.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            gen.shuffle(row)
        yield perms


def _permuted_u_statistics(g: np.ndarray, n: int, perms: np.ndarray) -> np.ndarray:
    """U-statistics of the Gram g with the first n entries of each row of perms as X.

    With s the 0/1 label vector of X, the within-X, within-Y and cross sums
    are s'Gs - s'diag(G), (1'G1 - 2 s'G1 + s'Gs) - (tr G - s'diag(G)) and
    s'G1 - s'Gs, so one product of G with the label matrix gives them all.
    """
    size = g.shape[0]
    m = size - n
    labels = np.zeros((len(perms), size))
    np.put_along_axis(labels, perms[:, :n], 1.0, axis=1)
    lg = labels @ g  # rows s'G (G is symmetric)
    sgs = np.einsum("ri,ri->r", lg, labels)
    sg1 = lg.sum(axis=1)
    sd = labels @ np.diag(g)
    sxx = (sgs - sd) / (n * (n - 1))
    syy = (g.sum() - 2.0 * sg1 + sgs - (np.trace(g) - sd)) / (m * (m - 1))
    sxy = (sg1 - sgs) * 2.0 / (n * m)
    return sxx + syy - sxy


def permutation_test(
    k: KernelSpec, xs: Sequence, ys: Sequence, n_perm: int = 999, seed: int = 0
) -> TestResult:
    """Two-sample permutation test with the MMD U-statistic.

    The p-value uses the (1 + count) / (B + 1) convention, which is exactly
    valid under exchangeability.  Replicate i draws its permutation with
    ``default_rng(SeedSequence(seed).spawn(n_perm)[i]).permutation(n + m)``,
    so results do not depend on evaluation order; the child streams' PCG64
    states are derived PERM_CHUNK at a time in one array pass.  seed must be
    a nonnegative integer.

    Replicates are evaluated PERM_CHUNK at a time from label vectors.  A
    replicate whose statistic lies within the worst-case summation error of
    the observed one is recomputed from its permuted Gram, the way the
    observed statistic is, so that near-ties are decided by the same
    arithmetic on both sides.
    """
    xs, ys = list(xs), list(ys)
    n, m = len(xs), len(ys)
    if n < 2 or m < 2:
        raise DomainError("both samples need at least 2 points")
    if n_perm < 1:
        raise DomainError("n_perm must be positive")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    g = _base_gram(k, xs + ys)
    observed = _u_statistic_from_gram(g, n, m)
    size = n + m
    # a sum of K <= size^2 terms of size <= max|g| is off by at most
    # K * eps * K * max|g| in any order of summation, and each sum behind a
    # statistic is divided by at least min(n(n-1), m(m-1), nm/2); the factor
    # 16 covers the few sums and roundings of either way of computing it
    tie_band = (16 * np.finfo(float).eps * size**4 * np.max(np.abs(g))
                / min(n * (n - 1), m * (m - 1), n * m / 2))

    count = 0
    for perms in _permutations(seed, n_perm, size):
        stats = _permuted_u_statistics(g, n, perms)
        near = np.abs(stats - observed) <= tie_band
        count += int(np.count_nonzero(stats[~near] >= observed))
        for perm in perms[near]:
            count += _u_statistic_from_gram(g[np.ix_(perm, perm)], n, m) >= observed
    p_value = (1.0 + count) / (n_perm + 1.0)
    return TestResult(observed, p_value, n_perm, seed)


def energy_distance(metric: MetricSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Energy distance 2 E rho(X, Y) - E rho(X, X') - E rho(Y, Y')."""
    _require_probability(p, "P")
    _require_probability(q, "Q")
    space = metric.space()
    if p.space != space or q.space != space:
        raise ShapeError("measures do not live on the metric's space")

    def form(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
        dists = metric_dists(metric, stack_points(space, a.support), stack_points(space, b.support))
        return float(a.weights @ (dists @ b.weights))

    return 2.0 * form(p, q) - form(p, p) - form(q, q)
