"""MMD, kernel scores, divergences, sample estimators, permutation
two-sample tests, and the energy distance."""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .embeddings import kme_sq_norm, settle_form
from .errors import DomainError, ShapeError
from .kernels import KernelSpec, _base_gram
from .spaces import (
    DiscreteMeasure,
    MetricSpec,
    join_points,
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
        return asdict(self)


def _require_probability(m: DiscreteMeasure, name: str = "measure"):
    if not m.is_probability:
        raise DomainError(f"{name} must be a probability measure")


def _ordered_difference(p: DiscreteMeasure, q: DiscreteMeasure) -> DiscreteMeasure:
    """P - Q for probability measures P and Q taken in ``measure_key`` order, so that a
    symmetric statistic of it has the same bits whichever argument comes first."""
    _require_probability(p, "P")
    _require_probability(q, "Q")
    if measure_key(q) < measure_key(p):
        p, q = q, p
    return measure_difference(p, q)


def mmd(k: KernelSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Maximum mean discrepancy: RKHS norm of the embedded difference P - Q, in
    ``_ordered_difference``'s order so that mmd(P, Q) == mmd(Q, P) bit for bit."""
    return float(np.sqrt(kme_sq_norm(k, _ordered_difference(p, q))))


def kernel_score(k: KernelSpec, p: DiscreteMeasure, x) -> float:
    """Kernel score of forecast p at outcome x (nonnegative convention).

    S(p, x) = -sum_i w_i k(z_i, x) + 0.5 sum_ij w_i w_j k(z_i, z_j)
              + 0.5 k(x, x).
    The half-diagonal term makes the score equal to half the squared MMD
    between p and the point mass at x, hence nonnegative; its roundoff is
    settled as ``kernel_scores`` says.
    """
    return float(kernel_scores(k, p, [x])[0])


def kernel_scores(k: KernelSpec, p: DiscreteMeasure, xs: Sequence) -> np.ndarray:
    """Kernel scores ``kernel_score(k, p, x)`` of one forecast at every outcome in xs.

    The forecast's self-term sum_ij w_i w_j k(z_i, z_j) is computed once.  A score is
    half the form of p - delta_x, of mass 2 over n + 1 atoms, settled (``settle_form``)
    with s the largest k(z, z) and k(x, x): DomainError below -4e-10 s, exactly 0 up to
    8 (n + 2) u s (u = 2**-53), and the computed value above that.
    """
    _require_probability(p, "forecast")
    xs = stack_points(k.space, xs)
    # summed atom by atom, so that each outcome's score has the same bits
    # whatever the other outcomes are
    cross = sum(w * row for w, row in zip(p.weights, k.pairwise(p.points, xs)))
    outcomes = k.diag(xs)
    form = kme_sq_norm(k, p) - 2.0 * cross + outcomes
    scale = np.maximum(np.max(k.diag(p.points)), outcomes)
    return 0.5 * settle_form(form, 2.0, scale, len(p.weights) + 1)


def expected_score(k: KernelSpec, q: DiscreteMeasure, p: DiscreteMeasure) -> float:
    """Expected kernel score of forecast q under outcome distribution p."""
    _require_probability(p, "outcome distribution")
    return float(p.weights @ kernel_scores(k, q, p.points))


def divergence(k: KernelSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Score divergence d(P, Q) = S(Q, P) - S(P, P), computed as what it equals, half
    the squared MMD: 0.5 * kme_sq_norm(k, P - Q) in ``mmd``'s order, bitwise symmetric,
    exactly 0 for equal measures and settled as in ``kme_sq_norm``."""
    return 0.5 * kme_sq_norm(k, _ordered_difference(p, q))


def _u_statistic_from_gram(g: np.ndarray, n: int, m: int) -> float:
    gxx = g[:n, :n]
    gyy = g[n:, n:]
    gxy = g[:n, n:]
    sxx = (gxx.sum() - np.trace(gxx)) / (n * (n - 1))
    syy = (gyy.sum() - np.trace(gyy)) / (m * (m - 1))
    sxy = gxy.sum() * 2.0 / (n * m)
    return float(sxx + syy - sxy)


def _pooled(k: KernelSpec, xs, ys):
    """The sizes of two samples of the kernel's points, each at least 2, and the
    pooled sample, xs then ys, as ``stack_points`` returns it."""
    xs, ys = stack_points(k.space, xs), stack_points(k.space, ys)
    if len(xs) < 2 or len(ys) < 2:
        raise DomainError("both samples need at least 2 points")
    return len(xs), len(ys), join_points(xs, ys)


def mmd_u_statistic(k: KernelSpec, xs: Sequence, ys: Sequence) -> float:
    """Unbiased estimator of the squared MMD between two samples."""
    n, m, pooled = _pooled(k, xs, ys)
    return _u_statistic_from_gram(_base_gram(k, pooled), n, m)


#: permutation replicates evaluated together, as the rows of one label matrix
PERM_CHUNK = 128

# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
_UINT64 = np.dtype(np.uint64)


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """The hash constants before and after each of count hashmix calls from const."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


#: the constants of generate_state's 8 hashmix calls, one row each
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row j of values (broadcast) with the constants
    consts[j] and consts[j + 1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> np.uint32(16)


def _child_seed_words(parent: np.random.SeedSequence, spawn_words: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` of the children of a fresh parent whose spawn keys
    are the one-word tuples (w,) for w in spawn_words, as the rows of one C-contiguous
    (len(spawn_words), 4) uint64 array.

    A child's entropy is the parent's, padded with zeros to the 4-word pool, followed
    by its spawn word, so its mixer equals ``parent.pool`` until the spawn word is
    mixed into each pool word.  Before that, 4 * max(entropy words, 4) hashmix calls
    have advanced the hash constant.
    """
    n_entropy = max(1, -(-parent.entropy.bit_length() // 32))
    consts = _hash_consts(_INIT_A * pow(_MULT_A, 4 * max(n_entropy, 4), 2**32) & _MASK32,
                          _MULT_A, 4)
    hashed = _hashmix(spawn_words, consts)  # (4, len(spawn_words)): one row per pool word
    mixer = parent.pool[:, None] * np.uint32(_MIX_MULT_L) - np.uint32(_MIX_MULT_R) * hashed
    mixer ^= mixer >> np.uint32(16)
    state = _hashmix(mixer[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    # generate_state's layout: the uint32 words as little-endian pairs
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """Child ``generate_state(4, uint64)`` words, the rows of a (rows, 4) array, handed to
    one PCG64 after another so that each seeds itself from the next row: a
    ``numpy.random.bit_generator.ISeedSequence``, registered as one when first built,
    so that importing kernmetric does not load numpy.random (about 17 ms on numpy >= 2,
    which loads it on first use; numpy 1.x loads it with numpy itself).

    PCG64 reads the returned buffer without a check, so only a C-contiguous (rows, 4)
    uint64 array is taken, whose rows are C-contiguous (4,) uint64 arrays, and a request
    for anything but 4 uint64 words, or for a row past the last, raises ValueError.
    """

    def __init__(self, words: np.ndarray):
        if (words.dtype != _UINT64 or words.ndim != 2 or words.shape[1] != 4
                or not words.flags.c_contiguous):
            raise ValueError("seed words must be a C-contiguous (rows, 4) uint64 array")
        np.random.bit_generator.ISeedSequence.register(_SeedWords)
        self._rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != _UINT64:
            raise ValueError(f"only 4 uint64 words can be generated, not {n_words} {dtype}")
        row = next(self._rows, None)
        if row is None:
            raise ValueError("every row of seed words has been used")
        return row


def _permutations(seed: int, n_perm: int, size: int):
    """Yield the permutations of range(size), PERM_CHUNK rows at a time: row i is
    ``default_rng(SeedSequence(seed).spawn(n_perm)[i]).permutation(size)``."""
    parent = np.random.SeedSequence(seed)
    for lo in range(0, n_perm, PERM_CHUNK):
        spawn_words = np.arange(lo, min(lo + PERM_CHUNK, n_perm), dtype=np.uint32)
        # permutation(size) shuffles arange(size) in place; so does each row here
        perms = np.empty((len(spawn_words), size), dtype=np.intp)
        perms[:] = np.arange(size)
        seed_words = _SeedWords(_child_seed_words(parent, spawn_words))
        for row in perms:
            np.random.Generator(np.random.PCG64(seed_words)).shuffle(row)
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
    so results do not depend on evaluation order.  The children's SeedSequence
    hashing is vectorised, PERM_CHUNK at a time, and PCG64 seeds itself from
    the words it gives.  n_perm must be an integer in [1, 2**32] (child i's
    spawn key is one 32-bit word only below that) and seed a nonnegative one.

    Replicates are evaluated PERM_CHUNK at a time from label vectors.  A
    replicate whose statistic lies within the worst-case summation error of
    the observed one is recomputed from its permuted Gram, the way the
    observed statistic is, so that near-ties are decided by the same
    arithmetic on both sides.
    """
    n, m, pooled = _pooled(k, xs, ys)
    try:
        n_perm, seed = operator.index(n_perm), operator.index(seed)
    except TypeError:
        raise DomainError(f"n_perm and seed must be integers, got {n_perm!r}, {seed!r}") from None
    if n_perm < 1:
        raise DomainError("n_perm must be positive")
    if n_perm > 2**32:
        raise DomainError(f"n_perm must be at most 2**32, got {n_perm}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    g = _base_gram(k, pooled)
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
    """Energy distance 2 E rho(X, Y) - E rho(X, X') - E rho(Y, Y') = -w'Dw, for w the
    weights of P - Q in ``mmd``'s order and D the distances of its n atoms; bitwise
    symmetric, settled (``settle_form``) with s the largest distance: DomainError below
    -4e-10 s or on overflow, exactly 0 up to 8 (n + 1) u s (u = 2**-53), else computed."""
    diff = _ordered_difference(p, q)
    if diff.space != metric.space():
        raise ShapeError("measures do not live on the metric's space")
    dists = metric_dists(metric, diff.points, diff.points)
    w = diff.weights
    with np.errstate(over="ignore", invalid="ignore"):
        form = -(w @ (dists @ w))
    return float(settle_form(form, 2.0, np.max(dists), len(w)))
