"""Independent numpy references for the outputs the benchmark checks.

Nothing here imports kernmetric.  Every kernel value is computed from its
closed form over whole arrays, so a defect in the program's per-pair or
fast paths shows up as a mismatch.  The permutation-test reference draws
its replicates with the same stream contract as the program (one
``SeedSequence(seed).spawn`` child per replicate), so p-values can be
compared; the U-statistics are evaluated in one batch with label vectors.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9
#: permutation replicates the reference evaluates at once
CHUNK = 32


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b."""
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def gaussian(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    return np.exp(-alpha * sq_dists(a, b))


def u_statistic(g: np.ndarray, n: int) -> float:
    """Unbiased squared-MMD estimate from the joint Gram of n + m points."""
    m = g.shape[0] - n
    gxx, gyy, gxy = g[:n, :n], g[n:, n:], g[:n, n:]
    return float(
        (gxx.sum() - np.trace(gxx)) / (n * (n - 1))
        + (gyy.sum() - np.trace(gyy)) / (m * (m - 1))
        - 2.0 * gxy.sum() / (n * m)
    )


def permutation_count(g: np.ndarray, n: int, n_perm: int, seed: int) -> int:
    """Replicates whose U-statistic reaches the observed one.

    Works through the replicates CHUNK at a time, so that the reference's
    memory stays below the program's and does not set the run's peak RSS.
    """
    size = g.shape[0]
    m = size - n
    observed = u_statistic(g, n)
    diag = np.diag(g)
    seeds = np.random.SeedSequence(seed).spawn(n_perm)
    count = 0
    for lo in range(0, n_perm, CHUNK):
        perms = np.array([np.random.default_rng(s).permutation(size) for s in seeds[lo:lo + CHUNK]])
        a = np.zeros((len(perms), size))
        np.put_along_axis(a, perms[:, :n], 1.0, axis=1)
        b = 1.0 - a
        ga, gb = a @ g, b @ g
        sxx = np.einsum("ri,ri->r", ga, a) - a @ diag
        syy = np.einsum("ri,ri->r", gb, b) - b @ diag
        sxy = np.einsum("ri,ri->r", ga, b)
        stats = sxx / (n * (n - 1)) + syy / (m * (m - 1)) - 2.0 * sxy / (n * m)
        count += int(np.sum(stats >= observed))
    return count


def p_value(count: int, n_perm: int) -> float:
    return (1.0 + count) / (n_perm + 1.0)


def lp_operator_gram(z: np.ndarray, nodes, weights, alpha_k1, alpha) -> np.ndarray:
    """Gram of phi(h' diag(w) K1 diag(w) h) over function rows z, h = f - g."""
    k1 = np.exp(-alpha_k1 * (nodes[:, None] - nodes[None, :]) ** 2)
    form = weights[:, None] * k1 * weights[None, :]
    d = z[:, None, :] - z[None, :, :]
    q = np.einsum("ijk,kl,ijl->ij", d, form, d)
    return np.exp(-alpha * np.maximum(q, 0.0))


def lp_distance_gram(z: np.ndarray, weights, p: float) -> np.ndarray:
    """Distance kernel rho(x, 0) + rho(y, 0) - rho(x, y) under the L^p metric.

    One row at a time, so that the reference does not set the run's peak RSS.
    """
    rho = np.array([(np.abs(row - z) ** p @ weights) ** (1.0 / p) for row in z])
    rho0 = (np.abs(z) ** p @ weights) ** (1.0 / p)
    return rho0[:, None] + rho0[None, :] - rho


def mmd(x, wx, y, wy, alpha) -> float:
    pts = np.vstack([x, y])
    a = np.concatenate([wx, -wy])
    return float(np.sqrt(max(a @ gaussian(pts, pts, alpha) @ a, 0.0)))


def kernel_scores(z, w, obs, alpha) -> np.ndarray:
    """S(p, x) = -sum_i w_i k(z_i, x) + w'Kw / 2 + k(x, x) / 2, clamped at 0."""
    self_term = 0.5 * (w @ gaussian(z, z, alpha) @ w)
    scores = -(w @ gaussian(z, obs, alpha)) + self_term + 0.5
    return np.where((scores < 0) & (scores >= -1e-10), 0.0, scores)


def energy_distance(x, wx, y, wy) -> float:
    def form(a, wa, b, wb):
        return wa @ np.sqrt(sq_dists(a, b)) @ wb

    return float(2.0 * form(x, wx, y, wy) - form(x, wx, x, wx) - form(y, wy, y, wy))


def kme_inner(x, wx, y, wy, alpha) -> float:
    return float(wx @ gaussian(x, y, alpha) @ wy)


def kme_measure_gram(points, weights, alpha_k1, alpha) -> np.ndarray:
    """phi(||Phi(mu_i) - Phi(mu_j)||^2) over equal-size measures stacked in points."""
    count, atoms, _ = points.shape
    flat = points.reshape(count * atoms, -1)
    w = np.zeros((count * atoms, count))
    for i in range(count):
        w[i * atoms:(i + 1) * atoms, i] = weights[i]
    e = w.T @ gaussian(flat, flat, alpha_k1) @ w
    d2 = np.diag(e)[:, None] + np.diag(e)[None, :] - 2.0 * e
    return np.exp(-alpha * np.maximum(d2, 0.0))


def quantile_sq_w2(x1, w1, x2, w2) -> float:
    """Squared L^2 distance of two piecewise-constant quantile functions."""

    def breaks(x, w):
        order = np.argsort(x, kind="stable")
        cum = np.cumsum(w[order])
        cum[-1] = 1.0
        return x[order], cum

    q1, c1 = breaks(x1, w1)
    q2, c2 = breaks(x2, w2)
    hi = np.union1d(c1, c2)
    hi = hi[(hi > 0.0) & (hi <= 1.0)]
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)
    diff = q1[np.searchsorted(c1, mid)] - q2[np.searchsorted(c2, mid)]
    return float(np.sum((hi - lo) * diff * diff))


def quantile_gram(xs, ws, alpha) -> np.ndarray:
    count = len(xs)
    d2 = np.array([[quantile_sq_w2(xs[i], ws[i], xs[j], ws[j]) for j in range(count)]
                   for i in range(count)])
    return np.exp(-alpha * d2)


# ---------------------------------------------------------------------------
# comparison


def compare(expected: dict, got: dict, keys=None) -> list:
    """Problems found comparing program values with expected ones.

    ``expected`` maps a key to ``(kind, *args)``:
      ("close", value)         same shape, and max|got - value| is within
                               REL_TOL * max|value| (relative in the max
                               norm, so Gram entries that cancel towards 0
                               are held to the matrix's scale);
      ("pvalue", p, n_perm)    within one replicate, 1 / (n_perm + 1), of p;
      ("between", lo, hi)      lo <= got <= hi;
      ("equal", value)         exactly equal.
    ``keys`` restricts the comparison (golden files hold a subset).
    """
    problems = []
    for key in expected if keys is None else keys:
        if key not in got:
            problems.append(f"{key}: missing from the output")
            continue
        kind, *args = expected[key]
        value = got[key]
        if kind == "close":
            want = np.asarray(args[0], dtype=float)
            have = np.asarray(value, dtype=float)
            ok = have.shape == want.shape and bool(
                np.max(np.abs(have - want)) <= REL_TOL * np.max(np.abs(want))
            )
        elif kind == "pvalue":
            ok = abs(float(value) - args[0]) <= 1.0 / (args[1] + 1.0) + 1e-12
        elif kind == "between":
            ok = args[0] <= value <= args[1]
        elif kind == "equal":
            ok = value == args[0]
        else:
            raise ValueError(f"unknown comparison kind {kind!r}")
        if not ok:
            shown = value if np.ndim(value) == 0 else f"array{np.shape(value)}"
            problems.append(f"{key}: got {shown}, expected {kind} {args if np.ndim(args[0]) == 0 else '...'}")
    return problems
