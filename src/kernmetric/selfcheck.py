"""Built-in verification suite: named invariants across all modules.

Each ``check_*`` function is one small, fast, deterministic invariant.  The CLI
``selfcheck`` command runs them all (``CHECKS``) in the order defined and reports
pass/fail per name, the function's name without the prefix.
"""

from __future__ import annotations

import numpy as np

from . import kernels as K
from .embeddings import gram, kme_inner, kme_sq_norm, min_eigenvalue
from .profiles import (
    DiscreteLaplace,
    ExpSqrt,
    Gaussian,
    InverseRational,
    complete_monotonicity_check,
    is_strictly_pd_class,
)
from .spaces import (
    DiscreteMeasure,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    LpMetric,
    dirac,
    measure_difference,
    metric_dist,
    trapezoid_grid,
)
from .stats import (
    divergence,
    energy_distance,
    expected_score,
    kernel_score,
    mmd,
    mmd_u_statistic,
    permutation_test,
)

__all__ = ["run_selfcheck", "CHECKS", "sample_kernels", "separated_points"]

_PROFILES = [
    Gaussian(alpha=1.0),
    DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5))),
    ExpSqrt(c=1.0),
    InverseRational(beta=1.0, scale=1.0),
]


def _rng():
    return np.random.default_rng(20240817)


def _random_measures(rng, n_pairs, dim=2, atoms=3, probability=True):
    out = []
    space = Euclidean(dim)
    for _ in range(n_pairs):
        pts = rng.normal(size=(atoms, dim))
        if probability:
            w = rng.uniform(0.1, 1.0, size=atoms)
            w = w / w.sum()
        else:
            w = rng.normal(size=atoms)
        out.append(DiscreteMeasure(space, pts, w))
    return out


def check_profiles_nonincreasing():
    grid = np.linspace(0.0, 10.0, 41)
    for phi in _PROFILES:
        vals = [phi(t) for t in grid]
        tol = 1e-12 * phi(0.0)
        if any(b > a + tol for a, b in zip(vals, vals[1:])):
            return False
    return True


def check_profiles_completely_monotone():
    grid = np.arange(0.0, 10.25, 0.25)
    return all(complete_monotonicity_check(phi, grid, 4) for phi in _PROFILES)


def check_discrete_laplace_direct_sum():
    phi = DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.3), (0.0, 0.2)))
    for t in (0.0, 0.3, 1.7, 9.0):
        direct = 0.5 * np.exp(-t) + 0.3 * np.exp(-2 * t) + 0.2
        if abs(phi(t) - direct) > 1e-14 * direct:
            return False
    return True


def check_constant_profile_excluded():
    flat = DiscreteLaplace(atoms=((0.0, 1.0),))
    if is_strictly_pd_class(flat):
        return False
    # the induced radial Gram matrix is rank 1 on >= 2 distinct points
    g = np.array([[flat(0.0), flat(4.0)], [flat(4.0), flat(0.0)]])
    eigs = np.linalg.eigvalsh(g)
    return abs(eigs[0]) < 1e-12 and eigs[1] > 0


def check_trapezoid_exactness():
    grid = trapezoid_grid(101)
    l2 = LpMetric(grid, 2.0)
    zero, one, lin = np.zeros(101), np.ones(101), grid.nodes
    return (
        abs(metric_dist(l2, one, zero) - 1.0) < 1e-12
        and abs(metric_dist(l2, lin, zero) - 1.0 / np.sqrt(3.0)) < 1e-3
    )


def check_triangle_inequality():
    rng = _rng()
    metric = EuclideanMetric(3)
    for _ in range(200):
        x, y, z = (rng.normal(size=3) for _ in range(3))
        if metric_dist(metric, x, z) > metric_dist(metric, x, y) + metric_dist(metric, y, z) + 1e-12:
            return False
    grid = trapezoid_grid(16)
    lp = LpMetric(grid, 1.5)
    for _ in range(200):
        f, g, h = (rng.normal(size=16) for _ in range(3))
        if metric_dist(lp, f, h) > metric_dist(lp, f, g) + metric_dist(lp, g, h) + 1e-12:
            return False
    return True


def check_measure_difference_mass():
    rng = _rng()
    for mu, nu in zip(_random_measures(rng, 20), _random_measures(rng, 20)):
        d = measure_difference(mu, nu)
        if d.total_mass != mu.total_mass - nu.total_mass:
            return False
    return True


def sample_kernels(rng):
    """One instance of each of the nine rules, with point generators."""
    grid = trapezoid_grid(12)
    phi = Gaussian(alpha=0.5)
    base1 = K.make_radial_hilbert(Gaussian(alpha=50.0), Euclidean(1))
    base2 = K.make_radial_hilbert(Gaussian(alpha=1.0), Euclidean(2))
    fr, fw = np.random.default_rng(11).standard_normal((16, 2)), np.full(16, 1 / 16)

    def eu2(r):
        return r.normal(size=2)

    def fn(r):
        return r.normal(size=12)

    def meas2(r):
        w = r.uniform(0.1, 1.0, size=3)
        return DiscreteMeasure(Euclidean(2), r.normal(size=(3, 2)), w / w.sum())

    def meas1(r):
        w = r.uniform(0.1, 1.0, size=3)
        return DiscreteMeasure(Euclidean(1), r.normal(size=(3, 1)), w / w.sum())

    return [
        ("radial_hilbert", K.make_radial_hilbert(phi, Euclidean(2)), eu2),
        ("tee_radial", K.make_tee_radial(phi, K.DiagonalScale((1.0, 2.0)), Euclidean(2)), eu2),
        ("lp_operator", K.make_lp_operator(phi, base1, grid, 1.5), fn),
        ("metric_phi", K.make_metric_phi(phi, LpMetric(grid, 1.5)), fn),
        ("distance", K.make_distance_kernel(EuclideanMetric(2), np.zeros(2)), eu2),
        ("mixture", K.make_mixture([(K.make_radial_hilbert(Gaussian(1.0), Euclidean(2)), 0.5),
                                    (K.make_radial_hilbert(Gaussian(2.0), Euclidean(2)), 0.5)]), eu2),
        ("kme_measure", K.make_kme_measure(phi, base2), meas2),
        ("fourier_measure", K.make_fourier_measure(phi, fr, fw), meas2),
        ("quantile_monge", K.make_quantile_monge(phi, trapezoid_grid(8, 0.0, 1.0)), meas1),
    ]


def check_kernel_symmetry():
    rng = _rng()
    for _, k, gen in sample_kernels(rng):
        for _ in range(20):
            x, y = gen(rng), gen(rng)
            if k(x, y) != k(y, x):
                return False
    return True


def check_kernel_diagonal():
    rng = _rng()
    for name, k, gen in sample_kernels(rng):
        x = gen(rng)
        if name == "distance":
            expected = 2.0 * metric_dist(k.metric, x, k.z0[0])
        elif name == "mixture":
            expected = sum(w * c.phi(0.0) for c, w in k.components)
        else:
            expected = k.phi(0.0)
        if abs(k(x, x) - expected) > 1e-12 or k.diag([x])[0] != k(x, x):
            return False
    return True


def check_kernel_boundedness():
    # Cauchy-Schwarz in the RKHS: |k(x, y)| <= sqrt(k(x, x) k(y, y))
    rng = _rng()
    for _, k, gen in sample_kernels(rng):
        for _ in range(30):
            x, y = gen(rng), gen(rng)
            if abs(k(x, y)) > np.sqrt(np.prod(k.diag([x, y]))) + 1e-12:
                return False
    return True


def check_gram_psd():
    rng = _rng()
    for _, k, gen in sample_kernels(rng):
        pts = [gen(rng) for _ in range(8)]
        g = gram(k, pts)
        if min_eigenvalue(g) < -1e-8 * max(1.0, float(np.trace(g.entries))):
            return False
    return True


def check_gram_strict_pd():
    rng = _rng()
    # the distance kernel's z0 = 0 is not among the draws, as its strict
    # positive definiteness requires
    for _, k, gen in sample_kernels(rng):
        pts = separated_points(rng, gen, 6)
        if min_eigenvalue(gram(k, pts)) <= 1e-12 * np.max(k.diag(pts)):
            return False
    return True


def separated_points(rng, gen, count, min_dist=0.1):
    """count points of gen, pairwise min_dist apart (``_point_dist``), in 1000 draws."""
    pts = []
    for _ in range(1000):
        cand = gen(rng)
        if all(_point_dist(cand, p) >= min_dist for p in pts):
            pts.append(cand)
            if len(pts) == count:
                return pts
    raise RuntimeError(f"1000 draws gave {len(pts)} of {count} points {min_dist} apart")


def _point_dist(a, b):
    if isinstance(a, DiscreteMeasure):
        stacked_a = np.sort(a.points.ravel())
        stacked_b = np.sort(b.points.ravel())
        return float(np.max(np.abs(stacked_a - stacked_b))) if stacked_a.shape == stacked_b.shape else 1.0
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def check_tee_identity_reduction():
    rng = _rng()
    phi = Gaussian(alpha=0.5)
    k1 = K.make_radial_hilbert(phi, Euclidean(3))
    k2 = K.make_tee_radial(phi, K.Identity(), Euclidean(3))
    for _ in range(50):
        x, y = rng.normal(size=3), rng.normal(size=3)
        if k1(x, y) != k2(x, y):
            return False
    return True


def check_kme_argument_double_sum():
    rng = _rng()
    base = K.make_radial_hilbert(Gaussian(alpha=1.0), Euclidean(2))
    k = K.make_kme_measure(Gaussian(alpha=0.5), base)
    for _ in range(20):
        mu, nu = _random_measures(rng, 2)
        arg = k.arg([mu], [nu])[0, 0]
        diff = measure_difference(mu, nu)
        naive = 0.0
        for x, wx in zip(diff.points, diff.weights):
            for y, wy in zip(diff.points, diff.weights):
                naive += wx * wy * base(x, y)
        if abs(arg - naive) > 1e-12 * max(1.0, abs(naive)):
            return False
    return True


def check_quantile_monge_matches_sorting():
    rng = _rng()
    space = Euclidean(1)
    for _ in range(30):
        n = 5
        xs = np.sort(rng.normal(size=n))
        ys = np.sort(rng.normal(size=n))
        mu = DiscreteMeasure(space, xs, np.full(n, 1.0 / n))
        nu = DiscreteMeasure(space, ys, np.full(n, 1.0 / n))
        exact = K.quantile_sq_w2(mu, nu)
        sorted_w2 = float(np.mean((xs - ys) ** 2))
        if abs(exact - sorted_w2) > 1e-12:
            return False
    return True


def check_mixture_lemma():
    rng = _rng()
    comps = [
        (K.make_radial_hilbert(Gaussian(alpha=a), Euclidean(2)), w)
        for a, w in ((0.5, 0.2), (1.0, 0.5), (2.0, 0.3))
    ]
    k = K.make_mixture(comps)
    for mu in _random_measures(rng, 30, probability=False):
        lhs = kme_sq_norm(k, mu)
        rhs = sum(w * kme_sq_norm(ck, mu) for ck, w in comps)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            return False
    return True


def check_kme_clamp_and_scaling():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    for mu in _random_measures(rng, 20, probability=False):
        if kme_sq_norm(k, measure_difference(mu, mu)) != 0.0:
            return False
        a = rng.uniform(0.5, 3.0)
        scaled = DiscreteMeasure(mu.space, mu.points, a * mu.weights)
        if abs(kme_sq_norm(k, scaled) - a * a * kme_sq_norm(k, mu)) > 1e-12 * max(
            1.0, kme_sq_norm(k, scaled)
        ):
            return False
    return True


def check_cauchy_schwarz():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    mus = _random_measures(rng, 20, probability=False)
    for mu, nu in zip(mus[::2], mus[1::2]):
        inner = kme_inner(k, mu, nu)
        if inner * inner > kme_sq_norm(k, mu) * kme_sq_norm(k, nu) + 1e-10:
            return False
    return True


def check_ispd_on_signed_measures():
    rng = _rng()
    for name, k, gen in sample_kernels(rng):
        if name in ("quantile_monge", "fourier_measure"):
            # the quantile rule takes only probability measures (checked on those
            # elsewhere), and finitely many Fourier atoms are not characteristic
            continue
        space = k.space
        for _ in range(20):
            a, b = gen(rng), gen(rng)
            # a zero-mass pair 1e-6 apart in every coordinate: a form of order 1e-12
            near = (DiscreteMeasure(a.space, a.points + 1e-6, a.weights)
                    if isinstance(a, DiscreteMeasure) else a + 1e-6)
            if kme_sq_norm(k, DiscreteMeasure(space, (a, near), [1.0, -1.0])) <= 0.0:
                return False
            if _point_dist(a, b) < 1e-3:
                continue
            w = rng.normal(size=2)
            if not np.any(w):
                continue
            mu = DiscreteMeasure(space, (a, b), w)
            if kme_sq_norm(k, mu) <= 0.0:
                return False
    return True


def check_distance_kernel_z0_invariance():
    rng = _rng()
    metric = EuclideanMetric(2)
    for _ in range(20):
        mu, nu = _random_measures(rng, 2)
        zero_mass = measure_difference(mu, nu)
        vals = []
        for _ in range(3):
            k = K.make_distance_kernel(metric, rng.normal(size=2))
            vals.append(kme_sq_norm(k, zero_mass))
        if max(vals) - min(vals) > 1e-10 * max(1.0, max(vals)):
            return False
    return True


def check_mmd_identity_chain():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    for _ in range(30):
        p, q = _random_measures(rng, 2)
        gamma = mmd(k, p, q)
        d = divergence(k, p, q)
        sq = kme_sq_norm(k, measure_difference(p, q))
        if abs(gamma * gamma - 2.0 * d) > 1e-12 * max(1.0, gamma * gamma):
            return False
        if abs(gamma * gamma - sq) > 1e-12 * max(1.0, sq):
            return False
    return True


def check_score_propriety():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    for _ in range(50):
        p, q = _random_measures(rng, 2)
        if expected_score(k, q, p) - expected_score(k, p, p) < -1e-10:
            return False
    return True


def check_score_mmd_half_identity():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    for _ in range(30):
        (p,) = _random_measures(rng, 1)
        x = rng.normal(size=2)
        s = kernel_score(k, p, x)
        half = 0.5 * mmd(k, p, dirac(Euclidean(2), x)) ** 2
        if abs(s - half) > 1e-10 * max(1.0, s):
            return False
    return True


def check_energy_distance_equivalence():
    rng = _rng()
    metric = EuclideanMetric(2)
    for _ in range(20):
        p, q = _random_measures(rng, 2)
        ed = energy_distance(metric, p, q)
        for _ in range(2):
            k = K.make_distance_kernel(metric, rng.normal(size=2))
            if abs(mmd(k, p, q) ** 2 - ed) > 1e-10 * max(1.0, ed):
                return False
    return True


def check_mmd_pseudometric():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    for _ in range(50):
        p, q, r = _random_measures(rng, 3)
        if mmd(k, p, q) != mmd(k, q, p):
            return False
        if mmd(k, p, r) > mmd(k, p, q) + mmd(k, q, r) + 1e-10:
            return False
    return True


def check_permutation_determinism():
    rng = _rng()
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(1))
    xs, ys = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    a = permutation_test(k, xs, ys, n_perm=49, seed=123)
    b = permutation_test(k, xs, ys, n_perm=49, seed=123)
    return a == b


def check_permutation_separated_functions():
    grid = trapezoid_grid(8)
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), FuncLp(grid, 2.0))
    xs, ys = np.zeros((20, 8)), np.ones((20, 8))
    res = permutation_test(k, xs, ys, n_perm=99, seed=1)
    return abs(res.p_value - 0.01) < 1e-12


def check_u_statistic_equal_samples():
    # for X = Y the biased (diagonal) terms are removed, so the estimate
    # drops to k(a,b) - 1 <= 0: the unbiased statistic may go negative
    k = K.make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(1))
    a, b = np.array([0.0]), np.array([1.0])
    val = mmd_u_statistic(k, [a, b], [a, b])
    return abs(val - (k(a, b) - 1.0)) < 1e-15 and val <= 0.0


#: (name, check) of every ``check_*`` function above, in the order defined
CHECKS = [(name.removeprefix("check_"), fn) for name, fn in globals().items()
          if name.startswith("check_")]


def run_selfcheck() -> bool:
    """Run every named invariant, printing PASS or FAIL per name; returns True iff all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            passed, note = bool(fn()), ""
        except Exception as exc:  # report, do not abort the suite
            passed, note = False, f" (error: {exc})"
        print(("PASS " if passed else "FAIL ") + name + note)
        ok = ok and passed
    return ok
