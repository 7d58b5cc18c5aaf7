"""End-to-end acceptance gate.

Ten numbered criteria covering positive definiteness, the mixture identity,
the score/MMD/embedding identity chain, energy-distance equivalence,
characteristic behaviour, 1-D transport exactness, Fourier exactness,
permutation-test calibration, and constructor gatekeeping.  Each test prints
a single pass/fail line.
"""

import math

import numpy as np
import pytest

from kernmetric import (
    DiagonalScale,
    DiscreteLaplace,
    DiscreteMeasure,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    Gaussian,
    InjectivityError,
    KernmetricError,
    LpMetric,
    dirac,
    energy_distance,
    expected_score,
    gram,
    kme_sq_norm,
    make_distance_kernel,
    make_fourier_measure,
    make_kme_measure,
    make_lp_operator,
    make_metric_phi,
    make_mixture,
    make_quantile_monge,
    make_radial_hilbert,
    make_tee_radial,
    measure_difference,
    min_eigenvalue,
    mmd,
    permutation_test,
    quantile_sq_w2,
    trapezoid_grid,
)
from kernmetric.selfcheck import sample_kernels, separated_points

E1, E2 = Euclidean(1), Euclidean(2)
PHI = Gaussian(alpha=0.5)


def _report(number: int, label: str, ok: bool):
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed"


def _rng():
    return np.random.default_rng(20260826)


def test_criterion_01_psd_suite():
    rng = _rng()
    ok = True
    for name, k, gen in sample_kernels(rng):
        for _ in range(100):
            m = int(rng.integers(2, 26))
            g = gram(k, [gen(rng) for _ in range(m)])
            bound = -1e-8 * max(1.0, float(np.trace(g.entries)))
            if min_eigenvalue(g) < bound:
                ok = False
    _report(1, "PSD suite", ok)


def test_criterion_02_strict_pd_suite():
    rng = _rng()
    ok = True
    for _, k, gen in sample_kernels(rng):
        for _ in range(50):
            pts = separated_points(rng, gen, 6, 0.15)
            if min_eigenvalue(gram(k, pts)) <= 1e-12 * np.max(k.diag(pts)):
                ok = False
    _report(2, "strict PD suite", ok)


def test_criterion_03_mixture_identity():
    rng = _rng()
    comps = [
        (make_radial_hilbert(Gaussian(alpha=0.5), E2), 0.2),
        (make_radial_hilbert(Gaussian(alpha=1.5), E2), 0.3),
        (make_radial_hilbert(Gaussian(alpha=4.0), E2), 0.5),
    ]
    k = make_mixture(comps)
    ok = True
    for _ in range(200):
        pts = tuple(rng.normal(size=2) for _ in range(4))
        w = rng.normal(size=4)
        mu = DiscreteMeasure(E2, pts, w)
        lhs = kme_sq_norm(k, mu)
        rhs = sum(wt * kme_sq_norm(ck, mu) for ck, wt in comps)
        if not math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-13):
            ok = False
    _report(3, "mixture identity", ok)


def _random_prob(rng, atoms=3, scale=1.0):
    pts = tuple(scale * rng.normal(size=2) for _ in range(atoms))
    w = rng.uniform(0.1, 1.0, size=atoms)
    return DiscreteMeasure(E2, pts, w / w.sum())


def test_criterion_04_mmd_score_identity():
    rng = _rng()
    k = make_radial_hilbert(PHI, E2)
    ok = True
    for _ in range(200):
        p, q = _random_prob(rng), _random_prob(rng)
        gamma_sq = mmd(k, p, q) ** 2
        via_score = 2.0 * (expected_score(k, q, p) - expected_score(k, p, p))
        via_kme = kme_sq_norm(k, measure_difference(p, q))
        if not math.isclose(gamma_sq, via_score, rel_tol=1e-10, abs_tol=1e-13):
            ok = False
        if not math.isclose(gamma_sq, via_kme, rel_tol=1e-10, abs_tol=1e-13):
            ok = False
    _report(4, "MMD/score identity", ok)


def test_criterion_05_energy_distance_equivalence():
    rng = _rng()
    metric = EuclideanMetric(2)
    ok = True
    for _ in range(200):
        p, q = _random_prob(rng), _random_prob(rng)
        ed = energy_distance(metric, p, q)
        for z0 in (np.zeros(2), rng.normal(size=2), 10.0 * rng.normal(size=2)):
            k = make_distance_kernel(metric, z0)
            if abs(mmd(k, p, q) ** 2 - ed) > 1e-10:
                ok = False
    _report(5, "energy-distance equivalence", ok)


def test_criterion_06_characteristic_desk_check():
    rng = _rng()
    ok = True
    for name, k, gen in sample_kernels(rng):
        if name == "distance":
            continue
        space = k.space
        for _ in range(200):
            a, b = separated_points(rng, gen, 2, 1e-2)
            p = DiscreteMeasure(space, (a,), np.array([1.0]))
            q = DiscreteMeasure(space, (b,), np.array([1.0]))
            if mmd(k, p, q) <= 0.0:
                ok = False
            w = float(rng.uniform(0.1, 2.0))
            signed = DiscreteMeasure(space, (a, b), np.array([w, -w]))
            if kme_sq_norm(k, signed) <= 0.0:
                ok = False
    _report(6, "characteristic desk check", ok)


def test_criterion_07_one_dim_monge():
    rng = _rng()
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        mu = DiscreteMeasure(E1, tuple(np.array([x]) for x in xs), np.full(n, 1.0 / n))
        nu = DiscreteMeasure(E1, tuple(np.array([y]) for y in ys), np.full(n, 1.0 / n))
        w2_sq = float(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
        val = quantile_sq_w2(mu, nu)
        if abs(val - w2_sq) > 1e-12:
            ok = False
        if val < w2_sq - 1e-12:
            ok = False
    _report(7, "1-D Monge check", ok)


def test_criterion_08_fourier_exactness():
    rng = _rng()
    freqs, fw = np.random.default_rng(3).standard_normal((16, 2)), np.full(16, 1 / 16)
    k = make_fourier_measure(PHI, freqs, fw)
    ok = True
    for _ in range(100):
        p, q = _random_prob(rng), _random_prob(rng)
        pts = [*p.points, *q.points]
        a = np.concatenate([p.weights, -q.weights])
        arg = 0.0
        for s, ws in zip(freqs, fw):
            total = 0.0
            for i in range(len(pts)):
                for j in range(len(pts)):
                    total += a[i] * a[j] * math.cos(float(s @ (pts[i] - pts[j])))
            arg += ws * total
        expected = PHI(max(arg, 0.0))
        if not math.isclose(k(p, q), expected, rel_tol=1e-12, abs_tol=1e-15):
            ok = False
    _report(8, "Fourier-kernel exactness", ok)


def test_criterion_09_permutation_calibration():
    k1 = make_radial_hilbert(PHI, E1)
    rejections = 0
    trials = 1000
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(99, trial)))
        pool = rng.normal(size=20)
        xs = [np.array([v]) for v in pool[:10]]
        ys = [np.array([v]) for v in pool[10:]]
        res = permutation_test(k1, xs, ys, n_perm=99, seed=trial)
        if res.p_value <= 0.05:
            rejections += 1
    rate = rejections / trials
    ok = 0.03 <= rate <= 0.07

    grid = trapezoid_grid(12)
    base = make_radial_hilbert(Gaussian(alpha=50.0), E1)
    kf = make_lp_operator(PHI, base, grid, 1.5)
    zeros, ones = np.zeros((20, 12)), np.ones((20, 12))
    sep = permutation_test(kf, zeros, ones, n_perm=99, seed=1)
    ok = ok and sep.p_value == pytest.approx(0.01, abs=1e-15)
    _report(9, f"permutation calibration (null rate {rate:.3f})", ok)


def test_criterion_10_lp_gatekeeping():
    grid = trapezoid_grid(12)
    base = make_radial_hilbert(Gaussian(alpha=50.0), E1)
    failures = 0

    with pytest.raises(KernmetricError):
        make_lp_operator(PHI, base, grid, 1.0)
    failures += 1
    with pytest.raises(KernmetricError):
        make_lp_operator(PHI, base, grid, float("inf"))
    failures += 1
    with pytest.raises(KernmetricError):
        make_metric_phi(PHI, LpMetric(grid, 2.5))
    failures += 1
    with pytest.raises(KernmetricError):
        # base kernel with k1(x, x) = 0 at a grid node: z0 is node 0
        make_lp_operator(PHI, make_distance_kernel(EuclideanMetric(1), [0.0]), grid, 1.5)
    failures += 1
    with pytest.raises(KernmetricError):
        # non-injective map and a flat (non-strict) profile
        make_tee_radial(PHI, DiagonalScale((1.0, 0.0)), E2)
    failures += 1
    try:
        make_radial_hilbert(DiscreteLaplace(atoms=((0.0, 1.0),)), E1)
    except KernmetricError:
        pass
    else:
        failures = 0
    _report(10, "L^p gatekeeping", failures == 5)
