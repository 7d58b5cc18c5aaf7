"""The benchmark's three workloads: seeded inputs, one job, and its checks.

Each workload draws a pool of input sets from its seed, writes them as the
files the CLI reads, and cycles jobs through the pool.  ``job`` is the only
code that is timed; ``values`` reads what the job produced and ``expected``
gives the numpy reference for the same inputs (see reference.py).  Input
sizes are fixed here; the reasons for each workload, and the layers each
one loads or leaves idle, are in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import reference as ref

POOL = 8
FMT = "%.17g"  # round-trips every float64 exactly


def _row(values) -> str:
    return ",".join(FMT % v for v in values) + "\n"


def write_points(path: Path, pts: np.ndarray, weights=None):
    """Points CSV (header x1..xd), or a measure CSV when weights are given."""
    header = [f"x{i + 1}" for i in range(pts.shape[1])]
    rows = pts
    if weights is not None:
        header.append("weight")
        rows = np.column_stack([pts, weights])
    path.write_text(",".join(header) + "\n" + "".join(_row(r) for r in rows))


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n")


def probability(rng, size) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, size=size)
    return w / w.sum()


def gaussian_spec(space: dict, alpha: float) -> dict:
    return {"space": space, "rule": {"kind": "radial_hilbert"},
            "phi": {"family": "gaussian", "alpha": alpha}}


def trapezoid(m: int):
    """Nodes and weights of the m-node trapezoid rule on [0, 1]."""
    nodes = np.linspace(0.0, 1.0, m)
    h = 1.0 / (m - 1)
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2
    return nodes, weights


class JobFailed(RuntimeError):
    """The CLI returned a non-zero exit code."""


class Workload:
    """A seeded pool of inputs and the jobs that run on them."""

    name = ""
    #: values recorded at the seed commit in golden.json
    golden_keys: tuple = ()

    def __init__(self, km, work: Path, seed: int):
        self.km = km
        self.work = work
        self.seed = seed
        self.items = []

    def setup(self):
        """Draw the inputs from the seed and write every file the jobs read."""
        self.generate()
        self.write()

    def generate(self):
        raise NotImplementedError

    def write(self):
        raise NotImplementedError

    def job(self, item: int):
        raise NotImplementedError

    def values(self, item: int, result) -> dict:
        raise NotImplementedError

    def expected(self, item: int) -> dict:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, *argv) -> str:
        """Run one CLI command in-process; return what it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.km.cli.main([str(a) for a in argv])
        if code != 0:
            raise JobFailed(f"kernmetric {argv[0]} exited with {code}")
        return out.getvalue()

    def take(self, name: str) -> str:
        """Read an output file and remove it, so a later job cannot pass on it."""
        path = self.work / name
        text = path.read_text()
        path.unlink()
        return text


def read_matrix(text: str) -> np.ndarray:
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])


class TwoSample(Workload):
    """One ``kernmetric test2`` per job: R^3, n = m = 100, 999 permutations."""

    name = "twosample"
    golden_keys = ("statistic", "p_value")
    N, DIM, SHIFT, ALPHA, PERMS, LEVEL = 100, 3, 0.15, 0.5, 999, 0.05

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.items = []
        for _ in range(POOL):
            x = rng.normal(size=(self.N, self.DIM))
            y = rng.normal(size=(self.N, self.DIM)) + self.SHIFT
            self.items.append({"x": x, "y": y, "seed": int(rng.integers(2**31))})

    def write(self):
        write_json(self.work / "kernel.json",
                   gaussian_spec({"kind": "euclidean", "dim": self.DIM}, self.ALPHA))
        for i, it in enumerate(self.items):
            write_points(self.work / f"x{i}.csv", it["x"])
            write_points(self.work / f"y{i}.csv", it["y"])

    def job(self, item):
        return self.cli("test2", "--kernel", self.path("kernel.json"),
                        "--x", self.path(f"x{item}.csv"), "--y", self.path(f"y{item}.csv"),
                        "--perms", self.PERMS, "--seed", self.items[item]["seed"],
                        "--out", self.path("test2.json"))

    def values(self, item, printed):
        res = json.loads(self.take("test2.json"))
        verdict = "REJECT" if res["p_value"] <= self.LEVEL else "FAIL-TO-REJECT"
        return {**res, "verdict_matches": printed.splitlines()[-1] == verdict}

    def expected(self, item):
        it = self.items[item]
        z = np.vstack([it["x"], it["y"]])
        g = ref.gaussian(z, z, self.ALPHA)
        count = ref.permutation_count(g, self.N, self.PERMS, it["seed"])
        return {
            "statistic": ("close", ref.u_statistic(g, self.N)),
            "p_value": ("pvalue", ref.p_value(count, self.PERMS), self.PERMS),
            "n_permutations": ("equal", self.PERMS),
            "seed": ("equal", it["seed"]),
            "verdict_matches": ("equal", True),
        }


class Functional(Workload):
    """One ``kernmetric power`` plus one ``kernmetric gram`` per job, on functions.

    The grid has 16 nodes and the base kernel alpha = 50 because the L^p
    operator's non-degeneracy gate rejects larger grids (see README.md).
    """

    name = "functional"
    golden_keys = ("rejections_0", "rejections_1")
    GRID_M, N, NOISE, SHIFTS, TRIALS, PERMS, LEVEL = 16, 20, 1.0, (0.0, 0.5), 3, 99, 0.05
    P, ALPHA_K1, ALPHA, N_GRAM = 1.5, 50.0, 0.5, 80

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.nodes, self.weights = trapezoid(self.GRID_M)
        self.items = [{"functions": rng.normal(size=(self.N_GRAM, self.GRID_M)),
                       "seed": int(rng.integers(2**31))} for _ in range(POOL)]

    def write(self):
        w = self.work
        (w / "grid.csv").write_text("node,weight\n" + "".join(
            _row(r) for r in np.column_stack([self.nodes, self.weights])))
        k1 = gaussian_spec({"kind": "euclidean", "dim": 1}, self.ALPHA_K1)
        write_json(w / "lp_kernel.json", {
            "space": {"kind": "func_lp", "p": self.P},
            "rule": {"kind": "lp_operator", "p": self.P, "k1": k1},
            "phi": {"family": "gaussian", "alpha": self.ALPHA},
        })
        write_json(w / "distance_kernel.json", {
            "space": {"kind": "func_lp", "p": self.P},
            "rule": {"kind": "distance", "metric": {"kind": "lp", "p": self.P},
                     "z0": [0.0] * self.GRID_M},
        })
        write_json(w / "scenario.json", {
            "kind": "function_mean_shift", "grid_m": self.GRID_M, "n": self.N,
            "m": self.N, "noise": self.NOISE, "shifts": list(self.SHIFTS),
        })
        for i, it in enumerate(self.items):
            (w / f"functions{i}.csv").write_text("".join(_row(r) for r in it["functions"]))

    def job(self, item):
        grid = self.path("grid.csv")
        self.cli("power", "--kernel", self.path("lp_kernel.json"), "--grid", grid,
                 "--scenario", self.path("scenario.json"), "--trials", self.TRIALS,
                 "--perms", self.PERMS, "--seed", self.items[item]["seed"],
                 "--out", self.path("power.csv"))
        self.cli("gram", "--kernel", self.path("distance_kernel.json"), "--grid", grid,
                 "--points", self.path(f"functions{item}.csv"), "--out", self.path("gram.csv"))

    def values(self, item, _):
        lines = self.take("power.csv").splitlines()
        out = {"power_header": lines[0]}
        well_formed = len(lines) == len(self.SHIFTS) + 1
        for j, line in enumerate(lines[1:]):
            shift, rate, trials, stderr = line.split(",")
            rejections = round(float(rate) * int(trials))
            out[f"rejections_{j}"] = rejections
            well_formed &= (
                shift == FMT % self.SHIFTS[j]
                and int(trials) == self.TRIALS
                and float(rate) == rejections / self.TRIALS
                and stderr == FMT % float(np.sqrt(float(rate) * (1 - float(rate)) / self.TRIALS))
            )
        gram = read_matrix(self.take("gram.csv"))
        return {**out, "power_rows_well_formed": well_formed, "gram": gram,
                "gram_symmetric": bool(np.array_equal(gram, gram.T))}

    def expected(self, item):
        seed = self.items[item]["seed"]
        out = {"power_header": ("equal", "shift,rejection_rate,trials,mc_stderr"),
               "power_rows_well_formed": ("equal", True)}
        for j, shift in enumerate(self.SHIFTS):
            lo = hi = 0
            for trial in range(self.TRIALS):
                # the scenario draws of ``kernmetric power``, stream for stream
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, j, trial)))
                xs = [rng.normal(scale=self.NOISE, size=self.GRID_M) for _ in range(self.N)]
                ys = [float(shift) + rng.normal(scale=self.NOISE, size=self.GRID_M)
                      for _ in range(self.N)]
                perm_seed = int(rng.integers(2**32))
                g = ref.lp_operator_gram(np.vstack(xs + ys), self.nodes, self.weights,
                                         self.ALPHA_K1, self.ALPHA)
                count = ref.permutation_count(g, self.N, self.PERMS, perm_seed)
                # the program may differ by one replicate at a roundoff tie
                verdicts = {ref.p_value(c, self.PERMS) <= self.LEVEL
                            for c in (max(count - 1, 0), count, min(count + 1, self.PERMS))}
                lo += all(verdicts)
                hi += any(verdicts)
            out[f"rejections_{j}"] = ("between", lo, hi)
        gram = ref.lp_distance_gram(self.items[item]["functions"], self.weights, self.P)
        out["gram"] = ("close", gram)
        out["gram_symmetric"] = ("equal", True)
        return out


class Measures(Workload):
    """Scores, MMD, divergence, energy distance and measure-space Grams per job."""

    name = "measures"
    golden_keys = ("score_mean", "mmd", "divergence", "energy", "kme_inner")
    DIM, ALPHA, SHIFT = 2, 0.5, 0.5
    FORECAST, OBS, MMD_ATOMS, LIB_ATOMS = 40, 20, 60, 40
    KME_MEASURES, KME_ATOMS, Q_MEASURES, Q_ATOMS = 12, 10, 16, 30

    def generate(self):
        rng = np.random.default_rng(self.seed)
        d = self.DIM

        def measure(atoms, shift=0.0, center=None, dim=d):
            c = rng.normal(size=dim) if center is None else center
            return {"pts": c + shift + rng.normal(size=(atoms, dim)), "w": probability(rng, atoms)}

        zero = np.zeros(d)
        self.items = []
        for _ in range(POOL):
            self.items.append({
                "forecast": measure(self.FORECAST, center=zero),
                "obs": rng.normal(size=(self.OBS, d)) + self.SHIFT,
                "p": measure(self.MMD_ATOMS, center=zero),
                "q": measure(self.MMD_ATOMS, self.SHIFT, center=zero),
                "lp": measure(self.LIB_ATOMS, center=zero),
                "lq": measure(self.LIB_ATOMS, self.SHIFT, center=zero),
                "kme": [measure(self.KME_ATOMS) for _ in range(self.KME_MEASURES)],
                "quantile": [measure(self.Q_ATOMS, dim=1) for _ in range(self.Q_MEASURES)],
            })

    def write(self):
        km = self.km
        write_json(self.work / "kernel.json",
                   gaussian_spec({"kind": "euclidean", "dim": self.DIM}, self.ALPHA))
        space, line = km.Euclidean(self.DIM), km.Euclidean(1)
        self.k = km.make_radial_hilbert(km.Gaussian(alpha=self.ALPHA), space)
        self.kme_kernel = km.make_kme_measure(km.Gaussian(alpha=self.ALPHA), self.k)
        self.quantile_kernel = km.make_quantile_monge(km.Gaussian(alpha=self.ALPHA),
                                                      km.trapezoid_grid(64))
        self.metric = km.EuclideanMetric(self.DIM)

        def lib(m, sp=space):
            return km.DiscreteMeasure(sp, tuple(m["pts"]), m["w"])

        self.lib = []
        for i, it in enumerate(self.items):
            write_points(self.work / f"forecast{i}.csv", it["forecast"]["pts"], it["forecast"]["w"])
            write_points(self.work / f"obs{i}.csv", it["obs"])
            write_points(self.work / f"p{i}.csv", it["p"]["pts"], it["p"]["w"])
            write_points(self.work / f"q{i}.csv", it["q"]["pts"], it["q"]["w"])
            self.lib.append({
                "p": lib(it["lp"]), "q": lib(it["lq"]),
                "kme": [lib(m) for m in it["kme"]],
                "quantile": [lib(m, line) for m in it["quantile"]],
            })

    def job(self, item):
        km, lib, kernel = self.km, self.lib[item], self.path("kernel.json")
        self.cli("score", "--kernel", kernel, "--forecast", self.path(f"forecast{item}.csv"),
                 "--obs", self.path(f"obs{item}.csv"), "--out", self.path("scores.csv"))
        self.cli("mmd", "--kernel", kernel, "--x", self.path(f"p{item}.csv"),
                 "--y", self.path(f"q{item}.csv"), "--out", self.path("mmd.json"))
        p, q = lib["p"], lib["q"]
        return {
            "divergence": km.divergence(self.k, p, q),
            "energy": km.energy_distance(self.metric, p, q),
            "kme_inner": km.kme_inner(self.k, p, q),
            "kme_gram": km.gram(self.kme_kernel, lib["kme"]).entries,
            "quantile_gram": km.gram(self.quantile_kernel, lib["quantile"]).entries,
        }

    def values(self, item, result):
        scores = self.take("scores.csv").splitlines()
        out = json.loads(self.take("mmd.json"))
        return {
            "scores_header": scores[0],
            "scores": np.array([float(s) for s in scores[1:-1]]),
            "score_mean": float(scores[-1].removeprefix("mean,")),
            "mmd": out["mmd"],
            "squared_mmd": out["squared_mmd"],
            **result,
            "kme_gram_symmetric": bool(np.array_equal(result["kme_gram"], result["kme_gram"].T)),
            "quantile_gram_symmetric": bool(
                np.array_equal(result["quantile_gram"], result["quantile_gram"].T)),
        }

    def expected(self, item):
        it, a = self.items[item], self.ALPHA
        f, p, q, lp, lq = it["forecast"], it["p"], it["q"], it["lp"], it["lq"]
        scores = ref.kernel_scores(f["pts"], f["w"], it["obs"], a)
        mmd = ref.mmd(p["pts"], p["w"], q["pts"], q["w"], a)
        lib_mmd = ref.mmd(lp["pts"], lp["w"], lq["pts"], lq["w"], a)
        kme = it["kme"]
        qm = it["quantile"]
        return {
            "scores_header": ("equal", "score"),
            "scores": ("close", scores),
            "score_mean": ("close", float(np.mean(scores))),
            "mmd": ("close", mmd),
            "squared_mmd": ("close", mmd * mmd),
            # the score divergence equals half the squared MMD
            "divergence": ("close", 0.5 * lib_mmd * lib_mmd),
            "energy": ("close", ref.energy_distance(lp["pts"], lp["w"], lq["pts"], lq["w"])),
            "kme_inner": ("close", ref.kme_inner(lp["pts"], lp["w"], lq["pts"], lq["w"], a)),
            "kme_gram": ("close", ref.kme_measure_gram(
                np.array([m["pts"] for m in kme]), [m["w"] for m in kme], a, a)),
            "quantile_gram": ("close", ref.quantile_gram(
                [m["pts"][:, 0] for m in qm], [m["w"] for m in qm], a)),
            "kme_gram_symmetric": ("equal", True),
            "quantile_gram_symmetric": ("equal", True),
        }


WORKLOADS = {w.name: w for w in (TwoSample, Functional, Measures)}
