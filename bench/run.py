"""Job-level benchmark of kernmetric.

    python3 bench/run.py --workload twosample --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One client in one process runs jobs in a
closed loop: the next job starts only when the previous one has finished.
Jobs call ``kernmetric.cli.main`` in-process and the public library
functions, on inputs this benchmark draws from ``--seed`` and writes under
``.bench_work/``.  Every job's outputs are checked against a numpy
reference (reference.py); a job that raises or fails its check counts as
failed.

Before anything is timed, ``kernmetric selfcheck`` must pass and the
reference must reproduce the values recorded at the seed commit
(golden.json); otherwise the run exits with code 1 and prints no result.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each job untraced and then traced, and reports the
per-layer metrics (tracing.py).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it describes the run: job count, error rate, and the environment.
"""

import os

# One compute thread: a single client on a shared 2-core machine.  Set before
# numpy loads, so OpenBLAS starts with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import kernmetric  # noqa: E402
    import kernmetric.cli  # noqa: E402,F401
except ImportError as _exc:
    kernmetric = None
    _IMPORT_ERROR = _exc

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402

#: so that the 90th percentile has at least 10 samples beyond it
MIN_JOBS = 100
#: a run may run past --seconds to reach MIN_JOBS, but no further than this factor
MAX_STRETCH = 1.6
#: set-ups timed per run: one before the measurement, then one every
#: SETUP_EVERY jobs, so that setup_s samples the machine across the run
SETUP_REPS = 7
SETUP_EVERY = MIN_JOBS // (SETUP_REPS - 1)
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
#: times the imports in a fresh interpreter, the same way on every run
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, kernmetric.cli; print(time.perf_counter() - t)"
)


class GateFailed(RuntimeError):
    pass


def blas_info() -> dict:
    """BLAS name, version and thread count of the numpy in use."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "processes": 1,
    }


def time_setup(wl, reps: int) -> list:
    """Seconds for each of ``reps`` set-ups.

    One set-up imports numpy and kernmetric in a fresh interpreter, draws
    and writes the inputs, and runs one warm-up job.
    """
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        start = time.perf_counter()
        wl.setup()
        warm = wl.job(0)
        out.append(float(proc.stdout) + time.perf_counter() - start)
        wl.values(0, warm)  # consumes the warm-up's output files
    return out


def selfcheck():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kernmetric.cli.main(["selfcheck"])
    if code != 0:
        failed = [line for line in out.getvalue().splitlines() if "FAIL" in line]
        raise GateFailed(f"kernmetric selfcheck failed: {failed}")


def check_golden(cls, work: Path):
    """The reference must reproduce the values the program gave at the seed commit."""
    golden = json.loads(GOLDEN.read_text())
    wl = cls(kernmetric, work, golden["seed"])
    wl.generate()  # inputs only; nothing is written
    for item, values in enumerate(golden["workloads"][cls.name]):
        problems = reference.compare(wl.expected(item), values, keys=values.keys())
        if problems:
            raise GateFailed(f"reference disagrees with golden.json, {cls.name} item {item}: {problems}")


def run_job(wl, i: int):
    """Run job i, timing only the job, then check it; return (ok, seconds)."""
    item = i % POOL
    start = time.perf_counter()
    try:
        result = wl.job(item)
    except (Exception, SystemExit) as exc:  # a failing job is counted, not fatal
        elapsed = time.perf_counter() - start
        print(f"job {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, elapsed
    elapsed = time.perf_counter() - start
    try:
        problems = reference.compare(wl.expected_cache[item], wl.values(item, result))
    except Exception:  # an unreadable output is a wrong output
        problems = [traceback.format_exc(limit=2)]
    if problems:
        print(f"job {i}: wrong output: {problems[:3]}", file=sys.stderr)
    return not problems, elapsed


def measure(wl, seconds: float, setup: list):
    """Closed loop for --seconds and at least MIN_JOBS jobs; return (oks, latencies, wall).

    Every SETUP_EVERY jobs, until ``setup`` holds SETUP_REPS times, the loop
    stops its clock for one timed set-up and appends it to ``setup``.
    """
    oks, lat = [], []
    paused = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if (elapsed >= seconds and len(lat) >= MIN_JOBS) or elapsed >= seconds * MAX_STRETCH:
            break
        if lat and len(lat) % SETUP_EVERY == 0 and len(setup) < SETUP_REPS:
            pause = time.perf_counter()
            setup += time_setup(wl, 1)
            paused += time.perf_counter() - pause
        ok, dt = run_job(wl, len(lat))
        oks.append(ok)
        lat.append(dt)
    return oks, lat, time.perf_counter() - start - paused


def measure_traced(wl, seconds: float, tracer):
    """Each job once untraced, then once traced, for --seconds.

    Runs whole passes over the input pool, so that per-job counts that
    depend on the inputs (bytes read) repeat exactly for a seed.
    """
    oks = []
    untraced = traced = 0.0
    pairs = 0
    start = time.perf_counter()
    while pairs % POOL or time.perf_counter() - start < seconds:
        ok, dt = run_job(wl, pairs)
        oks.append(ok)
        untraced += dt
        tracer.start(pairs)
        try:
            ok, dt = run_job(wl, pairs)
        finally:
            tracer.stop()
        oks.append(ok)
        traced += dt
        pairs += 1
    return oks, tracer.metrics(pairs, traced, untraced), pairs


def end_to_end(oks, lat, wall, setup_s) -> dict:
    correct = sum(oks)
    # a failed job counts as a miss: it did not finish within the run
    missed = [dt if ok else wall for ok, dt in zip(oks, lat)]
    ms = np.array(missed) * 1e3
    return {
        "ops_per_s": (correct / sum(lat), "1/s"),
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Job-level benchmark of kernmetric.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if kernmetric is None:
        print(f"error: cannot import kernmetric from {ROOT / 'src'}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    try:
        selfcheck()
        check_golden(cls, work)
        wl = cls(kernmetric, work, args.seed)
        setup = time_setup(wl, 1)
        wl.expected_cache = [wl.expected(i) for i in range(POOL)]

        if args.trace:
            tracer = tracing.Tracer()
            oks, values, jobs = measure_traced(wl, args.seconds, tracer)
            per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
            traces = base / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
            samples = {"traced_jobs": jobs}
        else:
            oks, lat, wall = measure(wl, args.seconds, setup)
            setup += time_setup(wl, SETUP_REPS - len(setup))
            metrics = end_to_end(oks, lat, wall, statistics.median(setup))
            samples = {"jobs": len(lat), "setup_reps_s": setup}
    except (GateFailed, tracing.TraceTargetMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(oks), oks.count(False)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples, "error_rate": failed / attempted, "env": environment(),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
