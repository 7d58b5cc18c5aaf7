"""Run the benchmark over several seeds and print every metric by name.

    python3 bench/summary.py                                  # all workloads, seeds 1-10
    python3 bench/summary.py --workloads functional --seeds 1-5
    python3 bench/summary.py --seeds 1-10 --trace-seeds 1,1   # per-layer too
    python3 bench/summary.py --append seed-commit --commit SHA

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
the run length from BENCHMARK.json.  For each end-to-end metric it prints
the unit, the number of runs, the jobs per run (the sample count behind
each percentile), the median and quartiles over runs, and the spread
(q3 - q1) / median next to the metric's bound.  ``error_rate`` is failed
jobs over attempted jobs, summed over runs.  Traced runs add the median
of each per-layer metric and say whether its count repeated exactly.
``--append`` adds the figures as one line to trajectory.jsonl.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(spec, workloads, seed_list, trace_seeds) -> dict:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    entry = {"end_to_end": {}, "per_layer": {}}
    for w in workloads:
        runs = [run(spec, w, s, 0) for s in seed_list]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        jobs = [r["samples"]["jobs"] for r in runs]
        entry["env"] = runs[0]["env"]
        rows = {}
        print(f"\n{w}: {len(runs)} runs, jobs per run {min(jobs)}-{max(jobs)}, "
              f"{attempted} jobs in all")
        print(f"  {'metric':14s} {'unit':6s} {'runs':>4s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, m in bounds.items():
            s = stats([r["metrics"][name]["value"] for r in runs])
            rows[name] = {"unit": m["unit"], "runs": len(runs), "jobs_per_run": jobs, **s}
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <- above bound/3"
            print(f"  {name:14s} {m['unit']:6s} {len(runs):4d} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.4f} {m['bound']:6.3f}{flag}")
        rows["error_rate"] = {"unit": "ratio", "attempted": attempted, "failed": failed,
                              "value": failed / attempted}
        print(f"  {'error_rate':14s} {'ratio':6s} {len(runs):4d} {failed / attempted:12.6g}"
              f"   ({failed} of {attempted} jobs)")
        entry["end_to_end"][w] = rows

        if trace_seeds:
            traced = [run(spec, w, s, 1) for s in trace_seeds]
            layer = {}
            print(f"  per-layer, {len(traced)} traced runs, seeds {trace_seeds}:")
            for name, unit in layer_units.items():
                values = [r["metrics"][name]["value"] for r in traced]
                exact = len(set(values)) == 1
                layer[name] = {"unit": unit, "median": statistics.median(values),
                               "repeats_exactly": exact}
                print(f"    {name:38s} {unit:9s} {layer[name]['median']:14.6g}"
                      f"{'  (repeats exactly)' if exact else ''}")
            entry["per_layer"][w] = layer
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1,1")
    ap.add_argument("--append", metavar="LABEL", help="add the figures to trajectory.jsonl")
    ap.add_argument("--commit", help="git SHA of the program measured (required with --append)")
    args = ap.parse_args(argv)
    if args.append and not args.commit:
        ap.error("--append needs --commit")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seed_list = seeds(args.seeds)
    trace_seeds = seeds(args.trace_seeds) if args.trace_seeds else []
    entry = summarize(spec, workloads, seed_list, trace_seeds)
    if args.append:
        entry = {"label": args.append, "commit": args.commit,
                 "date": datetime.date.today().isoformat(),
                 "run_seconds": spec["run_seconds"], "seeds": seed_list,
                 "trace_seeds": trace_seeds, **entry}
        with TRAJECTORY.open("a") as fh:
            fh.write(json.dumps(entry) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
