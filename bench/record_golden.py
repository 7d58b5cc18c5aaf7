"""Record golden.json: the program's values on fixed golden inputs.

    python3 bench/record_golden.py

Run once at the commit whose numbers are the baseline (the seed commit).
Every later run of run.py requires the numpy reference to reproduce these
values before it times anything, so the reference encodes that commit's
p-values and power rates.
"""

import json
import os
import shutil
import subprocess

import run
from workloads import WORKLOADS

SEED = 0
ITEMS = 2


def main():
    work = run.ROOT / ".bench_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    golden = {"commit": commit, "seed": SEED, "workloads": {}}
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(run.kernmetric, work, SEED)
            wl.setup()
            golden["workloads"][name] = []
            for item in range(ITEMS):
                values = wl.values(item, wl.job(item))
                golden["workloads"][name].append({k: values[k] for k in cls.golden_keys})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
