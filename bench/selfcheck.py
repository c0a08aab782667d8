#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 bench/selfcheck.py

Runs ``bench/run.py --trace 1`` twice per workload at one seed, in separate
processes, one after the other. Each run must pass its own checks, which
include that every per-layer metric its workload exercises is nonzero (a
zero means a wrapper never fired). Every count-type metric (unit ``count``
or ``GFLOP``) must then read exactly the same in both runs. Exits nonzero
on the first workload that fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = "1"


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: traced run failed (exit {proc.returncode})\n"
                 f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(lines[-1])["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "GFLOP")]
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = traced_run(workload), traced_run(workload)
        differ = [n for n in counted if first[n]["value"] != second[n]["value"]]
        if differ:
            sys.exit(f"{workload}: counts differ between two runs at seed {SEED}: {differ}")
        print(f"{workload}: ok, {len(counted)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
