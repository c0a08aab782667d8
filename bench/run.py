#!/usr/bin/env python3
"""Run one gamesurv benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from that
checkout's ``src/``. With ``--trace 0`` the run sets up the workload three
times, then repeats timed passes for ``--seconds`` and reports the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
rounds (one set-up plus one pass each) and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_REPS = 3
# the reference values must survive a change that only reorders float sums
REFERENCE_RTOL = 1e-12


def import_package() -> float:
    """Import gamesurv from this checkout's src/ and return the import time
    (numpy, scipy and the package). Exits nonzero when src/ is absent, so
    the benchmark never measures some other installed copy."""
    src = ROOT / "src"
    if not (src / "gamesurv" / "__init__.py").is_file():
        sys.exit(f"bench: no gamesurv package under {src}; run from a full checkout")
    # One BLAS thread: a second OpenBLAS thread spins on the batch-64 matmuls
    # of the step loop, costs a core, and ties every figure to whatever else
    # runs on that core. It must be set before numpy loads OpenBLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import gamesurv  # noqa: F401
    import gamesurv.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(gamesurv.__file__).resolve().parent != (src / "gamesurv").resolve():
        sys.exit(f"bench: imported gamesurv from {gamesurv.__file__}, not {src}")
    return elapsed


# -- machine record -----------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded;
    None when numpy ships another BLAS."""
    import ctypes

    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return int(get())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gamesurv").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _children_cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


# a launcher that runs helpers before exec'ing python leaves their usage here
CHILDREN_CPU_AT_START = _children_cpu_s()


def process_checks(machine: dict) -> list[str]:
    """The run must stay one process with no more BLAS threads than cores."""
    failures = []
    if _children_cpu_s() != CHILDREN_CPU_AT_START:
        failures.append("the run started child processes")
    threads = machine["blas_threads"]
    if threads is not None and threads > len(machine["affinity"]):
        failures.append(f"{threads} BLAS threads on {len(machine['affinity'])} cores")
    return failures


# -- comparing outputs --------------------------------------------------------


def as_json(output):
    """The output as JSON would store it, so that passes and the committed
    reference compare alike."""
    return json.loads(json.dumps(output, default=_jsonable))


def differences(actual, expected, rtol: float, where: str = "output") -> list[str]:
    """Where two JSON values differ: floats by more than ``rtol`` relative,
    anything else at all."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: keys differ"]
        return [m for k in expected
                for m in differences(actual[k], expected[k], rtol, f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: lengths differ"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in differences(a, e, rtol, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(actual - expected) <= rtol * max(abs(actual), abs(expected)):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where}: {actual!r} vs {expected!r}"]


# -- running ------------------------------------------------------------------


class Ledger:
    """Ops attempted and failed over a run, with the failure messages.

    The first pass is checked in full, and against the reference at the
    default seed; every later pass must return the same output.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first = None
        self.first_failed = 0

    def record(self, ctx, output) -> None:
        ops = self.workload.ops
        self.attempted += ops
        if self.first is None:
            found = self.workload.check(ctx, output)
            self.first = as_json(output)
            failed = min(len(found), ops)
            if self.reference is not None:
                mismatches = differences(self.first, self.reference, REFERENCE_RTOL)
                if mismatches:
                    found.append(f"{len(mismatches)} values differ from bench/reference.json, "
                                 f"first {mismatches[0]} (run vs reference)")
                    failed = ops
            self.messages += found
            self.first_failed = failed
            self.failed += failed
        elif not differences(as_json(output), self.first, 0.0):
            self.failed += self.first_failed
        else:
            self.failed += ops
            self.messages.append("a pass returned another output than the first")

    def crashed(self, exc: Exception) -> None:
        self.attempted += self.workload.ops
        self.failed += self.workload.ops
        self.messages.append("a pass raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    def problem(self, message: str) -> None:
        """A failure of the run as a whole rather than of one op."""
        self.messages.append(message)


def measure(workload, seed, seconds, workdir, ledger, import_s):
    """Set up SETUP_REPS times, then run timed passes for ``seconds``."""
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ctx = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
    rates, walls, cpus = [], [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            items, output = workload.run(ctx)
        except Exception as exc:  # a failed op; the run reports it and stops
            ledger.crashed(exc)
            break
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
        rates.append(items / walls[-1])
        ledger.record(ctx, output)
    values = {
        "items_per_s": statistics.median(rates) if rates else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(setups),
    }
    detail = {"import_s": import_s, "setup_s": setups, "pass_s": walls, "pass_cpu_s": cpus}
    return values, detail, []


def measure_traced(workload, seed, seconds, workdir, ledger, import_s):
    """Alternate untraced and traced rounds of one set-up plus one pass.
    Counts must repeat exactly from round to round; times are medians."""
    from tracer import Tracer

    plain, traced, layers, spans = [], [], [], []
    began = time.perf_counter()
    try:  # an untimed first round, so that neither side pays the cold start
        ctx = workload.setup(seed, workdir)
        ledger.record(ctx, workload.run(ctx)[1])
    except Exception as exc:  # a failed op; the run reports it and stops
        ledger.crashed(exc)
        return {}, {}, []
    while not traced or time.perf_counter() - began < seconds:
        try:
            start = time.perf_counter()
            ctx = workload.setup(seed, workdir)
            _, output = workload.run(ctx)
            plain.append(time.perf_counter() - start)
            ledger.record(ctx, output)

            tracer = Tracer()
            start = time.perf_counter()
            with tracer:
                ctx = workload.setup(seed, workdir)
                _, output = workload.run(ctx)
            traced.append(time.perf_counter() - start)
        except Exception as exc:  # a failed op; the run reports it and stops
            ledger.crashed(exc)
            break
        ledger.record(ctx, output)
        layers.append(tracer.layer_values())
        spans.append(tracer.spans())

    values = {}
    if layers:
        plain = plain[:len(traced)]  # a round whose traced half raised has no pair
        values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        for name in layers[0]:
            if name.endswith(("self_s", "per_s")):
                values[name] = statistics.median(layer[name] for layer in layers)
                continue
            seen = sorted({layer[name] for layer in layers})
            if len(seen) != 1:
                ledger.problem(f"{name} differs between traced rounds: {seen}")
            values[name] = seen[0]
        for name in workload.layers:
            if not values[name] > 0:
                ledger.problem(f"{name} is zero on {workload.name}: its wrapper never fired")
    return values, {"plain_round_s": plain, "traced_round_s": traced}, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    sys.path.insert(0, str(BENCH))
    from tracer import SPANS
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    machine = machine_record(args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH / "reference.json").read_text()).get(workload.name)
    ledger = Ledger(workload, reference)
    workdir = OUT / f"work-{workload.name}-seed{args.seed}-trace{args.trace}"
    measure_fn = measure_traced if args.trace else measure
    values, detail, spans = measure_fn(workload, args.seed, seconds, workdir, ledger, import_s)
    shutil.rmtree(workdir, ignore_errors=True)
    if not ledger.messages and values.keys() != units.keys():
        ledger.problem(f"measured metrics {sorted(values.keys() ^ units.keys())} "
                       "do not match the ones BENCHMARK.json declares")
    for message in process_checks(machine):
        ledger.problem(message)
    correct = ledger.failed == 0 and not ledger.messages

    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {why}")
    rows = [(name, values[name], units[name]) for name in sorted(values)
            if values[name] is not None and name != "items_per_s"]
    if values.get("items_per_s") is not None:
        rows.insert(0, (workload.alias, values["items_per_s"],
                        f"{workload.alias_unit}, reported as items_per_s"))
    rows.append(("failed_ops_frac", ledger.failed / max(ledger.attempted, 1), "fraction"))
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    if args.trace and "trace.overhead" in values:
        print(f"  tracing overhead: a traced round takes {values['trace.overhead']:.3f}x "
              "the wall time of an untraced one")
    print(f"  correct: {correct} ({ledger.failed} of {ledger.attempted} ops failed)")
    for message in ledger.messages[:20]:
        print(f"  FAIL {message}")
    print("machine " + json.dumps(machine, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name)}
            for name, value in values.items() if value is not None
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {**result, "machine": machine, "detail": detail, "messages": ledger.messages}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, default=_jsonable, sort_keys=True))
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({"names": SPANS, "rounds": spans}))
    print(json.dumps(result))
    return 0 if correct else 1


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
