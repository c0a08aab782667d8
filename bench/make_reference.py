#!/usr/bin/env python3
"""Rewrite bench/reference.json from the current code at the default seed.

    python3 bench/make_reference.py

The reference holds the sweep's per-point reports, selection epochs and
aggregate, and the evaluate reports and loss audit. ``run.py`` compares a
default-seed run against it at a relative tolerance of 1e-12. Rewrite it
only in a change that is meant to alter results, and say so in that change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.import_package()
    sys.path.insert(0, str(run.BENCH))
    from workloads import WORKLOADS

    reference = {}
    for name in ("sweep", "evaluate"):
        workload, workdir = WORKLOADS[name], run.OUT / f"reference-{name}"
        _, reference[name] = workload.run(workload.setup(run.DEFAULT_SEED, workdir))
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(reference, default=run._jsonable, indent=1, sort_keys=True)
    (run.BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
