"""Golden artefacts of ``cli train``: two tiny runs, one per game objective,
with checkpoint selection on.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make.py

which rewrites ``<objective>/`` and ``environment.json`` next to this file.
``tests/test_golden.py`` reruns the same configs and compares the bytes. The
MLP's matrix products round as the BLAS kernel does, so the bytes are
promised only under the builds recorded in ``environment.json``.
"""

from __future__ import annotations

import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

from gamesurv.cli import main

HERE = Path(__file__).resolve().parent
OBJECTIVES = ("bs-game", "bll-game")
FILES = ("model_F.json", "model_G.json", "train_log.jsonl", "selection.json")


def config(objective: str) -> dict:
    return {
        "experiment": objective,
        "seed": 0,
        "n_bins": 5,
        "data": {"generator": {"kind": "gamma", "feature_dim": 4}, "n_train": 48, "n_val": 40},
        # a rate high enough that selection picks interior checkpoints
        "train": {"objective": objective, "epochs": 12, "batch_size": 16,
                  "learning_rate": 0.2, "hidden": [6]},
        "selection": {"enabled": True},
    }


def environment() -> dict:
    """The builds the bytes depend on: numpy and its BLAS for the MLP, scipy
    for the gamma generator's inverse incomplete gamma."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine()}


def train(objective: str, out: Path) -> Path:
    """Run ``cli train`` on the objective's config; returns its output folder."""
    path = out / f"{objective}.json"
    path.write_text(json.dumps(config(objective)))
    if main(["train", str(path), "--out", str(out)]) != 0:
        raise RuntimeError(f"cli train failed for {objective}")
    return out / objective / "0"


def make() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for objective in OBJECTIVES:
            run = train(objective, Path(tmp))
            dest = HERE / objective
            dest.mkdir(exist_ok=True)
            for name in FILES:
                shutil.copyfile(run / name, dest / name)
    (HERE / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")


if __name__ == "__main__":
    make()
