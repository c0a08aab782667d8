"""Golden artefacts of ``cli train`` and ``cli evaluate``: two tiny training
runs, one per game objective, with checkpoint selection on, and the
bs-game run's models scored on one test split under every weighting.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make.py

which rewrites ``<objective>/``, ``evaluate/<weighting>/`` and
``environment.json`` next to this file.
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
from gamesurv.metrics import WEIGHTINGS

HERE = Path(__file__).resolve().parent
OBJECTIVES = ("bs-game", "bll-game")
FILES = ("model_F.json", "model_G.json", "train_log.jsonl", "selection.json")
EVAL_FILES = ("report.json", "calibration.csv")
INPUTS = {"model_f": "model_F.json", "model_g": "model_G.json",
          "bin_edges": "bin_edges.json", "standardizer": "standardizer.json"}
# the true-G weighting's world; only its censoring pmf is read, on the runs' 5 bins
WORLD = {"theta_t": [0.2, 0.2, 0.2, 0.2, 0.2], "theta_c": [0.1, 0.2, 0.3, 0.2, 0.2]}


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


def evaluate(weighting: str, run: Path, out: Path) -> Path:
    """Run ``cli evaluate`` on the models of the training run in ``run``
    under one weighting; returns its output folder."""
    cfg = {
        "experiment": f"evaluate-{weighting}",
        "seed": 0,
        "weighting": weighting,
        "data": {"generator": {"kind": "gamma", "feature_dim": 4}, "n_test": 400},
        **{key: str(run / name) for key, name in INPUTS.items()},
    }
    if weighting == "true-G":
        cfg["world"] = WORLD
    path = out / f"evaluate-{weighting}.json"
    path.write_text(json.dumps(cfg))
    if main(["evaluate", str(path), "--out", str(out)]) != 0:
        raise RuntimeError(f"cli evaluate failed for {weighting}")
    return out / f"evaluate-{weighting}" / "0"


def _copy(src: Path, dest: Path, names) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(src / name, dest / name)


def make() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {objective: train(objective, Path(tmp)) for objective in OBJECTIVES}
        for objective, run in runs.items():
            _copy(run, HERE / objective, FILES)
        for weighting in WEIGHTINGS:
            run = evaluate(weighting, runs["bs-game"], Path(tmp))
            _copy(run, HERE / "evaluate" / weighting, EVAL_FILES)
    (HERE / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")


if __name__ == "__main__":
    make()
