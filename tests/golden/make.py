"""Golden artefacts of the command line and of the population games: two
tiny training runs, one per game objective, with checkpoint selection on;
the bs-game run's models scored on one test split under every weighting;
every file of one small run per case of ``COMMANDS`` (an nll and a
marginal-world multiplayer training run, a two-point sweep, the three
oracle commands and two simulations, one per generator); and the end states of the summed and multiplayer games
on the exact population batches of ``POPULATION_SEEDS``' worlds.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make.py

which rewrites ``<objective>/``, ``evaluate/<weighting>/``, ``<case>/``,
``population/`` and ``environment.json`` next to this file.
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

from gamesurv import games, simgen
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


MARGINAL = {"theta_t": [0.3, 0.5, 0.2], "theta_c": [0.4, 0.3, 0.3]}
PLANAR = {"theta_t": [0.3, 0.7], "theta_c": [0.4, 0.6]}
# case -> (command, config); the golden keeps every file the run writes
COMMANDS = {
    "train-nll": ("train", config("nll")),
    "train-multiplayer": ("train", {
        "seed": 0,
        "n_bins": 3,
        "data": {"generator": {"kind": "marginal", **MARGINAL}, "n_train": 60, "n_val": 40},
        "train": {"objective": "bll-game", "game_form": "multiplayer", "optimizer": "sgd",
                  "epochs": 12, "batch_size": 20, "learning_rate": 0.05},
        "selection": {"enabled": True},
    }),
    "sweep": ("sweep", {
        "generator": {"kind": "gamma", "feature_dim": 4},
        "sizes": [32], "seeds": [0], "objectives": ["nll", "bll-game"],
        "n_bins": 5, "n_val": 24, "n_test": 40,
        "train": {"epochs": 4, "batch_size": 16, "learning_rate": 0.1, "hidden": [6]},
    }),
    # two seeds of one small size each, with the latent sidecar
    "simulate-marginal": ("simulate", {
        "generator": {"kind": "marginal", **MARGINAL}, "sizes": [12], "seeds": [0, 1],
    }),
    "simulate-gamma": ("simulate", {
        "generator": {"kind": "gamma", "feature_dim": 3}, "sizes": [10], "seeds": [0, 1],
    }),
    "gradient-field": ("gradient-field", {"world": PLANAR, "resolution": 6}),
    "joint-scan": ("joint-scan", {"world": PLANAR, "resolution": 7}),
    "stationary-check": ("stationary-check", {
        "worlds": [{"theta_t": [0.2, 0.3, 0.5], "theta_c": [0.3, 0.3, 0.4]}], "n_starts": 6,
    }),
}
# random_interior_world(4, default_rng(seed)): at seed 4 the failure
# survival past the last bin rounds to 2.2e-16 instead of 0
POPULATION_SEEDS = (0, 4)
POPULATION_STEPS = 300
POPULATION_GAMES = (("nll", "summed", 0.25), ("bs-game", "summed", 0.25),
                    ("bll-game", "summed", 0.25), ("bs-game", "multiplayer", 0.01),
                    ("bll-game", "multiplayer", 0.01))


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


def run_command(case: str, out: Path) -> Path:
    """Run one case of ``COMMANDS``; returns the folder its files are in."""
    command, cfg = COMMANDS[case]
    path = out / f"{case}.json"
    path.write_text(json.dumps({**cfg, "experiment": case}))
    if main([command, str(path), "--out", str(out)]) != 0:
        raise RuntimeError(f"cli {command} failed for {case}")
    return out / case


def files(folder: Path) -> list[str]:
    """The paths of every file under ``folder``, relative to it, sorted."""
    return sorted(str(p.relative_to(folder)) for p in folder.rglob("*") if p.is_file())


def population(seed: int) -> str:
    """End states, as JSON text, of the games of ``POPULATION_GAMES`` run for
    ``POPULATION_STEPS`` sgd steps on the exact population batch of the
    seed's world: both players' parameters, the last step's record and the
    clamp count."""
    world = simgen.random_interior_world(4, np.random.default_rng(seed))
    batch = simgen.population_batch(world)
    out = {}
    for objective, form, rate in POPULATION_GAMES:
        config = games.TrainConfig(objective=objective, game_form=form, optimizer="sgd",
                                   learning_rate=rate, epochs=0, seed=seed)
        state = games.init_state(world.n_bins, 0, config)
        step = games.step_multiplayer if form == "multiplayer" else games.step_summed
        for _ in range(POPULATION_STEPS):
            record = step(state, batch)
        out[f"{objective} {form}"] = {"params": state.pair.params.tolist(), "last_step": record,
                                      "clamp_count": state.clamp.count}
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


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
        for case in COMMANDS:
            run = run_command(case, Path(tmp))
            shutil.rmtree(HERE / case, ignore_errors=True)
            for name in files(run):
                (HERE / case / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(run / name, HERE / case / name)
    (HERE / "population").mkdir(exist_ok=True)
    for seed in POPULATION_SEEDS:
        (HERE / "population" / f"world-{seed}.json").write_text(population(seed))
    (HERE / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")


if __name__ == "__main__":
    make()
