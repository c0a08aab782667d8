"""Config-driven command line for simulation, training, evaluation, and the
population-level diagnostics.

Every command takes one JSON config file; flags only override paths. Outputs
land under ``<out>/<experiment>/...``, contain no timestamps, and are
byte-identical across reruns of the same config. Errors leave a single JSON
object on stderr and a nonzero exit code.

Commands:

- ``simulate``: datasets to CSV (+ latent sidecar) per (seed, size).
- ``train``: one training run; writes the per-epoch JSONL log, the selected
  model pair, the bin grid, and the selection summary.
- ``evaluate``: score a saved model pair on a test split.
- ``sweep``: the full grid (objective x size x seed) with per-point reports
  and a mean/std aggregate; points run in a process pool when workers > 1.
- ``gradient-field`` / ``joint-scan``: two-bin population diagnostics as CSV.
- ``stationary-check``: multi-start stationary-point scan on given or
  random worlds.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import core, games, metrics, oracle, simgen

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str, context: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return cfg[key]


def _int_key(cfg: dict, key: str, minimum: int, default=None, context: str = "config") -> int:
    """An integer config value of at least ``minimum``; required when no
    default is given. Floats and strings are rejected, not truncated."""
    value = _require(cfg, key, context) if default is None else cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{context} key {key!r} must be >= {minimum}, got {value}")
    return value


def _int_list(cfg: dict, key: str, minimum: int, context: str = "config") -> list[int]:
    """A required non-empty list of integers, each checked like ``_int_key``."""
    values = _require(cfg, key, context)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{context} key {key!r} must be a non-empty list, got {values!r}")
    return [
        _int_key({f"{key}[{i}]": v}, f"{key}[{i}]", minimum, context=context)
        for i, v in enumerate(values)
    ]


def _choice_key(cfg: dict, key: str, choices: tuple, default: str) -> str:
    value = cfg.get(key, default)
    if value not in choices:
        raise ConfigError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _selection_key(cfg: dict) -> dict:
    value = cfg.get("selection", {"enabled": True})
    if not isinstance(value, dict):
        raise ConfigError(f"config key 'selection' must be an object, got {value!r}")
    if not isinstance(value.get("enabled", True), bool):
        raise ConfigError(
            f"selection key 'enabled' must be true or false, got {value['enabled']!r}"
        )
    if "seed" in value:
        _int_key(value, "seed", 0, context="selection")
    return value


def _json_dump(payload, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ": "))
        fh.write("\n")


def _out_dir(cfg: dict, args) -> Path:
    base = Path(args.out if args.out else cfg.get("out", "out"))
    return base / _require(cfg, "experiment")


# -- generators --------------------------------------------------------------


def _gamma_config(spec: dict, n: int, seed) -> simgen.GammaSimConfig:
    knobs = {k: v for k, v in spec.items() if k not in ("kind", "n", "seed")}
    try:
        return simgen.GammaSimConfig(n=n, seed=seed, **knobs)
    except (TypeError, ValueError) as exc:  # an unknown knob is a TypeError naming it
        raise ConfigError(f"bad gamma generator: {exc}") from None


def _make_generator(spec: dict, n: int, seed) -> simgen.RawSurvivalData:
    kind = _require(spec, "kind", "generator")
    if kind == "gamma":
        return simgen.gen_gamma(_gamma_config(spec, n, seed))
    if kind == "marginal":
        ds = simgen.gen_marginal(_world_from(spec, "generator"), n, seed)
        return simgen.RawSurvivalData(
            ds.features, ds.raw_time, ds.event,
            latent_time=ds.latent_time, latent_censor=ds.latent_censor,
        )
    raise ConfigError(f"unknown generator kind {kind!r}")


def _marginal_grid(data_cfg: dict) -> np.ndarray | None:
    """The world's own bin grid when the splits come from a marginal
    generator, whose times are already the bin indices 1..K."""
    gen = data_cfg.get("generator")
    if "train_csv" in data_cfg or not isinstance(gen, dict) or gen.get("kind") != "marginal":
        return None
    return _world_from(gen, "generator").bin_edges


def _world_from(spec: dict, context: str = "world") -> simgen.MarginalWorld:
    return simgen.MarginalWorld(
        np.asarray(_require(spec, "theta_t", context)),
        np.asarray(_require(spec, "theta_c", context)),
    )


# -- commands ----------------------------------------------------------------


def cmd_simulate(cfg: dict, args) -> None:
    out = _out_dir(cfg, args)
    gen = _require(cfg, "generator")
    seeds = _int_list(cfg, "seeds", 0) if "seeds" in cfg else [_int_key(cfg, "seed", 0, 0)]
    if "sizes" in cfg:
        sizes = _int_list(cfg, "sizes", 1)
    elif "n" in gen:
        sizes = [_int_key(gen, "n", 1, context="generator")]
    else:
        raise ConfigError("simulate needs 'sizes' (or a generator 'n')")
    for seed in seeds:
        for n in sizes:
            data = _make_generator(gen, n, seed)
            base = out / str(seed)
            base.mkdir(parents=True, exist_ok=True)
            simgen.save_csv(base / f"data_n{n}.csv", data)
            if data.latent_time is not None:
                simgen.save_latent_csv(base / f"data_n{n}_latent.csv", data)


def _prepare_splits(cfg: dict, seed: int):
    """Raw train/val splits from CSVs or a generator, standardized by the
    training split, plus the generator spec for downstream test draws."""
    data_cfg = _require(cfg, "data")
    if "train_csv" in data_cfg:
        train_raw = simgen.load_csv(data_cfg["train_csv"])
        val_raw = simgen.load_csv(data_cfg["val_csv"]) if "val_csv" in data_cfg else None
    elif "generator" in data_cfg:
        gen = data_cfg["generator"]
        n_train = _int_key(data_cfg, "n_train", 1, context="data")
        n_val = _int_key(data_cfg, "n_val", 1, context="data") if "n_val" in data_cfg else None
        train_raw = _make_generator(gen, n_train, (seed, 0))
        val_raw = _make_generator(gen, n_val, (seed, 1)) if n_val is not None else None
    else:
        raise ConfigError("data needs either train_csv or generator")
    std = simgen.Standardizer.fit(train_raw.features)
    train_raw = std.apply(train_raw)
    val_raw = std.apply(val_raw) if val_raw is not None else None
    return train_raw, val_raw, std


def _train_config(cfg: dict, seed: int) -> games.TrainConfig:
    train_cfg = dict(_require(cfg, "train"))
    train_cfg.setdefault("seed", seed)
    if "hidden" in train_cfg:
        train_cfg["hidden"] = tuple(train_cfg["hidden"])
    try:
        return games.TrainConfig(**train_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from None


def _run_training(cfg: dict, seed: int):
    """Shared train + select pipeline; returns everything evaluate needs."""
    selection_cfg = _selection_key(cfg)
    need_val = selection_cfg.get("enabled", True)
    data_cfg = _require(cfg, "data")
    grid = _marginal_grid(data_cfg)
    n_bins = _int_key(cfg, "n_bins", 2, 20 if grid is None else grid.size - 1)
    if grid is not None and n_bins != grid.size - 1:
        raise ConfigError(
            f"config key 'n_bins' must be the marginal world's {grid.size - 1} bins, got {n_bins}"
        )
    config = _train_config(cfg, seed)
    val_key = "val_csv" if "train_csv" in data_cfg else "n_val"
    if need_val and val_key not in data_cfg:
        raise ConfigError(
            f"model selection is enabled but no validation split is configured "
            f"(data has no {val_key!r})"
        )
    train_raw, val_raw, std = _prepare_splits(cfg, seed)
    if grid is None:
        train_ds = core.discretize(train_raw, n_bins=n_bins)
    else:
        train_ds = core.discretize(train_raw, edges=grid)
    val_ds = (
        core.discretize(val_raw, edges=train_ds.bin_edges) if val_raw is not None else None
    )
    state = games.train(train_ds, config)
    selection = None
    if need_val:
        result = games.select_models(state, val_ds, selection_cfg.get("seed"))
        model_f, model_g = result.model_f, result.model_g
        selection = {
            "f_epoch": result.f_epoch,
            "g_epoch": result.g_epoch,
            "converged": result.converged,
            "rounds": result.rounds,
        }
    else:
        model_f, model_g = state.model_f, state.model_g
    return state, model_f, model_g, train_ds, std, selection


def cmd_train(cfg: dict, args) -> None:
    seed = _int_key(cfg, "seed", 0, 0)
    out = _out_dir(cfg, args) / str(seed)
    out.mkdir(parents=True, exist_ok=True)
    state, model_f, model_g, train_ds, std, selection = _run_training(cfg, seed)
    with open(out / "train_log.jsonl", "w") as fh:
        for record in state.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    model_f.save(out / "model_F.json")
    model_g.save(out / "model_G.json")
    simgen.write_bin_edges(out / "bin_edges.json", train_ds.bin_edges)
    _json_dump(
        {"mean": std.mean.tolist(), "std": std.std.tolist()}, out / "standardizer.json"
    )
    if selection is not None:
        _json_dump(selection, out / "selection.json")


def _load_standardizer(path) -> simgen.Standardizer:
    with open(path) as fh:
        payload = json.load(fh)
    return simgen.Standardizer(np.asarray(payload["mean"]), np.asarray(payload["std"]))


def _write_calibration(path: Path, levels, observed) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "observed"])
        for a, o in zip(levels, observed):
            writer.writerow([repr(float(a)), repr(float(o))])


def _score_test_split(test_raw, edges, model_f, model_g, weighting, world=None):
    """Bin a standardized test split on the training grid and evaluate the
    failure model under one weighting (``model_g`` may be None)."""
    test_ds = core.discretize(test_raw, edges=edges)
    f_pmf = model_f.predict_pmf(test_ds.features, n=test_ds.n)
    g_pmf = model_g.predict_pmf(test_ds.features, n=test_ds.n) if model_g else None
    return metrics.evaluate(f_pmf, test_ds, weighting, g_pmf, world)


def cmd_evaluate(cfg: dict, args) -> None:
    from .models import Model

    seed = _int_key(cfg, "seed", 0, 0)
    weighting = _choice_key(cfg, "weighting", metrics.WEIGHTINGS, "km")
    needs = {"true-G": "world", "model-G": "model_g"}.get(weighting)
    if needs is not None and not cfg.get(needs):
        raise ConfigError(f"config key 'weighting' {weighting!r} needs config key {needs!r}")
    out = _out_dir(cfg, args) / str(seed)
    out.mkdir(parents=True, exist_ok=True)
    model_f = Model.load(_require(cfg, "model_f"))
    model_g = Model.load(cfg["model_g"]) if cfg.get("model_g") else None
    edges = simgen.read_bin_edges(_require(cfg, "bin_edges"))
    data_cfg = _require(cfg, "data")
    if "test_csv" in data_cfg:
        test_raw = simgen.load_csv(data_cfg["test_csv"])
    else:
        test_raw = _make_generator(
            _require(data_cfg, "generator", "data"),
            _int_key(data_cfg, "n_test", 1, context="data"),
            (seed, 2),
        )
    if cfg.get("standardizer"):
        test_raw = _load_standardizer(cfg["standardizer"]).apply(test_raw)
    world = _world_from(cfg["world"]) if "world" in cfg else None
    report = _score_test_split(test_raw, edges, model_f, model_g, weighting, world)
    _json_dump(report.to_dict(), out / "report.json")
    if report.calibration_levels is not None:
        _write_calibration(
            out / "calibration.csv", report.calibration_levels, report.calibration_observed
        )


def _sweep_point(payload: dict) -> dict:
    cfg, objective, size, seed = (
        payload["cfg"],
        payload["objective"],
        payload["size"],
        payload["seed"],
    )
    sub = {
        "data": {
            "generator": cfg["generator"],
            "n_train": size,
            "n_val": cfg.get("n_val", 1024),
        },
        "train": _sweep_train(cfg, objective),
        "selection": _selection_key(cfg),
    }
    if "n_bins" in cfg:
        sub["n_bins"] = cfg["n_bins"]
    state, model_f, model_g, train_ds, std, selection = _run_training(sub, seed)
    test_raw = std.apply(
        _make_generator(cfg["generator"], _int_key(cfg, "n_test", 1, 2048), (seed, 2))
    )
    report = _score_test_split(
        test_raw, train_ds.bin_edges, model_f, model_g,
        _choice_key(cfg, "weighting", _SWEEP_WEIGHTINGS, "uncensored-latent"),
    )
    return {
        "objective": objective,
        "n_train": size,
        "seed": seed,
        "selection": selection,
        "report": report.to_dict(),
    }


def _sweep_train(cfg: dict, objective: str) -> dict:
    return {**cfg.get("train", {}), "objective": objective}


# a sweep point scores against no world, so the true-G weighting is out
_SWEEP_WEIGHTINGS = ("uncensored-latent", "km", "model-G")
_AGGREGATE_KEYS = ("bs_sum", "bs_mean", "bll_sum", "bll_mean", "nll", "concordance")


def cmd_sweep(cfg: dict, args) -> None:
    out = _out_dir(cfg, args) / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    gen = _require(cfg, "generator")
    sizes = _int_list(cfg, "sizes", 1)
    seeds = _int_list(cfg, "seeds", 0)
    objectives = cfg.get("objectives", ["nll", "bs-game"])
    if not (isinstance(objectives, list) and objectives) or not all(
        obj in games.OBJECTIVES for obj in objectives
    ):
        raise ConfigError(
            f"config key 'objectives' must be a non-empty list of names from "
            f"{games.OBJECTIVES}, got {objectives!r}"
        )
    _choice_key(cfg, "weighting", _SWEEP_WEIGHTINGS, "uncensored-latent")
    _selection_key(cfg)
    _int_key(cfg, "n_test", 1, 2048)
    _int_key(cfg, "n_val", 1, 1024)
    if isinstance(gen, dict) and gen.get("kind") == "gamma":
        _gamma_config(gen, 1, 0)
    for obj in objectives:  # the checks of every point's TrainConfig, before any data
        _train_config({"train": _sweep_train(cfg, obj)}, seeds[0])
    points = [
        {"cfg": cfg, "objective": obj, "size": n, "seed": s}
        for obj in objectives
        for n in sizes
        for s in seeds
    ]
    workers = _int_key(cfg, "workers", 1, 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]
    aggregate = {}
    for res in results:
        _json_dump(
            res, out / f"{res['objective']}_n{res['n_train']}_seed{res['seed']}.json"
        )
    for obj in objectives:
        for n in sizes:
            rows = [
                r["report"] for r in results if r["objective"] == obj and r["n_train"] == n
            ]
            entry = {}
            for key in _AGGREGATE_KEYS:
                vals = np.array([row[key] for row in rows])
                entry[key] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
            aggregate[f"{obj}|n={n}"] = entry
    _json_dump(aggregate, out / "aggregate.json")


def cmd_gradient_field(cfg: dict, args) -> None:
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    world = _world_from(_require(cfg, "world"))
    field = oracle.gradient_field(world, _int_key(cfg, "resolution", 2, 200))
    with open(out / "field.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "u", "v"])
        for x, y, u, v in field.rows():
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(u)), repr(float(v))])
    norms = np.hypot(field.u, field.v)
    i, j = np.unravel_index(np.argmin(norms), norms.shape)
    _json_dump(
        {
            "min_norm": float(norms[i, j]),
            "min_norm_x": float(field.x[j]),
            "min_norm_y": float(field.y[i]),
            "truth_x": float(world.theta_t[0]),
            "truth_y": float(world.theta_c[0]),
            "cell_width": float(1.0 / field.x.size),
        },
        out / "field_summary.json",
    )


def cmd_joint_scan(cfg: dict, args) -> None:
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    world = _world_from(_require(cfg, "world"))
    scan = oracle.joint_objective_scan(world, _int_key(cfg, "resolution", 1, 201))
    with open(out / "joint_scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for i, yv in enumerate(scan.y):
            for j, xv in enumerate(scan.x):
                writer.writerow(
                    [repr(float(xv)), repr(float(yv)), repr(float(scan.values[i, j]))]
                )
    _json_dump(
        {
            "argmin_x": scan.argmin_x,
            "argmin_y": scan.argmin_y,
            "min_value": scan.min_value,
            "truth_x": scan.truth_x,
            "truth_y": scan.truth_y,
            "truth_value": scan.truth_value,
            "improper": scan.improper,
        },
        out / "joint_scan_summary.json",
    )


def cmd_stationary_check(cfg: dict, args) -> None:
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    worlds = []
    if "worlds" in cfg:
        worlds = [_world_from(w) for w in cfg["worlds"]]
    elif "random" in cfg:
        spec = cfg["random"]
        rng = np.random.default_rng(_int_key(spec, "seed", 0, 0, "random"))
        n_bins = _int_key(spec, "n_bins", 2, context="random")
        worlds = [
            simgen.random_interior_world(n_bins, rng)
            for _ in range(_int_key(spec, "count", 1, 5, "random"))
        ]
    else:
        raise ConfigError("stationary-check needs 'worlds' or 'random'")
    n_starts = _int_key(cfg, "n_starts", 1, 100)
    results = []
    for idx, world in enumerate(worlds):
        scan = oracle.stationary_scan(world, n_starts=n_starts, seed=idx)
        results.append(
            {
                "theta_t": world.theta_t.tolist(),
                "theta_c": world.theta_c.tolist(),
                "n_roots": len(scan.roots),
                "n_converged": scan.n_converged,
                "matches_truth": scan.matches_truth,
                "max_truth_deviation": (
                    scan.max_truth_deviation if np.isfinite(scan.max_truth_deviation) else None
                ),
                "induction_agrees": scan.induction_agrees,
                "spurious_qy_min": float(scan.spurious_qy.min()),
            }
        )
    _json_dump({"n_starts": n_starts, "worlds": results}, out / "stationary.json")


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "gradient-field": cmd_gradient_field,
    "joint-scan": cmd_joint_scan,
    "stationary-check": cmd_stationary_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gamesurv",
        description="Censoring-aware survival games: simulate, train, evaluate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON config for this command")
        p.add_argument("--out", default=None, help="override the output root directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        _COMMANDS[args.command](cfg, args)
    except BrokenPipeError:
        raise
    except Exception as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)}, sys.stderr
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
