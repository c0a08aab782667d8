"""Config-driven command line for simulation, training, evaluation, and the
population-level diagnostics.

Every command takes one JSON config file; flags only override paths. Outputs
land under ``<out>/<experiment>/...``, contain no timestamps, and are
byte-identical across reruns of the same config. Errors leave a single JSON
object on stderr and a nonzero exit code.

Each command reads its whole config once, before it reads data, loads a
model or makes a directory: unknown keys and missing files are errors, and a
failing config raises a ``ConfigError`` naming the key and writes nothing.

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
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import core, games, metrics, models, oracle, simgen

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str, context: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return cfg[key]


def _keys(value, context: str, allowed=None) -> dict:
    """``value`` itself, once it is an object whose keys all lie in
    ``allowed`` (any keys when ``allowed`` is None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context!r} must be an object, got {value!r}")
    for key in value:
        if allowed is not None and key not in allowed:
            raise ConfigError(f"{context} has unknown key {key!r}; allowed: {', '.join(allowed)}")
    return value


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


def _path(cfg: dict, key: str, context: str = "config", required: bool = False):
    """A path key, which must name an existing file; None when absent."""
    value = _require(cfg, key, context) if required else cfg.get(key)
    if value is not None and not (isinstance(value, str) and Path(value).is_file()):
        raise ConfigError(f"{context} key {key!r} must name an existing file, got {value!r}")
    return value


def _selection_key(cfg: dict) -> tuple[bool, int | None]:
    """(enabled, seed) of the selection block."""
    value = _keys(cfg.get("selection", {}), "selection", ("enabled", "seed"))
    if not isinstance(value.get("enabled", True), bool):
        enabled = value["enabled"]
        raise ConfigError(f"selection key 'enabled' must be true or false, got {enabled!r}")
    seed = _int_key(value, "seed", 0, context="selection") if "seed" in value else None
    return value.get("enabled", True), seed


def _json_dump(payload, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ": "))
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Numeric rows, each value written as the repr of its float."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


# -- generators and worlds ---------------------------------------------------

# the gamma knobs a generator spec may set; n and seed come from the run
_GAMMA_KNOBS = tuple(
    f.name for f in dataclasses.fields(simgen.GammaSimConfig) if f.name not in ("n", "seed")
)


def _gamma_config(knobs: dict, n: int, seed) -> simgen.GammaSimConfig:
    try:
        return simgen.GammaSimConfig(n=n, seed=seed, **knobs)
    except ValueError as exc:
        raise ConfigError(f"bad gamma generator: {exc}") from None


def _world(spec, context: str, extra: tuple = ()) -> simgen.MarginalWorld:
    """Build a world once; its ValueError becomes a ConfigError naming the key."""
    thetas = [_require(_keys(spec, context, ("theta_t", "theta_c") + extra), k, context)
              for k in ("theta_t", "theta_c")]
    try:
        return simgen.MarginalWorld(*thetas)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context!r} is not a pair of distributions: {exc}") from None


def _generator(spec, sized: bool = False):
    """Check a generator spec once: its draw ``(n, seed) -> RawSurvivalData``
    and a marginal world's own grid, whose bins are its times 1..K. Only
    ``simulate`` without ``sizes`` (``sized``) reads a generator ``n``."""
    extra = ("kind", "n") if sized else ("kind",)
    kind = _require(_keys(spec, "generator"), "kind", "generator")
    if kind == "gamma":
        knobs = _keys(spec, "generator", _GAMMA_KNOBS + extra)
        knobs = {k: v for k, v in knobs.items() if k not in extra}
        _gamma_config(knobs, 1, 0)
        return (lambda n, seed: simgen.gen_gamma(_gamma_config(knobs, n, seed))), None
    if kind == "marginal":
        world = _world(spec, "generator", extra)

        def draw(n, seed):
            ds = simgen.gen_marginal(world, n, seed)
            return simgen.RawSurvivalData(
                ds.features, ds.raw_time, ds.event,
                latent_time=ds.latent_time, latent_censor=ds.latent_censor,
            )

        return draw, world.bin_edges
    raise ConfigError(f"generator key 'kind' must be 'gamma' or 'marginal', got {kind!r}")


def _planar_world(cfg: dict) -> simgen.MarginalWorld:
    world = _world(_require(cfg, "world"), "world")
    if world.n_bins != 2:
        raise ConfigError(f"'world' must have exactly 2 bins here, got {world.n_bins}")
    return world


# -- commands ----------------------------------------------------------------

_COMMON = ("experiment", "out")


def cmd_simulate(cfg: dict, out: Path) -> None:
    seed_key = "seeds" if "seeds" in cfg else "seed"
    _keys(cfg, "config", _COMMON + ("generator", "sizes", seed_key))
    seeds = _int_list(cfg, "seeds", 0) if "seeds" in cfg else [_int_key(cfg, "seed", 0, 0)]
    gen = _require(cfg, "generator")
    draw, _ = _generator(gen, sized="sizes" not in cfg)
    if "sizes" in cfg:
        sizes = _int_list(cfg, "sizes", 1)
    else:
        sizes = [_int_key(gen, "n", 1, context="generator")]
    for seed in seeds:
        for n in sizes:
            data = draw(n, seed)
            base = out / str(seed)
            base.mkdir(parents=True, exist_ok=True)
            simgen.save_csv(base / f"data_n{n}.csv", data)
            if data.latent_time is not None:
                simgen.save_latent_csv(base / f"data_n{n}_latent.csv", data)


# a run draws split s of its generator from the stream (seed, _SPLITS.index(s))
_SPLITS = ("train", "val", "test")


def _data_splits(data, seed: int, splits: tuple, select: bool = False):
    """Read a data block naming a CSV ``<split>_csv`` or a generator size
    ``n_<split>`` per split, the first required and the second too under
    ``select``. Returns ``(make, grid)``: ``make()`` gives the raw splits,
    None where not given, and ``grid`` is a marginal world's own grid."""
    csv_input = isinstance(data, dict) and f"{splits[0]}_csv" in data
    keys = [f"{s}_csv" if csv_input else f"n_{s}" for s in splits]
    _keys(data, "data", keys if csv_input else keys + ["generator"])
    if select and keys[1] not in data:
        raise ConfigError(
            f"model selection is enabled but no validation split is configured "
            f"(data has no {keys[1]!r})"
        )
    if csv_input:
        paths = [_path(data, key, "data", key == keys[0]) for key in keys]
        return (lambda: [simgen.load_csv(p) if p else None for p in paths]), None
    draw, grid = _generator(_require(data, "generator", "data"))
    sizes = [
        _int_key(data, k, 1, context="data") if k in data or k == keys[0] else None for k in keys
    ]
    streams = [(seed, _SPLITS.index(s)) for s in splits]
    return (lambda: [draw(n, s) if n else None for n, s in zip(sizes, streams)]), grid


def _train_config(block, seed: int) -> games.TrainConfig:
    block = {"seed": seed, **_keys(block, "train")}
    try:
        return games.TrainConfig(**block)
    except (TypeError, ValueError) as exc:  # an unknown field is a TypeError naming it
        raise ConfigError(f"bad train config: {exc}") from None


def _training_plan(cfg: dict, block, seed: int, select: tuple, splits, grid):
    """The training run of ``train`` and of every sweep point, read before any
    work: ``fit()`` makes the splits, standardizes them by the training
    split, bins them, trains and selects."""
    n_bins = _int_key(cfg, "n_bins", 2, 20 if grid is None else grid.size - 1)
    if grid is not None and n_bins != grid.size - 1:
        raise ConfigError(
            f"config key 'n_bins' must be the marginal world's {grid.size - 1} bins, got {n_bins}"
        )
    config = _train_config(block, seed)

    def fit():
        train_raw, val_raw = splits()
        std = simgen.Standardizer.fit(train_raw.features)
        train_raw = std.apply(train_raw)
        train_ds = core.discretize(train_raw, n_bins=n_bins if grid is None else None, edges=grid)
        val_ds = (
            core.discretize(std.apply(val_raw), edges=train_ds.bin_edges)
            if val_raw is not None else None
        )
        state = games.train(train_ds, config)
        if not select[0]:
            return state, state.model_f, state.model_g, train_ds, std, None
        result = games.select_models(state, val_ds, select[1])
        selection = {k: getattr(result, k) for k in ("f_epoch", "g_epoch", "converged", "rounds")}
        return state, result.model_f, result.model_g, train_ds, std, selection

    return fit


def cmd_train(cfg: dict, out: Path) -> None:
    _keys(cfg, "config", _COMMON + ("seed", "n_bins", "data", "train", "selection"))
    seed = _int_key(cfg, "seed", 0, 0)
    select = _selection_key(cfg)
    splits, grid = _data_splits(_require(cfg, "data"), seed, _SPLITS[:2], select[0])
    fit = _training_plan(cfg, _require(cfg, "train"), seed, select, splits, grid)
    state, model_f, model_g, train_ds, std, selection = fit()
    out = out / str(seed)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "train_log.jsonl", "w") as fh:
        for record in state.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    model_f.save(out / "model_F.json")
    model_g.save(out / "model_G.json")
    simgen.write_bin_edges(out / "bin_edges.json", train_ds.bin_edges)
    _json_dump({"mean": std.mean.tolist(), "std": std.std.tolist()}, out / "standardizer.json")
    if selection is not None:
        _json_dump(selection, out / "selection.json")


def _load_standardizer(path) -> simgen.Standardizer:
    with open(path) as fh:
        payload = json.load(fh)
    return simgen.Standardizer(np.asarray(payload["mean"]), np.asarray(payload["std"]))


def _score_test_split(test_raw, edges, model_f, model_g, weighting, world=None):
    """Bin a standardized test split on the training grid and evaluate the
    failure model under one weighting (``model_g`` may be None)."""
    test_ds = core.discretize(test_raw, edges=edges)
    f_pmf = model_f.predict_pmf(test_ds.features, n=test_ds.n)
    g_pmf = model_g.predict_pmf(test_ds.features, n=test_ds.n) if model_g else None
    return metrics.evaluate(f_pmf, test_ds, weighting, g_pmf, world)


_EVALUATE_PATHS = ("model_f", "model_g", "bin_edges", "standardizer")


def cmd_evaluate(cfg: dict, out: Path) -> None:
    _keys(cfg, "config", _COMMON + _EVALUATE_PATHS + ("seed", "weighting", "world", "data"))
    seed = _int_key(cfg, "seed", 0, 0)
    weighting = _choice_key(cfg, "weighting", metrics.WEIGHTINGS, "km")
    needs = {"true-G": "world", "model-G": "model_g"}.get(weighting)
    if needs is not None and not cfg.get(needs):
        raise ConfigError(f"config key 'weighting' {weighting!r} needs config key {needs!r}")
    paths = {
        key: _path(cfg, key, required=key in ("model_f", "bin_edges")) for key in _EVALUATE_PATHS
    }
    world = _world(cfg["world"], "world") if "world" in cfg else None
    make_test, _ = _data_splits(_require(cfg, "data"), seed, ("test",))
    out = out / str(seed)
    model_f = models.Model.load(paths["model_f"])
    model_g = models.Model.load(paths["model_g"]) if paths["model_g"] else None
    edges = simgen.read_bin_edges(paths["bin_edges"])
    (test_raw,) = make_test()
    if paths["standardizer"]:
        test_raw = _load_standardizer(paths["standardizer"]).apply(test_raw)
    report = _score_test_split(test_raw, edges, model_f, model_g, weighting, world)
    _json_dump(report.to_dict(), out / "report.json")
    if report.calibration_levels is not None:
        _write_csv(
            out / "calibration.csv", ["alpha", "observed"],
            zip(report.calibration_levels, report.calibration_observed),
        )


# a sweep point scores against no world, so the true-G weighting is out
_SWEEP_WEIGHTINGS = ("uncensored-latent", "km", "model-G")
_SWEEP_KEYS = _COMMON + (
    "generator", "sizes", "seeds", "objectives", "n_bins", "n_val", "n_test",
    "train", "selection", "weighting", "workers",
)
_AGGREGATE_KEYS = ("bs_sum", "bs_mean", "bll_sum", "bll_mean", "nll", "concordance")


def _sweep_plan(cfg: dict, objective: str, size: int, seed: int):
    """One sweep point read from the sweep config, before any work: the
    training run's ``fit``, the test-split draw and the weighting."""
    block = _keys(cfg.get("train", {}), "train")
    if "objective" in block:
        raise ConfigError("a sweep takes its objectives from config key 'objectives', not 'train'")
    select = _selection_key(cfg)
    draw, grid = _generator(_require(cfg, "generator"))
    n_val = _int_key(cfg, "n_val", 1, 1024)
    fit = _training_plan(
        cfg, {**block, "objective": objective}, seed, select,
        lambda: [draw(size, (seed, 0)), draw(n_val, (seed, 1))], grid,
    )
    n_test = _int_key(cfg, "n_test", 1, 2048)
    weighting = _choice_key(cfg, "weighting", _SWEEP_WEIGHTINGS, "uncensored-latent")
    return fit, lambda: draw(n_test, (seed, 2)), weighting


def _sweep_point(payload: dict) -> dict:
    objective, size, seed = payload["objective"], payload["size"], payload["seed"]
    fit, draw_test, weighting = _sweep_plan(payload["cfg"], objective, size, seed)
    state, model_f, model_g, train_ds, std, selection = fit()
    test_raw = std.apply(draw_test())
    report = _score_test_split(test_raw, train_ds.bin_edges, model_f, model_g, weighting)
    return dict(objective=objective, n_train=size, seed=seed, selection=selection,
                report=report.to_dict())


def cmd_sweep(cfg: dict, out: Path) -> None:
    _keys(cfg, "config", _SWEEP_KEYS)
    sizes = _int_list(cfg, "sizes", 1)
    seeds = _int_list(cfg, "seeds", 0)
    objectives = cfg.get("objectives", ["nll", "bs-game"])
    if not (isinstance(objectives, list) and objectives) or not all(
        obj in games.OBJECTIVES for obj in objectives
    ):
        raise ConfigError(f"config key 'objectives' must be a non-empty list of names from "
                          f"{games.OBJECTIVES}, got {objectives!r}")
    workers = _int_key(cfg, "workers", 1, 1)
    for obj in objectives:  # every point's reads, before any data or pool
        _sweep_plan(cfg, obj, sizes[0], seeds[0])
    points = [{"cfg": cfg, "objective": obj, "size": n, "seed": s}
              for obj in objectives for n in sizes for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]
    out = out / "sweep"
    aggregate = {}
    for res in results:
        _json_dump(res, out / f"{res['objective']}_n{res['n_train']}_seed{res['seed']}.json")
    for obj in objectives:
        for n in sizes:
            rows = [r["report"] for r in results if r["objective"] == obj and r["n_train"] == n]
            vals = {key: np.array([row[key] for row in rows]) for key in _AGGREGATE_KEYS}
            aggregate[f"{obj}|n={n}"] = {
                key: {"mean": float(v.mean()), "std": float(v.std(ddof=0))}
                for key, v in vals.items()
            }
    _json_dump(aggregate, out / "aggregate.json")


def cmd_gradient_field(cfg: dict, out: Path) -> None:
    _keys(cfg, "config", _COMMON + ("world", "resolution"))
    world = _planar_world(cfg)
    field = oracle.gradient_field(world, _int_key(cfg, "resolution", 2, 200))
    _write_csv(out / "field.csv", ["x", "y", "u", "v"], field.rows())
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


def cmd_joint_scan(cfg: dict, out: Path) -> None:
    _keys(cfg, "config", _COMMON + ("world", "resolution"))
    world = _planar_world(cfg)
    scan = oracle.joint_objective_scan(world, _int_key(cfg, "resolution", 1, 201))
    _write_csv(
        out / "joint_scan.csv", ["x", "y", "value"],
        ((xv, yv, scan.values[i, j]) for i, yv in enumerate(scan.y) for j, xv in enumerate(scan.x)),
    )
    summary = ("argmin_x", "argmin_y", "min_value", "truth_x", "truth_y", "truth_value", "improper")
    _json_dump({key: getattr(scan, key) for key in summary}, out / "joint_scan_summary.json")


def cmd_stationary_check(cfg: dict, out: Path) -> None:
    source = "worlds" if "worlds" in cfg else "random"
    _keys(cfg, "config", _COMMON + (source, "n_starts"))
    if "worlds" in cfg:
        if not isinstance(cfg["worlds"], list):
            raise ConfigError(f"config key 'worlds' must be a list, got {cfg['worlds']!r}")
        worlds = [_world(spec, f"worlds[{i}]") for i, spec in enumerate(cfg["worlds"])]
        for i, world in enumerate(worlds):  # else a survival vanishes before K: no root
            if not world.pmfs[:, -1].all():
                raise ConfigError(f"'worlds[{i}]' needs failure and censoring mass in bin K")
    elif "random" in cfg:
        spec = _keys(cfg["random"], "random", ("n_bins", "count", "seed"))
        rng = np.random.default_rng(_int_key(spec, "seed", 0, 0, "random"))
        n_bins = _int_key(spec, "n_bins", 2, context="random")
        worlds = [
            simgen.random_interior_world(n_bins, rng)
            for _ in range(_int_key(spec, "count", 1, 5, "random"))
        ]
    else:
        raise ConfigError("stationary-check needs 'worlds' or 'random'")
    n_starts = _int_key(cfg, "n_starts", 1, 100)
    finite = lambda value: float(value) if np.isfinite(value) else None  # JSON has no inf
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
                "max_truth_deviation": finite(scan.max_truth_deviation),
                "induction_agrees": scan.induction_agrees,
                "spurious_qy_min": finite(scan.spurious_qy.min()),
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
        root, experiment = cfg.get("out", "out"), _require(cfg, "experiment")
        for key, value in (("out", root), ("experiment", experiment)):
            if not isinstance(value, str):
                raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        out = Path(args.out if args.out else root) / experiment
        _COMMANDS[args.command](cfg, out)
    except BrokenPipeError:
        raise
    except Exception as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
