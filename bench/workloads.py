"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop driven by one caller in this process: a
pass starts when the previous one has returned. ``setup(seed, workdir)``
builds every input from the workload seed; ``run(ctx)`` is one timed pass
returning the items it finished and its output; ``check(ctx, output)``
returns one message per failed op and must hold for every seed. Passes
are deterministic, so every pass of a run must return the same output as
the first.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gamesurv import cli, core, games, losses, metrics, models, oracle, simgen

# the two-bin world of acceptance criteria 03 and 06
TWO_BIN = simgen.MarginalWorld(np.array([0.3, 0.7]), np.array([0.4, 0.6]))


@dataclass(frozen=True)
class Workload:
    name: str
    alias: str  # the name items_per_s goes by on this workload
    alias_unit: str
    ops: int  # ops per pass; a failed check fails one op
    layers: tuple[str, ...]  # per-layer metrics that must be nonzero here
    setup: Callable[[int, Path], object]
    run: Callable[[object], tuple[int, dict]]  # -> (items done, output)
    check: Callable[[object, dict], list[str]]


def _nonfinite(value, where: str) -> list[str]:
    """Paths of every non-finite number in a nested dict/list."""
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in _nonfinite(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [m for i, v in enumerate(value) for m in _nonfinite(v, f"{where}[{i}]")]
    if isinstance(value, np.ndarray):
        return [] if np.all(np.isfinite(value)) else [f"{where} is not finite"]
    if isinstance(value, float) and not np.isfinite(value):
        return [f"{where} = {value}"]
    return []


# -- sweep: the criterion-07 grid through the CLI ---------------------------

SWEEP_OBJECTIVES = ["nll", "bs-game", "bll-game"]
SWEEP_SIZES = [200, 1000]
SWEEP_N_TEST = 3000
SWEEP_POINTS = len(SWEEP_OBJECTIVES) * len(SWEEP_SIZES)


@dataclass
class SweepContext:
    config: Path
    out: Path


def sweep_setup(seed: int, workdir: Path) -> SweepContext:
    config = {
        "experiment": "bench",
        "generator": {"kind": "gamma"},
        "objectives": SWEEP_OBJECTIVES,
        "sizes": SWEEP_SIZES,
        "seeds": [seed],
        "n_val": 1000,
        "n_test": SWEEP_N_TEST,
        "n_bins": 20,
        "workers": 1,
        "train": {
            "epochs": 100,
            "hidden": [128, 64, 64],
            "batch_size": 64,
            "learning_rate": 1e-3,
        },
        "selection": {"enabled": True},
        "weighting": "uncensored-latent",
    }
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "sweep.json"
    path.write_text(json.dumps(config))
    return SweepContext(path, workdir / "sweep-out")


def sweep_run(ctx: SweepContext) -> tuple[int, dict]:
    shutil.rmtree(ctx.out, ignore_errors=True)
    code = cli.main(["sweep", str(ctx.config), "--out", str(ctx.out)])
    if code != 0:
        raise RuntimeError(f"gamesurv sweep exited with code {code}")
    results = ctx.out / "bench" / "sweep"
    output = {p.stem: json.loads(p.read_text()) for p in sorted(results.glob("*.json"))}
    return SWEEP_POINTS, output


def sweep_check(ctx: SweepContext, output: dict) -> list[str]:
    failures = []
    points = {k: v for k, v in output.items() if k != "aggregate"}
    if len(points) != SWEEP_POINTS:
        failures.append(f"{len(points)} point files, expected {SWEEP_POINTS}")
    for name, point in points.items():
        report = point["report"]
        bad = _nonfinite(report, name)
        if report["n"] != SWEEP_N_TEST:
            bad.append(f"{name}: report n = {report['n']}, expected {SWEEP_N_TEST}")
        if point["selection"] is None:
            bad.append(f"{name}: no selection")
        if bad:
            failures.append("; ".join(bad))
    failures += _nonfinite(output.get("aggregate", {}), "aggregate")
    if "aggregate" not in output:
        failures.append("no aggregate.json")
    return failures


# -- population: the simultaneous game on exact population batches ----------

SUMMED_INITS = 5
SUMMED_STEPS = 2000
# Criterion 06 draws its inits at scale 1.5. There a few inits start with
# a softmax mass near 0 or 1: either that mass needs more than 2000 steps
# to escape saturation, or the opponent's inverse weights (1 / its tiny
# survival) throw the player into saturation in one step. 4 of 300 inits
# failed at 1.5 and 1 of 500 at 1.0; at 0.5 no init starts that far out.
INIT_SCALE = 0.5
MULTIPLAYER_BINS = 4
MULTIPLAYER_TOL = 1e-6
MULTIPLAYER_MAX_STEPS = 50_000


@dataclass
class PopulationContext:
    init_seeds: list[int]
    two_bin_batch: core.Batch
    world: simgen.MarginalWorld
    world_batch: core.Batch
    seed: int


def population_setup(seed: int, workdir: Path) -> PopulationContext:
    rng = np.random.default_rng(seed)
    world = simgen.random_interior_world(MULTIPLAYER_BINS, rng)
    init_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(SUMMED_INITS)]
    return PopulationContext(
        init_seeds,
        simgen.population_batch(TWO_BIN),
        world,
        simgen.population_batch(world),
        seed,
    )


def _multiplayer_distance(state: games.GameState, world: simgen.MarginalWorld) -> float:
    return max(
        np.abs(state.model_f.view("theta") - world.theta_t[:-1]).max(),
        np.abs(state.model_g.view("theta") - world.theta_c[:-1]).max(),
    )


def population_run(ctx: PopulationContext) -> tuple[int, dict]:
    summed = []
    for init_seed in ctx.init_seeds:
        config = games.TrainConfig(
            objective="bs-game", optimizer="sgd", learning_rate=0.25, epochs=0,
            seed=init_seed, init_scale=INIT_SCALE,
        )
        state = games.init_state(2, 0, config)
        for _ in range(SUMMED_STEPS):
            games.step_summed(state, ctx.two_bin_batch)
        summed.append([state.model_f.params.copy(), state.model_g.params.copy()])

    config = games.TrainConfig(
        objective="bs-game", game_form="multiplayer", optimizer="sgd",
        learning_rate=0.01, epochs=0, seed=ctx.seed,
    )
    state = games.init_state(MULTIPLAYER_BINS, 0, config)
    steps = 0
    distance = _multiplayer_distance(state, ctx.world)
    while distance >= MULTIPLAYER_TOL and steps < MULTIPLAYER_MAX_STEPS:
        games.step_multiplayer(state, ctx.world_batch)
        steps += 1
        distance = _multiplayer_distance(state, ctx.world)
    output = {
        "summed": summed,
        "multiplayer": {
            "steps": steps,
            "distance": distance,
            "theta_f": state.model_f.params.copy(),
            "theta_g": state.model_g.params.copy(),
        },
    }
    return len(summed) * SUMMED_STEPS + steps, output


def population_check(ctx: PopulationContext, output: dict) -> list[str]:
    failures = []
    arch = models.ArchSpec("marginal", 2)
    for i, (params_f, params_g) in enumerate(output["summed"]):
        f = models.Model(arch, params_f).predict_pmf(n=1)[0]
        g = models.Model(arch, params_g).predict_pmf(n=1)[0]
        dev = max(abs(f[0] - TWO_BIN.theta_t[0]), abs(g[0] - TWO_BIN.theta_c[0]))
        if not dev < 1e-4:
            failures.append(f"summed init {i}: distance to truth {dev:.2e} >= 1e-4")
    mp = output["multiplayer"]
    if not mp["distance"] < MULTIPLAYER_TOL:
        failures.append(
            f"multiplayer: distance {mp['distance']:.2e} after {mp['steps']} steps"
        )
    return failures


# -- certify: the oracle certification set ------------------------------------

# 100 scan starts spread over four worlds: the root finder's cost varies by
# about a third between worlds, and one world per set would make the figure
# hinge on the seed's world rather than on the code.
CERTIFY_WORLDS = 4
CERTIFY_BINS = 4
CERTIFY_STARTS = 25


@dataclass
class CertifyContext:
    worlds: list[simgen.MarginalWorld]
    planar: simgen.MarginalWorld
    seed: int


def certify_setup(seed: int, workdir: Path) -> CertifyContext:
    rng = np.random.default_rng(seed)
    worlds = [simgen.random_interior_world(CERTIFY_BINS, rng) for _ in range(CERTIFY_WORLDS)]
    planar = simgen.random_interior_world(2, rng)
    return CertifyContext(worlds, planar, seed)


def certify_run(ctx: CertifyContext) -> tuple[int, dict]:
    scans = []
    for i, world in enumerate(ctx.worlds):
        scan = oracle.stationary_scan(world, n_starts=CERTIFY_STARTS, seed=[ctx.seed, i])
        scans.append({
            "roots": [list(root) for root in scan.roots],
            "n_converged": scan.n_converged,
            "matches_truth": scan.matches_truth,
            "induction_agrees": scan.induction_agrees,
            "spurious_qy": scan.spurious_qy,
        })
    field = oracle.gradient_field(ctx.planar, 200)
    joint = oracle.joint_objective_scan(ctx.planar, 201)
    output = {
        "scans": scans,
        "field": {"u": field.u, "v": field.v},
        "joint": {"values": joint.values, "improper": joint.improper},
    }
    return 1, output


def certify_check(ctx: CertifyContext, output: dict) -> list[str]:
    failures = []
    for i, scan in enumerate(output["scans"]):
        if not (scan["matches_truth"] and scan["induction_agrees"]):
            failures.append(
                f"stationary scan {i}: matches_truth={scan['matches_truth']}, "
                f"induction_agrees={scan['induction_agrees']}"
            )
    bad = _nonfinite(output["field"], "gradient field")
    if bad:
        failures.append("; ".join(bad))
    if not output["joint"]["improper"]:
        failures.append("joint objective scan is not improper")
    return failures


# -- evaluate: scoring a large held-out cohort ------------------------------

EVAL_ROWS = 100_000
EVAL_BINS = 20
EVAL_HIDDEN = (128, 64, 64)
EVAL_WEIGHTINGS = ("uncensored-latent", "km", "model-G")
AUDIT_FAMILIES = ("ipcw-bs", "ipcw-bll", "nll")
CONCORDANCE_SUBSAMPLE = 2000


@dataclass
class EvaluateContext:
    data: core.Dataset
    model_f: models.Model
    model_g: models.Model
    seed: int


def evaluate_setup(seed: int, workdir: Path) -> EvaluateContext:
    raw = simgen.gen_gamma(simgen.GammaSimConfig(n=EVAL_ROWS, seed=(seed, 2)))
    raw = simgen.Standardizer.fit(raw.features).apply(raw)
    data = core.discretize(raw, n_bins=EVAL_BINS)
    arch = models.ArchSpec("mlp", EVAL_BINS, data.feature_dim, EVAL_HIDDEN)
    seed_f, seed_g = np.random.SeedSequence(seed).spawn(2)
    return EvaluateContext(
        data, models.Model.init(arch, seed_f), models.Model.init(arch, seed_g), seed
    )


def evaluate_run(ctx: EvaluateContext) -> tuple[int, dict]:
    f_pmf = ctx.model_f.predict_pmf(ctx.data.features)
    g_pmf = ctx.model_g.predict_pmf(ctx.data.features)
    reports = {
        w: metrics.evaluate(f_pmf, ctx.data, w, g_pmf).to_dict() for w in EVAL_WEIGHTINGS
    }
    batch = ctx.data.batch()
    audit = {}
    for family in AUDIT_FAMILIES:
        stats = losses.ClampStats()
        value, dpmf = losses.batch_loss(
            losses.LossSpec(family, "failure"), f_pmf, g_pmf, batch, stats
        )
        audit[family] = {
            "value": value,
            "grad_norm": float(np.linalg.norm(dpmf)),
            "clamps": stats.count,
        }
    return ctx.data.n * len(EVAL_WEIGHTINGS), {"reports": reports, "audit": audit}


def concordance_quadratic(risk: np.ndarray, time: np.ndarray, event: np.ndarray) -> float:
    """The pair-count definition: (i, j) is admissible when i is an event
    and U_i < U_j, or U_i == U_j with j censored; it scores 1 when
    risk_i > risk_j and 1/2 on a risk tie."""
    ti, tj = time[:, None], time[None, :]
    admissible = event[:, None] & ((ti < tj) | ((ti == tj) & ~event[None, :]))
    ri, rj = risk[:, None], risk[None, :]
    concordant = np.count_nonzero(admissible & (ri > rj)) + 0.5 * np.count_nonzero(
        admissible & (ri == rj)
    )
    return concordant / np.count_nonzero(admissible)


def evaluate_check(ctx: EvaluateContext, output: dict) -> list[str]:
    failures = []
    for weighting, report in output["reports"].items():
        bad = _nonfinite(report, weighting)
        if report["n"] != EVAL_ROWS:
            bad.append(f"{weighting}: report n = {report['n']}, expected {EVAL_ROWS}")
        if bad:
            failures.append("; ".join(bad))
    for family, entry in output["audit"].items():
        bad = _nonfinite(entry, family)
        if bad:
            failures.append("; ".join(bad))

    rng = np.random.default_rng(ctx.seed)
    rows = rng.choice(ctx.data.n, CONCORDANCE_SUBSAMPLE, replace=False)
    pmf = ctx.model_f.predict_pmf(ctx.data.features[rows])
    risk = -(pmf @ np.arange(1, ctx.data.n_bins + 1))
    time, event = ctx.data.time_bin[rows], ctx.data.event[rows]
    # the model's risks hardly ever tie; rounded ones do, which exercises
    # the half credit for risk ties as well
    for label, r in (("risk", risk), ("rounded risk", np.round(risk, 2))):
        fast = metrics.concordance_index(r, time, event)
        exact = concordance_quadratic(r, time, event)
        if fast != exact:
            failures.append(
                f"concordance_index {fast!r} != quadratic definition {exact!r} on {label}"
            )
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep", "sweep_points_per_s", "points/s", SWEEP_POINTS,
            (
                "cli.main.self_s", "simgen.gen_gamma.calls", "core.discretize.self_s",
                "core.Dataset.batch.calls", "core.Dataset.batch.self_s",
                "models.Model.forward.calls", "models.Model.forward.self_s",
                "models.Model.backprop.calls", "models.Model.backprop.self_s",
                "models.Model.__init__.calls", "models.mlp.gflop",
                "games.train.self_s", "games.step_summed.calls", "games.step_summed.self_s",
                "games.select_models.calls", "games.select_models.self_s",
                "games.select_models.rounds", "losses.batch_loss.calls",
                "losses.batch_loss.self_s", "losses.ipcw_weight_arrays.calls",
                "metrics.evaluate.self_s", "metrics.concordance_index.calls",
            ),
            sweep_setup, sweep_run, sweep_check,
        ),
        Workload(
            "population", "pop_steps_per_s", "steps/s", SUMMED_INITS + 1,
            (
                "simgen.population_batch.calls",
                "games.step_summed.calls", "games.step_summed.self_s",
                "games.step_multiplayer.calls", "games.step_multiplayer.self_s",
                "losses.batch_loss.calls", "losses.batch_loss.self_s",
                "losses.per_horizon_loss.calls", "losses.per_horizon_loss.self_s",
            ),
            population_setup, population_run, population_check,
        ),
        Workload(
            "certify", "certify_sets_per_s", "sets/s", CERTIFY_WORLDS + 2,
            (
                "oracle.stationary_scan.self_s", "oracle.population_gradients.calls",
                "oracle.gradient_field.self_s", "oracle.joint_objective_scan.self_s",
                "oracle.scalar_calls",
            ),
            certify_setup, certify_run, certify_check,
        ),
        Workload(
            "evaluate", "score_rows_per_s", "rows/s", len(EVAL_WEIGHTINGS) + len(AUDIT_FAMILIES),
            (
                "simgen.gen_gamma.calls", "simgen.gen_gamma.self_s", "core.discretize.self_s",
                "core.Dataset.batch.calls", "models.Model.predict_pmf.self_s",
                "models.mlp.gflop", "models.mlp.gflop_per_s",
                "losses.batch_loss.calls", "losses.batch_loss.self_s",
                "metrics.evaluate.self_s", "metrics.eval_bs.self_s", "metrics.eval_bll.self_s",
                "metrics.nll_metric.self_s", "metrics.calibration_curve.self_s",
                "metrics.concordance_index.calls", "metrics.concordance_index.self_s",
            ),
            evaluate_setup, evaluate_run, evaluate_check,
        ),
    )
}
