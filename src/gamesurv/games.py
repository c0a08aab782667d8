"""Joint training of the failure and censoring models.

Both players descend their own censoring-aware loss while the other's
probabilities enter as frozen constants, and both updates in a step are
computed from the pre-step parameters (simultaneous, not alternating).
Nothing here is a minimax fight: each player would be happy at the truth,
the game is only in the weights they lend each other.

Two game forms:

- ``summed``: each player sums its per-horizon losses over t = 1..K-1 and
  takes one optimizer step on its full parameter vector (softmax models).
- ``multiplayer``: 2(K-1) players, one per (model, horizon); coordinate t
  of each model descends only its own horizon's loss, directly in
  probability space, with a projection keeping the masses a positive
  distance inside the simplex.

The likelihood baseline runs through the same loop with the partial
log-likelihood losses; those share no parameters across players, so "joint"
training degenerates into two independent fits, which is the point of
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Batch, Dataset
from .losses import (
    ClampStats,
    LossSpec,
    _own_cdf,
    _own_terms,
    batch_loss,
    ipcw_weight_arrays,
    per_horizon_loss,
    resolve_times,
)
from .models import ArchSpec, Model

__all__ = [
    "TrainConfig",
    "GameState",
    "SelectionResult",
    "family_of",
    "init_state",
    "step_summed",
    "step_multiplayer",
    "train",
    "select_models",
]

OBJECTIVES = ("nll", "bs-game", "bll-game")
_FAMILY = {"nll": "nll", "bs-game": "ipcw-bs", "bll-game": "ipcw-bll"}


def family_of(objective: str) -> str:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    return _FAMILY[objective]


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data."""

    objective: str = "bs-game"
    game_form: str = "summed"
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 256
    seed: int = 0
    checkpoint_every: int = 1
    hidden: tuple[int, ...] = (128, 64, 64)
    init_scale: float = 0.1
    weight_floor: float = 1e-6
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        # the spec every loss of the run will carry; checks the objective and weight_floor
        LossSpec(family_of(self.objective), "failure", "all", self.weight_floor)
        if self.game_form not in ("summed", "multiplayer"):
            raise ValueError(f"unknown game_form {self.game_form!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1 or self.checkpoint_every < 1:
            raise ValueError("batch_size and checkpoint_every must be positive")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float, n: int):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _make_optimizer(config: TrainConfig, n_params: int):
    if config.optimizer == "sgd":
        return _Sgd(config.learning_rate)
    return _Adam(
        config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps, n_params
    )


@dataclass
class GameState:
    """Mutable state of a run: the two models, their optimizers, the
    checkpoint store (epoch -> parameter copies), clamp counter, and the
    per-epoch history that becomes the training log."""

    model_f: Model
    model_g: Model
    opt_f: object
    opt_g: object
    config: TrainConfig
    epoch: int = 0
    checkpoints: dict = field(default_factory=dict)
    clamp: ClampStats = field(default_factory=ClampStats)
    history: list = field(default_factory=list)

    def checkpoint(self) -> None:
        self.checkpoints[self.epoch] = (self.model_f.params.copy(), self.model_g.params.copy())

    def model_at(self, epoch: int, which: str) -> Model:
        params_f, params_g = self.checkpoints[epoch]
        if which == "F":
            return Model(self.model_f.arch, params_f)
        return Model(self.model_g.arch, params_g)


def init_state(n_bins: int, feature_dim: int, config: TrainConfig) -> GameState:
    """Fresh models and optimizers. The two players get independent seeds
    derived from config.seed and identical optimizer hyperparameters."""
    seed_f, seed_g, _ = np.random.SeedSequence(config.seed).spawn(3)
    if config.game_form == "multiplayer":
        arch = ArchSpec("marginal-prob", n_bins)
    elif feature_dim > 0:
        arch = ArchSpec("mlp", n_bins, feature_dim, config.hidden)
    else:
        arch = ArchSpec("marginal", n_bins)
    model_f = Model.init(arch, seed_f, config.init_scale)
    model_g = Model.init(arch, seed_g, config.init_scale)
    return GameState(
        model_f,
        model_g,
        _make_optimizer(config, model_f.arch.n_params),
        _make_optimizer(config, model_g.arch.n_params),
        config,
    )


def _check_finite(state: GameState, name: str, grad: np.ndarray) -> None:
    if not np.all(np.isfinite(grad)):
        raise RuntimeError(
            f"non-finite gradient for {name} at epoch {state.epoch} "
            f"(clamp count so far: {state.clamp.count}); aborting the run"
        )


def step_summed(state: GameState, batch: Batch) -> dict:
    """One simultaneous step of the horizon-summed game (or of the two
    independent likelihood fits when the objective is 'nll').

    Both gradients are evaluated at the pre-step parameters before either
    player moves; swapping the player order cannot change the result.
    """
    cfg = state.config
    family = family_of(cfg.objective)
    pmf_f, cache_f = state.model_f.forward(batch.features, n=batch.n)
    pmf_g, cache_g = state.model_g.forward(batch.features, n=batch.n)
    frozen_g = None if family == "nll" else np.array(pmf_g)
    frozen_f = None if family == "nll" else np.array(pmf_f)

    loss_f, dpmf_f = batch_loss(
        LossSpec(family, "failure", "all", cfg.weight_floor), pmf_f, frozen_g, batch, state.clamp
    )
    loss_g, dpmf_g = batch_loss(
        LossSpec(family, "censor", "all", cfg.weight_floor), pmf_g, frozen_f, batch, state.clamp
    )
    grad_f = state.model_f.backprop(cache_f, dpmf_f)
    grad_g = state.model_g.backprop(cache_g, dpmf_g)
    _check_finite(state, "the failure model", grad_f)
    _check_finite(state, "the censoring model", grad_g)

    state.model_f.params = state.opt_f.update(state.model_f.params, grad_f)
    state.model_g.params = state.opt_g.update(state.model_g.params, grad_g)
    return {
        "loss_F": loss_f,
        "loss_G": loss_g,
        "grad_norm_F": float(np.linalg.norm(grad_f)),
        "grad_norm_G": float(np.linalg.norm(grad_g)),
    }


def _project_simplex_coords(theta: np.ndarray, floor: float) -> np.ndarray:
    """Clip the K-1 free masses to >= floor and rescale if they crowd out
    the last bin, keeping every bin's mass at least ``floor``."""
    theta = np.maximum(theta, floor)
    total = theta.sum()
    if total > 1.0 - floor:
        theta = theta * ((1.0 - floor) / total)
    return theta


def step_multiplayer(state: GameState, batch: Batch) -> dict:
    """One simultaneous step of the per-(player, horizon) game.

    Coordinate t of each model is a separate player descending only its own
    horizon's loss; its gradient is the per-horizon cdf coefficient, taken
    directly in probability space.
    """
    cfg = state.config
    family = family_of(cfg.objective)
    if family == "nll":
        raise ValueError("the per-horizon game is defined for the game objectives")
    if state.model_f.arch.kind != "marginal-prob":
        raise ValueError("the per-horizon game runs on direct probability coordinates")
    pmf_f = state.model_f.predict_pmf(n=batch.n)
    pmf_g = state.model_g.predict_pmf(n=batch.n)
    vals_f, coef_f = per_horizon_loss(
        LossSpec(family, "failure", "all", cfg.weight_floor), pmf_f, pmf_g, batch, state.clamp
    )
    vals_g, coef_g = per_horizon_loss(
        LossSpec(family, "censor", "all", cfg.weight_floor), pmf_g, pmf_f, batch, state.clamp
    )
    _check_finite(state, "the failure model", coef_f)
    _check_finite(state, "the censoring model", coef_g)
    theta_f = state.opt_f.update(state.model_f.view("theta").copy(), coef_f)
    theta_g = state.opt_g.update(state.model_g.view("theta").copy(), coef_g)
    state.model_f.view("theta")[...] = _project_simplex_coords(theta_f, cfg.weight_floor)
    state.model_g.view("theta")[...] = _project_simplex_coords(theta_g, cfg.weight_floor)
    return {
        "loss_F": float(vals_f.sum()),
        "loss_G": float(vals_g.sum()),
        "grad_norm_F": float(np.linalg.norm(coef_f)),
        "grad_norm_G": float(np.linalg.norm(coef_g)),
    }


def train(dataset: Dataset, config: TrainConfig) -> GameState:
    """Minibatch training for ``config.epochs`` epochs.

    Per epoch the history records the mean losses, mean gradient norms, and
    the number of clamped weight evaluations; parameter snapshots of both
    players go into the checkpoint store every ``checkpoint_every`` epochs
    (the final epoch is always kept). Runs with the same config and data are
    bit-for-bit reproducible.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty: time_bin has no rows to train on")
    state = init_state(dataset.n_bins, dataset.feature_dim, config)
    _, _, seed_shuffle = np.random.SeedSequence(config.seed).spawn(3)
    rng = np.random.default_rng(seed_shuffle)
    step = step_multiplayer if config.game_form == "multiplayer" else step_summed
    for epoch in range(1, config.epochs + 1):
        state.epoch = epoch
        order = rng.permutation(dataset.n)
        sums = {"loss_F": 0.0, "loss_G": 0.0, "grad_norm_F": 0.0, "grad_norm_G": 0.0}
        clamp_before = state.clamp.count
        n_steps = 0
        for lo in range(0, dataset.n, config.batch_size):
            metrics = step(state, dataset.batch(order[lo : lo + config.batch_size]))
            for k in sums:
                sums[k] += metrics[k]
            n_steps += 1
        record = {k: v / n_steps for k, v in sums.items()}
        record["epoch"] = epoch
        record["clamp_count"] = state.clamp.count - clamp_before
        state.history.append(record)
        if epoch % config.checkpoint_every == 0 or epoch == config.epochs:
            state.checkpoint()
    if not state.checkpoints:  # epochs == 0: keep the initialization
        state.checkpoint()
    return state


# -- validation-set model selection ----------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    f_epoch: int
    g_epoch: int
    model_f: Model
    model_g: Model
    converged: bool
    rounds: int


def _alternating_argmin(loss_g_given_f, loss_f_given_g, start_f: int, max_rounds: int):
    """Alternate best responses on precomputed validation-loss tables:
    given the current failure pick, choose the censoring checkpoint that
    minimizes its loss weighted by that pick, then re-pick the failure
    model against it. Stops when a full round leaves the failure pick
    unchanged; argmin ties break to the earliest checkpoint."""
    f = start_f
    g = int(np.argmin(loss_g_given_f[f]))
    for rounds in range(1, max_rounds + 1):
        g = int(np.argmin(loss_g_given_f[f]))
        f_new = int(np.argmin(loss_f_given_g[g]))
        if f_new == f:
            return f, g, True, rounds
        f = f_new
    return f, g, False, max_rounds


def _selection_tables(
    arch_f: ArchSpec,
    arch_g: ArchSpec,
    checkpoints: dict,
    val: Dataset,
    family: str,
    weight_floor: float,
):
    """loss tables over the checkpoint grid.

    loss_g_given_f[i, j]: censor loss of G_j with F_i frozen as weights.
    loss_f_given_g[j, i]: failure loss of F_i with G_j frozen.
    For 'nll' neither depends on the frozen side, so rows are constant.
    """
    epochs = sorted(checkpoints)
    batch = val.batch()
    pmfs_f = np.stack(
        [Model(arch_f, checkpoints[e][0]).predict_pmf(val.features, n=val.n) for e in epochs]
    )
    pmfs_g = np.stack(
        [Model(arch_g, checkpoints[e][1]).predict_pmf(val.features, n=val.n) for e in epochs]
    )
    E = len(epochs)
    times = resolve_times("all", val.n_bins)
    flat = lambda arr: arr.reshape(E, val.n * times.size)

    def table(role, own_pmfs, frozen_pmfs):  # [j, i]: own i against frozen j
        if family == "nll":
            own_loss = [batch_loss(LossSpec("nll", role), p, None, batch)[0] for p in own_pmfs]
            return np.tile(own_loss, (E, 1))
        # Bulk route: each entry is a sum over (sample, horizon) of own-term *
        # frozen-weight, so the whole E x E table is two matrix products
        # between flattened (E, n*T) stacks.
        evt, srv = _own_terms(family, _own_cdf(own_pmfs, times), weight_floor)
        pairs = [
            ipcw_weight_arrays(role, p, val.time_bin, val.event, times, weight_floor)
            for p in frozen_pmfs
        ]
        a, b = np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])
        return (flat(a) @ flat(evt).T + flat(b) @ flat(srv).T) / val.n

    return epochs, table("censor", pmfs_g, pmfs_f), table("failure", pmfs_f, pmfs_g)


def select_models(
    state: GameState,
    val: Dataset,
    selection_seed: int | None = None,
    max_rounds: int = 50,
) -> SelectionResult:
    """Pick a (failure, censoring) checkpoint pair on the validation set.

    Starts from a random failure checkpoint (``selection_seed``) and
    alternates best responses under the training objective's own loss; for
    the likelihood objective the responses don't interact and this reduces
    to the two independent validation argmins.
    """
    cfg = state.config
    family = family_of(cfg.objective)
    epochs, loss_g_given_f, loss_f_given_g = _selection_tables(
        state.model_f.arch, state.model_g.arch, state.checkpoints, val, family, cfg.weight_floor
    )
    rng = np.random.default_rng(cfg.seed if selection_seed is None else selection_seed)
    start = int(rng.integers(len(epochs)))
    f_idx, g_idx, converged, rounds = _alternating_argmin(
        loss_g_given_f, loss_f_given_g, start, max_rounds
    )
    return SelectionResult(
        epochs[f_idx],
        epochs[g_idx],
        state.model_at(epochs[f_idx], "F"),
        state.model_at(epochs[g_idx], "G"),
        converged,
        rounds,
    )
