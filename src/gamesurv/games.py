"""Joint training of the failure and censoring models.

Both players descend their own censoring-aware loss while the other's
probabilities enter as frozen constants, and both updates in a step are
computed from the pre-step parameters (simultaneous, not alternating). The
two players are one (2, P) model, row 0 the failure model and row 1 the
censoring model, so a step is one forward, one backprop and one update.
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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import Batch, Dataset
from .losses import (
    ROLES,
    ClampStats,
    LossSpec,
    _nll_values_dpmf,
    _own_cdf,
    _own_terms,
    _role_flags,
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

    def __post_init__(self):
        # both players' loss spec, roles stacked as the pair's rows; building
        # it checks the objective and weight_floor
        spec = LossSpec(family_of(self.objective), ROLES, "all", self.weight_floor)
        object.__setattr__(self, "_spec", spec)
        if self.game_form not in ("summed", "multiplayer"):
            raise ValueError(f"unknown game_form {self.game_form!r}")
        if self.game_form == "multiplayer" and spec.family == "nll":
            raise ValueError("objective 'nll' has no per-horizon game; game_form 'multiplayer' "
                             "needs 'bs-game' or 'bll-game'")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("learning_rate", "init_scale"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and np.isfinite(value) and value >= 0):
                raise ValueError(f"{name!r} must be a finite nonnegative number, got {value!r}")
        if not isinstance(self.hidden, (tuple, list)):
            raise ValueError(f"'hidden' must be a list of layer widths, got {self.hidden!r}")
        integers = [("epochs", self.epochs, 0), ("seed", self.seed, 0),
                    ("batch_size", self.batch_size, 1),
                    ("checkpoint_every", self.checkpoint_every, 1)]
        for name, value, low in integers + [("hidden", width, 1) for width in self.hidden]:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                kind = "positive" if low else "nonnegative"
                raise ValueError(f"{name!r} must be a {kind} integer, got {value!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float, shape):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._scratch = np.empty(shape)
        self.t = 0

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """params - lr * mhat / (sqrt(vhat) + eps), with the moments updated
        in place; the same elementwise operations as the textbook
        expression, in the same order, so the same bits."""
        self.t += 1
        m, v, s = self.m, self.v, self._scratch
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s)
        v += np.multiply(s, grad, out=s)
        np.sqrt(np.divide(v, 1 - self.beta2**self.t, out=s), out=s)
        s += self.eps
        step = np.divide(m, 1 - self.beta1**self.t)
        step *= self.lr
        step /= s
        return np.subtract(params, step, out=step)


def _make_optimizer(config: TrainConfig, shape):
    if config.optimizer == "sgd":
        return _Sgd(config.learning_rate)
    return _Adam(config.learning_rate, 0.9, 0.999, 1e-8, shape)  # the textbook constants


@dataclass
class GameState:
    """Mutable state of a run: the player pair (row 0 the failure model,
    row 1 the censoring model), one elementwise optimizer over both rows,
    the checkpoint store (epoch -> (2, P) parameter copies), clamp counter,
    and the per-epoch history that becomes the training log."""

    pair: Model
    opt: object
    config: TrainConfig
    epoch: int = 0
    checkpoints: dict = field(default_factory=dict)
    clamp: ClampStats = field(default_factory=ClampStats)
    history: list = field(default_factory=list)

    @property
    def model_f(self) -> Model:
        return Model(self.pair.arch, self.pair.params[0])

    @property
    def model_g(self) -> Model:
        return Model(self.pair.arch, self.pair.params[1])

    def checkpoint(self) -> None:
        self.checkpoints[self.epoch] = self.pair.params.copy()

    def model_at(self, epoch: int, which: str) -> Model:
        return Model(self.pair.arch, self.checkpoints[epoch][0 if which == "F" else 1])


def init_state(n_bins: int, feature_dim: int, config: TrainConfig) -> GameState:
    """Fresh player pair and optimizer. The two players get independent
    seeds derived from config.seed and share the optimizer hyperparameters."""
    seed_f, seed_g, _ = np.random.SeedSequence(config.seed).spawn(3)
    if config.game_form == "multiplayer":
        arch = ArchSpec("marginal-prob", n_bins)
    elif feature_dim > 0:
        arch = ArchSpec("mlp", n_bins, feature_dim, config.hidden)
    else:
        arch = ArchSpec("marginal", n_bins)
    params = [Model.init(arch, seed, config.init_scale).params for seed in (seed_f, seed_g)]
    pair = Model(arch, np.stack(params))
    return GameState(pair, _make_optimizer(config, pair.params.shape), config)


def _step_metrics(state: GameState, losses: np.ndarray, grad: np.ndarray) -> dict:
    """The step's log record; raises if either player's gradient is not
    finite. A squared sum cannot cancel, so a finite norm implies a finite
    gradient, and the exact per-row check runs only when a norm is not
    finite (a finite gradient near |g| = 1e154 overflows its norm)."""
    # a ufunc reduction, not np.linalg.norm: BLAS ddot splits its sum by
    # thread count, which would make the training log depend on it
    norm_f, norm_g = np.sqrt((grad * grad).sum(axis=-1)).tolist()
    if not (math.isfinite(norm_f) and math.isfinite(norm_g)):
        for name, row in zip(("the failure model", "the censoring model"), grad):
            if not np.isfinite(row).all():
                raise RuntimeError(
                    f"non-finite gradient for {name} at epoch {state.epoch} "
                    f"(clamp count so far: {state.clamp.count}); aborting the run"
                )
    loss_f, loss_g = losses.tolist()
    return {"loss_F": loss_f, "loss_G": loss_g, "grad_norm_F": norm_f, "grad_norm_G": norm_g}


def step_summed(state: GameState, batch: Batch) -> dict:
    """One simultaneous step of the horizon-summed game (or of the two
    independent likelihood fits when the objective is 'nll').

    Both gradients come from one forward and one backprop of the pair at
    the pre-step parameters; each player's loss sees the other's pre-step
    probabilities as constants, so the player order cannot matter.
    """
    spec = state.config._spec
    pmf, cache = state.pair.forward(batch.features, n=batch.n)
    frozen = None if spec.family == "nll" else pmf[::-1]
    values, dpmf = batch_loss(spec, pmf, frozen, batch, state.clamp)
    grad = state.pair.backprop(cache, dpmf)
    metrics = _step_metrics(state, values, grad)
    state.pair.params = state.opt.update(state.pair.params, grad)
    return metrics


def _project_simplex_coords(theta: np.ndarray, floor: float) -> np.ndarray:
    """Clip the K-1 free masses of each row to >= floor and rescale a row
    if they crowd out its last bin, keeping every bin's mass at least
    ``floor``."""
    theta = np.maximum(theta, floor)
    total = theta.sum(axis=-1, keepdims=True)
    return np.where(total > 1.0 - floor, theta * ((1.0 - floor) / total), theta)


def step_multiplayer(state: GameState, batch: Batch) -> dict:
    """One simultaneous step of the per-(player, horizon) game.

    Coordinate t of each model is a separate player descending only its own
    horizon's loss; its gradient is the per-horizon cdf coefficient, taken
    directly in probability space.
    """
    cfg = state.config
    spec = cfg._spec
    if spec.family == "nll":
        raise ValueError("the per-horizon game is defined for the game objectives")
    if state.pair.arch.kind != "marginal-prob":
        raise ValueError("the per-horizon game runs on direct probability coordinates")
    pmf, _ = state.pair.forward(n=batch.n)
    values, coef = per_horizon_loss(spec, pmf, pmf[::-1], batch, state.clamp)
    metrics = _step_metrics(state, values.sum(axis=-1), coef)
    theta = state.opt.update(state.pair.view("theta"), coef)  # a new array
    state.pair.view("theta")[...] = _project_simplex_coords(theta, cfg.weight_floor)
    return metrics


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
    arch: ArchSpec,
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
    pmfs = np.stack(
        [Model(arch, checkpoints[e]).predict_pmf(val.features, n=val.n) for e in epochs]
    )
    pmfs_f, pmfs_g = pmfs[:, 0], pmfs[:, 1]
    E = len(epochs)
    times = resolve_times("all", val.n_bins)
    flat = lambda arr: arr.reshape(E, val.n * times.size)

    def table(role, own_pmfs, frozen_pmfs):  # [j, i]: own i against frozen j
        if family == "nll":
            # one values-only pass over the (E, n, K) stack, reduced per checkpoint
            vals, _ = _nll_values_dpmf(
                _role_flags((role,)), own_pmfs, val.time_bin, val.event, weight_floor, None
            )
            w = np.full(val.n, 1.0 / val.n)
            return np.tile([float(v @ w) for v in vals], (E, 1))
        # Bulk route: each entry is a sum over (sample, horizon) of own-term *
        # frozen-weight, so the whole E x E table is two matrix products
        # between flattened (E, n*T) stacks.
        evt, srv = _own_terms(family, _own_cdf(own_pmfs, slice(0, times.size)), weight_floor)
        a, b = ipcw_weight_arrays(role, frozen_pmfs, val.time_bin, val.event, times, weight_floor)
        return (flat(a) @ flat(evt).T + flat(b) @ flat(srv).T) / val.n

    return epochs, table("censor", pmfs_g, pmfs_f), table("failure", pmfs_f, pmfs_g)


def select_models(
    state: GameState,
    val: Dataset,
    selection_seed: int | None = None,
) -> SelectionResult:
    """Pick a (failure, censoring) checkpoint pair on the validation set.

    Starts from a random failure checkpoint (``selection_seed``) and
    alternates best responses under the training objective's own loss, for
    at most 50 rounds; for the likelihood objective the responses don't
    interact and this reduces to the two independent validation argmins.
    """
    cfg = state.config
    family = family_of(cfg.objective)
    epochs, loss_g_given_f, loss_f_given_g = _selection_tables(
        state.pair.arch, state.checkpoints, val, family, cfg.weight_floor
    )
    rng = np.random.default_rng(cfg.seed if selection_seed is None else selection_seed)
    start = int(rng.integers(len(epochs)))
    f_idx, g_idx, converged, rounds = _alternating_argmin(
        loss_g_given_f, loss_f_given_g, start, max_rounds=50
    )
    return SelectionResult(
        epochs[f_idx],
        epochs[g_idx],
        state.model_at(epochs[f_idx], "F"),
        state.model_at(epochs[g_idx], "G"),
        converged,
        rounds,
    )
