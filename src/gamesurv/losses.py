"""Censoring-aware losses for categorical time-to-event models.

Two players share one sample of (U, delta) observations: a failure model F
over bins 1..K and a censoring model G. Each player's per-horizon loss
reweights its own residuals by the *other* player's (frozen) survival
probabilities, so that under positivity the population minimizer of either
loss is the true distribution even though U is only partially observed.

Conventions, fixed across the package:

- ``t`` indexes horizons 1..K-1. Horizon K is rejected: survival past the
  last bin is identically zero, so the horizon carries no information.
- The failure player's event branch divides by Gbar(U-) = P(C >= U) (left
  limit) while its survival branch divides by Gbar(t) = P(C > t). The censor
  player's event branch divides by Fbar(U) = P(T > U), no left limit: a
  censored sample has C = U and T strictly greater. The asymmetry is load
  bearing; do not "fix" it.
- Weight denominators and log arguments below ``weight_floor`` are clamped
  to the floor and the clamp is counted (only where the term is active).
  Clamped log terms contribute zero gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Batch

__all__ = [
    "ClampStats",
    "LossSpec",
    "resolve_times",
    "nll",
    "ipcw_per_sample",
    "ipcw_bs_failure",
    "ipcw_bll_failure",
    "ipcw_mean",
    "summed_loss",
    "batch_loss",
    "per_horizon_loss",
]

FAMILIES = ("nll", "ipcw-bs", "ipcw-bll")
ROLES = ("failure", "censor")


@dataclass
class ClampStats:
    """Mutable counter of clamped weight/log evaluations."""

    count: int = 0

    def add(self, k: int) -> None:
        self.count += int(k)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to compute, for whom, at which horizons."""

    family: str
    role: str
    times: tuple[int, ...] | str = "all"
    weight_floor: float = 1e-6

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not 0 < self.weight_floor < 1:
            raise ValueError("weight_floor must lie in (0, 1)")


def resolve_times(times: tuple[int, ...] | str, n_bins: int) -> np.ndarray:
    """Normalize a horizon spec to a sorted int array within 1..K-1."""
    if isinstance(times, str):
        if times != "all":
            raise ValueError("times must be 'all' or an iterable of horizons")
        return np.arange(1, n_bins)
    arr = np.unique(np.asarray(times, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("need at least one horizon")
    if arr[0] < 1 or arr[-1] > n_bins - 1:
        raise ValueError(
            f"horizons must lie in 1..{n_bins - 1}; t = {n_bins} has zero "
            "survival beyond the last bin and is not a valid horizon"
        )
    return arr


def _as_matrix(pmf: np.ndarray, n: int) -> np.ndarray:
    """Broadcast a (K,) marginal pmf or pass through an (n, K) matrix."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim == 1:
        return np.broadcast_to(pmf, (n, pmf.size))
    if pmf.ndim == 2 and pmf.shape[0] == n:
        return pmf
    raise ValueError(f"pmf must be (K,) or (n, K); got shape {pmf.shape}")


def _padded_cdf(pmf: np.ndarray) -> np.ndarray:
    """Cumulative along the last axis with a leading zero: entry j is
    P(X <= j) for j = 0..K."""
    out = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
    np.cumsum(pmf, axis=-1, out=out[..., 1:])
    return out


def _own_cdf(own: np.ndarray, times: np.ndarray) -> np.ndarray:
    # rounding in the cumsum may poke a hair above 1; keep 1 - cdf >= 0
    return np.minimum(np.cumsum(own, axis=-1)[..., times - 1], 1.0)


def _clamp(values: np.ndarray, floor: float, active: np.ndarray, stats: ClampStats | None):
    clamped = values < floor
    if stats is not None:
        stats.add(np.count_nonzero(clamped & active))
    return np.maximum(values, floor), clamped


def _ipcw_weights(
    role: str,
    surv: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    times: np.ndarray,
    floor: float,
    stats: ClampStats | None,
):
    """Per-(sample, horizon) inverse weights for the event and survival
    branches, from the other player's survival table ``surv``: entry j is
    P(X > j) for j = 0..K, shape (K+1,) shared by all rows or (n, K+1).

    Returns (a, b), shape (n, T): a = indicator/weight for the event
    branch, b = 1{U > t}/weight for the survival branch. The failure
    role's event branch divides by Gbar(U-) = surv[U-1], the censor role's
    by Fbar(U) = surv[U]."""
    if role == "failure":
        ind, evt_col = event, time_bin - 1  # Gbar(U-)
    else:
        ind, evt_col = ~event, time_bin  # Fbar(U)
    if surv.ndim == 2:
        den_evt = surv[np.arange(time_bin.size), evt_col]
    else:
        den_evt = surv[evt_col]
    den_surv = surv[..., times]  # Xbar(t) columns

    le = time_bin[:, None] <= times[None, :]
    evt_active = ind[:, None] & le
    surv_active = ~le

    evt_used = ind & (time_bin <= times[-1])
    den_evt, _ = _clamp(den_evt, floor, evt_used, stats)
    den_surv, _ = _clamp(den_surv, floor, surv_active, stats)

    a = evt_active / den_evt[:, None]
    b = surv_active / den_surv
    return a, b


def _own_terms(family: str, cdf: np.ndarray, floor: float):
    """A player's own score at its cdf values F(t): the event-branch and
    survival-branch terms, (1 - F)^2 and F^2 for the Brier score, -log F
    and -log(1 - F) for the Bernoulli log loss with the log arguments
    clamped at ``floor``. Its IPCW score is event * a + survival * b."""
    if family == "ipcw-bs":
        q = 1.0 - cdf
        return q * q, cdf * cdf
    return -np.log(np.maximum(cdf, floor)), -np.log(np.maximum(1.0 - cdf, floor))


def _game_values_coefs(
    spec: LossSpec,
    own: np.ndarray,
    frozen_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    stats: ClampStats | None,
):
    """Horizons, per-(sample, horizon) loss values and d(value)/d(own cdf
    at t), with the other player's pmf frozen into the inverse weights."""
    n, K = own.shape
    times = resolve_times(spec.times, K)
    floor = spec.weight_floor
    surv = 1.0 - _padded_cdf(_as_matrix(frozen_pmf, n))
    a, b = _ipcw_weights(spec.role, surv, time_bin, event, times, floor, stats)
    P = _own_cdf(own, times)
    evt, srv = _own_terms(spec.family, P, floor)
    vals = evt * a + srv * b
    if spec.family == "ipcw-bs":
        return times, vals, 2.0 * (P * b - (1.0 - P) * a)
    Pc, P_clamped = _clamp(P, floor, a > 0, stats)
    Qc, Q_clamped = _clamp(1.0 - P, floor, b > 0, stats)
    # clamped terms are flat in the cdf, so they contribute no gradient
    coefs = np.where(Q_clamped, 0.0, b / Qc) - np.where(P_clamped, 0.0, a / Pc)
    return times, vals, coefs


def _nll_values_dpmf(
    role: str,
    own_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    floor: float,
    stats: ClampStats | None,
    weights: np.ndarray | None,
):
    """Per-sample partial log-likelihood terms and the pmf gradient of the
    weighted total. The two players' likelihoods share no parameters, which
    is what lets the joint likelihood split into independent problems."""
    n, K = own_pmf.shape
    pad = _padded_cdf(own_pmf)
    rows = np.arange(n)

    if role == "failure":
        point_rows = event  # -log f(U)
        tail_start = time_bin  # -log Fbar(U) = -log sum_{k > U}
    else:
        point_rows = ~event  # -log g(U)
        tail_start = time_bin - 1  # -log Gbar(U-) = -log sum_{k >= U}

    point_mass = own_pmf[rows, time_bin - 1]
    tail_mass = 1.0 - pad[rows, tail_start]

    pm, pm_clamped = _clamp(point_mass, floor, point_rows, stats)
    tm, tm_clamped = _clamp(tail_mass, floor, ~point_rows, stats)

    vals = np.where(point_rows, -np.log(pm), -np.log(tm))

    w = np.full(n, 1.0 / n) if weights is None else weights
    dpmf = np.zeros((n, K))
    pr = point_rows & ~pm_clamped
    dpmf[rows[pr], time_bin[pr] - 1] = -w[pr] / pm[pr]
    tr = ~point_rows & ~tm_clamped
    spread = np.zeros((n, K + 1))
    spread[rows[tr], tail_start[tr]] = -w[tr] / tm[tr]
    # tail term covers all bins from tail_start on
    dpmf += np.cumsum(spread[:, :K], axis=1)
    return vals, dpmf


def batch_loss(
    spec: LossSpec,
    own_pmf: np.ndarray,
    frozen_pmf: np.ndarray | None,
    batch: Batch,
    stats: ClampStats | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted batch loss and its gradient with respect to ``own_pmf``.

    The frozen side enters only through probabilities treated as constants;
    the returned gradient is exactly d(value)/d(own_pmf), rows scaled by the
    normalized batch weights.

    Returns
    -------
    value : float
    dpmf : ndarray, shape (n, K)
    """
    n = batch.n
    own = _as_matrix(own_pmf, n)
    K = own.shape[1]
    w = batch.norm_weight()

    if spec.family == "nll":
        vals, dpmf = _nll_values_dpmf(
            spec.role, own, batch.time_bin, batch.event, spec.weight_floor, stats, w
        )
        return float(vals @ w), dpmf

    if frozen_pmf is None:
        raise ValueError("game losses need the other player's pmf")
    times, vals, coefs = _game_values_coefs(
        spec, own, frozen_pmf, batch.time_bin, batch.event, stats
    )
    value = float(w @ vals.sum(axis=1))
    # d cdf(t) / d pmf_k = 1{k <= t}: scatter per-horizon coefs, then suffix-sum
    tmp = np.zeros((n, K))
    tmp[:, times - 1] = coefs * w[:, None]
    dpmf = np.flip(np.cumsum(np.flip(tmp, axis=1), axis=1), axis=1)
    return value, dpmf


def per_horizon_loss(
    spec: LossSpec,
    own_pmf: np.ndarray,
    frozen_pmf: np.ndarray,
    batch: Batch,
    stats: ClampStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-aggregated per-horizon values and cdf-coefficients.

    Used by the per-(player, horizon) game where coordinate t descends its
    own horizon's loss only: the coordinate gradient of the t-th loss with
    respect to the t-th probability mass is exactly the t-th coefficient.

    Returns
    -------
    values : ndarray, shape (T,)
    coefs : ndarray, shape (T,)
    """
    if spec.family == "nll":
        raise ValueError("per-horizon form is defined for the game losses only")
    own = _as_matrix(own_pmf, batch.n)
    _, vals, coefs = _game_values_coefs(
        spec, own, frozen_pmf, batch.time_bin, batch.event, stats
    )
    w = batch.norm_weight()
    return w @ vals, w @ coefs


def ipcw_weight_arrays(
    role: str,
    frozen_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    times: np.ndarray,
    weight_floor: float = 1e-6,
    stats: ClampStats | None = None,
):
    """(a, b) inverse-weight arrays, shape (n, T): the event-branch and
    survival-branch multipliers a player's own terms contract against.
    Exposed for bulk evaluation over checkpoint grids."""
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    surv = 1.0 - _padded_cdf(_as_matrix(frozen_pmf, time_bin.size))
    return _ipcw_weights(role, surv, time_bin, event, times, weight_floor, stats)


def ipcw_per_sample(
    family, role, t, own_pmf, frozen_pmf, time_bin, event, weight_floor=1e-6, stats=None
):
    """Per-sample horizon-t game loss of one player, censoring handled by
    inverse weights from the other (frozen) player's pmf.

    ipcw-bs, failure role:
        value_i = Fbar(t)^2 * delta * 1{U <= t} / Gbar(U-)
                + F(t)^2 * 1{U > t} / Gbar(t)
    ipcw-bll replaces the squared residuals by negative logs, -log F(t) on
    the event branch and -log Fbar(t) on the survival branch, with the same
    weights. In the censor role events and censorings swap roles and the
    event branch divides by Fbar(U) with no left limit (T > U strictly on
    censored samples).
    """
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    own = _as_matrix(own_pmf, time_bin.size)
    spec = LossSpec(family, role, (t,), weight_floor)
    _, vals, _ = _game_values_coefs(spec, own, frozen_pmf, time_bin, event, stats)
    return vals[:, 0]


ipcw_bs_failure = functools.partial(ipcw_per_sample, "ipcw-bs", "failure")
ipcw_bll_failure = functools.partial(ipcw_per_sample, "ipcw-bll", "failure")


def nll(pmf, time_bin, event, role="failure", weight_floor=1e-6, stats=None):
    """Per-sample negative partial log-likelihood.

    failure role: event -> -log f(U), censored -> -log Fbar(U)
    censor role: event -> -log Gbar(U-), censored -> -log g(U)

    A sample censored in the last bin has Fbar(K) = 0 for every categorical
    model; its term clamps to -log(weight_floor) and contributes no gradient.
    """
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    own = _as_matrix(pmf, time_bin.size)
    vals, _ = _nll_values_dpmf(role, own, time_bin, event, weight_floor, stats, None)
    return vals


def ipcw_mean(time_bin, event, censor_pmf, values=None, weight=None, weight_floor=1e-6, stats=None):
    """Inverse-weighted mean of T: mean(delta * U / Gbar(U-)).

    Under positivity this is unbiased for E[T] even though censored samples
    contribute zero: the weights exactly undo the thinning of events.
    ``values`` substitutes a different per-sample quantity for U (e.g. raw
    times when bins stand in for continuous values).
    """
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    surv = 1.0 - _padded_cdf(_as_matrix(censor_pmf, time_bin.size))
    # horizon K covers every row, so the event-branch weight is delta / Gbar(U-)
    horizon_k = np.array([surv.shape[1] - 1])
    a, _ = _ipcw_weights("failure", surv, time_bin, event, horizon_k, weight_floor, stats)
    vals = np.asarray(time_bin if values is None else values, dtype=float)
    contrib = np.where(event, vals * a[:, 0], 0.0)  # censored values may be NaN
    if weight is None:
        return float(contrib.mean())
    w = np.asarray(weight, dtype=float)
    return float(contrib @ (w / w.sum()))


def summed_loss(
    family: str,
    f_pmf: np.ndarray,
    g_pmf: np.ndarray,
    batch: Batch,
    times: tuple[int, ...] | str = "all",
    weight_floor: float = 1e-6,
    stats: ClampStats | None = None,
) -> tuple[float, float]:
    """Both players' losses summed over horizons (batch means).

    For the game families each player is weighted by the other's frozen
    probabilities; for 'nll' the two partial likelihoods share nothing and
    the pair is simply (failure NLL, censoring NLL).
    """
    loss_f, _ = batch_loss(
        LossSpec(family, "failure", times, weight_floor), f_pmf, g_pmf, batch, stats
    )
    loss_g, _ = batch_loss(
        LossSpec(family, "censor", times, weight_floor), g_pmf, f_pmf, batch, stats
    )
    return loss_f, loss_g
