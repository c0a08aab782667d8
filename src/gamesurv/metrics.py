"""Censoring-aware evaluation: Kaplan-Meier weights, horizon scores,
concordance, calibration, and a serializable report.

The per-horizon Brier and Bernoulli log-likelihood metrics are the failure
player's training score, inverse-weighted by a censoring survival table
Gbar[j] = P(C > j), j = 0..K, that each weighting supplies: the Kaplan-Meier
censoring estimate at the bins (the deployable choice), one minus the padded
cdf of the jointly trained censoring model or of the true censoring
distribution (simulation only, for bias checks), or Gbar = 1 with the latent
failure times as events (simulation only). The scores reject pmfs whose
rows are not distributions with a ValueError naming the argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, assign_bins
from .losses import _as_matrix, _ipcw_weights, _own_cdf, _own_terms, _padded_cdf, _role_flags
from .losses import nll as _nll_per_sample
from .simgen import MarginalWorld

__all__ = [
    "KaplanMeier",
    "km_fit",
    "km_censoring",
    "eval_bs",
    "eval_bll",
    "nll_metric",
    "concordance",
    "concordance_index",
    "calibration_curve",
    "EvalReport",
    "evaluate",
]

WEIGHTINGS = ("uncensored-latent", "km", "model-G", "true-G")


@dataclass(frozen=True)
class KaplanMeier:
    """Product-limit estimate fit on (time, event) pairs.

    ``surv[i]`` is the estimate just after ``times[i]`` (right-continuous
    step function); left limits are available for inverse weighting, where
    the subject's own mass at its observed time must not count against it.
    """

    times: np.ndarray
    at_risk: np.ndarray
    n_events: np.ndarray
    n_censored: np.ndarray
    surv: np.ndarray

    def surv_at(self, t) -> np.ndarray:
        """S(t) = prod_{times <= t} (1 - d/n); 1 before the first time."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        return np.concatenate([[1.0], self.surv])[idx]

    def surv_left_at(self, t) -> np.ndarray:
        """Left limit S(t-): only strictly earlier times contribute."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="left")
        return np.concatenate([[1.0], self.surv])[idx]


def km_fit(time: np.ndarray, event: np.ndarray) -> KaplanMeier:
    """Kaplan-Meier over observed times; ties share a time point, and a
    subject censored at t is still at risk for the deaths at t.

    ``time`` and ``event`` must be 1-D of equal length with finite times;
    otherwise ValueError names the field."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    if time.ndim != 1 or time.size == 0:
        raise ValueError(f"time must be 1-D with at least one entry, got shape {time.shape}")
    if event.shape != time.shape:
        raise ValueError(f"event must match time's shape {time.shape}, got {event.shape}")
    if not np.all(np.isfinite(time)):
        raise ValueError("time must be finite")
    uniq, inv = np.unique(time, return_inverse=True)
    d = np.bincount(inv[event], minlength=uniq.size)
    c = np.bincount(inv[~event], minlength=uniq.size)
    total = d + c
    at_risk = time.size - np.concatenate([[0], np.cumsum(total)[:-1]])
    surv = np.cumprod(1.0 - d / at_risk)
    return KaplanMeier(uniq, at_risk, d, c, surv)


def km_censoring(dataset: Dataset) -> KaplanMeier:
    """Product-limit estimate of the censoring survival Ghat, i.e. the
    Kaplan-Meier fit with the event indicator flipped."""
    return km_fit(dataset.time_bin.astype(float), ~dataset.event)


def _latent_bins(dataset: Dataset) -> np.ndarray:
    if dataset.latent_time is None:
        raise ValueError("this weighting needs the latent failure times")
    return assign_bins(dataset.latent_time, dataset.bin_edges)


def _pmf_matrix(name: str, pmf, n: int) -> np.ndarray:
    """``pmf`` as (n, K) rows, which must be distributions: finite,
    nonnegative and summing to 1 within 1e-9 (the CategoricalSurvival
    tolerance). A NaN or infinite entry fails its row-sum comparison, so
    two passes check everything."""
    pmf = np.asarray(pmf, dtype=float)
    matrix = _as_matrix(pmf, n)
    if not np.all(np.abs(pmf.sum(axis=-1) - 1.0) <= 1e-9) or pmf.min(initial=0.0) < 0:
        raise ValueError(f"{name} rows must be finite, nonnegative and sum to 1 within 1e-9")
    return matrix


def _censoring_survival(dataset: Dataset, weighting: str, g_pmf, world):
    """Censoring survival table Gbar[..., j] = P(C > j), j = 0..K, under one
    weighting, with the (time_bin, event) it weights. The latent weighting
    scores the latent failure bins, every row an event, against Gbar = 1."""
    K = dataset.n_bins
    if weighting == "uncensored-latent":
        return np.ones(K + 1), _latent_bins(dataset), np.ones(dataset.n, dtype=bool)
    if weighting == "km":
        # binned times: KM jumps only at integer bins, so the table holds its
        # values at 0..K and its left limit at U is the entry at U - 1
        gbar = km_censoring(dataset).surv_at(np.arange(K + 1.0))
    elif weighting == "model-G":
        if g_pmf is None:
            raise ValueError("model-G weighting needs the censoring model's pmfs")
        gbar = 1.0 - _padded_cdf(_pmf_matrix("g_pmf", g_pmf, dataset.n))
    elif weighting == "true-G":
        if world is None:
            raise ValueError("true-G weighting needs the generating world")
        if world.n_bins != K:
            raise ValueError(f"world has {world.n_bins} bins but the dataset has {K}")
        gbar = 1.0 - _padded_cdf(world.theta_c)
    else:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    return gbar, dataset.time_bin, dataset.event


def _eval_weighted(f_pmf, dataset, weighting, g_pmf, world, floor, family):
    """Shared core of eval_bs / eval_bll: the failure player's training
    score, averaged per horizon over the dataset."""
    f_pmf = _pmf_matrix("f_pmf", f_pmf, dataset.n)
    if f_pmf.shape[1] != dataset.n_bins:
        raise ValueError("pmfs must be (n, K) aligned with the dataset")
    times = np.arange(1, dataset.n_bins)
    evt, srv = _own_terms(family, _own_cdf(f_pmf, times), floor)
    gbar, time_bin, event = _censoring_survival(dataset, weighting, g_pmf, world)
    surv = gbar.reshape(1, -1, gbar.shape[-1])  # one shared row or one per sample
    a, b = _ipcw_weights(_role_flags(("failure",)), surv, time_bin, event, times, floor, None)
    return (evt * a[0] + srv * b[0]).mean(axis=0)


def eval_bs(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
            world: MarginalWorld | None = None, floor: float = 1e-6) -> np.ndarray:
    """Per-horizon Brier score BS(t), t = 1..K-1, under the chosen weights.

    On censoring-free data the 'km' weights are identically 1 and the score
    equals the plain uncensored Brier score exactly.
    """
    return _eval_weighted(f_pmf, dataset, weighting, g_pmf, world, floor, "ipcw-bs")


def eval_bll(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
             world: MarginalWorld | None = None, floor: float = 1e-6) -> np.ndarray:
    """Per-horizon negative Bernoulli log-likelihood, same weighting scheme."""
    return _eval_weighted(f_pmf, dataset, weighting, g_pmf, world, floor, "ipcw-bll")


def nll_metric(f_pmf, dataset: Dataset, floor: float = 1e-6) -> float:
    """Mean partial likelihood loss of the failure model on observed data."""
    f_pmf = _pmf_matrix("f_pmf", f_pmf, dataset.n)
    vals = _nll_per_sample(f_pmf, dataset.time_bin, dataset.event, "failure", floor)
    return float(vals.mean())


# -- concordance ------------------------------------------------------------


def _count_earlier(rank: np.ndarray, weight: np.ndarray) -> tuple[int, int]:
    """Weighted counts of earlier rows with a smaller and with an equal rank,
    ``sum_k w_k #{j < k: r_j < r_k}`` and ``sum_k w_k #{j < k: r_j == r_k}``,
    for dense ranks r (at least one row) and 0/1 weights w.

    One linear pass per bit of the largest rank, most significant first
    (a wavelet-tree construction). Entering the pass for bit b, the rows are
    ordered by (r >> (b + 1), position). Within one such group a row whose
    bit b is 1 outranks exactly the earlier rows whose bit b is 0, and a
    stable partition of every group by that bit gives the order for the next
    bit. At the end the rows are ordered by (rank, position), so a row's
    offset within its rank counts its earlier equals.
    """
    n = rank.size
    n_ranks = int(rank.max()) + 1
    start = np.zeros(n_ranks + 1, dtype=np.int64)  # start[v] = #{rows: r < v}
    np.cumsum(np.bincount(rank, minlength=n_ranks), out=start[1:])
    rw = rank * 2 + weight  # rank and weight packed, so one scatter moves both
    pos = np.arange(n)
    less = 0
    for b in reversed(range((n_ranks - 1).bit_length())):
        top = rw >> (b + 1)  # r >> b
        one = top & 1
        group_start = start[top >> 1 << (b + 1)]
        ones_in = np.cumsum(one)
        ones_in -= one
        ones_in -= ones_in[group_start]  # earlier ones within the group
        zeros_dest = pos - ones_in  # = group start + earlier zeros within it
        less += int(np.dot(rw & one, zeros_dest - group_start))
        # a one goes after all of its group's zeros, i.e. to the start of
        # the rows sharing r >> b (an arithmetic blend: np.where with its
        # mask made every pass about 20% slower)
        dest = zeros_dest + one * (start[top << b] + 2 * ones_in - pos)
        moved = np.empty_like(rw)
        moved[dest] = rw
        rw = moved
    equal = int(np.dot(rw & 1, pos - start[rw >> 1]))
    return less, equal


def concordance_index(risk: np.ndarray, time: np.ndarray, event: np.ndarray) -> float:
    """Rank agreement between predicted risk and observed ordering.

    A pair (i, j) is admissible when i is an observed event and either
    U_i < U_j, or U_i == U_j with j censored (j outlived i's failure).
    It counts 1 when risk_i > risk_j and 1/2 on a risk tie; the result is
    (concordant + ties / 2) / admissible from exact integer pair counts, so
    it equals the quadratic definition bit for bit.

    Order the rows by time descending; within one time put censored rows
    first, then events by descending risk. An event's admissible partners
    are then exactly the rows before it, except the same-time events of
    equal risk (earlier same-time events never have lower risk), whose
    m(m - 1)/2 ties per cluster of m are subtracted. Counting the earlier
    rows with lower and equal risk is `_count_earlier`. Times may be binned
    or continuous; one code path serves both. Runs in O(n log n): three
    sorts plus one O(n) pass per bit of the number of distinct risks.

    ``risk``, ``time`` and ``event`` must be 1-D of equal length, with
    finite risks and times; otherwise ValueError names the field.
    """
    risk = np.asarray(risk, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    for name, arr in (("risk", risk), ("time", time), ("event", event)):
        if arr.ndim != 1 or arr.size != risk.size:
            raise ValueError(
                f"{name} must be 1-D with one entry per row, got shape {arr.shape}"
            )
    for name, arr in (("risk", risk), ("time", time)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    n = risk.size
    distinct_risks, rank = np.unique(risk, return_inverse=True)
    distinct_times, t_idx = np.unique(time, return_inverse=True)
    n_ranks, n_times = distinct_risks.size, distinct_times.size

    at_time = np.bincount(t_idx, minlength=n_times)
    events_at = np.bincount(t_idx[event], minlength=n_times)
    later = n - np.cumsum(at_time)
    # an event's partners: every later row and the censored rows at its time
    admissible = int(np.dot(events_at, later + at_time - events_at))
    if admissible == 0:
        raise ValueError("no admissible pairs: cannot compute concordance")

    # one sort key: time descending, censored before events, risk descending
    key = ((n_times - 1 - t_idx) * 2 + event) * n_ranks + (n_ranks - 1 - rank)
    order = np.argsort(key)
    sorted_key = key[order]
    weight = event[order].astype(np.int64)
    # runs of one key among events: same-time clusters of equal risk
    run_starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    run_sizes = np.diff(run_starts, append=n)[weight[run_starts] == 1]
    same_time_ties = int(np.dot(run_sizes, run_sizes - 1)) // 2

    less, equal = _count_earlier(rank[order], weight)
    return (less + 0.5 * (equal - same_time_ties)) / admissible


def concordance(f_pmf, dataset: Dataset) -> float:
    """Concordance of the model's risk ordering; risk is the negative
    expected bin index, so earlier predicted failure = higher risk."""
    bins = np.arange(1, dataset.n_bins + 1)
    risk = -(_as_matrix(f_pmf, dataset.n) @ bins)
    return concordance_index(risk, dataset.time_bin, dataset.event)


def calibration_curve(f_pmf, dataset: Dataset, levels=None):
    """Observed coverage of predicted-cdf level sets on latent times:
    fraction of subjects with F(T_i | x_i) <= alpha per level alpha. A
    calibrated model tracks the diagonal up to bin coarseness."""
    if levels is None:
        levels = np.arange(1, 10) / 10.0
    levels = np.asarray(levels, dtype=float)
    lat = _latent_bins(dataset)
    cdf = np.minimum(np.cumsum(_as_matrix(f_pmf, dataset.n), axis=1), 1.0)
    cdf_at_latent = cdf[np.arange(dataset.n), lat - 1]
    observed = (cdf_at_latent[:, None] <= levels[None, :]).mean(axis=0)
    return levels, observed


# -- report ------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    weighting: str
    n: int
    n_bins: int
    bs: np.ndarray
    bll: np.ndarray
    bs_mean: float
    bll_mean: float
    bs_sum: float
    bll_sum: float
    nll: float
    concordance: float
    calibration_levels: np.ndarray | None = None
    calibration_observed: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "weighting": self.weighting,
            "n": self.n,
            "n_bins": self.n_bins,
            "bs": self.bs.tolist(),
            "bll": self.bll.tolist(),
            "bs_mean": self.bs_mean,
            "bll_mean": self.bll_mean,
            "bs_sum": self.bs_sum,
            "bll_sum": self.bll_sum,
            "nll": self.nll,
            "concordance": self.concordance,
        }
        if self.calibration_levels is not None:
            out["calibration"] = {
                "levels": self.calibration_levels.tolist(),
                "observed": self.calibration_observed.tolist(),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def evaluate(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
             world: MarginalWorld | None = None, floor: float = 1e-6,
             calibration: bool | None = None) -> EvalReport:
    """Full evaluation under one weighting; calibration is included when
    latent times are available (or on request)."""
    bs = eval_bs(f_pmf, dataset, weighting, g_pmf, world, floor)
    bll = eval_bll(f_pmf, dataset, weighting, g_pmf, world, floor)
    if calibration is None:
        calibration = dataset.latent_time is not None
    levels = observed = None
    if calibration:
        levels, observed = calibration_curve(f_pmf, dataset)
    return EvalReport(
        weighting=weighting,
        n=dataset.n,
        n_bins=dataset.n_bins,
        bs=bs,
        bll=bll,
        bs_mean=float(bs.mean()),
        bll_mean=float(bll.mean()),
        bs_sum=float(bs.sum()),
        bll_sum=float(bll.sum()),
        nll=nll_metric(f_pmf, dataset, floor),
        concordance=concordance(f_pmf, dataset),
        calibration_levels=levels,
        calibration_observed=observed,
    )
