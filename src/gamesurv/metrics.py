"""Censoring-aware evaluation: Kaplan-Meier weights, horizon scores,
concordance, calibration, and a serializable report.

The per-horizon Brier and Bernoulli log-likelihood metrics are the failure
player's training score, inverse-weighted by a censoring survival table
Gbar[j] = P(C > j), j = 0..K, that each weighting supplies: the Kaplan-Meier
censoring estimate at the bins (the deployable choice), one minus the padded
cdf of the jointly trained censoring model or of the true censoring
distribution (simulation only, for bias checks), or Gbar = 1 with the latent
failure times as events (simulation only). The table goes through the loss
kernel's entry point (``losses._cells``), so this module keeps no weight or
term code of its own; its input and row-block rules are core's (see the
`core` module docstring). `evaluate` scores a cohort in one pass: one pmf
check, censoring table and latent-bin lookup serve all its scores, each row
block's inverse weights serve both Brier and BLL, its cdf gives the
calibration and likelihood entries, and its label plans are the dataset's
(`losses._plan_of`), shared by every weighting and the training losses.
Concordance makes one pass per bit of the 2 * n_times (time, event) classes
and takes ties from runs of equal risk (`concordance_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import Dataset, _check_int, _check_pmf, _events, _finite, _unweighted, assign_bins
from .losses import LossSpec, _as_matrix, _cells, _check_floor, _likelihood, _plan_of
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
SCORES = ("ipcw-bs", "ipcw-bll")
_SCORED, _OBSERVED = LossSpec("ipcw-bs", "failure"), LossSpec("nll", "failure")  # plan keys


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


def km_fit(time: np.ndarray, event: np.ndarray) -> KaplanMeier:
    """Kaplan-Meier over observed times; ties share a time point, and a
    subject censored at t is still at risk for the deaths at t.

    ``time`` must be nonempty; ``time`` and ``event`` follow core's rules."""
    time = _finite("time", time)
    if time.size == 0:
        raise ValueError("time must hold at least one entry")
    event = _events(event, time.shape, "time")
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
    _unweighted(dataset, "km_censoring")
    return km_fit(dataset.time_bin.astype(float), ~dataset.event)


def _pmf_matrix(name: str, pmf, dataset: Dataset) -> np.ndarray:
    """``pmf`` as (n, K) rows aligned with ``dataset``, after core's pmf rule."""
    return _as_matrix(name, _check_pmf(name, pmf, dataset.n_bins), dataset.n)


class _Cohort:
    """A checked failure pmf matrix on one dataset under one weighting and
    floor, with its latent bins, and its scores and per-row entries built on
    first use. A scorer takes a cohort in place of ``f_pmf`` and reads the
    rest from it."""

    def __init__(self, f_pmf, dataset: Dataset, weighting="km", g_pmf=None, world=None, floor=1e-6):
        _unweighted(dataset, "a metrics scorer")
        self.pmf = _pmf_matrix("f_pmf", f_pmf, dataset)
        self.dataset, self.weighting, self.g_pmf, self.world = dataset, weighting, g_pmf, world
        self.floor = _check_floor(floor, "floor")
        lat = dataset.latent_time
        self.latent_bins = None if lat is None else assign_bins(lat, dataset.bin_edges)
        self._entries = None

    def censoring(self):
        """The censoring side under the weighting, with the dataset whose
        labels it weights: one survival table Gbar[j] = P(C > j), j = 0..K,
        for every row, or under model-G the censoring model's (n, K) pmfs,
        whose tables `losses._cells` builds per row block. The latent
        weighting scores a dataset of the latent bins, all events, against Gbar = 1."""
        dataset, world, K = self.dataset, self.world, self.dataset.n_bins
        if self.weighting == "uncensored-latent":
            if self.latent_bins is None:
                raise ValueError("this weighting needs the latent failure times")
            return np.ones(K + 1), Dataset(np.zeros((dataset.n, 0)), self.latent_bins,
                                           np.full(dataset.n, True), dataset.bin_edges)
        if self.weighting == "km":
            # binned times: KM jumps only at integer bins, so the table holds its
            # values at 0..K and its left limit at U is the entry at U - 1
            gbar = km_censoring(dataset).surv_at(np.arange(K + 1.0))
        elif self.weighting == "model-G":
            if self.g_pmf is None:
                raise ValueError("model-G weighting needs the censoring model's pmfs")
            gbar = _pmf_matrix("g_pmf", self.g_pmf, dataset)
        elif self.weighting == "true-G":
            if world is None:
                raise ValueError("true-G weighting needs the generating world")
            if world.n_bins != K:
                raise ValueError(f"world has {world.n_bins} bins but the dataset has {K}")
            gbar = world.survs[1]
        else:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        return gbar, dataset

    @cached_property
    def scores(self) -> dict:
        """The failure player's Brier and BLL training scores per horizon,
        averaged over rows, by family, from one pass of the loss kernel's
        `_cells`: a block's inverse weights serve both families, and its cdf
        gives the block's `entries`. One bin leaves no horizon to score."""
        _check_int("n_bins", self.dataset.n_bins, 2)
        side, labels = self.censoring()
        out = _cells(_plan_of(_SCORED, labels), SCORES, self.pmf[None],
                     side.reshape(1, -1, side.shape[-1]), self.floor,
                     reduce=lambda rows, part, cdf, *vals: (*vals, *self._entries_of(rows, cdf)))
        self._entries = out[2:]
        return {family: v[0].mean(axis=0) for family, v in zip(SCORES, out)}

    def entries(self) -> tuple:
        """The per-row likelihood values and, with latent times, the cdf at
        each latent bin, (1, n) each: from the score pass when it has run,
        else from a pass of their own over the same row blocks."""
        if self._entries is None:
            self._entries = _cells(_plan_of(_OBSERVED, self.dataset), (), self.pmf[None], None,
                                   self.floor,
                                   reduce=lambda rows, part, cdf: self._entries_of(rows, cdf))
        return self._entries

    def _entries_of(self, rows, cdf) -> tuple:
        """The `entries` of rows ``rows``, from their (1, rows, K) cdfs."""
        lat = self.latent_bins
        nll, = _likelihood(_plan_of(_OBSERVED, self.dataset).block(rows), self.pmf[None, rows], cdf,
                           self.floor, None, False)
        if lat is None:
            return (nll,)
        return nll, cdf[:, np.arange(cdf.shape[1]), lat[rows] - 1]


def _cohort(f_pmf, *args, **kwargs) -> _Cohort:
    return f_pmf if isinstance(f_pmf, _Cohort) else _Cohort(f_pmf, *args, **kwargs)


def eval_bs(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
            world: MarginalWorld | None = None, floor: float = 1e-6) -> np.ndarray:
    """Per-horizon Brier score BS(t), t = 1..K-1, under the chosen weights.

    On censoring-free data the 'km' weights are identically 1 and the score
    equals the plain uncensored Brier score exactly.
    """
    return _cohort(f_pmf, dataset, weighting, g_pmf, world, floor).scores["ipcw-bs"]


def eval_bll(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
             world: MarginalWorld | None = None, floor: float = 1e-6) -> np.ndarray:
    """Per-horizon negative Bernoulli log-likelihood, same weighting scheme."""
    return _cohort(f_pmf, dataset, weighting, g_pmf, world, floor).scores["ipcw-bll"]


def nll_metric(f_pmf, dataset: Dataset, floor: float = 1e-6) -> float:
    """Mean partial likelihood loss of the failure model on observed data."""
    return float(_cohort(f_pmf, dataset, floor=floor).entries()[0][0].mean())


# -- concordance ------------------------------------------------------------


def _count_earlier(rank: np.ndarray, weight: np.ndarray) -> int:
    """Weighted count of earlier rows with a smaller rank,
    ``sum_k w_k #{j < k: r_j < r_k}``, for nonnegative integer ranks r (at
    least one row) and 0/1 weights w.

    One linear pass per bit of the largest rank, most significant first
    (a wavelet-tree construction). Entering the pass for bit b, the rows are
    ordered by (r >> (b + 1), position). Within one such group a row whose
    bit b is 1 outranks exactly the earlier rows whose bit b is 0, and a
    stable partition of every group by that bit gives the order for the next
    bit.
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
    return less


def concordance_index(risk: np.ndarray, time: np.ndarray, event: np.ndarray) -> float:
    """Rank agreement between predicted risk and observed ordering.

    A pair (i, j) is admissible when i is an observed event and either
    U_i < U_j, or U_i == U_j with j censored (j outlived i's failure).
    It counts 1 when risk_i > risk_j and 1/2 on a risk tie; the result is
    (concordant + ties / 2) / admissible from exact integer pair counts, so
    it equals the quadratic definition bit for bit.

    Rows fall in 2 * n_times position classes, time descending and censored
    before events within a time, so an event's admissible partners are the
    rows of a smaller class. In the order risk ascending, class descending,
    `_count_earlier` counts each event's earlier rows of a smaller class
    (lower risk), and its equal-risk partners are the rest of its risk run
    after its class. Times may be binned or continuous; one code path serves
    both. Runs in O(n log n): three sorts plus one O(n) pass per bit of the
    class count, 6 for 20 bins and at most ceil(log2 n) + 1 on any times.

    ``risk``, ``time`` and ``event`` follow core's rules, one entry per row.
    """
    risk = _finite("risk", risk)
    time = _finite("time", time, n=risk.size)
    event = _events(event, time.shape, "time")
    _, rank = np.unique(risk, return_inverse=True)
    distinct_times, t_idx = np.unique(time, return_inverse=True)
    n_classes = 2 * distinct_times.size
    cls = n_classes - 2 * (t_idx + 1) + event
    per_class = np.bincount(cls, minlength=n_classes)
    admissible = int(np.sum((np.cumsum(per_class) - per_class)[cls[event]]))
    if admissible == 0:
        raise ValueError("no admissible pairs: cannot compute concordance")

    # one sort key: risk ascending, class descending
    key = rank * n_classes + (n_classes - 1 - cls)
    order = np.argsort(key)
    sorted_key = key[order]
    weight = event[order].astype(np.int64)
    less = _count_earlier(cls[order], weight)
    # each (risk, class) group's events tie with the rest of its risk run
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    run_ends = np.searchsorted(sorted_key, (sorted_key[starts] // n_classes + 1) * n_classes)
    ties = int(np.dot(np.add.reduceat(weight, starts), run_ends - np.append(starts[1:], key.size)))
    return (less + 0.5 * ties) / admissible


def concordance(f_pmf, dataset: Dataset) -> float:
    """Concordance of the model's risk ordering; risk is the negative
    expected bin index, so earlier predicted failure = higher risk."""
    risk = -(_cohort(f_pmf, dataset).pmf @ np.arange(1, dataset.n_bins + 1))
    return concordance_index(risk, dataset.time_bin, dataset.event)


def calibration_curve(f_pmf, dataset: Dataset):
    """Observed coverage of predicted-cdf level sets on latent times:
    fraction of subjects with F(T_i | x_i) <= alpha per level alpha = 0.1,
    0.2, ..., 0.9. A calibrated model tracks the diagonal up to bin
    coarseness."""
    c = _cohort(f_pmf, dataset)
    if c.latent_bins is None:
        raise ValueError("calibration needs the latent failure times: dataset.latent_time is None")
    levels = np.arange(1, 10) / 10.0
    cdf_at_latent = np.minimum(c.entries()[1][0], 1.0)
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
        """The fields as JSON values, arrays as lists; the calibration pair,
        when present, nests under ``calibration``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        levels, observed = out.pop("calibration_levels"), out.pop("calibration_observed")
        out["bs"], out["bll"] = self.bs.tolist(), self.bll.tolist()
        if levels is not None:
            out["calibration"] = {"levels": levels.tolist(), "observed": observed.tolist()}
        return out


def evaluate(f_pmf, dataset: Dataset, weighting: str = "km", g_pmf=None,
             world: MarginalWorld | None = None, floor: float = 1e-6) -> EvalReport:
    """Full evaluation under one weighting; calibration is included exactly
    when latent times are available. The scores share one pmf check, cdf,
    censoring table, label plan and weights (`_Cohort`)."""
    cohort = _cohort(f_pmf, dataset, weighting, g_pmf, world, floor)
    bs = eval_bs(cohort, dataset)
    bll = eval_bll(cohort, dataset)
    levels = observed = None
    if dataset.latent_time is not None:
        levels, observed = calibration_curve(cohort, dataset)
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
        nll=nll_metric(cohort, dataset),
        concordance=concordance(cohort, dataset),
        calibration_levels=levels,
        calibration_observed=observed,
    )
