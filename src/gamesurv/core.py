"""Core types for discrete-time survival data.

Times live on a grid of K bins indexed 1..K. A categorical distribution over
bins plays the role of both the failure-time and the censoring-time model.
Continuous times are mapped onto the grid with empirical-quantile bin edges.

Each kind of input the package reads from outside has one rule here, and
every entry point that takes that kind runs it, failing with a ValueError
that names the field:

- labels (`_labels`): int64 bins and bool events of one 1-d shape, the bins
  whole numbers in 1..K;
- event flags (`_events`): bools, or 0s and 1s, of the shape of the field
  they flag (``time_bin`` or ``time``);
- observed and latent times and feature matrices (`_finite`): finite floats
  with one axis (times) or two (features), one row per record;
- pmfs (`_check_pmf`): K bins on the last axis, rows finite, nonnegative
  and summing to 1 within 1e-9;
- bin edges (`_check_edges`): at least two, finite and strictly increasing;
- row weights (`_row_weights`): one finite, nonnegative weight per record,
  with a positive sum, rejected where every row weighs alike (`_unweighted`);
- datasets: at least one record (`_nonempty`), each field checked once,
  the labels for every label plan (`losses.label_plan` runs no rule); a
  dataset's rows (`Dataset.batch`) check only that they are one or more on
  one axis with a positive weight sum, and `discretize`'s output no rule;
- sizes and knobs (`_check_int`, `_check_real`): an integer that is not a
  bool, or a finite real, at least a lower bound;
- horizons (`losses.resolve_times`): 'all' or a 1-d sequence of whole
  numbers in 1..K-1; weight floors (`losses._check_floor`): in (0, 1);
- loss pmf arguments (`losses._as_matrix`): (K,), shared by every row, or
  (n, K), after a role axis where a loss scores several roles, with the
  other player's K held to the own pmf's. The training losses take model
  outputs on the hot path and skip the pmf rule, holding only the own pmf
  to the dataset's K; the per-sample losses and the metrics run it.

A standardizer checks its own ``mean`` and ``std`` (`simgen.Standardizer`).

Row-local passes over many rows (the MLP's cache-free forward and every
score of `losses._cells`, the likelihood's included) run in the row blocks
of `_row_blocks`: `ROW_BLOCK` rows each, the remainder joined
to the last, one plain call below 2 * `ROW_BLOCK` rows. A block writes its
rows of full-length outputs, and every sum over rows runs once on those, so
results and clamp counts are the unblocked ones bit for bit. A call's parts
(its row blocks, or for a stack of models each model pair's row blocks)
run through `_each_part`, on two threads when the call is wide enough to
pay for them: from 3 parts up, averaging at least `_THREAD_CELLS` cells
(rows times the columns each row computes) per part, when
`os.sched_getaffinity` gives the process at least 2 CPUs. Then one helper
thread runs the odd parts in a copy of the caller's context (so a caller's
`np.errstate` holds) while the caller runs the even ones, and is joined
before the call returns, so no thread outlives a call or meets a fork;
otherwise the parts run one after another on the caller. A narrow call
(criterion 01's 10k-row chunks at K <= 4) runs serially because its numpy
calls are too short to release the interpreter lock for long, and a
second thread only adds hand-offs. The helper runs only private
arithmetic: every traced entry point (model construction, `forward`,
`predict_pmf`, the losses) runs on the caller, which starts the split.
Clamp counts are part-local and added on the caller in part order, and the
caller re-raises the first failure in part order. A part reads shared
inputs and writes only its own rows, and every sum over rows runs after
the parts, so which thread runs a part cannot move a bit.
"""

from __future__ import annotations

import contextvars
import numbers
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RawSurvivalData",
    "Dataset",
    "quantile_discretize",
    "assign_bins",
    "discretize",
    "padded_cdf",
]


# Rows per block of a row-local pass, so that a block's temporaries stay in a
# core's 2 MB L2 cache where 1e5-row arrays spill to L3. On 1e5 rows, 1024
# beat 2048 and 4096 by a tenth on the MLP forward and tied on the losses.
# A block never has fewer rows: with OpenBLAS a matmul over a few dozen rows
# (60 or fewer with 0.3.31) can round differently from the same rows inside
# a large matmul, and a large block gives the same bits as the whole batch.
ROW_BLOCK = 1024

# Cells per part, on average, from which a call's parts run on two threads.
# Per-part size, not the call's total, decides: on a 2-core host, on 10k-
# and 1e5-row `per_horizon_loss` calls, a second thread slowed parts of
# 2048-8192 cells by 1.1-2.9x and sped up parts of 20480 cells and more by
# up to 1.4x (the 10k-row, K = 20 call read 1.01-1.12x, about even).
_THREAD_CELLS = 1 << 14


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of ``n`` rows: ``ROW_BLOCK`` rows each, the remainder
    joined to the last, so no block is shorter; fewer than 2 * ROW_BLOCK
    rows are one block, ``slice(None)``."""
    if n < 2 * ROW_BLOCK:
        return [slice(None)]
    cuts = [0, *range(ROW_BLOCK, n - ROW_BLOCK + 1, ROW_BLOCK), n]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def _each_part(parts: list, kernel, cells: int) -> list:
    """``kernel(part)`` on each of ``parts``, the results in part order, on
    the threads of the module docstring's rule for a call of ``cells``
    cells. Part 0 runs first, on the caller, before any other starts."""
    if (len(parts) < 3 or cells < _THREAD_CELLS * len(parts)
            or len(os.sched_getaffinity(0)) < 2):
        return [kernel(part) for part in parts]
    results = [kernel(parts[0])] + [None] * (len(parts) - 1)
    failures = [None] * len(parts)

    def run(first: int) -> None:
        for i in range(first, len(parts), 2):
            try:
                results[i] = kernel(parts[i])
            except BaseException as exc:  # raised on the caller below
                failures[i] = exc
                return

    helper = threading.Thread(target=contextvars.copy_context().run, args=(run, 1))
    helper.start()
    try:
        run(2)
    finally:
        helper.join()
    for exc in failures:
        if exc is not None:
            raise exc
    return results


def _check_int(name: str, value, low: int):
    """``value``, which must be an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name!r} must be an integer >= {low}, got {value!r}")
    return value


def _check_real(name: str, value, low: float = -np.inf):
    """``value``, which must be a finite real number (not a bool) of at least ``low``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and np.isfinite(value) and value >= low):
        bound = "" if low == -np.inf else f" >= {low}"
        raise ValueError(f"{name!r} must be a finite number{bound}, got {value!r}")
    return value


def _whole(values: np.ndarray) -> bool:
    """Whether ``values`` are whole numbers: integers, or finite floats
    without a fraction."""
    if values.dtype.kind in "iu":
        return True
    finite = values.dtype.kind == "f" and np.all(np.isfinite(values))
    return bool(finite and np.array_equal(values, np.floor(values)))


def _events(event, shape: tuple, of: str) -> np.ndarray:
    """``event`` as bools, which must have ``shape``, the shape of field
    ``of``, and hold only 0 and 1. A bool array passes unscanned."""
    event = np.asarray(event)
    if event.shape != shape:
        raise ValueError(f"event must have {of}'s shape {shape}, got {event.shape}")
    if event.dtype != bool:
        if not np.all((event == 0) | (event == 1)):  # a NaN fails both
            raise ValueError(f"event must hold only 0 and 1, got {event.dtype} values")
        event = event.astype(bool)
    return event


def _finite(name: str, values, ndim: int = 1, n: int | None = None) -> np.ndarray:
    """``values`` as finite floats with ``ndim`` axes, and ``n`` rows when given."""
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim or (n is not None and values.shape[0] != n):
        rows = "" if n is None else f" with {n} rows"
        raise ValueError(f"{name} must be {ndim}-d{rows}, got shape {values.shape}")
    if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
        bad = values.size - np.count_nonzero(np.isfinite(values))
        raise ValueError(f"{name} must be finite, got {bad} NaN or infinite entries")
    return values


def _labels(time_bin, event, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels as int64 bins and bool events of one 1-d shape. A bin that is
    not a whole number in 1..K, ``n_bins``, would index another column of
    the survival and pmf tables, so it fails here."""
    bins = np.asarray(time_bin)
    if bins.ndim != 1:
        raise ValueError(f"time_bin must be 1-d, got shape {bins.shape}")
    event = _events(event, bins.shape, "time_bin")
    if not _whole(bins):
        raise ValueError(f"time_bin must hold whole bin numbers, got {bins.dtype} values")
    bins = bins.astype(np.int64, copy=False)
    if bins.size and (bins.min() < 1 or bins.max() > n_bins):
        raise ValueError(f"time_bin must lie in 1..{n_bins}, "
                         f"got labels from {bins.min()} to {bins.max()}")
    return bins, event


def _check_pmf(name: str, pmf, n_bins: int) -> np.ndarray:
    """``pmf`` as floats, which must hold ``n_bins`` bins on its last axis in
    rows that are distributions: finite, nonnegative and summing to 1 within
    1e-9. A NaN or infinite entry fails its row-sum comparison."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape[-1:] != (n_bins,):
        raise ValueError(f"{name} must hold {n_bins} bins on its last axis, got shape {pmf.shape}")
    # one max and one min, not np.all over a mask: the oracle checks tiny stacks in its scans
    if not (np.abs(pmf.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-9 and pmf.min(initial=0.0) >= 0):
        raise ValueError(f"{name} rows must be finite, nonnegative and sum to 1 within 1e-9")
    return pmf


def _check_edges(edges) -> np.ndarray:
    """``edges`` as floats, which must be at least two finite, strictly
    increasing bin edges."""
    edges = np.asarray(edges, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.all(np.isfinite(edges))
            and np.all(np.diff(edges) > 0)):
        raise ValueError(f"bin_edges must be at least two finite, strictly increasing edges, "
                         f"got {edges.tolist()}")
    return edges


def _row_weights(weight, n: int) -> np.ndarray:
    """``weight`` as floats, which must be one finite, nonnegative weight
    per record with a positive sum; otherwise ValueError naming ``weight``."""
    w = np.asarray(weight, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weight must hold one entry per record, shape ({n},), got {w.shape}")
    if not (np.all(w >= 0) and 0 < w.sum() < np.inf):  # a NaN fails both
        raise ValueError("weight must be finite and nonnegative with a positive sum")
    return w


def _unweighted(dataset: "Dataset", reader: str) -> None:
    """Reject, naming ``weight``, a weighted ``dataset``: ``reader`` ignores row weights."""
    if dataset.weight is not None:
        raise ValueError(f"{reader} weighs every row alike: weight must be None, got row weights")


def _nonempty(n: int) -> int:
    """``n``, a dataset's record count, which must be positive."""
    if n == 0:
        raise ValueError("time_bin is empty: a dataset needs at least one record")
    return n


def _set_latent(data, n: int) -> None:
    """Check the latent times of ``data``, when given, as ``n`` finite floats."""
    for name in ("latent_time", "latent_censor"):
        if getattr(data, name) is not None:
            object.__setattr__(data, name, _finite(name, getattr(data, name), n=n))


@dataclass(frozen=True)
class RawSurvivalData:
    """Continuous-time observations before binning.

    ``time`` is the observed U = min(T, C); ``latent_time`` and
    ``latent_censor`` hold the underlying T and C when known (simulation).
    """

    features: np.ndarray
    time: np.ndarray
    event: np.ndarray
    latent_time: np.ndarray | None = None
    latent_censor: np.ndarray | None = None

    def __post_init__(self):
        time = _finite("time", self.time)
        object.__setattr__(self, "features", _finite("features", self.features, 2, time.size))
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", _events(self.event, time.shape, "time"))
        _set_latent(self, time.size)

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Discretized survival data on a fixed bin grid: the one labelled
    container, of splits, minibatches and population batches alike.

    ``bin_edges`` has K+1 strictly increasing entries; bin j covers
    [edges[j-1], edges[j]), with the last bin closed on the right.
    ``event`` is True when the failure was observed (T <= C; ties count as
    events, fixed when the data is generated). ``weight`` optionally weighs
    the records (normalized to sum 1 in batch reductions), as a population
    batch's outcome probabilities. The labels and weights are read-only
    copies, so the label plans ``losses`` keeps in ``_plans`` never go stale.
    """

    features: np.ndarray
    time_bin: np.ndarray
    event: np.ndarray
    bin_edges: np.ndarray
    latent_time: np.ndarray | None = None
    latent_censor: np.ndarray | None = None
    weight: np.ndarray | None = None
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = _check_edges(self.bin_edges)
        bins, event = _labels(self.time_bin, self.event, edges.size - 1)
        n = _nonempty(bins.size)
        _set_latent(self, n)
        weight = None if self.weight is None else _row_weights(self.weight, n).copy()
        self._set(_finite("features", self.features, 2, n), bins.copy(), event.copy(), edges,
                  self.latent_time, self.latent_censor, weight)

    def _set(self, *values) -> "Dataset":
        """This dataset with its fields, in order, set through its dict (it is
        frozen) to checked ``values`` and an empty plan memo, the labels and
        weights made read-only in place (the caller hands them over)."""
        vars(self).update(zip(self.__dataclass_fields__, (*values, {})))
        for label in (self.time_bin, self.event, self.weight):
            if label is not None:
                label.flags.writeable = False
        return self

    @classmethod
    def _checked(cls, *values) -> "Dataset":
        """A dataset of its seven checked fields, in order, running no rule."""
        return object.__new__(cls)._set(*values)

    @property
    def n(self) -> int:
        return self.time_bin.size

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size - 1

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def norm_weight(self) -> np.ndarray:
        """Per-record weights normalized to sum 1."""
        if self.weight is None:
            return np.full(self.n, 1.0 / self.n)
        return self.weight / self.weight.sum()

    def batch(self, idx: np.ndarray | None = None) -> "Dataset":
        """The whole dataset, or rows ``idx`` as a dataset with plans of its
        own, checked only for what a subset of checked rows can break."""
        if idx is None:
            return self
        bins = self.time_bin[idx]
        if bins.ndim != 1 or bins.size == 0:
            raise ValueError(f"idx must pick one or more rows on one axis, got shape {bins.shape}")
        *latent, weight = (None if a is None else a[idx]
                           for a in (self.latent_time, self.latent_censor, self.weight))
        if weight is not None and not weight.sum() > 0:
            raise ValueError("weight must have a positive sum over the rows idx picks")
        return Dataset._checked(self.features[idx], bins, self.event[idx], self.bin_edges,
                                *latent, weight)


def quantile_discretize(raw_times: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical-quantile bin grid over ``raw_times``.

    Edges are the j/K quantiles for j = 0..K (linear interpolation), so each
    bin receives roughly equal mass. Bins are half-open [e_{j-1}, e_j) with
    the last bin closed so the maximum maps to bin K.

    Returns
    -------
    edges : ndarray, shape (K+1,)
    bins : ndarray of int, shape (n,)
        Bin index in 1..K for each input time.

    Raises
    ------
    ValueError
        If any edge pair coincides (too few distinct times for K bins); the
        message lists the degenerate bins.
    """
    times = _finite("raw_times", raw_times)
    if times.size == 0:
        raise ValueError("raw_times must hold at least one time")
    _check_int("n_bins", n_bins, 1)
    edges = np.quantile(times, np.linspace(0.0, 1.0, n_bins + 1))
    flat = np.nonzero(np.diff(edges) <= 0)[0]
    if flat.size:
        bad = ", ".join(str(j + 1) for j in flat)
        raise ValueError(
            f"degenerate bins {bad}: need {n_bins} bins but the quantile edges "
            "coincide (too few distinct times)"
        )
    return edges, assign_bins(times, edges)


def assign_bins(times: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map times onto an existing grid; values beyond the outer edges clip
    into the first/last bin so held-out data always lands on the grid."""
    times, edges = _finite("times", times), _check_edges(edges)
    return np.searchsorted(edges[1:-1], times, side="right").astype(np.int64) + 1


def discretize(
    raw: RawSurvivalData,
    n_bins: int | None = None,
    edges: np.ndarray | None = None,
) -> Dataset:
    """Bin raw observations, either fitting quantile edges (``n_bins``) or
    reusing a training grid (``edges``). Exactly one must be given."""
    if (n_bins is None) == (edges is None):
        raise ValueError("pass exactly one of n_bins or edges")
    if edges is None:
        edges, bins = quantile_discretize(raw.time, n_bins)
    else:
        bins, edges = assign_bins(raw.time, edges), np.asarray(edges, dtype=float)
    # raw's fields passed their rules in RawSurvivalData, the bins and edges above
    _nonempty(raw.n)
    return Dataset._checked(raw.features, bins, raw.event.copy(), edges, raw.latent_time,
                            raw.latent_censor, None)


def padded_cdf(pmf: np.ndarray) -> np.ndarray:
    """Cumulative sum along the last axis with a leading zero: entry j is
    P(X <= j) for j = 0..K. The one place a pmf's cdf tables are built, so
    the world's tables, the losses' survival tables and the oracle's model
    tables round alike."""
    out = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
    pmf.cumsum(axis=-1, out=out[..., 1:])
    return out
