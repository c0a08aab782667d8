"""Core types for discrete-time survival data.

Times live on a grid of K bins indexed 1..K. A categorical distribution over
bins plays the role of both the failure-time and the censoring-time model.
Continuous times are mapped onto the grid with empirical-quantile bin edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RawSurvivalData",
    "Dataset",
    "Batch",
    "quantile_discretize",
    "assign_bins",
    "discretize",
]


def _frozen_copy(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Batch:
    """Array-of-records view used by losses and training steps.

    ``event`` is True when the failure was observed (T <= C): ties count as
    events, fixed when the data is generated and never re-derived from bins.
    ``weight`` is an optional nonnegative per-record weight (normalized to
    sum 1 inside batch reductions); enumerated population batches use it to
    carry exact outcome probabilities.

    The batch keeps read-only copies of ``time_bin``, ``event`` and
    ``weight``, so the label plans that ``losses`` builds from them on first
    use and keeps in ``_plans`` can never go stale.
    """

    time_bin: np.ndarray
    event: np.ndarray
    features: np.ndarray | None = None
    weight: np.ndarray | None = None
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "time_bin", _frozen_copy(self.time_bin, np.int64))
        object.__setattr__(self, "event", _frozen_copy(self.event, bool))
        if self.time_bin.shape != self.event.shape:
            raise ValueError("time_bin and event must have the same shape")
        if self.time_bin.size == 0:
            raise ValueError("time_bin is empty: a batch needs at least one record")
        if np.any(self.time_bin < 1):
            raise ValueError("time bins are 1-indexed; found bin < 1")
        if self.weight is not None:
            w = _frozen_copy(self.weight, float)
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            object.__setattr__(self, "weight", w)

    @property
    def n(self) -> int:
        return self.time_bin.size

    def norm_weight(self) -> np.ndarray:
        """Per-record weights normalized to sum 1."""
        if self.weight is None:
            return np.full(self.n, 1.0 / self.n)
        total = self.weight.sum()
        if total <= 0:
            raise ValueError("batch weights sum to zero")
        return self.weight / total


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
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be 2-d (n, d); use shape (n, 0) for none")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "time", np.asarray(self.time, dtype=float))
        object.__setattr__(self, "event", np.asarray(self.event, dtype=bool))
        if not (feats.shape[0] == self.time.size == self.event.size):
            raise ValueError("features, time, event must agree on n")

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Discretized survival data on a fixed bin grid.

    ``bin_edges`` has K+1 strictly increasing entries; bin j covers
    [edges[j-1], edges[j]), with the last bin closed on the right. When raw
    observed times are retained they must be consistent with the stored bins.
    """

    features: np.ndarray
    time_bin: np.ndarray
    event: np.ndarray
    bin_edges: np.ndarray
    raw_time: np.ndarray | None = None
    latent_time: np.ndarray | None = None
    latent_censor: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        bins = np.asarray(self.time_bin, dtype=np.int64)
        event = np.asarray(self.event, dtype=bool)
        edges = np.asarray(self.bin_edges, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be 2-d (n, d)")
        if not (feats.shape[0] == bins.size == event.size):
            raise ValueError("features, time_bin, event must agree on n")
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("bin_edges must hold at least two edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")
        K = edges.size - 1
        if bins.size and (bins.min() < 1 or bins.max() > K):
            raise ValueError(f"time_bin outside 1..{K}")
        if self.raw_time is not None:
            raw = np.asarray(self.raw_time, dtype=float)
            if raw.size != bins.size:
                raise ValueError("raw_time must agree on n")
            if not np.array_equal(assign_bins(raw, edges), bins):
                raise ValueError("raw_time inconsistent with bin_edges/time_bin")
            object.__setattr__(self, "raw_time", raw)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "time_bin", bins)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "bin_edges", edges)

    @property
    def n(self) -> int:
        return self.time_bin.size

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size - 1

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def batch(self, idx: np.ndarray | None = None) -> Batch:
        """Batch view of the whole dataset or of rows ``idx``."""
        if idx is None:
            return Batch(self.time_bin, self.event, self.features)
        return Batch(self.time_bin[idx], self.event[idx], self.features[idx])

    def subset(self, idx: np.ndarray) -> "Dataset":
        pick = lambda a: None if a is None else a[idx]
        return Dataset(
            self.features[idx],
            self.time_bin[idx],
            self.event[idx],
            self.bin_edges,
            raw_time=pick(self.raw_time),
            latent_time=pick(self.latent_time),
            latent_censor=pick(self.latent_censor),
        )


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
    times = np.asarray(raw_times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("raw_times must be a nonempty 1-d array")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
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
    times = np.asarray(times, dtype=float)
    edges = np.asarray(edges, dtype=float)
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
        edges = np.asarray(edges, dtype=float)
        bins = assign_bins(raw.time, edges)
    return Dataset(
        raw.features,
        bins,
        raw.event,
        edges,
        raw_time=raw.time,
        latent_time=raw.latent_time,
        latent_censor=raw.latent_censor,
    )
