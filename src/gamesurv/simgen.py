"""Simulation generators, marginal worlds, and the CSV data contract.

Two generators:

- ``gen_gamma``: conditional gamma failure and censoring times. Features
  X ~ N(0, feature_variance * I), one fixed coefficient draw w ~ U(0, 0.1)^d,
  failure mean exp(w.x), censoring mean censor_mean_factor * exp(w.x), both
  with a fixed small variance, so censoring depends on X and is informative
  to ignore.
- ``gen_marginal``: exact categorical draws from a known marginal world,
  used by the population oracle's Monte-Carlo cross checks.

``MarginalWorld.outcomes`` is the one table of outcome probabilities
P(U, delta): ``population_batch`` and the oracle's population likelihood
both read it.

Sampling uses one uniform per variate (inverse CDF), so for a fixed seed the
first n rows of a larger draw equal a smaller draw: sweeps over the training
size grow a dataset instead of reshuffling it.

CSV contract: header ``f0..f{d-1},time,event`` with float times and 0/1
events; a latent sidecar carries the underlying (t, c) pair for simulated
data; bin edges travel in a JSON sidecar {"K": ..., "edges": [...]}.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Dataset, RawSurvivalData, _check_edges, _check_int, _check_pmf, _check_real
from .core import padded_cdf

__all__ = [
    "GammaSimConfig",
    "MarginalWorld",
    "gen_gamma",
    "gen_marginal",
    "population_batch",
    "gamma_from_uniform",
    "random_interior_world",
    "Standardizer",
    "save_csv",
    "load_csv",
    "save_latent_csv",
    "load_latent_csv",
    "write_csv",
    "write_bin_edges",
    "read_bin_edges",
]


_REAL_KNOBS = ("feature_variance", "coef_low", "coef_high", "time_variance", "censor_mean_factor")


@dataclass(frozen=True)
class GammaSimConfig:
    """Knobs of the conditional gamma simulator (defaults = reference setup)."""

    n: int
    seed: int | tuple[int, ...] = 0
    feature_dim: int = 32
    feature_variance: float = 10.0
    coef_low: float = 0.0
    coef_high: float = 0.1
    time_variance: float = 0.05
    censor_mean_factor: float = 0.9

    def __post_init__(self):
        for name in ("n", "feature_dim"):
            _check_int(name, getattr(self, name), 1)
        for name in _REAL_KNOBS:
            _check_real(name, getattr(self, name))
        if self.time_variance <= 0 or self.feature_variance <= 0:
            raise ValueError("variances must be positive")
        if not 0 < self.censor_mean_factor:
            raise ValueError("censor_mean_factor must be positive")
        if self.coef_low > self.coef_high:
            raise ValueError(
                f"'coef_low' must not exceed 'coef_high', got {self.coef_low} > {self.coef_high}"
            )


def gamma_from_uniform(mean: np.ndarray, variance: float, u: np.ndarray) -> np.ndarray:
    """Gamma variates with the given mean and variance from uniforms via the
    inverse CDF. shape = mean^2/var, scale = var/mean; one uniform per draw."""
    from scipy.special import gammaincinv  # imported here: `import gamesurv` stays fast

    mean = np.asarray(mean, dtype=float)
    if np.any(mean <= 0):
        raise ValueError("gamma mean must be positive")
    shape = mean * mean / variance
    return gammaincinv(shape, np.asarray(u)) * (variance / mean)


def gen_gamma(config: GammaSimConfig) -> RawSurvivalData:
    """Draw (X, U, delta) with latent (T, C) from the conditional gamma setup.

    Ties T == C count as events; the indicator is fixed here and never
    re-derived after binning.
    """
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_coef, rng_x, rng_t, rng_c = (np.random.default_rng(s) for s in streams)

    w = rng_coef.uniform(config.coef_low, config.coef_high, config.feature_dim)
    x = rng_x.normal(0.0, np.sqrt(config.feature_variance), (config.n, config.feature_dim))
    mu = np.exp(x @ w)
    t = gamma_from_uniform(mu, config.time_variance, rng_t.random(config.n))
    c = gamma_from_uniform(
        config.censor_mean_factor * mu, config.time_variance, rng_c.random(config.n)
    )
    event = t <= c
    return RawSurvivalData(
        features=x,
        time=np.where(event, t, c),
        event=event,
        latent_time=t,
        latent_censor=c,
    )


@dataclass(frozen=True)
class MarginalWorld:
    """A pair of categorical distributions over bins 1..K: the true failure
    pmf and the true censoring pmf of a feature-free population.

    The world's tables are built once and kept read-only, rows (failure,
    censor): ``pmfs`` (2, K), of which ``theta_t`` and ``theta_c`` are
    views, the padded cdfs ``cdfs`` (2, K+1), entry j = P(X <= j) for
    j = 0..K, the survivals ``survs`` = 1 - ``cdfs``, and the outcome
    probabilities ``outcomes`` (2, K): P(U = u, delta = 1) = theta_t[u] *
    P(C >= u) in row 0, P(U = u, delta = 0) = theta_c[u] * P(T > u) in row
    1, whose (K, censored) cell is exactly 0 even where the cdf's rounding
    leaves P(T > K) a hair above 0.
    """

    theta_t: np.ndarray
    theta_c: np.ndarray
    pmfs: np.ndarray = field(init=False, repr=False, compare=False)
    cdfs: np.ndarray = field(init=False, repr=False, compare=False)
    survs: np.ndarray = field(init=False, repr=False, compare=False)
    outcomes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta_t", "theta_c"):
            if np.ndim(getattr(self, name)) != 1 or np.size(getattr(self, name)) < 2:
                raise ValueError(f"{name} must be 1-d with at least two bins")
        K = np.size(self.theta_t)
        pmfs = np.array([_check_pmf(n, getattr(self, n), K) for n in ("theta_t", "theta_c")])
        cdfs = padded_cdf(pmfs)
        survs = 1.0 - cdfs
        outcomes = pmfs * np.array([survs[1, :-1], survs[0, 1:]])  # C >= u, T > u
        outcomes[1, -1] = 0.0
        tables = dict(theta_t=pmfs[0], theta_c=pmfs[1], pmfs=pmfs, cdfs=cdfs, survs=survs,
                      outcomes=outcomes)
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def n_bins(self) -> int:
        return self.theta_t.size

    @property
    def bin_edges(self) -> np.ndarray:
        """The grid whose bins are the integer times 1..K."""
        return np.arange(self.n_bins + 1) + 0.5


_MIN_MASS = 0.02


def random_interior_world(n_bins: int, rng) -> MarginalWorld:
    """Dirichlet(1) world resampled until every bin holds >= `_MIN_MASS`.

    Interior worlds keep the positivity assumption comfortably away from the
    boundary, where the inverse weights and the uniqueness argument degrade.
    A draw passes with probability (1 - K * _MIN_MASS)^(K-1); below 1e-6 the
    loop would all but never end, so such n_bins (24 and up) are rejected.
    """
    _check_int("n_bins", n_bins, 2)
    if max(0.0, 1.0 - n_bins * _MIN_MASS) ** (n_bins - 1) < 1e-6:
        raise ValueError(
            f"n_bins={n_bins} with min_mass={_MIN_MASS}: a Dirichlet(1) draw "
            "holds min_mass in every bin with probability below 1e-6"
        )

    def draw():
        while True:
            theta = rng.dirichlet(np.ones(n_bins))
            if theta.min() >= _MIN_MASS:
                return theta

    return MarginalWorld(draw(), draw())


def gen_marginal(world: MarginalWorld, n: int, seed: int = 0) -> Dataset:
    """n iid draws of (U, delta) from the world, already on the bin grid."""
    _check_int("n", n, 0)
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_t, rng_c = (np.random.default_rng(s) for s in streams)
    K = world.n_bins
    t = 1 + np.searchsorted(world.cdfs[0, 1:], rng_t.random(n), side="right")
    c = 1 + np.searchsorted(world.cdfs[1, 1:], rng_c.random(n), side="right")
    t = np.minimum(t, K)  # guard the u == 1.0 corner of searchsorted
    c = np.minimum(c, K)
    event = t <= c
    u = np.where(event, t, c)
    return Dataset(
        features=np.zeros((n, 0)),
        time_bin=u,
        event=event,
        bin_edges=world.bin_edges,
        latent_time=t.astype(float),
        latent_censor=c.astype(float),
    )


def population_batch(world: MarginalWorld) -> Dataset:
    """Every possible (U, delta) outcome with its exact probability, the
    world's ``outcomes`` table: events at u = 1..K, then censorings.

    Zero-probability outcomes are dropped; the weights sum to 1. Feeding
    this batch to a loss computes the population expectation exactly.
    """
    keep = world.outcomes > 0
    u = np.broadcast_to(np.arange(1, world.n_bins + 1), keep.shape)
    delta = np.broadcast_to(np.array([[True], [False]]), keep.shape)
    return Dataset(np.zeros((np.count_nonzero(keep), 0)), u[keep], delta[keep], world.bin_edges,
                   weight=world.outcomes[keep])


@dataclass(frozen=True)
class Standardizer:
    """Column-wise (x - mean)/std fit on the training split. Constant
    columns get std 1 so they map to exactly zero instead of NaN."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ValueError(f"'mean' and 'std' must be lists of one length, "
                             f"got shapes {self.mean.shape} and {self.std.shape}")
        if not (np.all(np.isfinite(self.mean)) and np.all((0 < self.std) & (self.std < np.inf))):
            raise ValueError("'mean' must be finite and 'std' finite and positive")

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        features = np.asarray(features, dtype=float)
        mean = features.mean(axis=0) if features.size else np.zeros(features.shape[1])
        std = features.std(axis=0) if features.size else np.ones(features.shape[1])
        std = np.where(std == 0, 1.0, std)
        return cls(mean, std)

    def apply(self, data: RawSurvivalData) -> RawSurvivalData:
        if self.mean.size != data.feature_dim:
            raise ValueError(f"'mean' and 'std' hold {self.mean.size} entries but the data has "
                             f"{data.feature_dim} features")
        return RawSurvivalData(
            (data.features - self.mean) / self.std,
            data.time,
            data.event,
            latent_time=data.latent_time,
            latent_censor=data.latent_censor,
        )


# -- file formats ---------------------------------------------------------


def save_csv(path, data: RawSurvivalData) -> None:
    """Write the ``f0..f{d-1},time,event`` contract."""
    d = data.feature_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["time", "event"])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            row.append(repr(float(data.time[i])))
            row.append("1" if data.event[i] else "0")
            writer.writerow(row)


def _read_csv(path) -> tuple[list[str], list]:
    """The header of a CSV file and its nonempty rows with their line
    numbers; an empty file fails naming it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        return header, [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]


def _floats(path, lineno: int, row: list[str], width: int) -> list[float]:
    """A CSV row of ``width`` numbers as floats; any other row fails naming
    the file and the line."""
    if len(row) != width:
        raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def load_csv(path) -> RawSurvivalData:
    """Read the CSV contract back; malformed rows fail with line numbers."""
    header, rows = _read_csv(path)
    d = len(header) - 2
    expected = [f"f{j}" for j in range(d)] + ["time", "event"]
    if d < 0 or header != expected:
        raise ValueError(f"{path}: line 1: header must be f0..f{{d-1}},time,event; got {header}")
    feats, times, events = [], [], []
    for lineno, row in rows:
        values = _floats(path, lineno, row, d + 2)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        if values[-1] not in (0.0, 1.0):
            raise ValueError(f"{path}: line {lineno}: event must be 0 or 1, got {row[-1]!r}")
        feats.append(values[:d])
        times.append(values[d])
        events.append(bool(values[d + 1]))
    n = len(times)
    return RawSurvivalData(
        np.asarray(feats, dtype=float).reshape(n, d),
        np.asarray(times, dtype=float),
        np.asarray(events, dtype=bool),
    )


def write_csv(path, header: list[str], rows) -> None:
    """A header, then numeric rows, each value written as the repr of its
    float; missing parent folders are made."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def save_latent_csv(path, data: RawSurvivalData) -> None:
    if data.latent_time is None or data.latent_censor is None:
        raise ValueError("no latent times to save")
    write_csv(path, ["t_latent", "c_latent"], zip(data.latent_time, data.latent_censor))


def load_latent_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a latent sidecar back; malformed rows fail with line numbers."""
    header, rows = _read_csv(path)
    if header != ["t_latent", "c_latent"]:
        raise ValueError(f"{path}: line 1: expected header t_latent,c_latent")
    arr = np.asarray([_floats(path, lineno, row, 2) for lineno, row in rows]).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def write_bin_edges(path, edges: np.ndarray) -> None:
    edges = np.asarray(edges, dtype=float)
    with open(path, "w") as fh:
        json.dump({"K": edges.size - 1, "edges": edges.tolist()}, fh)


def _load_json(path, build):
    """``build`` of the JSON value in the file ``path``. A file that is not
    JSON, lacks a key ``build`` reads or holds a value of the wrong kind
    fails with a ValueError naming the file, and the key when one is missing."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _json_floats(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float array; a value that is not numbers fails naming the key."""
    value = payload[key]
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key {key!r} must hold numbers: {exc}") from None


def read_bin_edges(path) -> np.ndarray:
    def build(payload):
        edges = _check_edges(_json_floats(payload, "edges"))
        if edges.size - 1 != payload["K"]:
            raise ValueError(f"K = {payload['K']!r} but {edges.size} edges")
        return edges

    return _load_json(path, build)
