"""Simulation generators, marginal worlds, and the CSV data contract.

Two generators:

- ``gen_gamma``: conditional gamma failure and censoring times. Features
  X ~ N(0, feature_variance * I), one fixed coefficient draw w ~ U(0, 0.1)^d,
  failure mean exp(w.x), censoring mean censor_mean_factor * exp(w.x), both
  with a fixed small variance, so censoring depends on X and is informative
  to ignore.
- ``gen_marginal``: exact categorical draws from a known marginal world,
  used by the population oracle's Monte-Carlo cross checks.

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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .core import Dataset, RawSurvivalData

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name!r} must be a positive integer, got {value!r}")
        for name in _REAL_KNOBS:
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and np.isfinite(value)):
                raise ValueError(f"{name!r} must be a finite number, got {value!r}")
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
    pmf and the true censoring pmf of a feature-free population."""

    theta_t: np.ndarray
    theta_c: np.ndarray

    def __post_init__(self):
        tt = np.asarray(self.theta_t, dtype=float)
        tc = np.asarray(self.theta_c, dtype=float)
        for name, arr in (("theta_t", tt), ("theta_c", tc)):
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError(f"{name} must be 1-d with at least two bins")
            if np.any(arr < 0) or abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} must be a probability vector")
        if tt.size != tc.size:
            raise ValueError("theta_t and theta_c must share the bin count")
        object.__setattr__(self, "theta_t", tt)
        object.__setattr__(self, "theta_c", tc)

    @property
    def n_bins(self) -> int:
        return self.theta_t.size

    @property
    def bin_edges(self) -> np.ndarray:
        """The grid whose bins are the integer times 1..K."""
        return np.arange(self.n_bins + 1) + 0.5

    def interior(self, floor: float = 0.0) -> bool:
        return bool(min(self.theta_t.min(), self.theta_c.min()) > floor)


def random_interior_world(n_bins: int, rng, min_mass: float = 0.02) -> MarginalWorld:
    """Dirichlet(1) world resampled until every bin holds >= min_mass.

    Interior worlds keep the positivity assumption comfortably away from the
    boundary, where the inverse weights and the uniqueness argument degrade.
    A draw passes with probability (1 - K * min_mass)^(K-1); below 1e-6 the
    loop would all but never end, so such (n_bins, min_mass) are rejected.
    """
    if max(0.0, 1.0 - n_bins * min_mass) ** (n_bins - 1) < 1e-6:
        raise ValueError(
            f"n_bins={n_bins} with min_mass={min_mass}: a Dirichlet(1) draw "
            "holds min_mass in every bin with probability below 1e-6"
        )

    def draw():
        while True:
            theta = rng.dirichlet(np.ones(n_bins))
            if theta.min() >= min_mass:
                return theta

    return MarginalWorld(draw(), draw())


def gen_marginal(world: MarginalWorld, n: int, seed: int = 0) -> Dataset:
    """n iid draws of (U, delta) from the world, already on the bin grid."""
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_t, rng_c = (np.random.default_rng(s) for s in streams)
    K = world.n_bins
    t = 1 + np.searchsorted(np.cumsum(world.theta_t), rng_t.random(n), side="right")
    c = 1 + np.searchsorted(np.cumsum(world.theta_c), rng_c.random(n), side="right")
    t = np.minimum(t, K)  # guard the u == 1.0 corner of searchsorted
    c = np.minimum(c, K)
    event = t <= c
    u = np.where(event, t, c)
    return Dataset(
        features=np.zeros((n, 0)),
        time_bin=u,
        event=event,
        bin_edges=world.bin_edges,
        raw_time=u.astype(float),
        latent_time=t.astype(float),
        latent_censor=c.astype(float),
    )


def population_batch(world: MarginalWorld):
    """Every possible (U, delta) outcome with its exact probability.

    P(U = u, delta = 1) = theta_t[u] * P(C >= u)
    P(U = u, delta = 0) = theta_c[u] * P(T > u)

    Zero-probability outcomes are dropped; the weights sum to 1. Feeding
    this batch to a loss computes the population expectation exactly.
    """
    from .core import Batch

    K = world.n_bins
    cum_t = np.concatenate([[0.0], np.cumsum(world.theta_t)])
    cum_c = np.concatenate([[0.0], np.cumsum(world.theta_c)])
    u_all = np.arange(1, K + 1)
    w_event = world.theta_t * (1.0 - cum_c[:-1])  # C >= u
    w_cens = world.theta_c * (1.0 - cum_t[1:])  # T > u
    u = np.concatenate([u_all, u_all])
    delta = np.concatenate([np.ones(K, dtype=bool), np.zeros(K, dtype=bool)])
    w = np.concatenate([w_event, w_cens])
    keep = w > 0
    return Batch(u[keep], delta[keep], features=None, weight=w[keep])


@dataclass(frozen=True)
class Standardizer:
    """Column-wise (x - mean)/std fit on the training split. Constant
    columns get std 1 so they map to exactly zero instead of NaN."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        features = np.asarray(features, dtype=float)
        mean = features.mean(axis=0) if features.size else np.zeros(features.shape[1])
        std = features.std(axis=0) if features.size else np.ones(features.shape[1])
        std = np.where(std == 0, 1.0, std)
        return cls(mean, std)

    def apply(self, data: RawSurvivalData) -> RawSurvivalData:
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


def load_csv(path) -> RawSurvivalData:
    """Read the CSV contract back; malformed rows fail with line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 2
        expected = [f"f{j}" for j in range(d)] + ["time", "event"]
        if d < 0 or header != expected:
            raise ValueError(
                f"{path}: line 1: header must be f0..f{{d-1}},time,event; got {header}"
            )
        feats, times, events = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            if values[-1] not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: line {lineno}: event must be 0 or 1, got {row[-1]!r}"
                )
            feats.append(values[:d])
            times.append(values[d])
            events.append(bool(values[d + 1]))
    n = len(times)
    return RawSurvivalData(
        np.asarray(feats, dtype=float).reshape(n, d),
        np.asarray(times, dtype=float),
        np.asarray(events, dtype=bool),
    )


def save_latent_csv(path, data: RawSurvivalData) -> None:
    if data.latent_time is None or data.latent_censor is None:
        raise ValueError("no latent times to save")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_latent", "c_latent"])
        for t, c in zip(data.latent_time, data.latent_censor):
            writer.writerow([repr(float(t)), repr(float(c))])


def load_latent_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t_latent", "c_latent"]:
            raise ValueError(f"{path}: line 1: expected header t_latent,c_latent")
        pairs = [(float(r[0]), float(r[1])) for r in reader if r]
    arr = np.asarray(pairs, dtype=float).reshape(len(pairs), 2)
    return arr[:, 0], arr[:, 1]


def write_bin_edges(path, edges: np.ndarray) -> None:
    edges = np.asarray(edges, dtype=float)
    with open(path, "w") as fh:
        json.dump({"K": edges.size - 1, "edges": edges.tolist()}, fh)


def read_bin_edges(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    edges = np.asarray(payload["edges"], dtype=float)
    if edges.size - 1 != payload["K"]:
        raise ValueError(f"{path}: K = {payload['K']} but {edges.size} edges")
    return edges
