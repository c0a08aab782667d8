"""Differentiable categorical survival models on a flat parameter vector.

Three parameterizations share one interface:

- ``mlp``: ReLU MLP from features to K softmax logits (conditional model).
- ``marginal``: K free logits through a softmax (no features).
- ``marginal-prob``: the first K-1 bin probabilities as raw coordinates,
  the last bin holding the leftover mass. This is the parameterization the
  per-(player, horizon) game descends directly; simplex feasibility is
  maintained by the training step's projection, not by the model.

Gradients are computed by hand against the flat vector so the training loop
can treat the other player's probabilities as constants: the frozen side
enters losses only through plain numbers, never through a gradient path.
A (2, P) array holds the failure/censoring pair as one stacked model.

Training and inference share one MLP layer loop. ``predict_pmf`` keeps no
activations and, from 2 * BLOCK rows on, works in row blocks of at least
BLOCK rows; its pmfs equal the training forward's bit for bit (see BLOCK).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Batch
from .losses import ClampStats, LossSpec, batch_loss

__all__ = ["ArchSpec", "Model", "LossGradient", "loss_and_grad"]

KINDS = ("mlp", "marginal", "marginal-prob")

# Rows per block of a cache-free MLP forward. A block never has fewer rows:
# with OpenBLAS a matmul over a few dozen rows (60 or fewer with 0.3.31) can
# round differently from the same rows inside a large matmul, and a large
# block gives the same bits as the whole batch.
BLOCK = 4096


@dataclass(frozen=True)
class ArchSpec:
    """Shape of a model: kind, bin count, and (for MLPs) layer widths."""

    kind: str
    n_bins: int
    feature_dim: int = 0
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_bins < 2:
            raise ValueError("need at least two bins")
        if self.kind == "mlp":
            if self.feature_dim < 1:
                raise ValueError("mlp needs feature_dim >= 1")
        elif self.feature_dim != 0 or self.hidden:
            raise ValueError(f"{self.kind} takes no features or hidden layers")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        slices, start = {}, 0
        for name, shape in self.layout():
            size = int(np.prod(shape))
            slices[name] = (slice(start, start + size), shape)
            start += size
        object.__setattr__(self, "_slices", slices)

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        if self.kind == "marginal":
            return [("logits", (self.n_bins,))]
        if self.kind == "marginal-prob":
            return [("theta", (self.n_bins - 1,))]
        sizes = (self.feature_dim, *self.hidden, self.n_bins)
        out = []
        for i in range(len(sizes) - 1):
            out.append((f"W{i}", (sizes[i + 1], sizes[i])))
            out.append((f"b{i}", (sizes[i + 1],)))
        return out

    @property
    def n_params(self) -> int:
        return sum(int(np.prod(shape)) for _, shape in self.layout())

    def view(self, params: np.ndarray, name: str) -> np.ndarray:
        """The named block of ``params`` (..., P), shaped (..., *block)."""
        sl, shape = self._slices[name]
        return params[..., sl].reshape(params.shape[:-1] + shape)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Model:
    """Flat parameters plus an :class:`ArchSpec` describing their layout:
    ``params`` is (P,) for one model or (2, P) for the failure/censoring
    pair, and every method broadcasts over the leading axis."""

    def __init__(self, arch: ArchSpec, params: np.ndarray):
        params = np.asarray(params, dtype=float).copy()
        if params.ndim not in (1, 2) or params.shape[-1] != arch.n_params:
            raise ValueError(
                f"expected ({arch.n_params},) or (2, {arch.n_params}) params, got {params.shape}"
            )
        self.arch = arch
        self.params = params

    def view(self, name: str) -> np.ndarray:
        return self.arch.view(self.params, name)

    @classmethod
    def init(cls, arch: ArchSpec, seed=0, init_scale: float = 0.1) -> "Model":
        """Weights and logits ~ N(0, init_scale^2), biases zero; the direct
        probability parameterization starts uniform."""
        rng = np.random.default_rng(seed)
        params = np.zeros(arch.n_params)
        model = cls(arch, params)
        for name, shape in arch.layout():
            if name == "theta":
                model.view(name)[...] = 1.0 / arch.n_bins
            elif name.startswith("b"):
                continue
            else:
                model.view(name)[...] = rng.normal(0.0, init_scale, shape)
        return model

    # -- forward ---------------------------------------------------------

    def _batch_n(self, features: np.ndarray | None, n: int | None) -> int:
        if self.arch.kind == "mlp":
            if features is None:
                raise ValueError("mlp model needs features")
            return features.shape[0]
        if n is not None:
            return n
        if features is not None:
            return features.shape[0]
        raise ValueError("marginal model needs n (or features to infer it)")

    def forward(
        self, features: np.ndarray | None = None, n: int | None = None, cache: bool = True
    ):
        """Predicted pmfs (..., n, K) plus the cache needed for backprop.
        With ``cache=False`` an MLP returns None for the cache, keeps no
        activations and runs in row blocks into one preallocated output."""
        n = self._batch_n(features, n)
        kind = self.arch.kind
        shape = (*self.params.shape[:-1], n, self.arch.n_bins)
        # the marginal kinds repeat one row, which costs less than a broadcast view
        if kind == "marginal":
            pmf_row = _softmax(self.view("logits"))
            return np.repeat(pmf_row[..., None, :], n, axis=-2), ("marginal", n, pmf_row)
        if kind == "marginal-prob":
            theta = self.view("theta")
            pmf_row = np.concatenate([theta, 1.0 - theta.sum(axis=-1, keepdims=True)], axis=-1)
            if (pmf_row < 0).any():
                raise ValueError("probability coordinates left the simplex")
            return np.repeat(pmf_row[..., None, :], n, axis=-2), ("marginal-prob", n)
        x = np.asarray(features, dtype=float)
        if x.shape != (n, self.arch.feature_dim):
            raise ValueError(f"features must be (n, {self.arch.feature_dim})")
        if cache:
            acts = [x]
            pmf = self._mlp(x, acts)
            return pmf, ("mlp", acts, pmf)
        pmf = np.empty(shape)
        # every block holds at least BLOCK rows: the remainder joins the last
        cuts = [0, *range(BLOCK, n - BLOCK + 1, BLOCK), n]
        for start, stop in zip(cuts, cuts[1:]):
            self._mlp(x[start:stop], out=pmf[..., start:stop, :])
        return pmf, None

    def _mlp(self, x: np.ndarray, acts: list | None = None, out: np.ndarray | None = None):
        """The MLP's pmfs on rows ``x``, written to ``out`` when given. Each
        layer is a fresh matmul then in-place bias, ReLU and softmax; the
        hidden activations are appended to ``acts`` when it is a list."""
        depth = len(self.arch.hidden)
        h = x
        for i in range(depth + 1):
            h = np.matmul(h, self.view(f"W{i}").swapaxes(-1, -2))
            h += self.view(f"b{i}")[..., None, :]
            if i < depth:
                np.maximum(h, 0.0, out=h)
                if acts is not None:
                    acts.append(h)
        # _softmax's arithmetic, in place on the fresh logits
        h -= h.max(axis=-1, keepdims=True)
        np.exp(h, out=h)
        return np.divide(h, h.sum(axis=-1, keepdims=True), out=h if out is None else out)

    def predict_pmf(self, features: np.ndarray | None = None, n: int | None = None) -> np.ndarray:
        """Pmfs (..., n, K) from a forward that keeps no cache; equal bit
        for bit to ``forward(features, n)[0]``."""
        return self.forward(features, n, cache=False)[0]

    # -- backward --------------------------------------------------------

    def backprop(self, cache, dpmf: np.ndarray) -> np.ndarray:
        """Gradient of sum_i <dpmf[i], pmf[i]>-style losses w.r.t. the flat
        parameters, (..., n, K) -> (..., P). ``dpmf`` must already carry any
        batch weights."""
        kind = cache[0]
        grad = np.zeros(self.params.shape)
        out = lambda name: self.arch.view(grad, name)
        if kind == "marginal":
            _, _, pmf_row = cache
            g = dpmf.sum(axis=-2)
            mean = (g[..., None, :] @ pmf_row[..., :, None])[..., 0]
            out("logits")[...] = pmf_row * (g - mean)
        elif kind == "marginal-prob":
            g = dpmf.sum(axis=-2)
            out("theta")[...] = g[..., :-1] - g[..., -1:]
        else:
            _, acts, pmf = cache
            gdot = (dpmf * pmf).sum(axis=-1, keepdims=True)
            delta = pmf * (dpmf - gdot)
            depth = len(self.arch.hidden)
            for i in range(depth, -1, -1):
                out(f"W{i}")[...] = delta.swapaxes(-1, -2) @ acts[i]
                out(f"b{i}")[...] = delta.sum(axis=-2)
                if i > 0:
                    delta = (delta @ self.view(f"W{i}")) * (acts[i] > 0)
        return grad

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "arch": {
                "kind": self.arch.kind,
                "n_bins": self.arch.n_bins,
                "feature_dim": self.arch.feature_dim,
                "hidden": list(self.arch.hidden),
            },
            "params": self.params.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Model":
        a = payload["arch"]
        arch = ArchSpec(a["kind"], a["n_bins"], a["feature_dim"], tuple(a["hidden"]))
        return cls(arch, np.asarray(payload["params"], dtype=float))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class LossGradient:
    value: float
    grad: np.ndarray


def loss_and_grad(
    model: Model,
    frozen_other,
    batch: Batch,
    spec: LossSpec,
    stats: ClampStats | None = None,
) -> LossGradient:
    """Batch loss and its exact gradient for one player.

    ``frozen_other`` supplies the other player's probabilities (an (n, K)
    array, a (K,) pmf, or None for the likelihood); it is treated as a
    constant, so the returned gradient has exactly ``model.arch.n_params``
    entries and no path into the other player.
    """
    pmf, cache = model.forward(batch.features, n=batch.n)
    value, dpmf = batch_loss(spec, pmf, frozen_other, batch, stats)
    return LossGradient(value, model.backprop(cache, dpmf))
