"""Span tracing of gamesurv from outside the package.

A :class:`Tracer` replaces the functions and methods named in ``SPANS`` and
``COUNTS`` with wrappers for the duration of a ``with`` block, then puts the
originals back. Every module-level name bound to an original is rebound,
not only the defining module's: ``games`` and ``models`` call their own
``batch_loss`` binding, ``games`` its own ``ipcw_weight_arrays``, and
``metrics`` calls ``losses.nll`` under another name, so a patch on the
defining module alone would see none of those calls.

Each ``SPANS`` call records one span (name, start, end, parent span) in
memory. ``COUNTS`` targets only count calls: they run tens of thousands of
times inside an oracle scan, and a span each would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

SPANS = (
    "cli.main",
    "simgen.gen_gamma",
    "simgen.population_batch",
    "core.discretize",
    "core.Dataset.batch",
    "models.Model.forward",
    "models.Model.backprop",
    "models.Model.predict_pmf",
    "losses.batch_loss",
    "losses.per_horizon_loss",
    "losses.ipcw_weight_arrays",
    "games.train",
    "games.step_summed",
    "games.step_multiplayer",
    "games.select_models",
    "oracle.stationary_scan",
    "oracle.gradient_field",
    "oracle.joint_objective_scan",
    "metrics.evaluate",
    "metrics.eval_bs",
    "metrics.eval_bll",
    "metrics.nll_metric",
    "metrics.concordance_index",
    "metrics.calibration_curve",
)

COUNTS = (
    "models.Model.__init__",
    "oracle.population_gradients",
    "oracle.population_fbs",
    "oracle.population_gbs",
    "oracle.population_fbs_dx",
    "oracle.population_gbs_dy",
)

# the closed-form scalars behind the planar grids and the induction solve
SCALARS = COUNTS[2:]


def _resolve(target: str):
    """(owner, attribute, original) for 'module.function' or
    'module.Class.method' inside the gamesurv package."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"gamesurv.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Spans and counters of one traced round; install with ``with``."""

    def __init__(self):
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.clamps = 0
        self.rounds = 0
        self.mlp_flop = 0
        self.mlp_ns = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, index: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ends)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _count(self, target: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[target] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _clamp_delta(self, fn):
        # batch_loss / per_horizon_loss(spec, own, frozen, batch, stats=None)
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = args[4] if len(args) > 4 else kwargs.get("stats")
            before = stats.count if stats is not None else 0
            result = fn(*args, **kwargs)
            if stats is not None:
                self.clamps += stats.count - before
            return result

        return wrapper

    def _rounds(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.rounds += result.rounds
            return result

        return wrapper

    def _mlp_flops(self, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            t0 = clock()
            result = fn(model, *args, **kwargs)
            t1 = clock()
            arch = model.arch
            if arch.kind == "mlp":
                sizes = (arch.feature_dim, *arch.hidden, arch.n_bins)
                # multiply-adds of the layer matmuls, computed from the sizes
                self.mlp_flop += 2 * result[0].shape[0] * sum(
                    a * b for a, b in zip(sizes, sizes[1:])
                )
                self.mlp_ns += t1 - t0
            return result

        return wrapper

    def _wrap(self, target: str, fn):
        if target in COUNTS:
            return self._count(target, fn)
        inner = {
            "losses.batch_loss": self._clamp_delta,
            "losses.per_horizon_loss": self._clamp_delta,
            "games.select_models": self._rounds,
            "models.Model.forward": self._mlp_flops,
        }.get(target, lambda f: f)(fn)
        return self._span(SPANS.index(target), inner)

    # -- install / restore -----------------------------------------------

    def __enter__(self) -> "Tracer":
        module_level = {}
        for target in SPANS + COUNTS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
            else:
                module_level[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                original, wrapper = module_level.get(id(value), (None, None))
                if value is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, value))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Calls and self times per span name plus the counters. A span's
        self time is its duration minus the durations of its child spans;
        calls nest strictly in one thread, so children never overlap."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end, dtype=np.int64) - np.asarray(
            self.span_start, dtype=np.int64
        )
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(SPANS))
        self_total = np.bincount(names, weights=self_ns, minlength=len(SPANS))
        out = {}
        for i, target in enumerate(SPANS):
            out[f"{target}.calls"] = int(calls[i])
            out[f"{target}.self_s"] = float(self_total[i]) * 1e-9
        out["models.Model.__init__.calls"] = self.counts["models.Model.__init__"]
        out["oracle.population_gradients.calls"] = self.counts["oracle.population_gradients"]
        out["oracle.scalar_calls"] = sum(self.counts[t] for t in SCALARS)
        out["losses.clamp_count"] = self.clamps
        out["games.select_models.rounds"] = self.rounds
        out["models.mlp.gflop"] = self.mlp_flop * 1e-9
        out["models.mlp.gflop_per_s"] = self.mlp_flop / self.mlp_ns if self.mlp_ns else 0.0
        out["trace.spans"] = int(dur.size)
        return out

    def spans(self) -> dict:
        """The raw spans, for writing out when the run ends."""
        return {
            "name": self.span_name,
            "parent": self.span_parent,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
        }
