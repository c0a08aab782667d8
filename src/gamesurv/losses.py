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
- The inverse weights are factored. A (sample, horizon) cell takes its
  event branch when U <= t and its survival branch otherwise, never both,
  so its weight is a per-row event factor r = (event ^ c) / Xbar(U-1+c) or
  a per-horizon survival factor s = 1 / Xbar(t), picked by one select on
  the plan's mask U <= t. The products are the ones a materialized
  (n, T) weight pair would give, so the bits are too. A NaN in the frozen
  table reaches exactly the cells whose branch reads it.
- The role is an array axis. ``LossSpec.role`` is one role or a tuple of R
  roles; with a tuple, the pmfs carry a leading (R, ...) axis and one kernel
  pass scores every player. Inside the kernels a role is data, a per-role
  flag c (0 failure, 1 censor): the event indicator is ``event ^ c``, the
  event-branch survival column is U - 1 + c (Gbar(U-) or Fbar(U)), and the
  likelihood's tail starts at U - c. A single role is R = 1.
- Every score runs behind one private entry point, `_cells`, on the row
  blocks of one label plan: a game family through `_ipcw_weights` then
  `_scores`, the likelihood through `_likelihood`, which reads no other
  player. A plan is built from a `Dataset`, whose construction checked the
  labels, and checks nothing (`label_plan`); a dataset keeps the plan of
  each (horizons, roles) from its first use (`_plan_of`), and the
  per-sample losses wrap their raw labels as a dataset. The input rules
  and the row-block rule are stated once, in the `core` module docstring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _check_pmf, _each_part, _row_blocks, _whole, padded_cdf

__all__ = [
    "ClampStats",
    "LossSpec",
    "resolve_times",
    "nll",
    "ipcw_per_sample",
    "ipcw_bs_failure",
    "ipcw_bll_failure",
    "ipcw_mean",
    "batch_loss",
    "per_horizon_loss",
]

FAMILIES = ("nll", "ipcw-bs", "ipcw-bll")
ROLES = ("failure", "censor")


@dataclass
class ClampStats:
    """Mutable counter of clamped weight/log evaluations. Not shared
    between threads: row blocks count in block-local stats (`_cells`)."""

    count: int = 0

    def add(self, k: int) -> None:
        self.count += int(k)


def _role_flags(roles: tuple[str, ...]) -> np.ndarray:
    """(R, 1) censor flags, broadcasting against (R, n) per-sample arrays."""
    if not roles or any(role not in ROLES for role in roles):
        raise ValueError(f"role must be one of {ROLES} or a tuple of them, got {roles!r}")
    return np.array([[role == "censor"] for role in roles])


def _one_role(role) -> str:
    """The ``role`` of a single-role entry point, one of ``ROLES``."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    return role


def _check_floor(floor, name: str = "weight_floor") -> float:
    """``floor``, which must lie in (0, 1); otherwise ValueError naming it."""
    if not 0 < floor < 1:  # a NaN fails too
        raise ValueError(f"{name} must lie in (0, 1), got {floor!r}")
    return floor


@dataclass(frozen=True)
class LossSpec:
    """Which loss to compute, for whom, at which horizons. ``role`` is one
    of ``ROLES`` or a tuple of them (one per leading pmf axis)."""

    family: str
    role: str | tuple[str, ...]
    times: tuple[int, ...] | str = "all"
    weight_floor: float = 1e-6

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        roles = self.role if isinstance(self.role, tuple) else (self.role,)
        object.__setattr__(self, "_flags", _role_flags(roles))
        horizons = _horizons(self.times)  # checked for every family; the likelihood reads none
        object.__setattr__(self, "_plan_key", (() if self.family == "nll" else horizons, roles))
        _check_floor(self.weight_floor)


def _horizons(times) -> tuple[int, ...] | str:
    """A horizon spec, which must be 'all' or a 1-d sequence of whole
    numbers, as 'all' or a tuple of ints."""
    if isinstance(times, str):
        if times == "all":
            return times
    else:
        arr = np.asarray(times)
        if arr.ndim == 1 and _whole(arr):
            return tuple(arr.astype(np.int64).tolist())
    raise ValueError(f"times must be 'all' or a 1-d sequence of whole horizons, got {times!r}")


def resolve_times(times: tuple[int, ...] | str, n_bins: int) -> np.ndarray:
    """Normalize a horizon spec (see `_horizons`) to a sorted int array within 1..K-1."""
    times = _horizons(times)
    arr = np.arange(1, n_bins) if times == "all" else np.unique(np.array(times, dtype=np.int64))
    if arr.size == 0:
        raise ValueError(f"times {times!r} gives no horizon in 1..K-1 for K = {n_bins} bins")
    if arr[0] < 1 or arr[-1] > n_bins - 1:
        raise ValueError(f"times must lie in 1..{n_bins - 1} (horizon {n_bins} has zero survival "
                         f"past the last bin), got {arr.tolist()}")
    return arr


def _as_matrix(name: str, pmf, n: int, n_bins: int | None = None, roles=None) -> np.ndarray:
    """Broadcast a (K,) marginal pmf to (n, K) or pass an (n, K) matrix
    through; K is ``n_bins`` when given, else the last axis of ``pmf``.
    Given a spec's ``roles``, the result is an (R, n, K) stack: a tuple of
    roles takes a leading role axis, which must hold one pmf per role, and a
    single role's pmfs gain a role axis of one."""
    pmf = np.asarray(pmf, dtype=float)
    stacked = isinstance(roles, tuple)
    K = pmf.shape[-1] if n_bins is None and pmf.ndim else n_bins
    if pmf.ndim == stacked + 1 and pmf.shape[-1] == K:
        pmf = np.broadcast_to(pmf[..., None, :], (*pmf.shape[:-1], n, K))
    elif not (pmf.ndim == stacked + 2 and pmf.shape[-2:] == (n, K)):
        axis = " after the role axis" if stacked else ""
        raise ValueError(f"{name} must be (K,) or (n, K) with n = {n} and K = {K}{axis}, "
                         f"got shape {pmf.shape}")
    if not stacked:
        return pmf if roles is None else pmf[None]
    if pmf.shape[0] != len(roles):
        raise ValueError(f"{name} stack has {pmf.shape[0]} rows for roles {roles}")
    return pmf


def _padded_surv(pmf: np.ndarray) -> np.ndarray:
    """Survival along the last axis, one minus the padded cdf: entry j is
    P(X > j) for j = 0..K."""
    out = padded_cdf(pmf)
    return np.subtract(1.0, out, out=out)


def _clamp(values: np.ndarray, floor: float, active, stats: ClampStats | None):
    """``values`` raised to ``floor`` and the mask of the raised entries
    (``np.False_`` when none is); a clamp counts where ``active()`` holds.
    One min() passes the common case through untouched; a NaN fails it and
    takes the full path, where it is neither raised nor counted."""
    if values.min(initial=np.inf) >= floor:
        return values, np.False_
    clamped = values < floor
    if stats is not None:
        stats.add(np.count_nonzero(clamped & active()))
    return np.maximum(values, floor), clamped


@dataclass(frozen=True)
class LabelPlan:
    """The label side of every score, fixed by the labels (U, delta) on
    ``n_bins`` bins, the row weights, the horizons and the roles; a dataset
    builds it on first use (`_plan_of`) and every later use reuses it. For R
    roles, n rows and T horizons: ``flags`` (R, 1) holds the censor flags c,
    ``roles`` (R, 1), ``rows`` (n,) and ``evt_col`` (R, n), the event-branch
    column U - 1 + c, gather from a survival table;
    ``surv_cols`` and ``cdf_cols`` pick the columns t and t - 1 (slices when
    the horizons are contiguous, which index faster than arrays); ``ind``
    (R, n) is the indicator ``event ^ c`` as 0.0/1.0, ``evt_used`` (R, n)
    marks the rows some horizon's event branch uses, ``le`` (n, T) is the
    branch mask U <= t (T = 0 for the likelihood), ``weight`` (n,) sums to 1."""

    n_bins: int
    flags: np.ndarray
    roles: np.ndarray
    rows: np.ndarray
    evt_col: np.ndarray
    surv_cols: slice | np.ndarray
    cdf_cols: slice | np.ndarray
    ind: np.ndarray
    evt_used: np.ndarray
    le: np.ndarray
    weight: np.ndarray

    def block(self, rows: slice) -> "LabelPlan":
        """The plan of the rows ``rows`` (a block of `core._row_blocks`),
        sharing the roles and the horizons' columns; ``slice(None)`` is the
        plan itself."""
        if rows == slice(None):
            return self
        return LabelPlan(
            self.n_bins, self.flags, self.roles, self.rows[: rows.stop - rows.start],
            self.evt_col[:, rows], self.surv_cols, self.cdf_cols, self.ind[:, rows],
            self.evt_used[:, rows], self.le[rows], self.weight[rows],
        )


def label_plan(data: Dataset, times: np.ndarray, flags: np.ndarray) -> LabelPlan:
    """The label plan of ``data``'s labels, which its construction checked,
    at sorted, distinct horizons ``times`` (none for the likelihood) for the
    roles with (R, 1) censor ``flags``, weighing rows by
    ``data.norm_weight()``. Runs no rule."""
    time_bin, event = data.time_bin, data.event
    ind = event ^ flags  # event or ~event
    if times.size and times[-1] - times[0] == times.size - 1:  # contiguous
        first, last = int(times[0]), int(times[-1])
        surv_cols, cdf_cols = slice(first, last + 1), slice(first - 1, last)
    else:
        surv_cols, cdf_cols = times, times - 1
    return LabelPlan(
        n_bins=data.n_bins,
        flags=flags,
        roles=np.arange(flags.shape[0])[:, None],
        rows=np.arange(data.n),
        evt_col=time_bin - 1 + flags,
        surv_cols=surv_cols,
        cdf_cols=cdf_cols,
        ind=ind.astype(float),  # a float numerator divides faster than a bool one
        evt_used=ind & (time_bin <= times.max(initial=0)),
        le=time_bin[:, None] <= times,
        weight=data.norm_weight(),
    )


def _ipcw_weights(plan: LabelPlan, surv: np.ndarray, floor: float, stats: ClampStats | None):
    """The inverse weight each (role, sample, horizon) cell takes, shape
    (..., R, n, T), from the other player's survival tables ``surv``
    (..., R, m, K+1): entry j is P(X > j) for j = 0..K, with m = n rows or
    one row shared by all samples, and any leading axes stacking tables.

    A cell where U <= t takes the event factor r = (event ^ c) / Xbar(U-1+c)
    of its row, any other the survival factor s = 1 / Xbar(t) of its
    horizon. The failure role's event branch divides by Gbar(U-) =
    surv[U-1], the censor role's by Fbar(U) = surv[U]."""
    rows = plan.rows if surv.shape[-2] > 1 else 0
    den_evt = surv[..., plan.roles, rows, plan.evt_col]
    den_evt, _ = _clamp(den_evt, floor, lambda: plan.evt_used, stats)
    den_surv, _ = _clamp(surv[..., plan.surv_cols], floor, lambda: ~plan.le, stats)  # Xbar(t)
    return np.where(plan.le, (plan.ind / den_evt)[..., None], 1.0 / den_surv)


def _terms(family: str, plan: LabelPlan, cdf: np.ndarray, floor: float, stats: ClampStats | None):
    """A player's own unweighted score per (role, sample, horizon) cell, for
    (R, n, K) cdfs ``cdf``, the cumulative sums of the own pmfs (any stack
    of them on the R axis): the branch argument x, the term and the mask of
    clamped x (``np.False_`` when none is). At the cdf F(t), x is the signed
    residual F - 1{U <= t} and the term x^2 for the Brier score; for the log
    loss x is F where U <= t and 1 - F elsewhere, clamped at ``floor``, and
    the term -log x."""
    le = plan.le
    # F(t) in C order for either kind of cdf_cols: the scores inherit the
    # layout, and the sums over them add in an order that follows it. Rounding
    # in the cumsum may poke a hair above 1; keep 1 - F >= 0.
    x = np.minimum(cdf[..., plan.cdf_cols], 1.0, order="C")
    del cdf  # a caller's temporary cdf is freed here, and its memory reused for the terms
    if family == "ipcw-bs":
        # F - 1 = -(1 - F) exactly; a plain subtract runs several times
        # faster than one masked by ``where``
        np.subtract(x, le, out=x)
        return x, x * x, np.False_
    np.subtract(1.0, x, out=x, where=~le)
    # counted on the survival branch and the event rows (where U <= t, a
    # row's event branch is used exactly when its indicator is set)
    x, clamped = _clamp(x, floor, lambda: ~le | plan.evt_used[..., None], stats)
    terms = np.log(x)
    return x, np.subtract(0.0, terms, out=terms), clamped


def _scores(family, plan: LabelPlan, cdf, w, floor, stats: ClampStats | None, grad):
    """Per-(role, sample, horizon) IPCW values, weights times terms, and,
    with ``grad``, their derivatives in the own cdf F(t), written over the
    weights ``w`` of `_ipcw_weights`, for (R, n, K) own cdfs (see `_terms`):
    ``(values,)`` or ``(values, coefs)``."""
    x, vals, clamped = _terms(family, plan, cdf, floor, stats)
    vals *= w
    if not grad:
        return (vals,)
    # negative where U <= t: the Brier residual carries the sign, and the log
    # loss divides by -x there (exact, and faster than a masked negation). A
    # zero there may come out as -0.0; the gradient's suffix sums start from
    # +0.0 and the per-horizon row sums are dot products, so both read +0.0.
    if family == "ipcw-bs":
        w *= x
        w += w  # doubles exactly
    else:
        w /= x * (plan.le * -2.0 + 1.0)
        w[clamped] = 0.0  # clamped terms are flat in the cdf
    return vals, w


def _likelihood(plan: LabelPlan, own: np.ndarray, cdf: np.ndarray, floor: float,
                stats: ClampStats | None, grad: bool):
    """Per-(role, sample) negative log-likelihood terms (..., R, n) of own
    pmfs (..., R, n, K) with cdfs ``cdf`` and, with ``grad``, the pmf
    gradient of each role's plan-weighted total: ``(values,)`` or ``(values,
    dpmf)``. A point mass, -log f(U) or -log g(U), on the indicator's rows,
    else a tail, -log Fbar(U) or -log Gbar(U-). The players share no
    parameters, so the joint likelihood splits into independent problems."""
    at = (..., plan.roles, plan.rows)
    point = plan.ind == 1.0
    point_col = plan.evt_col - plan.flags  # U - 1
    tail_col = point_col - plan.flags  # U - 1 - c, the last cdf column below the tail
    pm, pm_clamped = _clamp(own[at + (point_col,)], floor, lambda: point, stats)
    tm = np.where(tail_col >= 0, 1.0 - cdf[at + (tail_col,)], 1.0)
    tm, tm_clamped = _clamp(tm, floor, lambda: ~point, stats)
    mass = np.where(point, pm, tm)
    vals = -np.log(mass)
    if not grad:
        return (vals,)
    # 0 - w, not -w: a zero weight gives +0.0, as zeros summed do; clamped terms are flat
    g = np.where(np.where(point, pm_clamped, tm_clamped), 0.0, np.subtract(0.0, plan.weight) / mass)
    # the tail term covers every bin from U - c on, the point term its one bin
    tail = np.where(point, 0.0, g)[..., None]
    dpmf = np.where(np.arange(own.shape[-1]) > tail_col[..., None], tail, 0.0)
    dpmf[at + (point_col,)] += np.where(point, g, 0.0)
    return vals, dpmf


def _cells(plan: LabelPlan, families, own, other, floor: float, stats: ClampStats | None = None,
           grad: bool = False, reduce=None):
    """The score chain for each of ``families`` on the row blocks of
    ``plan``, the one place it runs: `_ipcw_weights` then `_scores` for a
    game family, `_likelihood` for "nll".

    ``own``: own pmfs (*lead, R, n, K), or None for the weights alone.
    ``other``: the other player's side (*lead, R, m, ...), m = n or 1, with
    lead axes of size 1 when it serves every own stack: its pmfs (K
    columns), whose survival tables each row block builds, or survival
    tables (K+1 columns); None for the likelihood alone. The lead axes are
    free (runs, checkpoints or none), and the rows sit on the axis after
    them and the role axis, in every input and output. Returns the (*lead,
    R, n, T) weights, or per family its values and, with ``grad``, a game's
    cdf coefficients, written over the weights (so one family), or the
    likelihood's pmf gradient; or what ``reduce(rows, part, cdf, *outputs)``
    makes of a block's rows, label plan, own cdfs and outputs. Values and
    clamp counts are those of one call per lead index. One row block is one
    plain call; blocks, on two threads or one (`core._each_part`), count
    clamps in block-local stats, added to ``stats`` in block order."""
    if own is not None and other is not None and own.ndim > 3:
        other = np.broadcast_to(other, own.shape[:-2] + other.shape[-2:])  # serves every own stack

    def block(rows, stats):
        part = plan.block(rows)
        if other is not None:
            side = other[..., rows, :] if other.shape[-2] > 1 else other
            surv = _padded_surv(side) if side.shape[-1] == plan.n_bins else side
            w = _ipcw_weights(part, surv, floor, stats)
            if own is None:
                return (w,)
        cdf = own[..., rows, :].cumsum(axis=-1)
        out = [a for family in families for a in (
            _scores(family, part, cdf, w, floor, stats, grad) if family != "nll"
            else _likelihood(part, own[..., rows, :], cdf, floor, stats, grad))]
        return out if reduce is None else reduce(rows, part, cdf, *out)

    n, blocks = plan.rows.size, _row_blocks(plan.rows.size)
    if len(blocks) == 1:
        return block(slice(None), stats)
    rowed = other if own is None else own  # rows on its second-to-last axis, columns the rest
    at, full = (slice(None),) * (rowed.ndim - 2), []

    def joined(rows):
        local = None if stats is None else ClampStats()
        outs = block(rows, local)
        if not full:  # block 0, on the caller before any other block starts
            full.extend(np.empty(o.shape[:len(at)] + (n,) + o.shape[len(at) + 1:]) for o in outs)
        for whole, out in zip(full, outs):
            whole[at + (rows,)] = out
        return local

    for local in _each_part(blocks, joined, n * rowed[..., :1, :].size):
        if local is not None:
            stats.add(local.count)
    return tuple(full)


def _per_role(spec: LossSpec, values, arrays):
    """A tuple role's per-role values and arrays as arrays, or a single
    role's own."""
    if isinstance(spec.role, tuple):
        return np.array(values), np.asarray(arrays)
    return values[0], arrays[0]


def _plan_of(spec: LossSpec, data: Dataset) -> LabelPlan:
    """``data``'s label plan for the horizons and roles of ``spec``, built
    on first use and kept on the dataset, whose labels are read-only."""
    plan = data._plans.get(spec._plan_key)
    if plan is None:
        times = np.arange(0) if spec.family == "nll" else resolve_times(spec.times, data.n_bins)
        plan = data._plans[spec._plan_key] = label_plan(data, times, spec._flags)
    return plan


def _labelled(time_bin, event, n_bins: int) -> Dataset:
    """Raw labels on ``n_bins`` bins as a dataset, checked by its rules, with
    no features, on the integer grid whose bin j holds the time j."""
    return Dataset(np.zeros((np.size(time_bin), 0)), time_bin, event, np.arange(n_bins + 1) + 0.5)


def _pass(spec: LossSpec, own_pmf, frozen_pmf, batch: Dataset, stats: ClampStats | None,
          reduce=None):
    """``batch``'s label plan (`_plan_of`) and the `_cells`, with gradients, of
    the family of ``spec`` for own pmfs on its K bins, a game's against ``frozen_pmf``."""
    own = _as_matrix("own_pmf", own_pmf, batch.n, roles=spec.role)
    plan = _plan_of(spec, batch)
    if own.shape[-1] != plan.n_bins:
        raise ValueError(f"own_pmf must hold {plan.n_bins} bins on its last axis, "
                         f"got shape {np.shape(own_pmf)}")
    frozen = None
    if spec.family != "nll":
        if frozen_pmf is None:
            raise ValueError("game losses need the other player's pmf")
        frozen = _as_matrix("frozen_pmf", frozen_pmf, batch.n, plan.n_bins, spec.role)
    return plan, _cells(plan, (spec.family,), own, frozen, spec.weight_floor, stats, True, reduce)


def batch_loss(
    spec: LossSpec,
    own_pmf: np.ndarray,
    frozen_pmf: np.ndarray | None,
    batch: Dataset,
    stats: ClampStats | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted batch loss and its gradient with respect to ``own_pmf``.

    The frozen side enters only through probabilities treated as constants,
    and the likelihood ignores it; the returned gradient is exactly
    d(value)/d(own_pmf), rows scaled by the normalized batch weights. With a
    tuple ``spec.role`` both pmf arguments carry a leading role axis and
    every role is scored in one pass. Every family takes the batch's label
    plan, built on the first call; the own pmfs must hold the batch's K bins.

    Returns
    -------
    value : float, or ndarray (R,) for a tuple role
    dpmf : ndarray, shape (n, K), or (R, n, K) for a tuple role
    """
    def reduce(rows, part, cdf, vals, coefs):  # a game's row sums and pmf gradient, no (n, T) kept
        # d cdf(t) / d pmf_k = 1{k <= t}: scatter per-horizon coefs, then suffix-sum
        coefs *= part.weight[:, None]
        tmp = np.zeros(coefs.shape[:-1] + (part.n_bins,))
        tmp[..., part.cdf_cols] = coefs
        return vals.sum(axis=-1), tmp[..., ::-1].cumsum(axis=-1)[..., ::-1]

    # the likelihood's values and pmf gradient come per row
    plan, (vals, dpmf) = _pass(spec, own_pmf, frozen_pmf, batch, stats,
                               None if spec.family == "nll" else reduce)
    return _per_role(spec, [float(plan.weight @ v) for v in vals], dpmf)


def per_horizon_loss(
    spec: LossSpec,
    own_pmf: np.ndarray,
    frozen_pmf: np.ndarray,
    batch: Dataset,
    stats: ClampStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-horizon values and cdf-coefficients aggregated over the batch.

    Used by the per-(player, horizon) game where coordinate t descends its
    own horizon's loss only: the coordinate gradient of the t-th loss with
    respect to the t-th probability mass is exactly the t-th coefficient.

    Returns
    -------
    values : ndarray, shape (T,), or (R, T) for a tuple role
    coefs : ndarray, shape (T,), or (R, T) for a tuple role
    """
    if spec.family == "nll":
        raise ValueError("per-horizon form is defined for the game losses only")
    plan, (vals, coefs) = _pass(spec, own_pmf, frozen_pmf, batch, stats)
    return _per_role(spec, [plan.weight @ v for v in vals], [plan.weight @ c for c in coefs])


def ipcw_weight_arrays(
    role: str,
    frozen_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    times: np.ndarray,
    weight_floor: float = 1e-6,
    stats: ClampStats | None = None,
):
    """The inverse weight of each (sample, horizon) cell, shape (n, T): the
    multiplier a player's own terms contract against (see `_ipcw_weights`),
    for a frozen pmf of shape (K,) or (n, K). Model selection builds one
    table row from one frozen checkpoint's weights."""
    spec = LossSpec("ipcw-bs", _one_role(role), times, weight_floor)  # either game's plan key
    frozen = _as_matrix("frozen_pmf", frozen_pmf, np.size(time_bin))
    K = frozen.shape[-1]
    _check_pmf("frozen_pmf", frozen_pmf, K)
    plan = _plan_of(spec, _labelled(time_bin, event, K))
    return _cells(plan, (), None, frozen[None], weight_floor, stats)[0][0]


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
    spec = LossSpec(family, _one_role(role), (t,), weight_floor)
    n = np.size(time_bin)
    own = _as_matrix("own_pmf", own_pmf, n, roles=spec.role)
    K = own.shape[-1]
    frozen = _as_matrix("frozen_pmf", frozen_pmf, n, n_bins=K, roles=spec.role)
    _check_pmf("own_pmf", own_pmf, K)
    _check_pmf("frozen_pmf", frozen_pmf, K)
    plan = _plan_of(spec, _labelled(time_bin, event, K))
    return _cells(plan, (family,), own, frozen, weight_floor, stats)[0][0, :, 0]


ipcw_bs_failure = functools.partial(ipcw_per_sample, "ipcw-bs", "failure")
ipcw_bll_failure = functools.partial(ipcw_per_sample, "ipcw-bll", "failure")


def nll(pmf, time_bin, event, role="failure", weight_floor=1e-6, stats=None):
    """Per-sample negative partial log-likelihood.

    failure role: event -> -log f(U), censored -> -log Fbar(U)
    censor role: event -> -log Gbar(U-), censored -> -log g(U)

    A sample censored in the last bin has Fbar(K) = 0 for every categorical
    model; its term clamps to -log(weight_floor) and contributes no gradient.
    """
    spec = LossSpec("nll", _one_role(role), weight_floor=weight_floor)
    own = _as_matrix("pmf", pmf, np.size(time_bin), roles=spec.role)
    K = own.shape[-1]
    _check_pmf("pmf", pmf, K)
    plan = _plan_of(spec, _labelled(time_bin, event, K))
    return _cells(plan, ("nll",), own, None, weight_floor, stats)[0][0]


def ipcw_mean(time_bin, event, censor_pmf, weight_floor=1e-6, stats=None):
    """Inverse-weighted mean of T: mean(delta * U / Gbar(U-)).

    Under positivity this is unbiased for E[T] even though censored samples
    contribute zero: the weights exactly undo the thinning of events.
    """
    _check_floor(weight_floor)
    frozen = _as_matrix("censor_pmf", censor_pmf, np.size(time_bin))
    K = frozen.shape[-1]
    _check_pmf("censor_pmf", censor_pmf, K)
    # horizon K, past the scored 1..K-1, puts every row on the event branch,
    # whose weight is delta / Gbar(U-), zero off the events
    plan = label_plan(_labelled(time_bin, event, K), np.array([K]), _role_flags(("failure",)))
    inv = _cells(plan, (), None, frozen[None], weight_floor, stats)[0][0, :, 0]
    return float(((plan.evt_col[0] + 1) * inv).mean())  # the failure event column is U - 1
