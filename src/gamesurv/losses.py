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


def _role_flags(roles: tuple[str, ...]) -> np.ndarray:
    """(R, 1) censor flags, broadcasting against (R, n) per-sample arrays."""
    if not roles or any(role not in ROLES for role in roles):
        raise ValueError(f"role must be one of {ROLES} or a tuple of them, got {roles!r}")
    return np.array([[role == "censor"] for role in roles])


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
        times = self.times if isinstance(self.times, str) else tuple(np.ravel(self.times).tolist())
        object.__setattr__(self, "_plan_key", (times, roles))
        if not 0 < self.weight_floor < 1:
            raise ValueError("weight_floor must lie in (0, 1)")


def resolve_times(times: tuple[int, ...] | str, n_bins: int) -> np.ndarray:
    """Normalize a horizon spec to a sorted int array within 1..K-1."""
    if isinstance(times, str):
        if times != "all":
            raise ValueError("times must be 'all' or an iterable of horizons")
        arr = np.arange(1, n_bins)
    else:
        arr = np.unique(np.asarray(times, dtype=np.int64))
    if arr.size == 0:
        raise ValueError(f"times {times!r} gives no horizon in 1..K-1 for K = {n_bins} bins")
    if arr[0] < 1 or arr[-1] > n_bins - 1:
        raise ValueError(
            f"horizons must lie in 1..{n_bins - 1}; t = {n_bins} has zero "
            "survival beyond the last bin and is not a valid horizon"
        )
    return arr


def _as_matrix(pmf: np.ndarray, n: int, lead: int = 0) -> np.ndarray:
    """Broadcast (*lead, K) marginal pmfs to (*lead, n, K) or pass (*lead,
    n, K) matrices through; ``lead`` counts the leading (role) axes."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim == lead + 1:
        return np.broadcast_to(pmf[..., None, :], (*pmf.shape[:-1], n, pmf.shape[-1]))
    if pmf.ndim == lead + 2 and pmf.shape[-2] == n:
        return pmf
    raise ValueError(f"pmf must be (K,) or (n, K) after {lead} leading axes; got {pmf.shape}")


def _role_stack(spec: LossSpec, pmf: np.ndarray, n: int) -> np.ndarray:
    """A spec's pmf argument as an (R, n, K) stack: a tuple role's pmfs
    carry the role axis already, a single role's gain it."""
    if not isinstance(spec.role, tuple):
        return _as_matrix(pmf, n)[None]
    stack = _as_matrix(pmf, n, 1)
    if stack.shape[0] != len(spec.role):
        raise ValueError(f"pmf stack has {stack.shape[0]} rows for roles {spec.role}")
    return stack


def _padded_surv(pmf: np.ndarray) -> np.ndarray:
    """Survival along the last axis, one minus the cumulative sum with a
    leading zero: entry j is P(X > j) for j = 0..K."""
    out = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
    pmf.cumsum(axis=-1, out=out[..., 1:])
    return np.subtract(1.0, out, out=out)


def _own_cdf(own: np.ndarray, cols) -> np.ndarray:
    """cdf values F(t) at the columns ``cols`` = t - 1 of ``own``, in C
    order for either kind of ``cols``: the scores inherit the layout, and
    the sums over them add in an order that follows it."""
    # rounding in the cumsum may poke a hair above 1; keep 1 - cdf >= 0
    return np.minimum(own.cumsum(axis=-1)[..., cols], 1.0, order="C")


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
    """The label side of the inverse weights, fixed by the labels (U, delta),
    the row weights, the horizons and the roles; a batch builds it on its
    first loss call and every later call reuses it. For R roles, n rows and
    T horizons: ``roles`` (R, 1), ``rows`` (n,) and ``evt_col`` (R, n), the
    event-branch column U - 1 + c, gather from a survival table;
    ``surv_cols`` and ``cdf_cols`` pick the columns t and t - 1 (slices when
    the horizons are contiguous, which index faster than arrays); ``ind``
    (R, n) is the indicator ``event ^ c`` as 0.0/1.0, ``evt_used`` (R, n)
    marks the rows some horizon's event branch uses, ``le`` (n, T) is the
    branch mask U <= t, and ``weight`` (n,) sums to 1."""

    times: np.ndarray
    roles: np.ndarray
    rows: np.ndarray
    evt_col: np.ndarray
    surv_cols: slice | np.ndarray
    cdf_cols: slice | np.ndarray
    ind: np.ndarray
    evt_used: np.ndarray
    le: np.ndarray
    weight: np.ndarray


def label_plan(
    time_bin: np.ndarray,
    event: np.ndarray,
    times: np.ndarray,
    flags: np.ndarray,
    weight: np.ndarray | None = None,
) -> LabelPlan:
    """The label plan of (``time_bin``, ``event``) at horizons ``times`` for
    the roles with (R, 1) censor ``flags``; ``weight`` holds normalized row
    weights, uniform when None."""
    n = time_bin.size
    ind = event ^ flags  # event or ~event
    if np.all(np.diff(times) == 1):
        first, last = int(times[0]), int(times[-1])
        surv_cols, cdf_cols = slice(first, last + 1), slice(first - 1, last)
    else:
        surv_cols, cdf_cols = times, times - 1
    return LabelPlan(
        times=times,
        roles=np.arange(flags.shape[0])[:, None],
        rows=np.arange(n),
        evt_col=time_bin - 1 + flags,
        surv_cols=surv_cols,
        cdf_cols=cdf_cols,
        ind=ind.astype(float),  # a float numerator divides faster than a bool one
        evt_used=ind & (time_bin <= times[-1]),
        le=time_bin[:, None] <= times,
        weight=np.full(n, 1.0 / n) if weight is None else weight,
    )


def _batch_plan(spec: LossSpec, batch: Batch, n_bins: int) -> LabelPlan:
    """``batch``'s label plan for the horizons and roles of ``spec``, built
    on first use and kept on the batch, whose label arrays are read-only."""
    key = (spec._plan_key, n_bins)
    plan = batch._plans.get(key)
    if plan is None:
        times = resolve_times(spec.times, n_bins)
        plan = label_plan(batch.time_bin, batch.event, times, spec._flags, batch.norm_weight())
        batch._plans[key] = plan
    return plan


def _ipcw_factors(plan: LabelPlan, surv: np.ndarray, floor: float, stats: ClampStats | None):
    """The inverse weights as factors, from the other player's survival
    tables ``surv`` (..., R, m, K+1): entry j is P(X > j) for j = 0..K, with
    m = n rows or one row shared by all samples, and any leading axes
    stacking tables.

    Returns (r, s): the event factor r = (event ^ c) / Xbar(U-1+c) per row,
    shape (..., R, n), and the survival factor s = 1 / Xbar(t) per
    horizon, shape (..., R, m, T). The failure role's event branch divides
    by Gbar(U-) = surv[U-1], the censor role's by Fbar(U) = surv[U]."""
    rows = plan.rows if surv.shape[-2] > 1 else 0
    den_evt = surv[..., plan.roles, rows, plan.evt_col]
    den_evt, _ = _clamp(den_evt, floor, lambda: plan.evt_used, stats)
    den_surv, _ = _clamp(surv[..., plan.surv_cols], floor, lambda: ~plan.le, stats)  # Xbar(t)
    return plan.ind / den_evt, 1.0 / den_surv


def _own_terms(family: str, cdf: np.ndarray, floor: float):
    """A player's own score at its cdf values F(t): the event-branch and
    survival-branch terms, (1 - F)^2 and F^2 for the Brier score, -log F
    and -log(1 - F) for the Bernoulli log loss with the log arguments
    clamped at ``floor``. Its IPCW score is event * a + survival * b."""
    if family == "ipcw-bs":
        q = 1.0 - cdf
        return q * q, cdf * cdf
    return -np.log(np.maximum(cdf, floor)), -np.log(np.maximum(1.0 - cdf, floor))


def _scores(family, plan: LabelPlan, own, surv, floor, stats: ClampStats | None, grad=True):
    """Per-(role, sample, horizon) IPCW values and, with ``grad``, their
    derivatives in the own cdf F(t), for (R, n, K) pmfs ``own`` against the
    other player's survival tables ``surv`` (see `_ipcw_factors`). A cell's
    branch picks its weight w (r or s) and its argument x: 1 - F or F in the
    Brier value x^2 w, F or 1 - F (clamped) in the log-loss value -log(x) w."""
    le = plan.le
    r, s = _ipcw_factors(plan, surv, floor, stats)
    w = np.where(le, r[..., None], s)
    x = _own_cdf(own, plan.cdf_cols)
    if family == "ipcw-bs":
        np.subtract(1.0, x, out=x, where=le)
        vals = x * x
        vals *= w
        if not grad:
            return vals, None
        w *= x
        w += w  # doubles exactly
    else:
        np.subtract(1.0, x, out=x, where=~le)
        # counted on the survival branch and the event rows (where U <= t,
        # a row's event branch is used exactly when its indicator is set)
        x, clamped = _clamp(x, floor, lambda: ~le | plan.evt_used[..., None], stats)
        vals = np.log(x)
        np.subtract(0.0, vals, out=vals)
        vals *= w
        if not grad:
            return vals, None
        w /= x
        w[clamped] = 0.0  # clamped terms are flat in the cdf
    np.subtract(0.0, w, out=w, where=le)
    return vals, w


def _nll_values_dpmf(
    flags: np.ndarray,
    own_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    floor: float,
    stats: ClampStats | None,
    weights: np.ndarray | None = None,
):
    """Per-(role, sample) partial log-likelihood terms (R, n) and, given
    row ``weights``, the pmf gradient (R, n, K) of each role's weighted
    total (None without). One role's (1, 1) ``flags`` broadcast over any
    (E, n, K) stack of its pmfs. The two players' likelihoods share no
    parameters, which is what lets the joint likelihood split into
    independent problems."""
    R, n, K = own_pmf.shape
    roles, rows = np.arange(R)[:, None], np.arange(n)

    # failure: -log f(U) on events, -log Fbar(U) = -log sum_{k > U} otherwise;
    # censor: -log g(U) on censorings, -log Gbar(U-) = -log sum_{k >= U}
    point_rows = event ^ flags
    tail_start = time_bin - flags

    point_mass = own_pmf[roles, rows, time_bin - 1]
    tail_mass = _padded_surv(own_pmf)[roles, rows, tail_start]

    pm, pm_clamped = _clamp(point_mass, floor, lambda: point_rows, stats)
    tm, tm_clamped = _clamp(tail_mass, floor, lambda: ~point_rows, stats)

    vals = np.where(point_rows, -np.log(pm), -np.log(tm))
    if weights is None:
        return vals, None

    dpmf = np.zeros((R, n, K))
    r, i = np.nonzero(point_rows & ~pm_clamped)
    dpmf[r, i, time_bin[i] - 1] = -weights[i] / pm[r, i]
    r, i = np.nonzero(~point_rows & ~tm_clamped)
    spread = np.zeros((R, n, K + 1))
    spread[r, i, tail_start[r, i]] = -weights[i] / tm[r, i]
    # tail term covers all bins from tail_start on
    dpmf += spread[..., :K].cumsum(axis=-1)
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
    normalized batch weights. With a tuple ``spec.role`` both pmf arguments
    carry a leading role axis and every role is scored in one pass. The game
    families take the batch's label plan, built on the first call.

    Returns
    -------
    value : float, or ndarray (R,) for a tuple role
    dpmf : ndarray, shape (n, K), or (R, n, K) for a tuple role
    """
    n = batch.n
    own = _role_stack(spec, own_pmf, n)

    if spec.family == "nll":
        w = batch.norm_weight()
        vals, dpmf = _nll_values_dpmf(
            spec._flags, own, batch.time_bin, batch.event, spec.weight_floor, stats, w
        )
        values = [float(v @ w) for v in vals]
    else:
        if frozen_pmf is None:
            raise ValueError("game losses need the other player's pmf")
        plan = _batch_plan(spec, batch, own.shape[-1])
        w = plan.weight
        surv = _padded_surv(_role_stack(spec, frozen_pmf, n))
        vals, coefs = _scores(spec.family, plan, own, surv, spec.weight_floor, stats)
        values = [float(w @ v) for v in vals.sum(axis=-1)]
        # d cdf(t) / d pmf_k = 1{k <= t}: scatter per-horizon coefs, then suffix-sum
        coefs *= w[:, None]
        tmp = np.zeros(own.shape)
        tmp[..., plan.cdf_cols] = coefs
        dpmf = tmp[..., ::-1].cumsum(axis=-1)[..., ::-1]
    if isinstance(spec.role, tuple):
        return np.array(values), dpmf
    return values[0], dpmf[0]


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
    values : ndarray, shape (T,), or (R, T) for a tuple role
    coefs : ndarray, shape (T,), or (R, T) for a tuple role
    """
    if spec.family == "nll":
        raise ValueError("per-horizon form is defined for the game losses only")
    own, frozen = (_role_stack(spec, pmf, batch.n) for pmf in (own_pmf, frozen_pmf))
    plan = _batch_plan(spec, batch, own.shape[-1])
    vals, coefs = _scores(spec.family, plan, own, _padded_surv(frozen), spec.weight_floor, stats)
    w = plan.weight
    values = np.array([w @ v for v in vals])
    coefs = np.array([w @ c for c in coefs])
    if isinstance(spec.role, tuple):
        return values, coefs
    return values[0], coefs[0]


def ipcw_weight_arrays(
    role: str,
    frozen_pmf: np.ndarray,
    time_bin: np.ndarray,
    event: np.ndarray,
    times: np.ndarray,
    weight_floor: float = 1e-6,
    stats: ClampStats | None = None,
):
    """(a, b) inverse-weight arrays, shape (..., n, T): the event-branch and
    survival-branch multipliers a player's own terms contract against, for
    a frozen pmf of shape (K,) or (n, K), or a (..., n, K) stack of them.
    Exposed for bulk evaluation over checkpoint grids."""
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    frozen = _as_matrix(frozen_pmf, time_bin.size, max(np.ndim(frozen_pmf) - 2, 0))
    plan = label_plan(time_bin, event, times, _role_flags((role,)))
    r, s = _ipcw_factors(plan, _padded_surv(frozen)[..., None, :, :], weight_floor, stats)
    return plan.le * r[..., 0, :, None], ~plan.le * s[..., 0, :, :]


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
    spec = LossSpec(family, role, (t,), weight_floor)
    own, frozen = (_role_stack(spec, pmf, time_bin.size) for pmf in (own_pmf, frozen_pmf))
    plan = label_plan(time_bin, event, resolve_times(spec.times, own.shape[-1]), spec._flags)
    vals, _ = _scores(family, plan, own, _padded_surv(frozen), weight_floor, stats, False)
    return vals[0, :, 0]


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
    own = _as_matrix(pmf, time_bin.size)[None]
    flags = _role_flags((role,))
    return _nll_values_dpmf(flags, own, time_bin, event, weight_floor, stats)[0][0]


def ipcw_mean(time_bin, event, censor_pmf, values=None, weight=None, weight_floor=1e-6, stats=None):
    """Inverse-weighted mean of T: mean(delta * U / Gbar(U-)).

    Under positivity this is unbiased for E[T] even though censored samples
    contribute zero: the weights exactly undo the thinning of events.
    ``values`` substitutes a different per-sample quantity for U (e.g. raw
    times when bins stand in for continuous values).
    """
    time_bin = np.asarray(time_bin, dtype=np.int64)
    event = np.asarray(event, dtype=bool)
    # horizon K covers every row, so the event-branch weight is delta / Gbar(U-)
    horizon_k = np.array([np.shape(censor_pmf)[-1]])
    a, _ = ipcw_weight_arrays(
        "failure", censor_pmf, time_bin, event, horizon_k, weight_floor, stats
    )
    vals = np.asarray(time_bin if values is None else values, dtype=float)
    contrib = np.where(event, vals * a[:, 0], 0.0)  # censored values may be NaN
    if weight is None:
        return float(contrib.mean())
    w = np.asarray(weight, dtype=float)
    return float(contrib @ (w / w.sum()))
