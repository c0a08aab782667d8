"""Exact population-level oracle for marginal worlds.

Everything here is closed-form or finite-enumeration arithmetic in the
world's parameters; nothing samples and nothing reuses the estimator code
in :mod:`gamesurv.losses`, so these values can sit on the other side of a
cross-check from the training path. The two sides share only data and
core's rules: the world's tables, `core.padded_cdf`, which builds every
padded cdf, so both round a model's cdf alike, and core's pmf and size
rules, so a model that is not a distribution fails naming ``pmf_t`` or
``pmf_c``. The oracle never imports `losses`.

Notation for the per-step closed forms (prefix bins pinned at the truth):

    p = P*(T <= k),  t = true failure mass at step k+1,  x = model's
    q = P*(C <= k),  c = true censor mass at step k+1,   y = model's

The failure player's horizon-(k+1) population loss splits into an event
branch A and a survival branch B; the censor player's into C and D. Their
zero-derivative pair clears to a quadratic in the censor survival whose one
root inside the simplices is (t, c); the other forces the censoring cdf past
1. The induction solves it in closed form, step by step, and the multistart
scan, one Levenberg-Marquardt loop over all starts at once, stays an
independent numerical cross-check. The four closed forms broadcast over
array (x, y), so a planar grid is one array expression.

At arbitrary models, both players' losses and gradients come from one table
of expectations with a player axis, rows (failure, censor), in which the
other player's survival enters as the ratio Sbar/Sbar_hat against the
world's read-only tables, built once per world. At the truth each ratio is
exactly 1.0, so the Brier and log-loss gradients vanish exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_int, _check_pmf, padded_cdf
from .simgen import MarginalWorld

__all__ = [
    "population_fbs",
    "population_gbs",
    "population_fbs_dx",
    "population_gbs_dy",
    "spurious_gbs_root_qy",
    "population_loss",
    "population_gradients",
    "population_failure_nll",
    "nll_censoring_dependence",
    "GradientField",
    "gradient_field",
    "JointScan",
    "joint_objective_scan",
    "StationaryScan",
    "stationary_scan",
]


_PLAYERS = ("failure", "censor")  # the row order of every stacked table


def _step_context(world: MarginalWorld, step: int, x=None, y=None):
    """(p, q, t, c) of the step; models' survivals 1-p-x, 1-q-y given must stay positive."""
    if not 1 <= step <= world.n_bins - 1:
        raise ValueError(f"step must lie in 1..{world.n_bins - 1}")
    p, q, t, c = (*world.cdfs[:, step - 1], *world.pmfs[:, step - 1])
    if y is not None and np.any(1.0 - q - y <= 0):
        raise ValueError("censor survival 1-q-y must stay positive")
    if x is not None and np.any(1.0 - p - x <= 0):
        raise ValueError("failure survival 1-p-x must stay positive")
    return p, q, t, c


def population_fbs(world: MarginalWorld, step: int, x, y):
    """Failure player's population Brier loss at horizon ``step`` when both
    models match the truth below the step and put masses (x, y) on it.

    A = (1-p-x)^2 (p+t)                       event branch
    B = (p+x)^2 (1-p-t)(1-q-c) / (1-q-y)      survival branch
    """
    p, q, t, c = _step_context(world, step, y=y)
    a = (1.0 - p - x) ** 2 * (p + t)
    b = (p + x) ** 2 * (1.0 - p - t) * (1.0 - q - c) / (1.0 - q - y)
    return a + b


def population_gbs(world: MarginalWorld, step: int, x, y):
    """Censor player's population Brier loss at horizon ``step``.

    C = (1-q-y)^2 (q + c(1-p-t)/(1-p-x))      event branch
    D = (q+y)^2 (1-q-c)(1-p-t) / (1-p-x)      survival branch
    """
    p, q, t, c = _step_context(world, step, x=x)
    cc = (1.0 - q - y) ** 2 * (q + c * (1.0 - p - t) / (1.0 - p - x))
    d = (q + y) ** 2 * (1.0 - q - c) * (1.0 - p - t) / (1.0 - p - x)
    return cc + d


def population_fbs_dx(world: MarginalWorld, step: int, x, y):
    """d population_fbs / dx; zero at x = t when y = c."""
    p, q, t, c = _step_context(world, step, y=y)
    return -2.0 * (1.0 - p - x) * (p + t) + 2.0 * (p + x) * (1.0 - p - t) * (
        1.0 - q - c
    ) / (1.0 - q - y)


def population_gbs_dy(world: MarginalWorld, step: int, x, y):
    """d population_gbs / dy; zero at y = c when x = t."""
    p, q, t, c = _step_context(world, step, x=x)
    return -2.0 * (1.0 - q - y) * (q + c * (1.0 - p - t) / (1.0 - p - x)) + 2.0 * (
        q + y
    ) * (1.0 - q - c) * (1.0 - p - t) / (1.0 - p - x)


def spurious_gbs_root_qy(world: MarginalWorld, step: int) -> float:
    """Censoring cdf value q + y at the second algebraic root of the per-step
    system. Always exceeds 1 for interior worlds, so the root is infeasible
    and the truth is the unique valid stationary point of the step. When
    the failure cdf p + t is 0 at the step, the step's equation is linear
    and the truth is its only root: the result is ``np.inf``."""
    p, q, t, c = _step_context(world, step)
    if p + t == 0:
        return np.inf
    return (-1.0 + q - c * (-1.0 + p + t)) / ((-1.0 + q) * (p + t))


# -- exact population losses and gradients at arbitrary model parameters ---


def _ratio_sums(world: MarginalWorld, hat: np.ndarray):
    """Both players' per-horizon expectations, (..., 2, K-1) each over
    horizons t = 1..K-1, from the models' padded cdfs ``hat`` (..., 2, K+1):

    w1[r](t) = E[r's own event, U <= t, / other's Sbar_hat(U-1+c)]  event branch
    w2[r](t) = P(U > t) / other's Sbar_hat(t)                       survival branch

    with c = 0 for the failure player (left limit Gbar_hat(U-)) and c = 1
    for the censor player (Fbar_hat(U)). Only u = 1..K-1 enters w1. Both
    are computed from truth-over-model survival ratios, exactly 1.0 at the truth.
    """
    K = world.n_bins
    theta, surv = world.pmfs, world.survs
    # the other player's survival ratio at 0..K-1, row r for player r, with
    # 0/0 := 0 (zero-probability outcomes carry no mass); positive mass over
    # zero survival is a genuine +inf, not a warning
    with np.errstate(divide="ignore"):
        num = surv[::-1, :K]
        out = np.zeros(hat.shape[:-1] + (K,))
        ratio = np.divide(num, 1.0 - hat[..., ::-1, :K], out=out, where=num != 0)
    event_ratio = np.stack((ratio[..., 0, : K - 1], ratio[..., 1, 1:K]), axis=-2)  # column U-1+c
    w1 = (theta[:, : K - 1] * event_ratio).cumsum(axis=-1)
    w2 = surv[:, 1:K] * ratio[..., 1:K]
    return w1, w2


def _scores(world: MarginalWorld, pmf_t, pmf_c, family: str, values: bool = True):
    """Both players' per-horizon population losses (None unless ``values``)
    and the derivatives of each in the player's own cdf at that horizon, as
    (..., 2, K-1) arrays, rows (failure, censor), columns t = 1..K-1.

    With H = own model cdf at t: Brier (1-H)^2 w1 + H^2 w2, log loss
    -log(H) w1 - log(1-H) w2 (no closed form is used for either).
    """
    K = world.n_bins
    hat = padded_cdf(np.stack((_check_pmf("pmf_t", pmf_t, K), _check_pmf("pmf_c", pmf_c, K)), -2))
    own = hat[..., 1:K]
    w1, w2 = _ratio_sums(world, hat)
    if family == "ipcw-bs":
        # zero survival sends both weight sums to +inf; nan is the honest
        # gradient at such boundary models, not a numeric accident
        with np.errstate(invalid="ignore"):
            loss = (1.0 - own) ** 2 * w1 + own**2 * w2 if values else None
            return loss, 2.0 * (own * w2 - (1.0 - own) * w1)
    if family == "ipcw-bll":
        if np.any(own <= 0) or np.any(own >= 1):
            raise ValueError("log loss needs interior models: 0 < F_hat(t), G_hat(t) < 1")
        loss = -np.log(own) * w1 - np.log1p(-own) * w2 if values else None
        return loss, -w1 / own + w2 / (1.0 - own)
    raise ValueError(f"unknown family {family!r}")


def population_loss(
    world: MarginalWorld,
    pmf_t: np.ndarray,
    pmf_c: np.ndarray,
    t: int,
    family: str = "ipcw-bs",
    player: str = "failure",
) -> float:
    """Exact population loss of one player at horizon t, arbitrary models.

    Both families are exact sums over the 2K-outcome table. The log loss
    needs every model cdf strictly inside (0, 1) at every horizon.
    """
    if player not in _PLAYERS:
        raise ValueError(f"player must be one of {_PLAYERS}, got {player!r}")
    if not 1 <= t <= world.n_bins - 1:
        raise ValueError(f"t must lie in 1..{world.n_bins - 1}")
    values, _ = _scores(world, pmf_t, pmf_c, family)
    return values[..., _PLAYERS.index(player), t - 1]


def population_gradients(
    world: MarginalWorld,
    pmf_t: np.ndarray,
    pmf_c: np.ndarray,
    family: str = "ipcw-bs",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(player, horizon) population gradients.

    Entry t-1 of the first array is the derivative of the failure player's
    horizon-t loss with respect to its own mass on bin t (the coordinate the
    per-horizon game descends); second array likewise for the censor player.
    Both vanish identically at the truth, for every horizon, regardless of
    the other player's parameters entering through the weights. Stacks
    (..., K) of models give stacks (..., K-1).
    """
    _, grads = _scores(world, pmf_t, pmf_c, family, values=False)
    return grads[..., 0, :], grads[..., 1, :]


def population_failure_nll(world: MarginalWorld, pmf_t: np.ndarray) -> float:
    """Population value of the failure player's partial likelihood loss:
    E[delta (-log f(U)) + (1-delta)(-log Fbar(U))], exact outcome sum."""
    pmf_t = _check_pmf("pmf_t", np.ravel(pmf_t), world.n_bins)  # one model, not a stack
    # the model's probability of each outcome: f(u), or Fbar(u) if censored
    own = np.array([pmf_t, 1.0 - padded_cdf(pmf_t)[1:]])
    occurs = world.outcomes > 0
    if np.any(own[0][occurs[0]] <= 0):
        raise ValueError("model puts zero mass on a support bin")
    if np.any(own[1][occurs[1]] <= 0):
        raise ValueError("model survival vanishes on a censored bin")
    return float(world.outcomes[occurs] @ -np.log(own[occurs]))


def nll_censoring_dependence(rho: float) -> float:
    """Population failure NLL of the *true* model in a family of worlds that
    differ only in censoring: T uniform on three middle bins, C all-or-
    nothing (mass rho on a bin before the support, 1-rho after it).

    The value is (1-rho) log 3: the achievable likelihood depends on the
    censoring distribution even though the model is fixed at the truth, so
    raw likelihood values cannot rank models across censoring regimes.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    theta_t = np.array([0.0, 1 / 3, 1 / 3, 1 / 3, 0.0])
    theta_c = np.array([rho, 0.0, 0.0, 0.0, 1.0 - rho])
    return population_failure_nll(MarginalWorld(theta_t, theta_c), theta_t)


# -- two-bin visual diagnostics --------------------------------------------


@dataclass(frozen=True)
class GradientField:
    """Simultaneous-descent direction field of a two-bin world: at grid
    point (x, y) the arrows are minus each player's own-coordinate
    derivative, holding the other frozen."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray  # (len(y), len(x)), -d fbs / dx
    v: np.ndarray  # (len(y), len(x)), -d gbs / dy

    def rows(self):
        for i, yv in enumerate(self.y):
            for j, xv in enumerate(self.x):
                yield xv, yv, self.u[i, j], self.v[i, j]


def gradient_field(world: MarginalWorld, resolution: int = 200) -> GradientField:
    if world.n_bins != 2:
        raise ValueError("the planar field is defined for two-bin worlds")
    _check_int("resolution", resolution, 2)
    grid = (np.arange(resolution) + 0.5) / resolution  # interior, no boundary
    x, y = grid[None, :], grid[:, None]  # row i holds y = grid[i]
    u = -population_fbs_dx(world, 1, x, y)
    v = -population_gbs_dy(world, 1, x, y)
    return GradientField(grid.copy(), grid.copy(), u, v)


@dataclass(frozen=True)
class JointScan:
    """Grid scan of the *joint* objective fbs + gbs of a two-bin world."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    argmin_x: float
    argmin_y: float
    min_value: float
    truth_x: float
    truth_y: float
    truth_value: float

    @property
    def improper(self) -> bool:
        """True when some grid point beats the truth: the joint objective is
        not minimized by the true parameters, unlike each player's own."""
        return self.min_value < self.truth_value


def joint_objective_scan(world: MarginalWorld, resolution: int = 201) -> JointScan:
    if world.n_bins != 2:
        raise ValueError("the planar scan is defined for two-bin worlds")
    _check_int("resolution", resolution, 1)
    grid = (np.arange(resolution) + 0.5) / resolution
    x, y = grid[None, :], grid[:, None]
    values = population_fbs(world, 1, x, y) + population_gbs(world, 1, x, y)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    t, c = world.theta_t[0], world.theta_c[0]
    truth_value = population_fbs(world, 1, t, c) + population_gbs(world, 1, t, c)
    return JointScan(
        grid.copy(), grid.copy(), values,
        float(grid[j]), float(grid[i]), float(values[i, j]),
        float(t), float(c), float(truth_value),
    )


# -- stationary-point scan --------------------------------------------------


def _pmfs_from_z(z: np.ndarray):
    """Stick-breaking map of both players at once, coordinates ``z`` (...,
    2(K-1)) = (failure z, censor z) clipped to |z| <= 30 -> pmfs (..., 2, K)
    in the interior of the simplex: bin i takes the share expit(z_i) of the
    mass the earlier bins left over. Also returns the shares, (..., 2, K-1)."""
    from scipy.special import expit  # imported here: `import gamesurv` stays fast

    fracs = expit(np.clip(z, -30.0, 30.0).reshape(z.shape[:-1] + (2, z.shape[-1] // 2)))
    rem = (1.0 - fracs).cumprod(axis=-1)  # mass left after each bin
    mid = rem[..., :-1] * fracs[..., 1:]
    return np.concatenate((fracs[..., :1], mid, rem[..., -1:]), axis=-1), fracs


def _z_from_theta(theta: np.ndarray) -> np.ndarray:
    fracs = np.clip(theta[..., :-1] / (1.0 - padded_cdf(theta[..., :-2])), 1e-12, 1.0 - 1e-12)
    return np.log(fracs) - np.log1p(-fracs)


_ROOT_TOL = 1e-10  # max |residual| of a converged start
_DEDUPE_TOL = 1e-6  # max mass difference between two starts' copies of a root
# Levenberg-Marquardt: first damping, damping past which a start has stalled, iteration cap
_LM_DAMPING, _LM_DAMPING_MAX, _LM_MAX_ITER = 1e-3, 1e10, 100


@dataclass(frozen=True)
class StationaryScan:
    """Result of hunting for simultaneous stationary points of the
    per-horizon Brier game over the interior of the two simplices."""

    roots: list  # list of (theta_t_hat, theta_c_hat)
    n_starts: int
    n_converged: int
    matches_truth: bool
    max_truth_deviation: float
    induction_root: tuple[np.ndarray, np.ndarray]
    induction_agrees: bool
    spurious_qy: np.ndarray  # per step; all > 1 for interior worlds


def _scan_residual(zvec: np.ndarray, world: MarginalWorld) -> np.ndarray:
    """Both players' per-horizon Brier gradients at stick-breaking
    coordinates ``zvec`` (..., 2(K-1)) = (failure z, censor z)."""
    # |z| <= 30 keeps every stick-breaking mass strictly positive, but not
    # every survival: once the earlier bins hold all but ~1e-13 of the mass,
    # 1 - cdf can round to 0 and the residual is NaN inside the box
    pmfs, _ = _pmfs_from_z(zvec)
    grads = population_gradients(world, pmfs[..., 0, :], pmfs[..., 1, :], "ipcw-bs")
    return np.concatenate(grads, axis=-1)


def _cdf_jacobian(world: MarginalWorld, hat: np.ndarray) -> np.ndarray:
    """Exact derivative of the Brier gradients (xi_t, xi_c) of
    :func:`population_gradients` with respect to the model cdfs, at the
    models' padded cdfs ``hat`` (..., 2, K+1); shape (..., 2, K-1, 2, K-1),
    indexed [..., player, horizon, player, cdf horizon].

    With H = own cdf at t and the sums of :func:`_ratio_sums`, player r's
    gradient is xi = 2(H w2 - (1-H) w1). Both sums depend only on the other
    player's cdf: w2 divides by its survival at t, and w1 sums terms that
    divide by its survival at u-1+c for u <= t (c = 0 failure, 1 censor).
    """
    m = world.n_bins - 1
    own = hat[..., 1 : m + 1]
    surv = 1.0 - own
    w1, w2 = _ratio_sums(world, hat)
    # d w1[r](t) / d (other's cdf at j), j = 1..K-1, nonzero for j <= t-1+c:
    # r's event at bin u = j+1-c over the other's survival at j, squared
    event = np.array([world.theta_t[1:], world.theta_c[:m]])
    d_w1 = event * world.survs[::-1, 1 : m + 1] / surv[..., ::-1, :] ** 2
    jac = np.zeros(hat.shape[:-2] + (2, m, 2, m))
    blocks = jac.swapaxes(-3, -2)  # view indexed [..., player, player, horizon, cdf horizon]
    r, o, diag = np.array([[0], [1]]), np.array([[1], [0]]), np.arange(m)
    below = diag[:, None] + r[:, :, None] > diag  # j <= t-1+c, rows (t, j)
    off = -2.0 * surv[..., :, :, None] * d_w1[..., :, None, :]
    blocks[..., r[:, 0], o[:, 0], :, :] = np.where(below, off, 0.0)
    jac[..., r, diag, o, diag] += 2.0 * own * w2 / surv[..., ::-1, :]
    jac[..., r, diag, r, diag] = 2.0 * (w1 + w2)
    return jac


def _scan_jacobian(zvec: np.ndarray, world: MarginalWorld) -> np.ndarray:
    """Exact Jacobian of :func:`_scan_residual`, (..., n, n). The cdf derivative
    is chained through stick-breaking, d cdf_j / d z_i = (1 - cdf_j) expit(z_i)
    for i <= j; coordinates the residual clips at |z| = 30 get zero columns."""
    m = world.n_bins - 1
    pmfs, fracs = _pmfs_from_z(zvec)
    hat = padded_cdf(pmfs)
    d_cdf = _cdf_jacobian(world, hat).reshape(zvec.shape[:-1] + (2 * m, 2, m))
    # d r / d z_i = expit(z_i) * sum over j >= i of (d r / d cdf_j)(1 - cdf_j)
    chain = (d_cdf * (1.0 - hat[..., None, :, 1 : m + 1]))[..., ::-1].cumsum(axis=-1)[..., ::-1]
    jac = (chain * fracs[..., None, :, :]).reshape(zvec.shape[:-1] + (2 * m, 2 * m))
    return np.where(np.abs(zvec[..., None, :]) > 30.0, 0.0, jac)


def _solve_starts(world: MarginalWorld, z: np.ndarray):
    """Levenberg-Marquardt from all rows of ``z`` (S, n) at once; returns the end
    points and which converged. Each start keeps its own damping lam and steps by
    (J^T J + lam I) step = -J^T F, solved through the SVD of J as J^T J may be
    singular; a step stands only if |F|^2 falls to a finite value (lam / 10, else
    lam * 10). A start stops at max|F| < _ROOT_TOL (never on NaN) or lam past
    _LM_DAMPING_MAX. No row reads another: a start ends on the same bits in any batch."""
    z = np.array(z, dtype=float)
    sigma, uf, vt = np.empty_like(z), np.empty_like(z), np.empty(z.shape + z.shape[-1:])
    lam = np.full(len(z), _LM_DAMPING)
    with np.errstate(all="ignore"):  # a trial's NaN residual fails `better` below
        f = _scan_residual(z, world)
        cost, moved = (f * f).sum(axis=-1), np.arange(len(z))
        for _ in range(_LM_MAX_ITER):
            if moved.size:  # J = U diag(sigma) V^T where a start moved; J := 0 where not finite
                jac = _scan_jacobian(z[moved], world)
                u, sigma[moved], vt[moved] = np.linalg.svd(np.where(np.isfinite(jac), jac, 0.0))
                uf[moved] = (f[moved, None, :] @ u)[:, 0]
            live = np.flatnonzero((np.abs(f).max(axis=-1) >= _ROOT_TOL) & (lam <= _LM_DAMPING_MAX))
            if not live.size:
                break
            coef = sigma[live] * uf[live] / (sigma[live] ** 2 + lam[live, None])
            trial = z[live] - (coef[:, None, :] @ vt[live])[:, 0]
            f_new = _scan_residual(trial, world)
            cost_new = (f_new * f_new).sum(axis=-1)
            better = cost_new < cost[live]
            lam[live] = np.where(better, lam[live] / 10.0, lam[live] * 10.0)
            moved = live[better]
            z[moved], f[moved], cost[moved] = trial[better], f_new[better], cost_new[better]
    return z, np.abs(f).max(axis=-1) < _ROOT_TOL


def _gap(a, b) -> float:
    """Largest mass difference between two (theta_t, theta_c) pairs."""
    return max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max())


def stationary_scan(world: MarginalWorld, n_starts: int = 100, seed: int = 0) -> StationaryScan:
    """Multi-start root finding on the full simultaneous gradient system, all
    starts in one batched solve, cross-checked against the closed-form induction.

    The search runs in stick-breaking coordinates, so every candidate stays
    strictly inside the simplices; the infeasible algebraic root (censoring
    cdf beyond 1) is unreachable by construction and reported separately via
    :func:`spurious_gbs_root_qy`.
    """
    _check_int("n_starts", n_starts, 1)
    K = world.n_bins
    induction = _induction_root(world)  # fails before any start without a feasible root
    # start i is the failure draw 2i and the censor draw 2i+1 of one stream
    draws = np.random.default_rng(seed).dirichlet(np.ones(K), size=2 * n_starts)
    z, converged = _solve_starts(world, _z_from_theta(draws).reshape(n_starts, -1))
    n_converged = int(converged.sum())
    roots = []
    for theta in map(tuple, _pmfs_from_z(z[converged])[0]):
        if not any(_gap(theta, r) < _DEDUPE_TOL for r in roots):
            roots.append(theta)

    deviation = max((_gap(r, (world.theta_t, world.theta_c)) for r in roots), default=np.inf)
    matches = bool(len(roots) == 1 and deviation < _DEDUPE_TOL)
    ind_agrees = bool(len(roots) == 1 and _gap(induction, roots[0]) < _DEDUPE_TOL)
    spurious = np.array([spurious_gbs_root_qy(world, s) for s in range(1, K)])
    return StationaryScan(
        roots, n_starts, n_converged, matches, float(deviation), induction, ind_agrees, spurious
    )


def _step_roots(world: MarginalWorld, step: int):
    """Both algebraic roots (x, y) of the step's pair of equations, as two
    arrays of length 2 in no fixed order.

    Cleared of denominators, the pair is bilinear in the survivals
    v = 1-p-x and u = 1-q-y. The failure equation gives
    v = s_t s_c / ((p+t) u + s_t s_c), and the censor equation then leaves

        (p+t)(1-q) u^2 + s_c (q + s_t (1-q) - (p+t)) u - s_c^2 s_t = 0,

    with s_t = 1-p-t and s_c = 1-q-c. The roots' product is negative, so
    one root is u = s_c (the truth) and the other puts q + y beyond 1.
    """
    p, q, t, c = _step_context(world, step)
    s_t, s_c = 1.0 - p - t, 1.0 - q - c
    a = (p + t) * (1.0 - q)
    b = s_c * (q + s_t * (1.0 - q) - (p + t))
    c0 = -s_c * s_c * s_t
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate worlds
        h = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c0), b))  # no cancellation
        u = np.array([h / a, c0 / h])
        v = s_t * s_c / ((p + t) * u + s_t * s_c)
    return 1.0 - p - v, 1.0 - q - u


def _induction_root(world: MarginalWorld):
    """Solve each step's 2-variable system with the prefix pinned at the
    truth, in the order the uniqueness argument advances: keep the one
    root inside [0, 1-p) x [0, 1-q) and check it against both derivatives.
    A truth on a face (an empty bin) may round to a mass just below 0."""
    K = world.n_bins
    out = np.empty((2, K))
    for step in range(1, K):
        p, q = world.cdfs[:, step - 1]
        x, y = _step_roots(world, step)
        inside = (x > -1e-12) & (x < 1.0 - p) & (y > -1e-12) & (y < 1.0 - q)
        if inside.sum() != 1:
            raise RuntimeError(
                f"step {step}: expected a unique interior root, found {inside.sum()}"
            )
        x, y = x[inside][0], y[inside][0]
        resid = (population_fbs_dx(world, step, x, y), population_gbs_dy(world, step, x, y))
        if not max(abs(resid[0]), abs(resid[1])) < 1e-12:
            raise RuntimeError(f"step {step}: root ({x}, {y}) leaves residual {resid}")
        out[:, step - 1] = x, y
    out[:, K - 1] = 1.0 - out[:, : K - 1].sum(axis=1)
    return out[0], out[1]
