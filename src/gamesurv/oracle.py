"""Exact population-level oracle for marginal worlds.

Everything here is closed-form or finite-enumeration arithmetic in the
world's parameters; nothing samples and nothing reuses the estimator code
in :mod:`gamesurv.losses`, so these values can sit on the other side of a
cross-check from the training path.

Notation for the per-step closed forms (prefix bins pinned at the truth):

    p = P*(T <= k),  t = true failure mass at step k+1,  x = model's
    q = P*(C <= k),  c = true censor mass at step k+1,   y = model's

The failure player's horizon-(k+1) population loss splits into an event
branch A and a survival branch B; the censor player's into C and D. Setting
the derivatives in (x, y) to zero recovers (t, c) as the only root with all
survival probabilities positive; the second algebraic root forces the
censoring cdf past 1 and is infeasible. The four closed forms broadcast
over array (x, y), so a planar grid is one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import root as _scipy_root
from scipy.special import expit

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


def _pad(theta: np.ndarray) -> np.ndarray:
    """padded cdf: entry j = P(X <= j) for j = 0..K."""
    out = np.zeros(theta.size + 1)
    theta.cumsum(out=out[1:])
    return out


def _step_context(world: MarginalWorld, step: int):
    if not 1 <= step <= world.n_bins - 1:
        raise ValueError(f"step must lie in 1..{world.n_bins - 1}")
    pad_t = _pad(world.theta_t)
    pad_c = _pad(world.theta_c)
    p = pad_t[step - 1]
    q = pad_c[step - 1]
    t = world.theta_t[step - 1]
    c = world.theta_c[step - 1]
    return p, q, t, c


def population_fbs(world: MarginalWorld, step: int, x, y):
    """Failure player's population Brier loss at horizon ``step`` when both
    models match the truth below the step and put masses (x, y) on it.

    A = (1-p-x)^2 (p+t)                       event branch
    B = (p+x)^2 (1-p-t)(1-q-c) / (1-q-y)      survival branch
    """
    p, q, t, c = _step_context(world, step)
    if np.any(1.0 - q - y <= 0):
        raise ValueError("censor survival 1-q-y must stay positive")
    a = (1.0 - p - x) ** 2 * (p + t)
    b = (p + x) ** 2 * (1.0 - p - t) * (1.0 - q - c) / (1.0 - q - y)
    return a + b


def population_gbs(world: MarginalWorld, step: int, x, y):
    """Censor player's population Brier loss at horizon ``step``.

    C = (1-q-y)^2 (q + c(1-p-t)/(1-p-x))      event branch
    D = (q+y)^2 (1-q-c)(1-p-t) / (1-p-x)      survival branch
    """
    p, q, t, c = _step_context(world, step)
    if np.any(1.0 - p - x <= 0):
        raise ValueError("failure survival 1-p-x must stay positive")
    cc = (1.0 - q - y) ** 2 * (q + c * (1.0 - p - t) / (1.0 - p - x))
    d = (q + y) ** 2 * (1.0 - q - c) * (1.0 - p - t) / (1.0 - p - x)
    return cc + d


def population_fbs_dx(world: MarginalWorld, step: int, x, y):
    """d population_fbs / dx; zero at x = t when y = c."""
    p, q, t, c = _step_context(world, step)
    if np.any(1.0 - q - y <= 0):
        raise ValueError("censor survival 1-q-y must stay positive")
    return -2.0 * (1.0 - p - x) * (p + t) + 2.0 * (p + x) * (1.0 - p - t) * (
        1.0 - q - c
    ) / (1.0 - q - y)


def population_gbs_dy(world: MarginalWorld, step: int, x, y):
    """d population_gbs / dy; zero at y = c when x = t."""
    p, q, t, c = _step_context(world, step)
    if np.any(1.0 - p - x <= 0):
        raise ValueError("failure survival 1-p-x must stay positive")
    return -2.0 * (1.0 - q - y) * (q + c * (1.0 - p - t) / (1.0 - p - x)) + 2.0 * (
        q + y
    ) * (1.0 - q - c) * (1.0 - p - t) / (1.0 - p - x)


def spurious_gbs_root_qy(world: MarginalWorld, step: int) -> float:
    """Censoring cdf value q + y at the second algebraic root of the per-step
    system. Always exceeds 1 for interior worlds, so the root is infeasible
    and the truth is the unique valid stationary point of the step."""
    p, q, t, c = _step_context(world, step)
    return (-1.0 + q - c * (-1.0 + p + t)) / ((-1.0 + q) * (p + t))


# -- exact population losses and gradients at arbitrary model parameters ---


def _check_model(world: MarginalWorld, pmf: np.ndarray) -> np.ndarray:
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape != (world.n_bins,):
        raise ValueError("model pmf must match the world's bin count")
    return pmf


def _outcome_probs(world: MarginalWorld):
    """P(U = u, delta = 1) = theta_t[u] P(C >= u) and
    P(U = u, delta = 0) = theta_c[u] P(T > u), u = 1..K."""
    pad_t, pad_c = _pad(world.theta_t), _pad(world.theta_c)
    return world.theta_t * (1.0 - pad_c[:-1]), world.theta_c * (1.0 - pad_t[1:])


def _weight_sums(world: MarginalWorld, hat_t: np.ndarray, hat_c: np.ndarray):
    """The four per-horizon expectations that drive both players' losses,
    as exact sums over the 2K outcome table (horizons t = 1..K-1, so only
    outcomes with u <= K-1 ever sit in an event branch), from the models'
    padded cdfs ``hat_t`` and ``hat_c``.

    failure side: A_t = E[delta 1{U<=t} / Gbar_hat(U-)],
                  B_t = E[1{U>t}] / Gbar_hat(t)
    censor side:  V_t = E[(1-delta) 1{U<=t} / Fbar_hat(U)],
                  W_t = E[1{U>t}] / Fbar_hat(t)
    """
    K = world.n_bins
    w_event, w_cens = _outcome_probs(world)
    head = slice(0, K - 1)  # u = 1..K-1
    gbar_left_hat = 1.0 - hat_c[head]  # Gbar_hat(u-)
    fbar_hat = 1.0 - hat_t[1:K]  # Fbar_hat(u)
    if np.any(gbar_left_hat[w_event[head] > 0] <= 0) or np.any(
        fbar_hat[w_cens[head] > 0] <= 0
    ):
        raise ValueError("model survival vanishes on the world's support")
    tail = w_event + w_cens  # P(U = u)
    tail_gt = np.concatenate([tail[::-1].cumsum()[::-1], [0.0]])  # P(U >= u), u=1..K+1
    ts = np.arange(1, K)
    a_t = np.cumsum(_safe_div(w_event[head], gbar_left_hat))
    v_t = np.cumsum(_safe_div(w_cens[head], fbar_hat))
    b_t = tail_gt[ts] / (1.0 - hat_c[ts])
    w_t = tail_gt[ts] / (1.0 - hat_t[ts])
    return a_t, b_t, v_t, w_t


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with 0/0 := 0 (zero-probability outcomes carry no mass);
    positive mass over zero survival is a genuine +inf, not a warning."""
    with np.errstate(divide="ignore"):
        return np.divide(num, den, out=np.zeros_like(num, dtype=float), where=num != 0)


def _ratio_sums(world: MarginalWorld, hat_t: np.ndarray, hat_c: np.ndarray):
    """Same expectations in ratio form, from the models' padded cdfs:
    identical survival probabilities divide out to exactly 1.0, so at the
    truth the Brier gradients cancel bit-exactly instead of within roundoff.
    Only u = 1..K-1 enters the event-branch sums for horizons t <= K-1."""
    K = world.n_bins
    pad_t, pad_c = _pad(world.theta_t), _pad(world.theta_c)
    head = slice(0, K - 1)
    ratio_g = _safe_div(1.0 - pad_c[:K], 1.0 - hat_c[:K])  # Gbar/Gbar_hat at 0..K-1
    ratio_f = _safe_div(1.0 - pad_t[1:K], 1.0 - hat_t[1:K])  # Fbar/Fbar_hat at 1..K-1
    w1 = np.cumsum(world.theta_t[head] * ratio_g[:-1])
    v1 = np.cumsum(world.theta_c[head] * ratio_f)
    w2 = (1.0 - pad_t[1:K]) * ratio_g[1:]
    v2 = ratio_f * (1.0 - pad_c[1:K])
    return w1, w2, v1, v2


def population_loss(
    world: MarginalWorld,
    pmf_t: np.ndarray,
    pmf_c: np.ndarray,
    t: int,
    family: str = "ipcw-bs",
    player: str = "failure",
) -> float:
    """Exact population loss of one player at horizon t, arbitrary models.

    The Brier value uses the rational closed form; the log-likelihood value
    is an exact sum over the 2K-outcome table (no closed form is used).
    """
    pmf_t = _check_model(world, pmf_t)
    pmf_c = _check_model(world, pmf_c)
    K = world.n_bins
    if not 1 <= t <= K - 1:
        raise ValueError(f"t must lie in 1..{K - 1}")
    hat_t, hat_c = _pad(pmf_t), _pad(pmf_c)
    fhat, ghat = hat_t[t], hat_c[t]
    if family == "ipcw-bs":
        w1, w2, v1, v2 = _ratio_sums(world, hat_t, hat_c)
        if player == "failure":
            return (1.0 - fhat) ** 2 * w1[t - 1] + fhat**2 * w2[t - 1]
        return (1.0 - ghat) ** 2 * v1[t - 1] + ghat**2 * v2[t - 1]
    if family == "ipcw-bll":
        a_t, b_t, v_t, w_t = _weight_sums(world, hat_t, hat_c)
        if player == "failure":
            if not 0 < fhat < 1:
                raise ValueError("log loss needs 0 < F_hat(t) < 1")
            return -np.log(fhat) * a_t[t - 1] - np.log1p(-fhat) * b_t[t - 1]
        if not 0 < ghat < 1:
            raise ValueError("log loss needs 0 < G_hat(t) < 1")
        return -np.log(ghat) * v_t[t - 1] - np.log1p(-ghat) * w_t[t - 1]
    raise ValueError(f"unknown family {family!r}")


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
    the other player's parameters entering through the weights.
    """
    pmf_t = _check_model(world, pmf_t)
    pmf_c = _check_model(world, pmf_c)
    K = world.n_bins
    ts = np.arange(1, K)
    hat_t, hat_c = _pad(pmf_t), _pad(pmf_c)
    fhat, ghat = hat_t[ts], hat_c[ts]
    if family == "ipcw-bs":
        w1, w2, v1, v2 = _ratio_sums(world, hat_t, hat_c)
        # zero survival sends both weight sums to +inf; nan is the honest
        # gradient at such boundary models, not a numeric accident
        with np.errstate(invalid="ignore"):
            xi_t = 2.0 * (fhat * w2 - (1.0 - fhat) * w1)
            xi_c = 2.0 * (ghat * v2 - (1.0 - ghat) * v1)
        return xi_t, xi_c
    if family == "ipcw-bll":
        a_t, b_t, v_t, w_t = _weight_sums(world, hat_t, hat_c)
        if np.any(fhat <= 0) or np.any(fhat >= 1) or np.any(ghat <= 0) or np.any(ghat >= 1):
            raise ValueError("log loss gradients need interior models")
        xi_t = -a_t / fhat + b_t / (1.0 - fhat)
        xi_c = -v_t / ghat + w_t / (1.0 - ghat)
        return xi_t, xi_c
    raise ValueError(f"unknown family {family!r}")


def population_failure_nll(world: MarginalWorld, pmf_t: np.ndarray) -> float:
    """Population value of the failure player's partial likelihood loss:
    E[delta (-log f(U)) + (1-delta)(-log Fbar(U))], exact outcome sum."""
    pmf_t = _check_model(world, pmf_t)
    hat = _pad(pmf_t)
    w_event, w_cens = _outcome_probs(world)
    # censored-at-K has probability Fbar(K) = 0 structurally; cumsum dust
    # must not resurrect it
    w_cens[-1] = 0.0
    total = 0.0
    for u in range(1, world.n_bins + 1):
        if w_event[u - 1] > 0:
            if pmf_t[u - 1] <= 0:
                raise ValueError("model puts zero mass on a support bin")
            total += w_event[u - 1] * -np.log(pmf_t[u - 1])
        if w_cens[u - 1] > 0:
            fbar = 1.0 - hat[u]
            if fbar <= 0:
                raise ValueError("model survival vanishes on a censored bin")
            total += w_cens[u - 1] * -np.log(fbar)
    return float(total)


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
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
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
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
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


def _theta_from_z(z: np.ndarray) -> np.ndarray:
    """Stick-breaking map R^{K-1} -> interior of the K-simplex: bin i takes
    the share expit(z_i) of the mass the earlier bins left over."""
    fracs = expit(np.asarray(z, dtype=float))
    rem = np.cumprod(np.concatenate([[1.0], 1.0 - fracs]))
    return np.concatenate([rem[:-1] * fracs, rem[-1:]])


def _z_from_theta(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    rem = 1.0 - np.concatenate([[0.0], np.cumsum(theta[:-1])])[:-1]
    fracs = theta[:-1] / rem
    fracs = np.clip(fracs, 1e-12, 1.0 - 1e-12)
    return np.log(fracs) - np.log1p(-fracs)


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
    coordinates ``zvec`` = (failure z, censor z)."""
    m = world.n_bins - 1
    # |z| <= 30 keeps every stick-breaking mass strictly positive, so the
    # solver cannot step onto a simplex face where the weights blow up
    zvec = np.clip(zvec, -30.0, 30.0)
    xi_t, xi_c = population_gradients(
        world, _theta_from_z(zvec[:m]), _theta_from_z(zvec[m:]), "ipcw-bs"
    )
    return np.concatenate([xi_t, xi_c])


def _cdf_jacobian(world: MarginalWorld, pmf_t: np.ndarray, pmf_c: np.ndarray) -> np.ndarray:
    """Exact derivative of the Brier gradients (xi_t, xi_c) of
    :func:`population_gradients` with respect to the model cdfs
    (F_hat(1..K-1), G_hat(1..K-1)), shape (2(K-1), 2(K-1)).

    With F = F_hat(t), G = G_hat(t) and the ratio sums of :func:`_ratio_sums`,
    xi_t = 2(F w2 - (1-F) w1) and xi_c = 2(G v2 - (1-G) v1), where w2 and v2
    divide by 1-G and 1-F at the same horizon and w1 (v1) sums terms
    dividing by 1-G_hat(u-1) for u <= t (1-F_hat(u) for u <= t).
    """
    K = world.n_bins
    m = K - 1
    pad_t, pad_c = _pad(world.theta_t), _pad(world.theta_c)
    hat_t, hat_c = _pad(pmf_t), _pad(pmf_c)
    f, g = hat_t[1:K], hat_c[1:K]
    sf, sg = 1.0 - f, 1.0 - g
    w1, w2, v1, v2 = _ratio_sums(world, hat_t, hat_c)
    # d w1(t) / d G_hat(u-1), u = 2..t: the event at u divides by 1-G_hat(u-1)
    dw1 = world.theta_t[1:K] * (1.0 - pad_c[1:K]) / sg**2
    # d v1(t) / d F_hat(u), u = 1..t: the censoring at u divides by 1-F_hat(u)
    dv1 = world.theta_c[:m] * (1.0 - pad_t[1:K]) / sf**2
    jac = np.zeros((2 * m, 2 * m))
    jac[:m, m:] = np.tril(-2.0 * sf[:, None] * dw1, k=-1)
    jac[m:, :m] = np.tril(-2.0 * sg[:, None] * dv1)
    diag = np.arange(m)
    jac[diag, diag] = 2.0 * (w1 + w2)
    jac[diag, m + diag] = 2.0 * f * w2 / sg
    jac[m + diag, diag] += 2.0 * g * v2 / sf
    jac[m + diag, m + diag] = 2.0 * (v1 + v2)
    return jac


def _scan_jacobian(zvec: np.ndarray, world: MarginalWorld) -> np.ndarray:
    """Exact Jacobian of :func:`_scan_residual`. The cdf derivative is
    chained through stick-breaking, d cdf_j / d z_i = (1 - cdf_j) expit(z_i)
    for i <= j; coordinates the residual clips at |z| = 30 get zero columns."""
    m = world.n_bins - 1
    z = np.clip(zvec, -30.0, 30.0)
    pmf_t, pmf_c = _theta_from_z(z[:m]), _theta_from_z(z[m:])
    d_cdf = _cdf_jacobian(world, pmf_t, pmf_c)
    cols = []
    for block, zs, pmf in ((d_cdf[:, :m], z[:m], pmf_t), (d_cdf[:, m:], z[m:], pmf_c)):
        surv = 1.0 - _pad(pmf)[1 : m + 1]
        # d r / d z_i = expit(z_i) * sum over j >= i of (d r / d cdf_j)(1 - cdf_j)
        cols.append((block * surv)[:, ::-1].cumsum(axis=1)[:, ::-1] * expit(zs))
    jac = np.hstack(cols)
    jac[:, np.abs(zvec) > 30.0] = 0.0
    return jac


def stationary_scan(
    world: MarginalWorld,
    n_starts: int = 100,
    seed: int = 0,
    root_tol: float = 1e-10,
    dedupe_tol: float = 1e-6,
) -> StationaryScan:
    """Multi-start root finding on the full simultaneous gradient system,
    cross-checked against the per-step induction solve.

    The search runs in stick-breaking coordinates, so every candidate stays
    strictly inside the simplices; the infeasible algebraic root (censoring
    cdf beyond 1) is unreachable by construction and reported separately via
    :func:`spurious_gbs_root_qy`.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    K = world.n_bins
    m = K - 1
    rng = np.random.default_rng(seed)

    roots = []
    n_converged = 0
    for _ in range(n_starts):
        start = np.concatenate(
            [_z_from_theta(rng.dirichlet(np.ones(K))), _z_from_theta(rng.dirichlet(np.ones(K)))]
        )
        sol = _scipy_root(
            _scan_residual, start, args=(world,), method="hybr", jac=_scan_jacobian, tol=1e-12
        )
        # hybr returns the residual evaluated at its final point
        if not np.all(np.abs(sol.fun) < root_tol):
            continue
        n_converged += 1
        zs = np.clip(sol.x, -30.0, 30.0)
        theta = (_theta_from_z(zs[:m]), _theta_from_z(zs[m:]))
        if not any(
            max(np.abs(theta[0] - r[0]).max(), np.abs(theta[1] - r[1]).max()) < dedupe_tol
            for r in roots
        ):
            roots.append(theta)

    deviation = max(
        (
            max(np.abs(r[0] - world.theta_t).max(), np.abs(r[1] - world.theta_c).max())
            for r in roots
        ),
        default=np.inf,
    )
    matches = bool(len(roots) == 1 and deviation < dedupe_tol)

    induction = _induction_root(world, rng)
    ind_agrees = bool(
        len(roots) == 1
        and np.abs(induction[0] - roots[0][0]).max() < dedupe_tol
        and np.abs(induction[1] - roots[0][1]).max() < dedupe_tol
    )
    spurious = np.array([spurious_gbs_root_qy(world, s) for s in range(1, K)])
    return StationaryScan(
        roots, n_starts, n_converged, matches, float(deviation), induction, ind_agrees, spurious
    )


def _induction_root(world: MarginalWorld, rng, starts_per_step: int = 8):
    """Solve each step's 2-variable system with the prefix pinned at the
    truth, in the order the uniqueness argument advances."""
    K = world.n_bins
    pad_t, pad_c = _pad(world.theta_t), _pad(world.theta_c)
    out_t = np.empty(K)
    out_c = np.empty(K)
    for step in range(1, K):
        p, q = pad_t[step - 1], pad_c[step - 1]
        rem_t, rem_c = 1.0 - p, 1.0 - q

        def resid2(z):
            z = np.clip(z, -30.0, 30.0)  # keep (x, y) strictly inside (0, rem)
            x = rem_t * expit(z[0])
            y = rem_c * expit(z[1])
            return [
                population_fbs_dx(world, step, x, y),
                population_gbs_dy(world, step, x, y),
            ]

        found = []
        for _ in range(starts_per_step):
            sol = _scipy_root(resid2, rng.normal(0.0, 1.5, 2), method="hybr", tol=1e-12)
            if not np.all(np.abs(resid2(sol.x)) < 1e-10):
                continue
            zs = np.clip(sol.x, -30.0, 30.0)
            x = rem_t * expit(zs[0])
            y = rem_c * expit(zs[1])
            if not any(abs(x - fx) < 1e-8 and abs(y - fy) < 1e-8 for fx, fy in found):
                found.append((x, y))
        if len(found) != 1:
            raise RuntimeError(
                f"step {step}: expected a unique interior root, found {len(found)}"
            )
        out_t[step - 1], out_c[step - 1] = found[0]
    out_t[K - 1] = 1.0 - out_t[: K - 1].sum()
    out_c[K - 1] = 1.0 - out_c[: K - 1].sum()
    return out_t, out_c
