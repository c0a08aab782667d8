"""Exact population-level oracles: closed forms, scans, stationarity."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import gamesurv.oracle
from gamesurv.losses import LossSpec, batch_loss, per_horizon_loss
from gamesurv.oracle import (
    gradient_field,
    joint_objective_scan,
    nll_censoring_dependence,
    population_failure_nll,
    population_fbs,
    population_fbs_dx,
    population_gbs,
    population_gbs_dy,
    population_gradients,
    population_loss,
    spurious_gbs_root_qy,
    stationary_scan,
)
from gamesurv.simgen import MarginalWorld, population_batch, random_interior_world
from gamesurv.losses import nll

TRUTH = MarginalWorld([0.3, 0.7], [0.4, 0.6])


def _pinned_pmfs(world, step, x, y):
    """Models matching the truth below ``step`` with masses (x, y) on it."""
    k = world.n_bins
    pt = world.theta_t.copy()
    pc = world.theta_c.copy()
    pt[step - 1] = x
    pc[step - 1] = y
    pt[step:] = (1.0 - pt[: step].sum()) * np.ones(k - step) / (k - step) if step < k else []
    pc[step:] = (1.0 - pc[: step].sum()) * np.ones(k - step) / (k - step) if step < k else []
    return pt, pc


def test_closed_forms_match_enumerated_population_loss():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        world = random_interior_world(k, rng)
        step = int(rng.integers(1, k))
        lo_t = world.theta_t[: step - 1].sum()
        lo_c = world.theta_c[: step - 1].sum()
        x = rng.uniform(0.05, 0.9) * (1.0 - lo_t)
        y = rng.uniform(0.05, 0.9) * (1.0 - lo_c)
        pt, pc = _pinned_pmfs(world, step, x, y)
        fbs = population_fbs(world, step, x, y)
        gbs = population_gbs(world, step, x, y)
        assert fbs == pytest.approx(
            population_loss(world, pt, pc, step, "ipcw-bs", "failure"), rel=1e-12)
        assert gbs == pytest.approx(
            population_loss(world, pt, pc, step, "ipcw-bs", "censor"), rel=1e-12)


def test_hand_values_two_bin_world():
    assert population_fbs(TRUTH, 1, 0.3, 0.4) == pytest.approx(0.21, abs=1e-15)
    assert population_gbs(TRUTH, 1, 0.3, 0.4) == pytest.approx(0.24, abs=1e-15)
    # off-truth censor model inflates the failure player's survival branch
    assert population_fbs(TRUTH, 1, 0.3, 0.7) > 0.21
    with pytest.raises(ValueError, match="positive"):
        population_fbs(TRUTH, 1, 0.3, 1.0)
    with pytest.raises(ValueError, match="positive"):
        population_gbs(TRUTH, 1, 1.0, 0.4)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    eps = 1e-7
    for _ in range(50):
        k = int(rng.integers(2, 5))
        world = random_interior_world(k, rng)
        step = int(rng.integers(1, k))
        # masses must leave both models some survival past the step
        p = world.theta_t[: step - 1].sum()
        q = world.theta_c[: step - 1].sum()
        x = float(rng.uniform(0.05, 0.9)) * (1.0 - p)
        y = float(rng.uniform(0.05, 0.9)) * (1.0 - q)
        fd_x = (population_fbs(world, step, x + eps, y) - population_fbs(world, step, x - eps, y)) / (2 * eps)
        fd_y = (population_gbs(world, step, x, y + eps) - population_gbs(world, step, x, y - eps)) / (2 * eps)
        assert population_fbs_dx(world, step, x, y) == pytest.approx(fd_x, rel=1e-6, abs=1e-8)
        assert population_gbs_dy(world, step, x, y) == pytest.approx(fd_y, rel=1e-6, abs=1e-8)


def test_derivatives_vanish_at_truth():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        world = random_interior_world(k, rng)
        for step in range(1, k):
            t = world.theta_t[step - 1]
            c = world.theta_c[step - 1]
            assert abs(population_fbs_dx(world, step, t, c)) < 1e-14
            assert abs(population_gbs_dy(world, step, t, c)) < 1e-14


def test_spurious_censor_root_lies_outside_simplex():
    # the per-step simultaneous system (both horizon derivatives zero) has
    # one algebraic solution besides the truth; its censoring cdf value
    # q + y always exceeds 1, so no second stationary point is feasible
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        world = random_interior_world(k, rng)
        step = int(rng.integers(1, k))
        pad_t = np.concatenate([[0.0], np.cumsum(world.theta_t)])
        pad_c = np.concatenate([[0.0], np.cumsum(world.theta_c)])
        p, q = pad_t[step - 1], pad_c[step - 1]
        t = world.theta_t[step - 1]
        c = world.theta_c[step - 1]
        qy = spurious_gbs_root_qy(world, step)
        assert qy > 1.0

        # eliminating the failure cdf X from the pair
        #   (1-X) T (1-Y) = X S_T S_C
        #   (1-Y)(q(1-X) + c S_T) = Y S_C S_T   (cleared of 1/(1-X))
        # leaves a division-free quadratic in the censoring cdf Y = q + y:
        big_t, big_c = p + t, q + c
        s_t, s_c = 1.0 - big_t, 1.0 - big_c

        def poly(yv):
            d = big_t * (1.0 - yv) + s_t * s_c
            return (1.0 - yv) * q * s_c + (1.0 - yv) * c * d - yv * s_c * d

        # its two roots are the truth and the claimed spurious value
        tol = 1e-10 * max(1.0, qy * qy)
        assert abs(poly(big_c)) < tol
        assert abs(poly(qy)) < tol
        # leading coefficient T(1-q) > 0, so there is no third root
        assert big_t * (1.0 - q) > 0


def test_spurious_root_hand_value():
    # (0.3, 0.4) world: root at q + y = (1 - q + c(p + t - 1)) / ((1 - q)(p + t))
    # = (0.6 + 0.4*(-0.7)) / (0.6 * 0.3)... with p = q = 0: (1 - 0.4 + 0.4*(0.3 - 1)) / (0.6*0.3)
    assert spurious_gbs_root_qy(TRUTH, 1) == pytest.approx(2.4, abs=1e-12)


def test_spurious_root_of_a_linear_step_is_infinite():
    # no failure mass up to the step (p + t = 0): the quadratic's leading
    # coefficient T(1 - q) vanishes, the step's equation is linear and the
    # truth is its only root, so there is no second root to report
    world = MarginalWorld([0.0, 0.5, 0.5], [0.3, 0.3, 0.4])
    assert spurious_gbs_root_qy(world, 1) == np.inf
    assert 1.0 < spurious_gbs_root_qy(world, 2) < np.inf
    assert spurious_gbs_root_qy(MarginalWorld([0.0, 1.0], [0.4, 0.6]), 1) == np.inf


def test_population_gradients_match_estimator_path():
    # enumerated oracle vs the per-horizon estimator on the exact outcome
    # batch: same mathematical object along two very different code paths
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        world = random_interior_world(k, rng)
        pb = population_batch(world)
        pt = random_interior_world(k, rng).theta_t
        pc = random_interior_world(k, rng).theta_c
        tiles_t = np.tile(pt, (pb.n, 1))
        tiles_c = np.tile(pc, (pb.n, 1))
        for family in ("ipcw-bs", "ipcw-bll"):
            xi_t, xi_c = population_gradients(world, pt, pc, family)
            _, coef_t = per_horizon_loss(LossSpec(family, "failure"), tiles_t, tiles_c, pb)
            _, coef_c = per_horizon_loss(LossSpec(family, "censor"), tiles_c, tiles_t, pb)
            np.testing.assert_allclose(coef_t, xi_t, rtol=1e-11, atol=1e-13)
            np.testing.assert_allclose(coef_c, xi_c, rtol=1e-11, atol=1e-13)


def test_population_gradients_zero_at_truth():
    # at the truth every survival ratio in the expectation table is 1.0, so
    # both families' gradients cancel exactly, not within roundoff
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(2, 7))
        world = random_interior_world(k, rng)
        for family in ("ipcw-bs", "ipcw-bll"):
            xi_t, xi_c = population_gradients(world, world.theta_t, world.theta_c, family)
            assert np.abs(xi_t).max() == 0.0
            assert np.abs(xi_c).max() == 0.0


def test_population_loss_contracts():
    pt, pc = TRUTH.theta_t, TRUTH.theta_c
    assert population_loss(TRUTH, pt, pc, 1, "ipcw-bs", "failure") == pytest.approx(0.21, abs=1e-15)
    assert population_loss(TRUTH, pt, pc, 1, "ipcw-bs", "censor") == pytest.approx(0.24, abs=1e-15)
    # a mistyped player is an error, not the censor player's value
    for player in ("censr", "Failure", None):
        with pytest.raises(ValueError, match="player"):
            population_loss(TRUTH, pt, pc, 1, "ipcw-bs", player)
    with pytest.raises(ValueError, match="family"):
        population_loss(TRUTH, pt, pc, 1, "ipcw-nll")
    with pytest.raises(ValueError, match="t must"):
        population_loss(TRUTH, pt, pc, 2)


def test_population_log_loss_needs_interior_models_at_every_horizon():
    world = MarginalWorld([0.2, 0.3, 0.5], [0.3, 0.3, 0.4])
    interior = world.theta_t
    # F_hat(1) = 0 or G_hat(2) = 1 refuses every query, also one whose own
    # cdf at t is interior: the log loss needs the whole table defined
    for pmf_t, pmf_c, t, player in (
        ([0.0, 0.5, 0.5], world.theta_c, 2, "failure"),
        ([0.0, 0.5, 0.5], world.theta_c, 1, "censor"),
        (interior, [0.5, 0.5, 0.0], 1, "censor"),
        (interior, [0.5, 0.5, 0.0], 1, "failure"),
    ):
        with pytest.raises(ValueError, match="interior"):
            population_loss(world, np.array(pmf_t), np.array(pmf_c), t, "ipcw-bll", player)
        with pytest.raises(ValueError, match="interior"):
            population_gradients(world, np.array(pmf_t), np.array(pmf_c), "ipcw-bll")
        # the Brier family stays defined there
        assert np.isfinite(
            population_loss(world, np.array(pmf_t), np.array(pmf_c), t, "ipcw-bs", player))


def _scalar_forms(world, x, y):
    """Reference: the four step-1 closed forms of a two-bin world at one
    point (x, y), evaluated scalar by scalar as written before they
    broadcast: (fbs, gbs, fbs_dx, gbs_dy)."""
    p = q = np.float64(0.0)  # step 1 has no prefix
    t, c = world.theta_t[0], world.theta_c[0]
    fbs = (1.0 - p - x) ** 2 * (p + t) + (p + x) ** 2 * (1.0 - p - t) * (1.0 - q - c) / (
        1.0 - q - y
    )
    gbs = (1.0 - q - y) ** 2 * (q + c * (1.0 - p - t) / (1.0 - p - x)) + (q + y) ** 2 * (
        1.0 - q - c
    ) * (1.0 - p - t) / (1.0 - p - x)
    fbs_dx = -2.0 * (1.0 - p - x) * (p + t) + 2.0 * (p + x) * (1.0 - p - t) * (
        1.0 - q - c
    ) / (1.0 - q - y)
    gbs_dy = -2.0 * (1.0 - q - y) * (q + c * (1.0 - p - t) / (1.0 - p - x)) + 2.0 * (
        q + y
    ) * (1.0 - q - c) * (1.0 - p - t) / (1.0 - p - x)
    return fbs, gbs, fbs_dx, gbs_dy


def test_array_closed_forms_equal_scalar_reference_bitwise():
    rng = np.random.default_rng(11)
    res = 24
    grid = (np.arange(res) + 0.5) / res
    for _ in range(20):
        world = random_interior_world(2, rng)
        ref = np.empty((4, res, res))
        for i, yv in enumerate(grid):
            for j, xv in enumerate(grid):
                ref[:, i, j] = _scalar_forms(world, xv, yv)
        x, y = grid[None, :], grid[:, None]
        for k, form in enumerate(
            (population_fbs, population_gbs, population_fbs_dx, population_gbs_dy)
        ):
            assert np.array_equal(form(world, 1, x, y), ref[k])
        field = gradient_field(world, res)
        assert np.array_equal(field.u, -ref[2]) and np.array_equal(field.v, -ref[3])
        scan = joint_objective_scan(world, res)
        assert np.array_equal(scan.values, ref[0] + ref[1])


def test_array_closed_forms_reject_one_infeasible_point():
    xs = np.array([0.1, 0.5, 1.0, 0.2])  # 1 - p - x = 0 at one point only
    ys = np.array([0.1, 1.0, 0.5, 0.2])  # 1 - q - y = 0 at one point only
    ok = np.full(4, 0.3)
    for form in (population_fbs, population_fbs_dx):
        with pytest.raises(ValueError, match="censor survival"):
            form(TRUTH, 1, ok, ys)
    for form in (population_gbs, population_gbs_dy):
        with pytest.raises(ValueError, match="failure survival"):
            form(TRUTH, 1, xs, ok)


def test_grid_resolution_and_start_count_contracts():
    with pytest.raises(ValueError, match="resolution"):
        joint_objective_scan(TRUTH, 0)
    with pytest.raises(ValueError, match="resolution"):
        gradient_field(TRUTH, 1)
    with pytest.raises(ValueError, match="n_starts"):
        stationary_scan(TRUTH, n_starts=0)


@settings(max_examples=30)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_scan_jacobian_matches_central_differences(k, seed):
    # step 1e-6: truncation error ~1e-12 times the third derivative and
    # roundoff ~1e-16 * |residual| / 1e-6 both sit far below the tolerance
    rng = np.random.default_rng(seed)
    world = random_interior_world(k, rng)
    z = np.clip(rng.normal(0.0, 1.5, 2 * (k - 1)), -3.0, 3.0)
    jac = gamesurv.oracle._scan_jacobian(z, world)
    h = 1e-6
    fd = np.empty_like(jac)
    for i in range(z.size):
        step = np.zeros_like(z)
        step[i] = h
        hi = gamesurv.oracle._scan_residual(z + step, world)
        lo = gamesurv.oracle._scan_residual(z - step, world)
        fd[:, i] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6)


def _reference_scan(zvec, world):
    """The scan's residual and Jacobian written player by player, with the
    cdf Jacobian's (player, other) loop: the arithmetic that the stacked
    stick-breaking pass and the vectorised Jacobian reproduce bit for bit."""
    m = world.n_bins - 1
    z = np.clip(zvec, -30.0, 30.0)
    pmfs = []
    for zs in (z[:m], z[m:]):
        fracs = expit(zs)
        rem = np.cumprod(np.concatenate([[1.0], 1.0 - fracs]))
        pmfs.append(np.concatenate([rem[:-1] * fracs, rem[-1:]]))
    resid = np.concatenate(population_gradients(world, pmfs[0], pmfs[1], "ipcw-bs"))
    hat = np.array([np.concatenate([[0.0], np.cumsum(pmf)]) for pmf in pmfs])
    pad = np.array([np.concatenate([[0.0], np.cumsum(w)]) for w in (world.theta_t, world.theta_c)])
    own = hat[:, 1 : m + 1]
    surv = 1.0 - own
    w1, w2 = gamesurv.oracle._ratio_sums(world, hat)
    event = np.array([world.theta_t[1:], world.theta_c[:m]])
    d_w1 = event * (1.0 - pad[::-1, 1 : m + 1]) / surv[::-1] ** 2
    d_cdf = np.zeros((2, m, 2, m))
    diag = np.arange(m)
    for r, o in ((0, 1), (1, 0)):
        d_cdf[r, :, o] = np.tril(-2.0 * surv[r, :, None] * d_w1[r], k=r - 1)
        d_cdf[r, diag, o, diag] += 2.0 * own[r] * w2[r] / surv[o]
        d_cdf[r, diag, r, diag] = 2.0 * (w1[r] + w2[r])
    d_cdf = d_cdf.reshape(2 * m, 2 * m)
    cols = [(d_cdf[:, o * m : (o + 1) * m] * surv[o])[:, ::-1].cumsum(axis=1)[:, ::-1]
            * expit(z[o * m : (o + 1) * m]) for o in (0, 1)]
    jac = np.hstack(cols)
    jac[:, np.abs(zvec) > 30.0] = 0.0
    return resid, jac


def test_scan_residual_and_jacobian_equal_per_player_reference_bitwise():
    rng = np.random.default_rng(31)
    n_nan = 0
    with np.errstate(all="ignore"):  # points past the clip overflow on purpose
        for _ in range(40):
            k = int(rng.integers(2, 7))
            world = random_interior_world(k, rng)
            zs = rng.normal(0.0, 30.0, (10, 2 * (k - 1)))  # about a third past |z| = 30
            # the failure player's earlier bins at the clip: a survival
            # rounds to 0 and the residual is NaN inside the box
            zs[-1, : k - 2] = 30.0
            stacked = (gamesurv.oracle._scan_residual(zs, world),
                       gamesurv.oracle._scan_jacobian(zs, world))
            for i, z in enumerate(zs):
                resid, jac = _reference_scan(z, world)
                n_nan += np.isnan(resid).any()
                got = gamesurv.oracle._scan_residual(z, world)
                assert np.array_equal(got, resid, equal_nan=True)
                got = gamesurv.oracle._scan_jacobian(z, world)
                assert np.array_equal(got, jac, equal_nan=True)
                # row i of a stack of starts is the same bits as start i alone
                assert np.array_equal(stacked[0][i], resid, equal_nan=True)
                assert np.array_equal(stacked[1][i], jac, equal_nan=True)
    assert n_nan > 0


def test_scan_jacobian_zero_on_clipped_coordinates():
    world = random_interior_world(4, np.random.default_rng(12))
    z = np.array([0.3, 31.0, -0.5, -40.0, 0.2, 1.0])
    jac = gamesurv.oracle._scan_jacobian(z, world)
    assert np.all(jac[:, [1, 3]] == 0.0)
    assert np.all(np.any(jac[:, [0, 2, 4, 5]] != 0.0, axis=0))


@settings(max_examples=30)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_population_loss_matches_estimator_value(k, seed):
    # the oracle's per-horizon values, summed, against the estimator's loss
    # on the exact outcome batch: two independent code paths, one number
    rng = np.random.default_rng(seed)
    world = random_interior_world(k, rng)
    pt = random_interior_world(k, rng).theta_t
    pc = random_interior_world(k, rng).theta_c
    pb = population_batch(world)
    for family in ("ipcw-bs", "ipcw-bll"):
        for role, own, other in (("failure", pt, pc), ("censor", pc, pt)):
            value, _ = batch_loss(LossSpec(family, role), own, other, pb)
            expect = sum(population_loss(world, pt, pc, t, family, role) for t in range(1, k))
            assert value == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_gradient_field_frozen_grid():
    field = gradient_field(TRUTH, resolution=41)
    assert field.u.shape == (41, 41)
    norm = np.hypot(field.u, field.v)
    i, j = np.unravel_index(np.argmin(norm), norm.shape)
    # the quietest cell is the grid point nearest the truth (0.3, 0.4)
    assert field.x[j] == pytest.approx(12.5 / 41)
    assert field.y[i] == pytest.approx(16.5 / 41)
    rows = list(field.rows())
    assert len(rows) == 41 * 41
    assert rows[0][:2] == (field.x[0], field.y[0])
    with pytest.raises(ValueError, match="two-bin"):
        gradient_field(MarginalWorld([0.2, 0.3, 0.5], [0.4, 0.3, 0.3]))


def test_joint_scan_is_improper():
    scan = joint_objective_scan(TRUTH, resolution=201)
    assert scan.truth_value == pytest.approx(0.45, abs=1e-12)
    assert scan.min_value == pytest.approx(0.4288956978494213, abs=1e-12)
    assert scan.argmin_x == pytest.approx(0.17661691542288557, abs=1e-12)
    assert scan.argmin_y == pytest.approx(0.3805970149253731, abs=1e-12)
    assert scan.improper
    # minimizing the sum walks away from the truth by far more than one cell
    assert scan.truth_value - scan.min_value > 0.02
    assert abs(scan.argmin_x - 0.3) > 0.1


def test_stationary_scan_finds_only_truth():
    for k, seed in ((2, 0), (3, 1)):
        world = random_interior_world(k, np.random.default_rng(seed))
        scan = stationary_scan(world, n_starts=40, seed=seed)
        assert scan.n_converged > 0
        assert len(scan.roots) == 1
        assert scan.matches_truth
        assert scan.max_truth_deviation < 1e-8
        assert scan.induction_agrees
        assert np.all(scan.spurious_qy > 1.0)


def test_closed_form_induction_over_1000_worlds():
    # each step's quadratic in the censor survival has one root inside the
    # simplices, the truth, and one whose censoring cdf q + y is the
    # spurious root of the per-step system
    rng = np.random.default_rng(21)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        world = random_interior_world(k, rng)
        ind_t, ind_c = gamesurv.oracle._induction_root(world)
        assert np.abs(ind_t - world.theta_t).max() < 1e-12
        assert np.abs(ind_c - world.theta_c).max() < 1e-12
        for step in range(1, k):
            p, q = world.cdfs[:, step - 1]
            x, y = gamesurv.oracle._step_roots(world, step)
            inside = (x > 0) & (x < 1.0 - p) & (y > 0) & (y < 1.0 - q)
            assert inside.sum() == 1
            assert q + y[~inside][0] == pytest.approx(
                spurious_gbs_root_qy(world, step), rel=1e-12, abs=0.0)


def test_induction_needs_one_root_inside_the_simplices():
    # all censoring mass in bin 1 leaves the censor no survival past step 1
    with pytest.raises(RuntimeError, match="unique interior root"):
        stationary_scan(MarginalWorld([0.5, 0.5], [1.0, 0.0]), n_starts=1)


def test_stationary_scan_makes_one_batched_residual_call_per_iteration(monkeypatch):
    # the induction is closed-form, and the scan evaluates all live starts
    # in one residual call per iteration, plus one at the starts
    calls = []

    def counting(world, pmf_t, pmf_c, family="ipcw-bs"):
        calls.append(np.shape(pmf_t))
        return gradients(world, pmf_t, pmf_c, family)

    gradients = gamesurv.oracle.population_gradients
    monkeypatch.setattr(gamesurv.oracle, "population_gradients", counting)
    for k, n_starts in ((2, 3), (4, 25)):
        world = random_interior_world(k, np.random.default_rng(k))
        calls.clear()
        gamesurv.oracle._induction_root(world)
        assert calls == []
        assert stationary_scan(world, n_starts=n_starts, seed=k).induction_agrees
        assert 2 <= len(calls) <= gamesurv.oracle._LM_MAX_ITER + 1
        assert calls[0] == (n_starts, k)


def test_a_start_ends_on_the_same_bits_alone_as_in_a_batch():
    # no damping, step or stopping rule is shared between starts: the NaN
    # start of the residual, a start whose trial step lands on a NaN, and
    # one past the clip ride along with the drawn starts
    for k, seed in ((3, 5), (4, 0)):
        world = random_interior_world(k, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).dirichlet(np.ones(k), size=16)
        odd = np.zeros((3, 2 * (k - 1)))
        odd[0, : k - 2], odd[1, : k - 2], odd[2, 0] = 30.0, 16.0, -45.0
        z0 = np.vstack([gamesurv.oracle._z_from_theta(draws).reshape(8, -1), odd])
        z, converged = gamesurv.oracle._solve_starts(world, z0)
        assert converged.any() and not converged.all()
        for i in range(len(z0)):
            z_i, converged_i = gamesurv.oracle._solve_starts(world, z0[i : i + 1])
            assert np.array_equal(z_i[0], z[i])
            assert converged_i[0] == converged[i]


def test_solver_rejects_steps_onto_nan_residuals(monkeypatch):
    # |z| <= 30 keeps the masses positive but not every survival: the
    # residual is NaN at [30, 30, 0, ...], and from [16, 16, 0, ...] a trial
    # step lands on such a point; neither may warn or leave a NaN iterate
    world = random_interior_world(4, np.random.default_rng(0))
    nan_rows = []

    def residual(z, world):
        out = scan_residual(z, world)
        nan_rows.append(int(np.isnan(out).any(axis=-1).sum()))
        return out

    scan_residual = gamesurv.oracle._scan_residual
    monkeypatch.setattr(gamesurv.oracle, "_scan_residual", residual)
    for start in ([30.0, 30, 0, 0, 0, 0], [16.0, 16, 0, 0, 0, 0]):
        nan_rows.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, converged = gamesurv.oracle._solve_starts(world, np.array([start]))
        assert np.all(np.isfinite(z))
        with np.errstate(all="ignore"):
            resid = scan_residual(z[0], world)
        assert converged[0] == (np.abs(resid).max() < gamesurv.oracle._ROOT_TOL)
        assert not converged[0]
        # the NaN start never moves; the other rejects its NaN trial step
        # and ends where its residual is finite
        assert nan_rows[0] == (start[0] == 30.0)
        assert sum(nan_rows[1:]) == (start[0] == 16.0)
        assert np.isfinite(resid).all() == (start[0] == 16.0)


def test_certify_shaped_scans_converge_on_the_truth(monkeypatch):
    # the 40 worlds of the benchmark's certification sets at seeds 0..9:
    # every scan finds the truth alone, the converged share stays at least
    # the 626 of 1000 a per-start hybr solve reached, and every converged
    # start, not only the first of each root, sits within 1e-8 of the truth
    solved = []

    def keeping(world, z):
        out = solve(world, z)
        solved.append((world, *out))
        return out

    solve = gamesurv.oracle._solve_starts
    monkeypatch.setattr(gamesurv.oracle, "_solve_starts", keeping)
    n_converged = 0
    for s in range(10):
        rng = np.random.default_rng(s)
        for i, world in enumerate([random_interior_world(4, rng) for _ in range(4)]):
            scan = stationary_scan(world, n_starts=25, seed=[s, i])
            assert scan.matches_truth and scan.induction_agrees
            n_converged += scan.n_converged
    assert n_converged >= 626
    for world, z, converged in solved:
        pmfs = gamesurv.oracle._pmfs_from_z(z[converged])[0]
        assert np.abs(pmfs - np.array([world.theta_t, world.theta_c])).max() < 1e-8


# seeded scans: (K, world seed, n_starts, scan seed, n_converged, root as
# float.hex). The residual and its Jacobian keep their bits through any
# refactor, so the solver walks the same path and every figure here stays
# put. The per-start hybr solve that the batched Levenberg-Marquardt loop
# replaced converged on 12, 9, 11 and 18 of these starts.
PINNED_SCANS = [
    (2, 0, 12, 0, 12, (("0x1.99ac27ed0d764p-2", "0x1.3329ec097944ep-1"),
                       ("0x1.cb5e4d9c379a9p-1", "0x1.a50d931e432b8p-4"))),
    (3, 1, 12, 1, 12, (("0x1.453b48ba14a84p-3", "0x1.75f6ec6e94c50p-5", "0x1.9751bf0a9189ap-1"),
                       ("0x1.48e9a7c8d7077p-3", "0x1.9e34a30053d6ep-5", "0x1.93e24bddc500bp-1"))),
    (4, 2, 12, 2, 12, (("0x1.52e18686daa8bp-4", "0x1.1d76c5eab716fp-3",
                        "0x1.4efd34d2c1d5fp-2", "0x1.cd8f06962bf47p-2"),
                       ("0x1.a190d01a7c066p-2", "0x1.cd25ccc308d91p-2",
                        "0x1.54ea129bd48f4p-4", "0x1.e076f3dc2fe5cp-5"))),
    # the first world of the benchmark's certification set at seed 0
    (4, 0, 25, (0, 0), 24, (("0x1.3849e7260e57ep-3", "0x1.ce73290948142p-2",
                             "0x1.7e38735504de7p-3", "0x1.ac9753725ca14p-3"),
                            ("0x1.301b4bc683a81p-1", "0x1.116c09a2e974fp-4",
                             "0x1.da661010816d3p-5", "0x1.2021a4082e24fp-2"))),
]


@pytest.mark.parametrize("k, world_seed, n_starts, seed, n_converged, root", PINNED_SCANS)
def test_stationary_scan_is_pinned_bit_for_bit(k, world_seed, n_starts, seed, n_converged, root):
    world = random_interior_world(k, np.random.default_rng(world_seed))
    scan = stationary_scan(world, n_starts=n_starts, seed=seed)
    assert scan.n_converged == n_converged
    assert len(scan.roots) == 1
    assert tuple(tuple(float(v).hex() for v in pmf) for pmf in scan.roots[0]) == root


def test_population_failure_nll_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        world = random_interior_world(k, rng)
        model = random_interior_world(k, rng).theta_t
        pb = population_batch(world)
        per_row = nll(np.tile(model, (pb.n, 1)), pb.time_bin, pb.event)
        expect = per_row @ pb.norm_weight()
        assert population_failure_nll(world, model) == pytest.approx(expect, rel=1e-12)


def test_nll_censoring_dependence_line():
    # the failure model and the failure marginal never change; only the
    # censoring pattern does, yet the population NLL scales as (1 - rho)
    base = nll_censoring_dependence(0.0)
    assert base == pytest.approx(np.log(3.0), abs=1e-15)
    for rho in (0.0, 0.25, 0.5, 1.0):
        assert nll_censoring_dependence(rho) == pytest.approx((1.0 - rho) * np.log(3.0), abs=1e-15)
    # exact halving, not approximate
    assert nll_censoring_dependence(0.5) == base / 2.0
    assert nll_censoring_dependence(1.0) == 0.0


def test_package_import_leaves_out_scipy_optimize():
    # the scan solves with numpy alone; scipy.optimize costs about a third
    # of a second to import
    code = ("import sys, gamesurv, gamesurv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    src = str(Path(gamesurv.oracle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_oracle_never_imports_losses():
    # the oracle sits on the other side of a cross-check from the training
    # path, so it must not reach the estimator code in any import form
    forbidden = {"gamesurv.losses", ".losses", "losses"}
    tree = ast.parse(Path(gamesurv.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # "from . import losses" has base "."
            base = "." * node.level + (node.module or "")
            names = {base} | {f"{base.rstrip('.')}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Constant):  # importlib.import_module("gamesurv.losses")
            names = {node.value}
        else:
            continue
        assert not names & forbidden, f"oracle imports losses at line {node.lineno}"


def _reads(tree):
    """(names, line) of each import from a module and each attribute read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield {alias.name for alias in node.names}, node.lineno
        elif isinstance(node, ast.Attribute):
            yield {node.attr}, node.lineno


def _top_level_calls(tree):
    """(top-level name, function, called name) of each call by plain name or
    attribute in ``tree``'s top-level functions and class methods."""
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    yield getattr(top, "name", ""), getattr(fn, "name", ""), name


def test_only_losses_reaches_the_scoring_chain():
    # every score goes through losses._cells, so the chain's parts stay
    # private to losses: no other module imports them or reads them by
    # name, except that metrics reads the likelihood kernel
    chain = {"_ipcw_weights", "_scores", "_likelihood"}
    package = Path(gamesurv.oracle.__file__).parent
    sites = []  # (module, top-level name, function, part) of each call to a part
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        allowed = {"losses.py": chain, "metrics.py": {"_likelihood"}}.get(path.name, set())
        for names, line in _reads(tree):
            reached = names & chain - allowed
            assert not reached, f"{path.name} reaches {reached} at line {line}"
        sites += [(path.stem, top, fn, name) for top, fn, name in _top_level_calls(tree)
                  if name in allowed]
    # the weights, the scores and the likelihood each run at one call site,
    # in _cells, and the likelihood at one more: the block reduce that reads
    # an evaluation cohort's observed labels
    assert sorted(sites) == [
        ("losses", "_cells", "_cells", "_ipcw_weights"),
        ("losses", "_cells", "_cells", "_likelihood"),
        ("losses", "_cells", "_cells", "_scores"),
        ("metrics", "_Cohort", "_entries_of", "_likelihood"),
    ]


def test_label_plans_are_built_from_a_dataset_in_losses_alone():
    # labels are checked once, by Dataset: a label plan is built from a
    # dataset by the memo (_plan_of) and by ipcw_mean, whose horizon K no
    # LossSpec admits, and the builder runs none of core's rules; no other
    # module imports the builder or the role flags, or reads them by name
    private = {"label_plan", "_role_flags"}
    package = Path(gamesurv.oracle.__file__).parent
    builders = []
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for names, line in _reads(tree) if path.name != "losses.py" else ():
            assert not names & private, f"{path.name} reaches {names & private} at line {line}"
        builders += [(path.stem, top, fn) for top, fn, name in _top_level_calls(tree)
                     if name == "label_plan"]
    assert sorted(builders) == [("losses", "_plan_of", "_plan_of"),
                                ("losses", "ipcw_mean", "ipcw_mean")]
    losses_tree = ast.parse((package / "losses.py").read_text())
    rules = {name for name in dir(gamesurv.core) if name[0] == "_" != name[1]
             and callable(getattr(gamesurv.core, name))}
    called = {name for top, _, name in _top_level_calls(losses_tree) if top == "label_plan"}
    assert "_labels" in rules and not called & rules
