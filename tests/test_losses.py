"""Inverse-weighted losses: hand values, identities, and clamping."""

import re
from unittest.mock import patch

import numpy as np
import pytest
from conftest import labelled
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesurv import core, losses, metrics
from gamesurv.core import Dataset
from gamesurv.losses import (
    ROLES,
    ClampStats,
    LossSpec,
    batch_loss,
    ipcw_bll_failure,
    ipcw_bs_failure,
    ipcw_mean,
    ipcw_per_sample,
    ipcw_weight_arrays,
    label_plan,
    nll,
    per_horizon_loss,
    resolve_times,
)
from gamesurv.metrics import eval_bll, eval_bs
from gamesurv.simgen import MarginalWorld, gen_marginal, population_batch

TRUTH = MarginalWorld([0.3, 0.7], [0.4, 0.6])


def test_resolve_times():
    np.testing.assert_array_equal(resolve_times("all", 4), [1, 2, 3])
    # explicit tuples come back sorted
    np.testing.assert_array_equal(resolve_times((2, 1), 4), [1, 2])
    with pytest.raises(ValueError):
        resolve_times((0,), 4)
    with pytest.raises(ValueError):
        resolve_times((4,), 4)
    with pytest.raises(ValueError, match="times"):
        resolve_times("all", 1)


def test_one_bin_pmfs_fail_naming_times():
    # a one-bin pmf has no horizon in 1..K-1, so the loss has nothing to score
    for family in ("ipcw-bs", "ipcw-bll"):
        with pytest.raises(ValueError, match="times"):
            batch_loss(LossSpec(family, "failure"), [1.0], [1.0], labelled([1], [True], 1))


def test_weight_arrays_left_limit_asymmetry():
    # one subject with U=2 on K=3 bins. The failure player's event branch
    # divides by Gbar(U-) = P(C >= U); the censor player's event branch
    # divides by Fbar(U) = P(T > U), no left limit. That off-by-one in the
    # survival index is the entire difference between the two roles. Each
    # cell takes one branch: survival at t = 1 < U, event at t = 2 = U.
    g = np.array([0.2, 0.3, 0.5])
    f = np.array([0.1, 0.6, 0.3])
    ts = np.array([1, 2])
    w_f = ipcw_weight_arrays("failure", g, np.array([2]), np.array([True]), ts)
    # survival branch Gbar(1) = 0.8, event branch Gbar(2-) = 1 - 0.2
    np.testing.assert_allclose(w_f, [[1.0 / 0.8, 1.0 / 0.8]])
    w_c = ipcw_weight_arrays("censor", f, np.array([2]), np.array([False]), ts)
    # survival branch Fbar(1) = 0.9, event branch Fbar(2) = 1 - 0.7
    np.testing.assert_allclose(w_c, [[1.0 / 0.9, 1.0 / 0.3]])


def test_population_hand_values():
    # two-bin world (0.3, 0.4): at truth the single-horizon Brier values are
    # fbs = 0.7^2*0.3 + 0.3^2*0.7 = 0.21 and gbs = 0.6^2*0.4 + 0.4^2*0.6 = 0.24
    pb = population_batch(TRUTH)
    pair = np.tile(TRUTH.pmfs[:, None], (1, pb.n, 1))  # rows (failure, censor)
    (lf, lg), _ = batch_loss(LossSpec("ipcw-bs", ROLES), pair, pair[::-1], pb)
    assert lf == pytest.approx(0.21, abs=5e-16)
    assert lg == pytest.approx(0.24, abs=5e-16)
    assert lf + lg == pytest.approx(0.45, abs=1e-15)


def test_population_gradient_zero_at_truth():
    # the enumerated batch makes the weight ratios cancel exactly in IEEE
    pb = population_batch(TRUTH)
    for role, own, frozen in (("failure", TRUTH.theta_t, TRUTH.theta_c),
                              ("censor", TRUTH.theta_c, TRUTH.theta_t)):
        spec = LossSpec("ipcw-bs", role)
        n = pb.n
        _, coefs = per_horizon_loss(spec, np.tile(own, (n, 1)), np.tile(frozen, (n, 1)), pb)
        assert coefs.shape == (1,)
        assert abs(coefs[0]) < 5e-16


def test_per_horizon_matches_named_wrappers():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(3, 40))
        f = rng.dirichlet(np.ones(k), size=n)
        g = rng.dirichlet(np.ones(k), size=n)
        u = rng.integers(1, k + 1, size=n)
        ev = rng.random(n) < 0.6
        t = int(rng.integers(1, k))
        w = np.full(n, 1.0 / n)
        np.testing.assert_array_equal(
            ipcw_bs_failure(t, f, g, u, ev),
            ipcw_per_sample("ipcw-bs", "failure", t, f, g, u, ev),
        )
        np.testing.assert_array_equal(
            ipcw_bll_failure(t, f, g, u, ev),
            ipcw_per_sample("ipcw-bll", "failure", t, f, g, u, ev),
        )
        cases = [
            (family, role, own, frz)
            for family in ("ipcw-bs", "ipcw-bll")
            for role, own, frz in (("failure", f, g), ("censor", g, f))
        ]
        for family, role, own, frz in cases:
            per_sample = ipcw_per_sample(family, role, t, own, frz, u, ev)
            assert per_sample.shape == (n,)
            spec = LossSpec(family, role, times=(t,))
            vals, _ = per_horizon_loss(spec, own, frz, labelled(u, ev, k))
            np.testing.assert_allclose(vals[0], per_sample @ w, rtol=1e-13)


def test_batch_loss_sums_horizons():
    rng = np.random.default_rng(33)
    k, n = 5, 30
    f = rng.dirichlet(np.ones(k), size=n)
    g = rng.dirichlet(np.ones(k), size=n)
    b = labelled(rng.integers(1, k + 1, size=n), rng.random(n) < 0.5, k)
    spec_all = LossSpec("ipcw-bs", "failure")
    total, _ = batch_loss(spec_all, f, g, b)
    vals, _ = per_horizon_loss(spec_all, f, g, b)
    assert total == pytest.approx(vals.sum(), rel=1e-14)
    # single-horizon summed game equals that horizon alone
    spec_1 = LossSpec("ipcw-bs", "failure", times=(2,))
    single, _ = batch_loss(spec_1, f, g, b)
    assert single == pytest.approx(vals[1], rel=1e-14)


def test_censoring_free_reduces_to_plain_scores():
    # with no censored rows and Ghat == point mass at K, every weight is 1
    rng = np.random.default_rng(55)
    k, n = 4, 200
    f = rng.dirichlet(np.ones(k), size=n)
    u = rng.integers(1, k + 1, size=n)
    ev = np.ones(n, bool)
    g_free = np.zeros(k)
    g_free[-1] = 1.0
    cdf = np.cumsum(f, axis=1)
    for t in range(1, k):
        ind = (u <= t).astype(float)
        plain_bs = (ind - cdf[:, t - 1]) ** 2
        np.testing.assert_array_equal(ipcw_bs_failure(t, f, g_free, u, ev), plain_bs)
        # log(1 - cdf) and log1p(-cdf) differ in the last bits
        plain_bll = -ind * np.log(cdf[:, t - 1]) - (1 - ind) * np.log1p(-cdf[:, t - 1])
        np.testing.assert_allclose(ipcw_bll_failure(t, f, g_free, u, ev), plain_bll,
                                   rtol=1e-12, atol=1e-15)


def test_ipcw_mean_population_example():
    # T and C independent uniform on {1, 2}: outcomes (U, delta) are
    # (1,1) w.p. 1/2, (1,0) w.p. 1/4, (2,1) w.p. 1/4 (equal-weight rows
    # double the (1,1) row). Weighted T/Gbar(U-) contributions 1,1,0,4
    # average to 1.5 = E[T], recovered exactly.
    time_bin = np.array([1, 1, 1, 2])
    event = np.array([True, True, False, True])
    g = np.array([0.5, 0.5])
    assert ipcw_mean(time_bin, event, g) == 1.5


def test_ipcw_mean_monte_carlo_unbiased():
    w = MarginalWorld([0.25, 0.45, 0.3], [0.5, 0.25, 0.25])
    e_t = np.dot(np.arange(1, 4), w.theta_t)
    rng = np.random.default_rng(17)
    pad_c = np.concatenate([[0.0], np.cumsum(w.theta_c)])
    n = 100_000
    t = rng.choice([1, 2, 3], p=w.theta_t, size=n)
    c = rng.choice([1, 2, 3], p=w.theta_c, size=n)
    u = np.minimum(t, c)
    ev = t <= c
    est = ipcw_mean(u, ev, w.theta_c)
    contrib = np.where(ev, u / (1.0 - pad_c[u - 1]), 0.0)
    se = contrib.std(ddof=1) / np.sqrt(n)
    assert abs(est - e_t) < 3 * se


def test_weight_floor_clamps_and_counts():
    # a frozen model with zero survival at the horizon sends the branch
    # weight to 1/floor; the clamp counter sees exactly the rows that hit it
    g_early = np.array([1.0, 0.0])  # Gbar(1) = 0
    u = np.array([2, 1])
    ev = np.array([True, True])
    stats = ClampStats()
    w = ipcw_weight_arrays("failure", g_early, u, ev, np.array([1]),
                           weight_floor=1e-6, stats=stats)
    # row 0 survives past t=1 and divides by Gbar(1); row 1 is an event at
    # t=1 and divides by Gbar(1-) = 1, untouched
    assert w[0, 0] == pytest.approx(1e6)
    assert w[1, 0] == 1.0
    assert stats.count == 1


def test_labels_outside_the_bins_fail_naming_time_bin():
    # bin 0 would read the last column of the tables and bin K + 1 past it;
    # every entry point refuses both instead of scoring another column
    f, g = np.array([0.1, 0.6, 0.3]), np.array([0.2, 0.3, 0.5])
    for bad in (0, 4):
        u, ev = np.array([bad, 1]), np.array([True, False])
        calls = [
            lambda: ipcw_bs_failure(1, f, g, u, ev),
            lambda: ipcw_bll_failure(1, f, g, u, ev),
            lambda: ipcw_mean(u, ev, g),
        ]
        for role in ROLES:
            calls += [
                lambda role=role: nll(f, u, ev, role=role),
                lambda role=role: ipcw_weight_arrays(role, g, u, ev, np.array([1, 2])),
                lambda role=role: ipcw_per_sample("ipcw-bs", role, 2, f, g, u, ev),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="time_bin"):
                call()
        # a batch is a dataset on K bins, which refuses both itself
        with pytest.raises(ValueError, match="time_bin"):
            labelled(u, ev, 3)


def test_nll_hand_values_and_decoupling():
    g = np.array([0.2, 0.3, 0.5])
    f = np.array([0.1, 0.6, 0.3])
    u = np.array([2, 2])
    ev = np.array([True, False])
    np.testing.assert_allclose(nll(f, u, ev), [-np.log(0.6), -np.log(0.3)], rtol=1e-15)
    # censor role swaps the branches and keeps the left limit on events
    np.testing.assert_allclose(nll(g, u, ev, role="censor"),
                               [-np.log(0.8), -np.log(0.3)], rtol=1e-15)


def test_nll_terminal_censored_clamps():
    f = np.array([0.3, 0.7])
    stats = ClampStats()
    v = nll(f, np.array([2]), np.array([False]), weight_floor=1e-6, stats=stats)
    assert v[0] == pytest.approx(-np.log(1e-6))
    assert stats.count == 1
    # clamped terms are flat in the pmf: a point mass (row 0) and a tail
    # (row 1) below the floor give no gradient, an unclamped point mass does
    batch = labelled(np.array([1, 2, 2]), np.array([True, False, True]), 2)
    _, dpmf = batch_loss(LossSpec("nll", "failure", weight_floor=0.5), f, None, batch, stats)
    assert np.array_equal(dpmf, [[0.0, 0.0], [0.0, 0.0], [0.0, -(1 / 3) / 0.7]])
    assert stats.count == 3


def test_bll_needs_interior_cdf_values():
    # log loss at a horizon where the model puts zero mass below clamps too
    f = np.array([0.0, 1.0])
    v = ipcw_bll_failure(1, f, np.array([0.5, 0.5]), np.array([1]), np.array([True]))
    assert np.isfinite(v[0])


def _floored_pmfs(rng, shape, floor):
    """Dirichlet pmfs with about a quarter of the masses pushed to or
    below ``floor``, so weight and log clamps fire."""
    pmf = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    low = (rng.random(shape) < 0.25) & (pmf < pmf.max(axis=-1, keepdims=True))
    pmf[low] = floor * rng.choice([0.0, 0.5, 1.0])
    return pmf / pmf.sum(axis=-1, keepdims=True)


@settings(max_examples=60)
@given(
    family=st.sampled_from(["nll", "ipcw-bs", "ipcw-bll"]),
    roles=st.lists(st.sampled_from(ROLES), min_size=1, max_size=3).map(tuple),
    per_row=st.booleans(),
    weighted=st.booleans(),
    n_bins=st.integers(2, 5),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_role_stack_equals_single_role_calls(family, roles, per_row, weighted, n_bins, n, seed):
    # one tuple-role call is, bit for bit, the single-role calls stacked:
    # values, gradients and clamp counts
    rng = np.random.default_rng(seed)
    floor = 0.02
    shape = (len(roles), n, n_bins) if per_row else (len(roles), n_bins)
    own, frozen = _floored_pmfs(rng, shape, floor), _floored_pmfs(rng, shape, floor)
    weight = rng.random(n) + 0.1 if weighted else None
    batch = labelled(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, n_bins,
                     weight=weight)
    spec = LossSpec(family, roles, weight_floor=floor)
    stats = ClampStats()
    values, dpmf = batch_loss(spec, own, frozen, batch, stats)
    assert values.shape == (len(roles),) and dpmf.shape == (len(roles), n, n_bins)
    single_stats = ClampStats()
    for r, role in enumerate(roles):
        one = LossSpec(family, role, weight_floor=floor)
        value, grad = batch_loss(one, own[r], frozen[r], batch, single_stats)
        assert type(value) is float and value == values[r]
        np.testing.assert_array_equal(grad, dpmf[r])
    assert stats.count == single_stats.count

    if family == "nll":
        return
    stats, single_stats = ClampStats(), ClampStats()
    values, coefs = per_horizon_loss(spec, own, frozen, batch, stats)
    assert values.shape == coefs.shape == (len(roles), n_bins - 1)
    for r, role in enumerate(roles):
        one = LossSpec(family, role, weight_floor=floor)
        value, coef = per_horizon_loss(one, own[r], frozen[r], batch, single_stats)
        np.testing.assert_array_equal(value, values[r])
        np.testing.assert_array_equal(coef, coefs[r])
    assert stats.count == single_stats.count


@settings(max_examples=30)
@given(
    family=st.sampled_from(["nll", "ipcw-bs", "ipcw-bll"]),
    n_bins=st.integers(2, 5),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_loss_gradient_matches_finite_differences(family, n_bins, n, seed):
    # both roles in one stacked call, pmfs softmax(z) per row; the chain
    # through the softmax removes the constant-vector freedom a pmf
    # gradient has off the simplex
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, n, n_bins))
    frozen = rng.dirichlet(np.full(n_bins, 2.0), size=(2, n))
    batch = labelled(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, n_bins,
                     weight=rng.random(n) + 0.1)
    spec = LossSpec(family, ROLES)

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    pmf = softmax(z)
    _, dpmf = batch_loss(spec, pmf, frozen, batch)
    grad = pmf * (dpmf - (dpmf * pmf).sum(axis=-1, keepdims=True))
    h = 1e-6
    fd = np.empty_like(z)
    for idx in np.ndindex(z.shape):
        up, dn = z.copy(), z.copy()
        up[idx] += h
        dn[idx] -= h
        diff = batch_loss(spec, softmax(up), frozen, batch)[0] - batch_loss(
            spec, softmax(dn), frozen, batch
        )[0]
        fd[idx] = diff[idx[0]] / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_role_spec_validation():
    with pytest.raises(ValueError, match="role"):
        LossSpec("ipcw-bs", ())
    with pytest.raises(ValueError, match="role"):
        LossSpec("ipcw-bs", ("failure", "other"))
    # the raw-role helpers reject a typo instead of scoring the other player
    u, ev, pmf = np.array([1, 2]), np.array([True, False]), np.array([0.4, 0.6])
    with pytest.raises(ValueError, match="role"):
        nll(pmf, u, ev, role="censr")
    with pytest.raises(ValueError, match="role"):
        ipcw_weight_arrays("Failure", pmf, u, ev, np.array([1]))
    # a role tuple belongs to batch_loss; a single-role helper would score
    # only its first role
    pair = np.array([pmf, pmf[::-1]])
    for call in (lambda: nll(pair, u, ev, role=ROLES),
                 lambda: ipcw_per_sample("ipcw-bs", ROLES, 1, pair, pair, u, ev)):
        with pytest.raises(ValueError, match="role must be one of"):
            call()
    with pytest.raises(ValueError, match="roles"):
        batch_loss(LossSpec("ipcw-bs", ROLES), np.full((3, 2), 0.5), np.full((3, 2), 0.5),
                   labelled(np.array([1]), np.array([True]), 2))


@settings(max_examples=60)
@given(
    family=st.sampled_from(["ipcw-bs", "ipcw-bll"]),
    roles=st.sampled_from(["failure", "censor", ROLES, ("censor", "failure", "censor")]),
    all_times=st.booleans(),
    weighted=st.booleans(),
    n_bins=st.integers(2, 20),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_reused_label_plan_equals_a_fresh_batch(family, roles, all_times, weighted, n_bins, n,
                                                seed):
    # a batch builds its label plan on the first call; every later call on
    # it equals, bit for bit, the same call on a fresh equal batch: values,
    # gradients and clamp counts, with other horizons and roles interleaved
    rng = np.random.default_rng(seed)
    floor = 0.02
    labels = (rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5,
              rng.random(n) + 0.1 if weighted else None)
    batch = labelled(*labels[:2], n_bins, weight=labels[2])
    subset = rng.choice(np.arange(1, n_bins), size=rng.integers(1, n_bins), replace=False)
    horizons = "all" if all_times else tuple(subset.tolist())
    other_role = {"failure": "censor", "censor": "failure"}.get(roles, "failure")
    specs = [
        LossSpec(family, roles, horizons, floor),
        LossSpec(family, other_role, horizons, floor),
        LossSpec(family, roles, "all" if horizons != "all" else (1,), floor),
    ]
    for _ in range(2):
        for spec in specs:
            lead = (len(spec.role),) if isinstance(spec.role, tuple) else ()
            own, frozen = (_floored_pmfs(rng, (*lead, n, n_bins), floor) for _ in range(2))
            for kernel in (batch_loss, per_horizon_loss):
                reused, fresh = ClampStats(), ClampStats()
                got = kernel(spec, own, frozen, batch, reused)
                want = kernel(spec, own, frozen, labelled(*labels[:2], n_bins, weight=labels[2]),
                              fresh)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                assert reused.count == fresh.count
    # horizon sets that resolve alike may share; other horizons or roles never do
    distinct = {(tuple(resolve_times(s.times, n_bins)), s._flags.tobytes()) for s in specs}
    plans = list(batch._plans.values())
    assert len({id(p) for p in plans}) == len(plans) >= len(distinct)
    for (times, spec_roles), plan in batch._plans.items():
        np.testing.assert_array_equal(plan.le,
                                      batch.time_bin[:, None] <= resolve_times(times, n_bins))
        assert plan.evt_col.shape == (len(spec_roles), n)


def test_label_plan_indexes_contiguous_horizons_by_slices():
    u, ev, flags = np.array([1, 3, 2]), np.array([True, False, True]), np.array([[False]])
    surv = np.arange(3 * 5.0).reshape(3, 5)
    for times in (np.array([1, 2, 3]), np.array([2, 3]), np.array([1, 3])):
        plan = label_plan(labelled(u, ev, 4), times, flags)
        np.testing.assert_array_equal(surv[:, plan.surv_cols], surv[:, times])
        np.testing.assert_array_equal(surv[:, plan.cdf_cols], surv[:, times - 1])
        assert isinstance(plan.surv_cols, slice) == (times.size == times[-1] - times[0] + 1)


LABEL_RULES = ("_labels", "_events", "_finite", "_check_edges", "_row_weights", "_nonempty")


def _count_rules(monkeypatch) -> list:
    """The names of core's label and dataset rules as they are called, from
    now on; a module that imported a rule by name is patched too."""
    calls = []
    for rule in LABEL_RULES:
        real = getattr(core, rule)
        for module in (core, losses, metrics):
            if getattr(module, rule, None) is real:
                monkeypatch.setattr(module, rule,
                                    lambda *a, rule=rule, real=real: calls.append(rule) or real(*a))
    return calls


def test_a_label_plan_is_built_from_a_dataset_running_no_rule(monkeypatch):
    # labels are checked once, when the dataset is built; its plans, for
    # every family, horizon set and role, run no rule and weigh its rows
    ds = labelled([1, 3, 2, 3], [True, False, True, True], 3, weight=[1.0, 2.0, 0.0, 1.0])
    calls = _count_rules(monkeypatch)
    for spec in (LossSpec("nll", ROLES), LossSpec("ipcw-bs", "failure"),
                 LossSpec("ipcw-bll", "censor", (2,))):
        plan = losses._plan_of(spec, ds)
        assert plan.weight.tolist() == ds.norm_weight().tolist() == [0.25, 0.5, 0.0, 0.25]
    assert calls == []
    # raw labels become a dataset, so a per-sample loss runs the label rule once
    nll([0.2, 0.3, 0.5], [1, 3], [True, False])
    assert calls.count("_labels") == 1


def test_evaluate_and_the_losses_share_one_plan_per_dataset_and_spec(monkeypatch):
    # the scores under every weighting and the game losses read the failure
    # "all" plan, the likelihood entries and the nll loss the failure nll
    # plan, each built once on the dataset; the latent labels are a dataset
    # of their own, planned once per evaluate call under the latent weighting
    built, plan = [], losses.label_plan
    monkeypatch.setattr(losses, "label_plan", lambda *a: built.append(a[0]) or plan(*a))
    rng = np.random.default_rng(4)
    world = MarginalWorld(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
    ds = gen_marginal(world, 25, seed=3)
    f, g = (rng.dirichlet(np.ones(4), size=ds.n) for _ in range(2))
    for _ in range(2):
        for weighting in metrics.WEIGHTINGS:
            metrics.evaluate(f, ds, weighting, g, world)
        for family in ("ipcw-bs", "ipcw-bll", "nll"):
            batch_loss(LossSpec(family, "failure"), f, None if family == "nll" else g, ds)
    latent = [data for data in built if data is not ds]
    assert len(built) - len(latent) == 2 == len(latent) == len({id(data) for data in latent})
    assert set(ds._plans) == {("all", ("failure",)), ((), ("failure",))}
    for data in latent:
        assert data.event.all() and data.features.shape == (ds.n, 0)


def _materialized_weights(flags, surv, time_bin, event, times, floor):
    """The inverse weights built the materialized way, as full (R, n, T)
    arrays a (event branch) and b (survival branch) that hold exact zeros
    where the other branch applies, and their clamp count. ``surv``
    (R, m, K+1) has m = n rows or one shared row."""
    R, n = flags.shape[0], time_bin.size
    ind = event ^ flags
    le = time_bin[:, None] <= times
    rows = np.arange(n) if surv.shape[-2] > 1 else 0
    den_evt = surv[np.arange(R)[:, None], rows, time_bin - 1 + flags]
    den_surv = surv[..., times]
    clamps = np.count_nonzero((den_evt < floor) & ind & (time_bin <= times[-1]))
    clamps += np.count_nonzero((den_surv < floor) & ~le)
    a = (ind[..., None] & le) / np.maximum(den_evt, floor)[..., None]
    return a, ~le / np.maximum(den_surv, floor), clamps


def _materialized(family, flags, own, surv, time_bin, event, times, floor):
    """Per-(role, sample, horizon) values, cdf coefficients and the clamp
    count from the materialized weights: each cell sums both branches."""
    a, b, clamps = _materialized_weights(flags, surv, time_bin, event, times, floor)
    P = np.minimum(own.cumsum(axis=-1)[..., times - 1], 1.0)
    if family == "ipcw-bs":
        q = 1.0 - P
        vals = q * q * a + P * P * b
        coefs = 2.0 * (P * b - (1.0 - P) * a)
    else:
        Pc, Qc = np.maximum(P, floor), np.maximum(1.0 - P, floor)
        vals = -np.log(Pc) * a + -np.log(Qc) * b
        clamps += np.count_nonzero((P < floor) & (a > 0))
        clamps += np.count_nonzero((1.0 - P < floor) & (b > 0))
        coefs = np.where(1.0 - P < floor, 0.0, b / Qc) - np.where(P < floor, 0.0, a / Pc)
    # in C order, as the kernel's, so that sums over them add in the same order
    return np.ascontiguousarray(vals), np.ascontiguousarray(coefs), clamps


def _surv_table(pmf):
    return 1.0 - np.concatenate([np.zeros((*pmf.shape[:-1], 1)), pmf.cumsum(axis=-1)], axis=-1)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=80)
@given(
    family=st.sampled_from(["ipcw-bs", "ipcw-bll"]),
    roles=st.lists(st.sampled_from(ROLES), min_size=1, max_size=3).map(tuple),
    per_row=st.booleans(),
    weighted=st.booleans(),
    horizons=st.sampled_from(["all", "subset"]),
    n_bins=st.integers(2, 8),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_weights_equal_the_materialized_route(family, roles, per_row, weighted,
                                                       horizons, n_bins, n, seed):
    # the select over per-row and per-horizon factors gives, bit for bit,
    # the values, gradients, weight arrays and clamp counts of full (n, T)
    # weight arrays, with masses at the floor so that every clamp fires
    rng = np.random.default_rng(seed)
    floor = 0.02
    shape = (len(roles), n, n_bins) if per_row else (len(roles), n_bins)
    own, frozen = _floored_pmfs(rng, shape, floor), _floored_pmfs(rng, shape, floor)
    weight = rng.random(n) + 0.1 if weighted else None
    batch = labelled(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, n_bins,
                     weight=weight)
    times = np.arange(1, n_bins)
    if horizons == "subset":  # often not contiguous
        times = np.sort(rng.choice(times, size=rng.integers(1, n_bins), replace=False))
    spec = LossSpec(family, roles, tuple(times.tolist()), floor)
    flags = np.array([[role == "censor"] for role in roles])
    own_n = np.broadcast_to(own if per_row else own[:, None], (len(roles), n, n_bins))
    frozen_n = np.broadcast_to(frozen if per_row else frozen[:, None], own_n.shape)
    vals, coefs, clamps = _materialized(family, flags, own_n, _surv_table(frozen_n),
                                        batch.time_bin, batch.event, times, floor)
    w = batch.norm_weight()

    stats = ClampStats()
    values, dpmf = batch_loss(spec, own, frozen, batch, stats)
    want = np.zeros(own_n.shape)
    want[..., times - 1] = coefs * w[:, None]
    assert _same_bits(values, [float(w @ v) for v in vals.sum(axis=-1)])
    assert _same_bits(dpmf, want[..., ::-1].cumsum(axis=-1)[..., ::-1])
    assert stats.count == clamps

    stats = ClampStats()
    got_vals, got_coefs = per_horizon_loss(spec, own, frozen, batch, stats)
    assert _same_bits(got_vals, [w @ v for v in vals])
    assert _same_bits(got_coefs, [w @ c for c in coefs])
    assert stats.count == clamps

    # one role's weight array, the branch each cell takes, and its clamps
    a, b, weight_clamps = _materialized_weights(flags[:1], _surv_table(frozen_n[:1]),
                                                batch.time_bin, batch.event, times, floor)
    stats = ClampStats()
    got = ipcw_weight_arrays(roles[0], frozen[0], batch.time_bin, batch.event, times, floor,
                             stats)
    le = batch.time_bin[:, None] <= times
    assert _same_bits(got, np.where(le, a[0], b[0]))
    assert stats.count == weight_clamps


@settings(max_examples=40)
@given(
    n_bins=st.integers(2, 8),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_evaluation_equals_the_materialized_route(n_bins, n, seed):
    # eval_bs / eval_bll under all four weightings, shared (km, true-G,
    # latent) and per-row (model-G) censoring tables, bit for bit
    rng = np.random.default_rng(seed)
    floor = 0.02
    world = MarginalWorld(rng.dirichlet(np.ones(n_bins)), rng.dirichlet(np.ones(n_bins)))
    ds = gen_marginal(world, n, seed=int(rng.integers(1000)))
    f, g = (_floored_pmfs(rng, (n, n_bins), floor) for _ in range(2))
    times = np.arange(1, n_bins)
    for weighting in metrics.WEIGHTINGS:
        cohort = metrics._Cohort(f, ds, weighting, g, world, floor)
        gbar, labels = cohort.censoring()
        time_bin, event = labels.time_bin, labels.event
        if weighting == "model-G":  # the cohort hands over g, whose tables _cells builds per block
            gbar = losses._padded_surv(g)
        surv = gbar.reshape(1, -1, n_bins + 1)
        for family, score in (("ipcw-bs", metrics.eval_bs), ("ipcw-bll", metrics.eval_bll)):
            vals, _, _ = _materialized(family, np.array([[False]]), f[None], surv, time_bin,
                                       event, times, floor)
            got = score(f, ds, weighting, g, world, floor)
            assert _same_bits(got, vals[0].mean(axis=0))


@pytest.mark.parametrize("roles", ["failure", ROLES])
@pytest.mark.parametrize("family", ["ipcw-bs", "ipcw-bll"])
def test_game_losses_need_the_frozen_pmf(family, roles):
    # both game kernels check the missing pmf before reading it
    own = np.full((len(roles), 3), 1 / 3) if isinstance(roles, tuple) else np.full(3, 1 / 3)
    batch = labelled(np.array([1, 2, 3]), np.array([True, False, True]), 3)
    for kernel in (batch_loss, per_horizon_loss):
        with pytest.raises(ValueError, match="game losses need the other player's pmf"):
            kernel(LossSpec(family, roles), own, None, batch)


@settings(max_examples=60)
@given(
    families=st.sampled_from([("ipcw-bs",), ("ipcw-bll",), ("ipcw-bs", "ipcw-bll"), ("nll",)]),
    shared=st.booleans(),
    blocked=st.booleans(),
    n_stacks=st.integers(1, 3),
    roles=st.lists(st.sampled_from(ROLES), min_size=1, max_size=2).map(tuple),
    n_bins=st.integers(2, 5),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_cells_take_free_leading_axes(families, shared, blocked, n_stacks, roles, n_bins, n,
                                      seed):
    # an (E, R, n, K) own stack against per-stack (E, R, n, K+1) or shared
    # (1, R, 1, K+1) tables, or with no other side for the likelihood, in
    # one call, equals E separate calls bit for bit: weights, values,
    # coefficients or pmf gradients and clamp counts, with a NaN in one
    # frozen table reaching the same cells
    rng = np.random.default_rng(seed)
    floor = 0.25  # high, so that clamps fire
    likelihood = families == ("nll",)
    E, R = n_stacks, len(roles)
    own = _floored_pmfs(rng, (E, R, n, n_bins), 0.02)
    frozen = _floored_pmfs(rng, (1, R, 1, n_bins) if shared else (E, R, n, n_bins), 0.02)
    frozen[(0,) * frozen.ndim] = np.nan
    surv = losses._padded_surv(frozen)
    u = rng.integers(1, n_bins + 1, size=n)
    u[0] = n_bins  # row 0 reads Xbar(t) at every horizon, the NaN of the first table
    plan = label_plan(labelled(u, rng.random(n) < 0.5, n_bins), np.arange(1, n_bins),
                      losses._role_flags(roles))
    grad = len(families) == 1  # coefficients are written over the weights, so one family

    def cells(own, surv):
        stats = ClampStats()
        if own is not None and likelihood:
            surv = None
        out = losses._cells(plan, families if own is not None else (), own, surv, floor, stats,
                            grad)
        return out, stats.count

    with patch.object(core, "ROW_BLOCK", 3 if blocked else core.ROW_BLOCK):
        got, clamps = cells(own, surv)
        want = [cells(own[e], surv[0 if shared else e]) for e in range(E)]
        weights, weight_clamps = cells(None, surv)
        want_weights = [cells(None, table) for table in surv]
    assert len(got) == len(families) * (1 + grad)
    for i, g in enumerate(got):
        assert _same_bits(g, [out[i] for out, _ in want])
    assert clamps == sum(count for _, count in want)
    assert _same_bits(weights[0], [out[0] for out, _ in want_weights])
    assert weight_clamps == sum(count for _, count in want_weights)
    assert np.isnan(got[0][0, 0, 0]).all() != likelihood  # the likelihood reads no frozen table


@pytest.mark.parametrize("roles", ["failure", ROLES])
def test_the_likelihood_builds_no_inverse_weights(monkeypatch, roles):
    # the evaluate audit hands the frozen pmf to every family: the
    # likelihood gives the bits it gives without one, on row blocks, and
    # never reaches the weights
    calls = []
    weights = losses._ipcw_weights
    monkeypatch.setattr(losses, "_ipcw_weights", lambda *args: calls.append(1) or weights(*args))
    monkeypatch.setattr(core, "ROW_BLOCK", 7)
    rng = np.random.default_rng(5)
    n, n_bins = 40, 5
    lead = (len(roles),) if isinstance(roles, tuple) else ()
    own, frozen = (_floored_pmfs(rng, (*lead, n, n_bins), 0.02) for _ in range(2))
    batch = labelled(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, n_bins,
                     weight=rng.random(n) + 0.1)
    runs = []
    for side in (None, frozen):
        stats = ClampStats()
        runs.append([*batch_loss(LossSpec("nll", roles, weight_floor=0.25), own, side, batch,
                                 stats), stats.count])
    assert _same_bits(runs[0][0], runs[1][0]) and _same_bits(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2] > 0 and not calls
    batch_loss(LossSpec("ipcw-bs", roles), own, frozen, batch)  # the counter counts
    assert calls


def test_a_nan_in_the_frozen_pmf_reaches_the_value():
    # every row with U >= 2 reads Xbar(1) on its survival branch at t = 1,
    # so a NaN in the first bin of the frozen pmf must surface
    own = np.array([0.2, 0.3, 0.5])
    frozen = np.array([np.nan, 0.5, 0.5])
    batch = labelled(np.array([1, 2, 3]), np.array([True, False, True]), 3)
    for family in ("ipcw-bs", "ipcw-bll"):
        for role in ROLES:
            value, dpmf = batch_loss(LossSpec(family, role), own, frozen, batch)
            assert not np.isfinite(value)
            values, coefs = per_horizon_loss(LossSpec(family, role), own, frozen, batch)
            assert not np.isfinite(values[0]) and not np.isfinite(coefs[0])


def test_weight_arrays_take_one_checkpoint_at_a_time():
    # selection asks for one frozen checkpoint's weights per table row; a
    # stack of checkpoints fails with the pmf shape rule's message
    u, ev = np.array([1, 2, 3]), np.array([True, False, True])
    g = np.full((3, 3), 1 / 3)
    assert ipcw_weight_arrays("failure", g, u, ev, "all").shape == (3, 2)
    for stack in (np.stack([g, g]), np.stack([g[0], g[0]])[:, None]):
        with pytest.raises(ValueError, match=re.escape(
                f"frozen_pmf must be (K,) or (n, K) with n = 3 and K = 3, got shape {stack.shape}")):
            ipcw_weight_arrays("failure", stack, u, ev, "all")


@pytest.mark.parametrize("frozen_form", ["per-row", "marginal", "nan"])
@pytest.mark.parametrize("roles", ["failure", ROLES])
@pytest.mark.parametrize("family", ["nll", "ipcw-bs", "ipcw-bll"])
def test_row_blocks_give_the_unblocked_bits(monkeypatch, family, roles, frozen_form):
    # the kernels on 7-row blocks against one block of all rows: values,
    # gradients, per-horizon values and coefficients and clamp counts, with
    # weighted rows, masses at the floor so that clamps fire, and a NaN in
    # the frozen pmf that must reach exactly the same cells; then the
    # per-sample losses, two checkpoints' weight arrays, the IPCW mean
    # and the model-G metrics, on the last role's pmfs
    rng = np.random.default_rng(11)
    n, n_bins = 38, 5
    lead = (len(roles),) if isinstance(roles, tuple) else ()
    own = _floored_pmfs(rng, (*lead, n, n_bins), 0.02)
    frozen = _floored_pmfs(rng, (*lead, *(() if frozen_form == "marginal" else (n,)), n_bins),
                           0.02)
    frozen[..., 0] += 2.0  # survival past bin 1 below a third: weight clamps fire
    frozen /= frozen.sum(axis=-1, keepdims=True)
    if frozen_form == "nan":
        frozen[..., 4, 0] = np.nan
    batch = labelled(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, n_bins,
                     weight=rng.random(n) + 0.1)
    spec = LossSpec(family, roles, weight_floor=0.25)  # high, so that clamps fire
    role, f, g = (roles[-1], own[-1], frozen[-1]) if lead else (roles, own, frozen)
    u, ev = batch.time_bin, batch.event
    ds = Dataset(np.zeros((n, 1)), u, ev, np.arange(n_bins + 1.0))

    def run():
        stats = ClampStats()
        out = [*batch_loss(spec, own, frozen, batch, stats)]
        if family != "nll":
            out += per_horizon_loss(spec, own, frozen, batch, stats)
        if frozen_form == "nan":  # the per-sample paths run core's pmf rule
            return out, stats.count
        if family != "nll":
            out += [ipcw_per_sample(family, role, t, f, g, u, ev, 0.25, stats)
                    for t in range(1, n_bins)]
        out += [ipcw_weight_arrays(role, ckpt, u, ev, "all", 0.25, stats) for ckpt in (g, f)]
        out.append(ipcw_mean(u, ev, g, 0.25, stats))
        out += [score(f, ds, "model-G", g, floor=0.25) for score in (eval_bs, eval_bll)]
        return out, stats.count

    want, want_clamps = run()
    monkeypatch.setattr(core, "ROW_BLOCK", 7)  # 38 rows: 5 blocks, the last of 10 rows
    assert len(core._row_blocks(n)) == 5
    got, clamps = run()
    assert clamps == want_clamps > 0
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    if frozen_form == "nan" and family != "nll":
        assert np.isnan(got[0]).all()


BAD_FLOORS = (0.0, -1.0, 1.0, 2.0, float("nan"))


@pytest.mark.parametrize("floor", BAD_FLOORS)
def test_every_loss_entry_point_rejects_a_floor_outside_0_1(floor):
    # unchecked, a floor of 2 makes nll negative and a floor of 0 divides by zero
    u, ev, f, g = np.array([1, 2, 3]), np.array([True, False, True]), [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]
    calls = [
        lambda: nll(f, u, ev, weight_floor=floor),
        lambda: nll(f, u, ev, "censor", weight_floor=floor),
        lambda: ipcw_per_sample("ipcw-bll", "failure", 1, f, g, u, ev, floor),
        lambda: ipcw_weight_arrays("failure", g, u, ev, np.array([1, 2]), floor),
        lambda: ipcw_mean(u, ev, g, weight_floor=floor),
        lambda: batch_loss(LossSpec("nll", "failure", weight_floor=floor), f, None,
                           labelled(u, ev, 3)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weight_floor must lie in"):
            call()


@pytest.mark.parametrize("value", (0.0, -1.0, 1.0, 2.0, float("nan")))
def test_row_weights_follow_one_rule(value):
    # nonnegative, finite and with a positive sum; unchecked, zero weights
    # make every normalized weight NaN
    u, ev = np.array([1, 1, 2]), np.array([True, False, True])
    weight = np.full(3, value)
    if value > 0:
        assert np.array_equal(labelled(u, ev, 2, weight=weight).norm_weight(), np.full(3, 1 / 3))
        return
    with pytest.raises(ValueError, match="weight must be finite and nonnegative"):
        labelled(u, ev, 2, weight=weight)


def test_row_weights_need_one_entry_per_record():
    u, ev = np.array([1, 1, 2]), np.array([True, False, True])
    with pytest.raises(ValueError, match=r"weight must hold one entry per record, shape \(3,\)"):
        labelled(u, ev, 2, weight=[1.0, 1.0])
