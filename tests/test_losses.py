"""Inverse-weighted losses: hand values, identities, and clamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesurv import metrics
from gamesurv.core import Batch
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
            batch_loss(LossSpec(family, "failure"), [1.0], [1.0], Batch([1], [True]))


def test_weight_arrays_left_limit_asymmetry():
    # one subject with U=2 on K=3 bins. The failure player's event branch
    # divides by Gbar(U-) = P(C >= U); the censor player's event branch
    # divides by Fbar(U) = P(T > U), no left limit. That off-by-one in the
    # survival index is the entire difference between the two roles.
    g = np.array([0.2, 0.3, 0.5])
    f = np.array([0.1, 0.6, 0.3])
    ts = np.array([1, 2])
    a_f, b_f = ipcw_weight_arrays("failure", g, np.array([2]), np.array([True]), ts)
    np.testing.assert_allclose(a_f, [[0.0, 1.0 / 0.8]])   # Gbar(2-) = 1 - 0.2
    np.testing.assert_allclose(b_f, [[1.0 / 0.8, 0.0]])   # Gbar(1) = 0.8
    a_c, b_c = ipcw_weight_arrays("censor", f, np.array([2]), np.array([False]), ts)
    np.testing.assert_allclose(a_c, [[0.0, 1.0 / 0.3]])   # Fbar(2) = 1 - 0.7
    np.testing.assert_allclose(b_c, [[1.0 / 0.9, 0.0]])   # Fbar(1) = 0.9


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
            vals, _ = per_horizon_loss(spec, own, frz, Batch(u, ev))
            np.testing.assert_allclose(vals[0], per_sample @ w, rtol=1e-13)


def test_batch_loss_sums_horizons():
    rng = np.random.default_rng(33)
    k, n = 5, 30
    f = rng.dirichlet(np.ones(k), size=n)
    g = rng.dirichlet(np.ones(k), size=n)
    b = Batch(rng.integers(1, k + 1, size=n), rng.random(n) < 0.5)
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


def test_ipcw_mean_values_and_weights():
    time_bin = np.array([1, 1, 1, 2])
    event = np.array([True, True, False, True])
    g = np.array([0.5, 0.5])
    # substituting per-sample values reweights the same inverse weights
    vals = np.array([2.0, 9.0, 3.0, 9.0])
    assert ipcw_mean(time_bin, event, g, values=vals) == pytest.approx((2 + 9 + 0 + 9 / 0.5) / 4)
    # explicit weights replace the uniform average
    w = np.array([1.0, 1.0, 1.0, 0.0])
    assert ipcw_mean(time_bin, event, g, weight=w) == pytest.approx(2.0 / 3.0)


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
    a, b = ipcw_weight_arrays("failure", g_early, u, ev, np.array([1]),
                              weight_floor=1e-6, stats=stats)
    # row 0 survives past t=1 and divides by Gbar(1); row 1 is an event at
    # t=1 and divides by Gbar(1-) = 1, untouched
    assert b[0, 0] == pytest.approx(1e6)
    assert a[1, 0] == 1.0
    assert stats.count == 1


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
    batch = Batch(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, weight=weight)
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
    batch = Batch(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5,
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
    with pytest.raises(ValueError, match="roles"):
        batch_loss(LossSpec("ipcw-bs", ROLES), np.full((3, 2), 0.5), np.full((3, 2), 0.5),
                   Batch(np.array([1]), np.array([True])))


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
    batch = Batch(*labels[:2], weight=labels[2])
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
                want = kernel(spec, own, frozen, Batch(*labels[:2], weight=labels[2]), fresh)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                assert reused.count == fresh.count
    # horizon sets that resolve alike may share; other horizons or roles never do
    distinct = {(tuple(resolve_times(s.times, n_bins)), s._flags.tobytes()) for s in specs}
    plans = list(batch._plans.values())
    assert len({id(p) for p in plans}) == len(plans) >= len(distinct)
    for (spec_key, k), plan in batch._plans.items():
        times, spec_roles = spec_key
        np.testing.assert_array_equal(plan.times, resolve_times(times, k))
        assert plan.evt_col.shape == (len(spec_roles), n)


def test_label_plan_indexes_contiguous_horizons_by_slices():
    u, ev, flags = np.array([1, 3, 2]), np.array([True, False, True]), np.array([[False]])
    surv = np.arange(3 * 5.0).reshape(3, 5)
    for times in (np.array([1, 2, 3]), np.array([2, 3]), np.array([1, 3])):
        plan = label_plan(u, ev, times, flags)
        np.testing.assert_array_equal(surv[:, plan.surv_cols], surv[:, times])
        np.testing.assert_array_equal(surv[:, plan.cdf_cols], surv[:, times - 1])
        assert isinstance(plan.surv_cols, slice) == (times.size == times[-1] - times[0] + 1)


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
    batch = Batch(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.5, weight=weight)
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

    # one role's weight arrays and their clamps
    a, b, weight_clamps = _materialized_weights(flags[:1], _surv_table(frozen_n[:1]),
                                                batch.time_bin, batch.event, times, floor)
    stats = ClampStats()
    got = ipcw_weight_arrays(roles[0], frozen[0], batch.time_bin, batch.event, times, floor,
                             stats)
    assert _same_bits(got[0], a[0]) and _same_bits(got[1], b[0])
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
        gbar, time_bin, event = metrics._censoring_survival(ds, weighting, g, world)
        surv = gbar.reshape(1, -1, n_bins + 1)
        for family, score in (("ipcw-bs", metrics.eval_bs), ("ipcw-bll", metrics.eval_bll)):
            vals, _, _ = _materialized(family, np.array([[False]]), f[None], surv, time_bin,
                                       event, times, floor)
            got = score(f, ds, weighting, g, world, floor)
            assert _same_bits(got, vals[0].mean(axis=0))


def test_a_nan_in_the_frozen_pmf_reaches_the_value():
    # every row with U >= 2 reads Xbar(1) on its survival branch at t = 1,
    # so a NaN in the first bin of the frozen pmf must surface
    own = np.array([0.2, 0.3, 0.5])
    frozen = np.array([np.nan, 0.5, 0.5])
    batch = Batch(np.array([1, 2, 3]), np.array([True, False, True]))
    for family in ("ipcw-bs", "ipcw-bll"):
        for role in ROLES:
            value, dpmf = batch_loss(LossSpec(family, role), own, frozen, batch)
            assert not np.isfinite(value)
            values, coefs = per_horizon_loss(LossSpec(family, role), own, frozen, batch)
            assert not np.isfinite(values[0]) and not np.isfinite(coefs[0])
