"""Censoring-aware evaluation: KM weights, scores, concordance, calibration."""

import json

import numpy as np
import pytest
from conftest import labelled
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesurv import core
from gamesurv.core import Dataset, RawSurvivalData, assign_bins, discretize
from gamesurv.metrics import (
    WEIGHTINGS,
    calibration_curve,
    concordance,
    concordance_index,
    eval_bll,
    eval_bs,
    evaluate,
    km_censoring,
    km_fit,
    nll_metric,
)
from gamesurv.losses import LossSpec, nll, per_horizon_loss
from gamesurv.simgen import MarginalWorld, gen_marginal


def test_km_hand_case():
    km = km_fit(np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1, 1, 1, 0, 1], bool))
    np.testing.assert_array_equal(km.times, [1, 2, 3, 4])
    np.testing.assert_array_equal(km.at_risk, [5, 4, 2, 1])
    np.testing.assert_array_equal(km.n_events, [1, 2, 0, 1])
    np.testing.assert_allclose(km.surv, [0.8, 0.4, 0.4, 0.0], atol=1e-15)


def test_km_censored_tie_stays_at_risk():
    # a subject censored at t counts in the risk set for the deaths at t
    km = km_fit(np.array([1.0, 1.0]), np.array([True, False]))
    np.testing.assert_allclose(km.surv, [0.5])
    assert km.at_risk[0] == 2


def test_km_step_function_accessors():
    km = km_fit(np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1, 1, 1, 0, 1], bool))
    np.testing.assert_allclose(km.surv_at([0.5, 1.0, 1.5, 2.0, 4.0]), [1.0, 0.8, 0.8, 0.4, 0.0])


def test_km_matches_empirical_survival_without_censoring():
    rng = np.random.default_rng(1)
    t = rng.integers(1, 8, size=500).astype(float)
    km = km_fit(t, np.ones(500, bool))
    for q in range(1, 8):
        assert km.surv_at(float(q)) == pytest.approx((t > q).mean(), abs=1e-12)


def test_km_fit_input_contract():
    with pytest.raises(ValueError, match="time must be finite"):
        km_fit([1.0, np.nan, 2.0], [True, True, False])
    with pytest.raises(ValueError, match="time must be finite"):
        km_fit([1.0, np.inf], [True, False])
    with pytest.raises(ValueError, match=r"event must have time's shape \(3,\)"):
        km_fit([1.0, 2.0, 3.0], [True, False])
    with pytest.raises(ValueError, match="time must be 1-d"):
        km_fit(np.ones((2, 2)), np.ones((2, 2), bool))
    with pytest.raises(ValueError, match="time must hold at least one entry"):
        km_fit([], [])


def test_km_censoring_flips_indicator():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 400, seed=0)
    a = km_censoring(ds)
    b = km_fit(ds.time_bin.astype(float), ~ds.event)
    np.testing.assert_array_equal(a.surv, b.surv)


def _brute_concordance(risk, time, event):
    conc = 0.0
    admissible = 0
    n = len(risk)
    for i in range(n):
        if not event[i]:
            continue
        for j in range(n):
            if i == j:
                continue
            if time[i] < time[j] or (time[i] == time[j] and not event[j]):
                admissible += 1
                if risk[i] > risk[j]:
                    conc += 1.0
                elif risk[i] == risk[j]:
                    conc += 0.5
    return conc / admissible


def test_concordance_index_hand_cases():
    t = np.array([1, 2, 3])
    ev = np.ones(3, bool)
    assert concordance_index(np.array([3.0, 2.0, 1.0]), t, ev) == 1.0
    assert concordance_index(np.array([1.0, 2.0, 3.0]), t, ev) == 0.0
    assert concordance_index(np.array([5.0, 5.0, 5.0]), t, ev) == 0.5
    # same-time pairs are admissible only against a censored partner
    t2 = np.array([2, 2])
    assert concordance_index(np.array([1.0, 0.0]), t2, np.array([True, False])) == 1.0
    with pytest.raises(ValueError, match="no admissible pairs"):
        concordance_index(np.array([1.0, 0.0]), t2, np.array([True, True]))
    # the input contract names the offending field
    with pytest.raises(ValueError, match="^event"):
        concordance_index([1.0, 2.0], [1, 2], [True, False, True])
    with pytest.raises(ValueError, match="^time"):
        concordance_index([1.0, 2.0, 3.0], [1, 2], [True, True, True])
    with pytest.raises(ValueError, match="^risk"):
        concordance_index([np.nan, 1.0, 2.0, 0.5], [1, 2, 3, 4], [True, True, True, False])
    with pytest.raises(ValueError, match="^time"):
        concordance_index([1.0, 2.0], [np.inf, 1.0], [True, True])
    with pytest.raises(ValueError, match="^risk"):
        concordance_index([[1.0, 2.0]], [1, 2], [True, True])


def test_concordance_index_matches_brute_force():
    rng = np.random.default_rng(7)
    cases = []
    for trial in range(20):
        n = int(rng.integers(20, 120))
        # coarse grids force heavy ties in both time and risk
        time = rng.integers(1, 6, size=n)
        event = rng.random(n) < 0.6
        risk = np.round(rng.normal(size=n), 1)
        if not np.any(event):
            event[0] = True
        cases.append((risk, time, event))
    n = 80
    risk = np.round(rng.normal(size=n), 1)
    time = rng.integers(1, 6, size=n)
    event = rng.random(n) < 0.6
    event[:2] = [True, False]
    one_event = np.zeros(n, bool)
    one_event[np.argmin(time)] = True
    cases += [
        (risk, rng.exponential(size=n), event),  # continuous times
        (rng.normal(size=n), rng.exponential(size=n), event),  # and risks
        (risk, np.full(n, 3), event),  # one shared time
        (np.full(n, 0.5), time, event),  # all risks tied
        (risk, time, one_event),  # exactly one event
    ]
    for trial in range(60):  # very small n
        n = int(rng.integers(2, 5))
        cases.append((rng.integers(0, 3, size=n).astype(float),
                      rng.integers(1, 3, size=n), rng.random(n) < 0.6))
    for risk, time, event in cases:
        try:
            brute = _brute_concordance(risk, time, event)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="no admissible pairs"):
                concordance_index(risk, time, event)
            continue
        assert concordance_index(risk, time, event) == brute


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4), st.booleans()),
                     min_size=2, max_size=40))
def test_concordance_equals_brute_force_on_tie_heavy_data(rows):
    # four risk levels and four times: most pairs tie in risk, time or both
    risk, time, event = (np.array(col) for col in zip(*rows))
    risk = risk.astype(float)
    try:
        brute = _brute_concordance(risk, time, event)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="no admissible pairs"):
            concordance_index(risk, time, event)
        return
    assert concordance_index(risk, time, event) == brute


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(["continuous", "one time", "tied risks", "no censoring"]),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_concordance_equals_brute_force_on_edge_cohorts(case, n, seed):
    # the scan runs over the 2 * n_times position classes: as many classes as
    # rows on continuous times, a single pair of them on one time; tied risks
    # leave every partner in one risk run, and no censoring empties the
    # censored classes
    rng = np.random.default_rng(seed)
    risk = rng.normal(size=n) if rng.random() < 0.5 else np.round(rng.normal(size=n), 1)
    time = rng.integers(1, 5, size=n).astype(float)
    event = rng.random(n) < 0.6
    if case == "continuous":
        time = rng.exponential(size=n)
    elif case == "one time":
        time = np.full(n, 2.5)
    elif case == "tied risks":
        risk = np.full(n, -1.5)
    else:
        event = np.ones(n, bool)
    try:
        brute = _brute_concordance(risk, time, event)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="no admissible pairs"):
            concordance_index(risk, time, event)
        return
    assert concordance_index(risk, time, event) == brute


def test_concordance_uses_expected_bin_risk():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 300, seed=3)
    pmf = np.random.default_rng(0).dirichlet(np.ones(3), size=300)
    bins = np.arange(1, 4)
    want = concordance_index(-(pmf @ bins), ds.time_bin, ds.event)
    assert concordance(pmf, ds) == want


def test_censoring_free_scores_equal_plain_scores():
    rng = np.random.default_rng(11)
    raw = RawSurvivalData(rng.normal(size=(300, 2)), rng.gamma(2.0, 1.0, 300),
                          np.ones(300, bool))
    ds = discretize(raw, n_bins=5)
    pmf = rng.dirichlet(np.ones(5), size=300)
    cdf = np.cumsum(pmf, axis=1)
    ts = np.arange(1, 5)
    ind = (ds.time_bin[:, None] <= ts[None, :]).astype(float)
    plain_bs = ((ind - cdf[:, :-1]) ** 2).mean(axis=0)
    np.testing.assert_array_equal(eval_bs(pmf, ds, weighting="km"), plain_bs)
    got_bll = eval_bll(pmf, ds, weighting="km")
    want_bll = (-ind * np.log(cdf[:, :-1]) - (1 - ind) * np.log(1 - cdf[:, :-1])).mean(axis=0)
    np.testing.assert_allclose(got_bll, want_bll, rtol=1e-12)


@settings(max_examples=60)
@given(
    n_bins=st.integers(2, 8),
    bins=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_censoring_free_km_scores_equal_plain_scores(n_bins, bins, seed):
    # Graf et al. (1999): without censoring the KM censoring survival is 1
    # at every bin, so the IPCW scores are the plain ones; drawn bins are
    # tie-heavy (at most 8 values over up to 40 rows)
    time_bin = np.array(bins) % n_bins + 1
    n = time_bin.size
    ds = Dataset(np.zeros((n, 0)), time_bin, np.ones(n, bool), np.arange(n_bins + 1.0))
    pmf = np.random.default_rng(seed).dirichlet(np.ones(n_bins), size=n)
    cdf = np.minimum(np.cumsum(pmf, axis=1), 1.0)[:, :-1]  # every score caps the cdf at 1
    ind = time_bin[:, None] <= np.arange(1, n_bins)
    plain_bs = ((ind - cdf) ** 2).mean(axis=0)
    np.testing.assert_array_equal(eval_bs(pmf, ds, weighting="km"), plain_bs)
    floor = 1e-6
    plain_bll = np.where(ind, -np.log(np.maximum(cdf, floor)),
                         -np.log(np.maximum(1.0 - cdf, floor))).mean(axis=0)
    np.testing.assert_allclose(eval_bll(pmf, ds, weighting="km"), plain_bll, rtol=1e-12)


def test_latent_weighting_scores_true_failure_times():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 500, seed=6)
    pmf = np.random.default_rng(1).dirichlet(np.ones(3), size=500)
    from gamesurv.core import assign_bins
    lat = assign_bins(ds.latent_time, ds.bin_edges)
    cdf = np.cumsum(pmf, axis=1)
    ts = np.arange(1, 3)
    ind = (lat[:, None] <= ts[None, :]).astype(float)
    want = ((ind - cdf[:, :-1]) ** 2).mean(axis=0)
    np.testing.assert_allclose(eval_bs(pmf, ds, weighting="uncensored-latent"), want, rtol=1e-12)


def test_true_g_weighting_beats_model_g_at_truth():
    # with the exact censoring marginal the two weighting routes coincide
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 400, seed=8)
    pmf = np.random.default_rng(2).dirichlet(np.ones(3), size=400)
    via_world = eval_bs(pmf, ds, weighting="true-G", world=w)
    via_model = eval_bs(pmf, ds, weighting="model-G", g_pmf=w.theta_c)
    np.testing.assert_allclose(via_world, via_model, rtol=1e-12)
    with pytest.raises(ValueError):
        eval_bs(pmf, ds, weighting="true-G")
    with pytest.raises(ValueError):
        eval_bs(pmf, ds, weighting="model-G")


def test_true_g_world_must_match_the_bin_count():
    ds = gen_marginal(MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3]), 50, seed=1)
    five = MarginalWorld(np.full(5, 0.2), np.full(5, 0.2))
    pmf = np.tile([0.3, 0.4, 0.3], (50, 1))
    for score in (eval_bs, eval_bll):
        with pytest.raises(ValueError, match="world has 5 bins but the dataset has 3"):
            score(pmf, ds, weighting="true-G", world=five)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_row_blocks_give_the_unblocked_report(monkeypatch, weighting):
    # the Brier and BLL scores on 7-row blocks (38 rows are 5 blocks, the
    # last of 10 rows) against one block of all rows
    rng = np.random.default_rng(4)
    world = MarginalWorld(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5)))
    ds = gen_marginal(world, 38, seed=3)
    f, g = rng.dirichlet(np.ones(5), size=(2, 38))
    f[:5, :2] = 0.0  # F(1) = 0 and F(2) = 0: log clamps on the event branch
    f /= f.sum(axis=-1, keepdims=True)
    report = lambda: json.dumps(evaluate(f, ds, weighting, g, world).to_dict(), sort_keys=True)
    want = report()
    monkeypatch.setattr(core, "ROW_BLOCK", 7)
    assert len(core._row_blocks(ds.n)) == 5
    assert report() == want


def test_scores_reject_pmfs_that_are_not_distributions():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 40, seed=2)
    good = np.random.default_rng(1).dirichlet(np.ones(3), size=40)
    bads = []
    for row, value in ((3, np.nan), (0, np.inf)):
        bad = good.copy()
        bad[row, 1] = value
        bads.append(bad)
    bads.append(good * 1.5)  # rows sum to 1.5
    bad = good.copy()
    bad[5] = [1.2, -0.2, 0.0]  # sums to 1, one entry negative
    bads.append(bad)
    bads.append(np.array([0.5, 0.5 + 1e-8, 0.0]))  # (K,), just outside 1e-9
    for bad in bads:
        for call in (
            lambda: eval_bs(bad, ds),
            lambda: eval_bll(bad, ds, weighting="true-G", world=w),
            lambda: nll_metric(bad, ds),
            lambda: calibration_curve(bad, ds),
            lambda: concordance(bad, ds),
            lambda: evaluate(bad, ds),
        ):
            with pytest.raises(ValueError, match="f_pmf rows must be finite, nonnegative"):
                call()
        for score in (eval_bs, eval_bll):
            with pytest.raises(ValueError, match="g_pmf rows must be finite, nonnegative"):
                score(good, ds, weighting="model-G", g_pmf=bad)
    # rounding-level deviations and zero masses are distributions
    ok = good.copy()
    ok[:, 0] += 5e-10
    ok[0] = [0.0, 1.0, 0.0]
    assert np.all(np.isfinite(eval_bs(ok, ds, weighting="model-G", g_pmf=ok)))
    assert np.isfinite(nll_metric(np.array([0.2, 0.3, 0.5]), ds))


def test_scores_reject_pmfs_on_another_bin_grid():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 40, seed=2)
    good = np.random.default_rng(1).dirichlet(np.ones(3), size=40)
    wide = np.random.default_rng(2).dirichlet(np.ones(5), size=40)
    for call in (
        lambda: eval_bs(wide, ds),
        lambda: nll_metric(wide, ds),
        lambda: calibration_curve(wide, ds),
        lambda: concordance(wide[0], ds),
        lambda: evaluate(wide, ds),
    ):
        with pytest.raises(ValueError, match="f_pmf must hold 3 bins on its last axis"):
            call()
    with pytest.raises(ValueError, match="g_pmf must hold 3 bins on its last axis"):
        eval_bll(good, ds, weighting="model-G", g_pmf=wide)


def test_missing_latent_times_name_calibration_or_the_weighting():
    full = gen_marginal(MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3]), 40, seed=3)
    ds = Dataset(full.features, full.time_bin, full.event, full.bin_edges)
    pmf = np.array([0.3, 0.4, 0.3])
    with pytest.raises(ValueError, match="calibration needs .*dataset.latent_time is None"):
        calibration_curve(pmf, ds)
    for score in (eval_bs, eval_bll, evaluate):
        with pytest.raises(ValueError, match="this weighting needs the latent failure times"):
            score(pmf, ds, weighting="uncensored-latent")
    assert evaluate(pmf, ds).calibration_levels is None  # off without latent times


@settings(max_examples=40, deadline=None)
@given(
    n_bins=st.integers(2, 6),
    n=st.integers(2, 40),
    marginal=st.booleans(),
    floor=st.sampled_from([1e-6, 0.05, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_equals_the_standalone_scores(n_bins, n, marginal, floor, seed):
    # one report shares its pmf check, cdf and weights across the scores; each
    # field must keep the bits of the score computed on its own. Sparse
    # Dirichlet pmfs and floors up to 0.3 make the weight and log clamps fire.
    rng = np.random.default_rng(seed)
    world = MarginalWorld(rng.dirichlet(np.ones(n_bins)), rng.dirichlet(np.ones(n_bins)))
    ds = gen_marginal(world, n, seed=int(rng.integers(1000)))
    rows = () if marginal else (n,)
    f, g = (rng.dirichlet(np.full(n_bins, 0.3), size=rows) for _ in range(2))
    try:
        c_index = concordance(f, ds)
    except ValueError as exc:  # no admissible pairs: the report cannot exist either
        with pytest.raises(ValueError, match=str(exc)):
            evaluate(f, ds, "km", g, world, floor)
        return
    levels, observed = calibration_curve(f, ds)
    nll_value = nll_metric(f, ds, floor)
    for weighting in ("uncensored-latent", "km", "model-G", "true-G"):
        report = evaluate(f, ds, weighting, g, world, floor)
        args = (weighting, g, world, floor)
        np.testing.assert_array_equal(report.bs, eval_bs(f, ds, *args))
        np.testing.assert_array_equal(report.bll, eval_bll(f, ds, *args))
        assert report.nll == nll_value and report.concordance == c_index
        np.testing.assert_array_equal(report.calibration_levels, levels)
        np.testing.assert_array_equal(report.calibration_observed, observed)


def test_evaluation_scores_are_the_training_scores():
    # every weighting is the failure player's training loss against some
    # censoring survival table: model-G and true-G against the censor pmf,
    # km against the jumps of the KM censoring estimate, and the latent
    # weighting against e_K (Gbar = 1 on 0..K-1) on latent bins
    w = MarginalWorld([0.2, 0.3, 0.1, 0.4], [0.3, 0.2, 0.2, 0.3])
    ds = gen_marginal(w, 400, seed=12)
    rng = np.random.default_rng(4)
    f = rng.dirichlet(np.ones(4), size=ds.n)
    g = rng.dirichlet(np.ones(4), size=ds.n)
    e_k = np.array([0.0, 0.0, 0.0, 1.0])
    km_jumps = -np.diff(km_censoring(ds).surv_at(np.arange(5.0)))
    lat = labelled(assign_bins(ds.latent_time, ds.bin_edges), np.ones(ds.n, bool), ds.n_bins)
    for family, score in (("ipcw-bs", eval_bs), ("ipcw-bll", eval_bll)):
        spec = LossSpec(family, "failure")
        for kwargs, frozen, batch in (
            ({"weighting": "model-G", "g_pmf": g}, g, ds.batch()),
            ({"weighting": "true-G", "world": w}, w.theta_c, ds.batch()),
            ({"weighting": "km"}, km_jumps, ds.batch()),
            ({"weighting": "uncensored-latent"}, e_k, lat),
        ):
            want, _ = per_horizon_loss(spec, f, frozen, batch)
            np.testing.assert_allclose(score(f, ds, **kwargs), want, rtol=1e-12)


def test_nll_metric_is_mean_partial_likelihood():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 200, seed=9)
    pmf = np.random.default_rng(3).dirichlet(np.ones(3), size=200)
    want = nll(pmf, ds.time_bin, ds.event).mean()
    assert nll_metric(pmf, ds) == pytest.approx(want, rel=1e-14)


def test_calibration_frozen_case():
    w = MarginalWorld([0.3, 0.5, 0.2], [0.4, 0.3, 0.3])
    ds = gen_marginal(w, 2000, seed=5)
    levels, observed = calibration_curve(np.array([0.3, 0.5, 0.2]), ds)
    np.testing.assert_allclose(levels, np.arange(1, 10) / 10.0)
    # the true model's coverage steps through the empirical bin frequencies
    np.testing.assert_allclose(
        observed, [0.0, 0.0, 0.295, 0.295, 0.295, 0.295, 0.295, 0.8, 0.8], atol=1e-12)
    assert np.all(np.diff(observed) >= 0)


def test_evaluate_report_shape_and_json():
    w = MarginalWorld([0.3, 0.4, 0.3], [0.2, 0.5, 0.3])
    ds = gen_marginal(w, 300, seed=10)
    pmf = np.tile(w.theta_t, (300, 1))
    rep = evaluate(pmf, ds, weighting="km")
    assert rep.n == 300 and rep.n_bins == 3
    assert rep.bs.shape == (2,) and rep.bll.shape == (2,)
    assert rep.bs_sum == pytest.approx(rep.bs.sum(), rel=1e-14)
    assert rep.bs_mean == pytest.approx(rep.bs.mean(), rel=1e-14)
    assert 0.0 <= rep.concordance <= 1.0
    payload = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert payload["weighting"] == "km"
    assert len(payload["bs"]) == 2
    assert "calibration" in payload and len(payload["calibration"]["levels"]) == 9
    # calibration is reported exactly when the dataset has latent times
    no_latent = Dataset(ds.features, ds.time_bin, ds.event, ds.bin_edges)
    assert "calibration" not in evaluate(pmf, no_latent, weighting="km").to_dict()


@pytest.mark.parametrize("floor", (0.0, -1.0, 1.0, 2.0, float("nan")))
def test_scores_reject_a_floor_outside_0_1(floor):
    # unchecked, a floor of 2 clamps every score
    world = MarginalWorld([0.2, 0.3, 0.5], [0.3, 0.3, 0.4])
    data = gen_marginal(world, 40, seed=3)
    calls = [
        lambda: eval_bs(world.theta_t, data, floor=floor),
        lambda: eval_bll(world.theta_t, data, floor=floor),
        lambda: nll_metric(world.theta_t, data, floor=floor),
        lambda: evaluate(world.theta_t, data, "true-G", world=world, floor=floor),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="floor must lie in"):
            call()
