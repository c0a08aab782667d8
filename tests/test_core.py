"""Data containers, discretization and the input rules."""

import dataclasses
import json
import re

import numpy as np
import pytest
from conftest import labelled

from gamesurv import cli, core
from gamesurv.core import (
    Dataset,
    RawSurvivalData,
    assign_bins,
    discretize,
    quantile_discretize,
)
from gamesurv.games import TrainConfig, select_models, train
from gamesurv.losses import (
    ROLES,
    LossSpec,
    batch_loss,
    ipcw_bll_failure,
    ipcw_bs_failure,
    ipcw_mean,
    ipcw_per_sample,
    ipcw_weight_arrays,
    nll,
    per_horizon_loss,
    resolve_times,
)
from gamesurv.metrics import (
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
from gamesurv.models import ArchSpec
from gamesurv.oracle import (
    gradient_field,
    joint_objective_scan,
    population_failure_nll,
    population_gradients,
    population_loss,
    stationary_scan,
)
from gamesurv.simgen import (
    GammaSimConfig,
    MarginalWorld,
    Standardizer,
    gen_marginal,
    random_interior_world,
    read_bin_edges,
)


def test_assign_bins_hand_case():
    edges = np.array([0.0, 1.0, 2.0, 4.0])
    times = np.array([0.5, 1.0, 3.9, 4.0, 5.0, -1.0])
    # bins are [e_{j-1}, e_j) with the last closed; out-of-range times clip
    np.testing.assert_array_equal(assign_bins(times, edges), [1, 2, 3, 3, 3, 1])


def test_quantile_discretize_covers_data():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.gamma(2.0, 1.0, size=rng.integers(50, 400))
        k = int(rng.integers(2, 12))
        edges, bins = quantile_discretize(t, k)
        assert edges.size == k + 1
        assert np.all(np.diff(edges) > 0)
        assert bins.min() >= 1 and bins.max() <= k
        assert edges[0] <= t.min() <= t.max() <= edges[-1]
        # bins agree with a direct assignment against the same edges
        np.testing.assert_array_equal(bins, assign_bins(t, edges))


def test_quantile_discretize_balanced():
    rng = np.random.default_rng(11)
    t = rng.exponential(1.0, size=10_000)
    _, bins = quantile_discretize(t, 10)
    counts = np.bincount(bins, minlength=11)[1:]
    assert counts.min() > 800 and counts.max() < 1200


def test_batch_validation():
    # a batch is a dataset: its labels, weights and size are checked once, there
    with pytest.raises(ValueError, match=r"event must have time_bin's shape \(2,\)"):
        labelled(np.array([1, 2]), np.array([True]), 2)
    with pytest.raises(ValueError, match=r"time_bin must lie in 1\.\.2"):
        labelled(np.array([0, 2]), np.array([True, False]), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        labelled(np.array([1]), np.array([True]), 2, weight=np.array([-1.0]))
    with pytest.raises(ValueError, match="time_bin is empty"):
        labelled(np.array([], int), np.array([], bool), 2)
    b = labelled(np.array([1, 2, 2]), np.array([True, False, True]), 2)
    np.testing.assert_allclose(b.norm_weight(), 1.0 / 3.0)
    bw = labelled(np.array([1, 2]), np.array([True, False]), 2, weight=np.array([1.0, 3.0]))
    np.testing.assert_allclose(bw.norm_weight(), [0.25, 0.75])


def test_batch_keeps_read_only_copies_of_its_labels():
    # label plans are memoised on a dataset and on each of its batches, so
    # their labels and weights must not change
    u, ev, w = np.array([1, 2, 2]), np.array([True, False, True]), np.array([1.0, 2.0, 3.0])
    ds = Dataset(np.zeros((3, 1)), u, ev, np.array([0.0, 1.0, 2.0]), weight=w)
    rows = ds.batch(np.array([2, 0]))
    assert ds.batch() is ds
    for label, given in ((ds.time_bin, u), (ds.event, ev), (ds.weight, w),
                         (rows.time_bin, u), (rows.event, ev), (rows.weight, w)):
        assert not label.flags.writeable and given.flags.writeable
        assert not np.shares_memory(label, given)
        with pytest.raises(ValueError, match="read-only"):
            label[0] = label[1]
    # discretize hands its dataset a copy of the raw events, never the caller's array
    binned = discretize(RawSurvivalData(np.zeros((3, 1)), [0.5, 1.5, 1.6], ev), edges=[0, 1, 2])
    assert not binned.event.flags.writeable and ev.flags.writeable


def test_discretize_roundtrip():
    rng = np.random.default_rng(7)
    raw = RawSurvivalData(
        features=rng.normal(size=(200, 3)),
        time=rng.gamma(2.0, 1.0, size=200),
        event=rng.random(200) < 0.7,
    )
    ds = discretize(raw, n_bins=6)
    assert ds.n == 200 and ds.n_bins == 6
    np.testing.assert_array_equal(ds.time_bin, assign_bins(raw.time, ds.bin_edges))
    np.testing.assert_array_equal(ds.event, raw.event)
    # rebinning new data onto saved edges reproduces the training bins
    ds2 = discretize(raw, edges=ds.bin_edges)
    np.testing.assert_array_equal(ds2.time_bin, ds.time_bin)
    with pytest.raises(ValueError, match="exactly one"):
        discretize(raw, n_bins=6, edges=ds.bin_edges)
    with pytest.raises(ValueError, match="exactly one"):
        discretize(raw)


def test_dataset_validation():
    feats = np.zeros((3, 2))
    edges = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Dataset(feats, np.array([1, 1, 2]), np.ones(3, bool), np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match=r"time_bin must lie in 1\.\.2"):
        Dataset(feats, np.array([1, 1, 3]), np.ones(3, bool), edges)


def test_dataset_batch_subset_records():
    rng = np.random.default_rng(5)
    raw = RawSurvivalData(
        features=rng.normal(size=(50, 2)),
        time=rng.gamma(2.0, 1.0, size=50),
        event=rng.random(50) < 0.6,
        latent_time=rng.gamma(2.0, 1.0, size=50),
        latent_censor=rng.gamma(2.0, 1.0, size=50),
    )
    ds = discretize(raw, n_bins=4)
    idx = np.array([3, 10, 10, 41])
    b = ds.batch(idx)
    np.testing.assert_array_equal(b.time_bin, ds.time_bin[idx])
    np.testing.assert_array_equal(b.features, ds.features[idx])


RULES = ("_labels", "_events", "_finite", "_check_edges", "_row_weights", "_nonempty")


@pytest.mark.parametrize("weighted", [False, True])
def test_a_batch_is_its_checked_rows_built_without_a_rule(monkeypatch, weighted):
    rng = np.random.default_rng(8)
    n = 40
    extra = dict(latent_time=rng.random(n), latent_censor=rng.random(n),
                 weight=rng.random(n) + 0.1) if weighted else {}
    ds = Dataset(rng.normal(size=(n, 2)), rng.integers(1, 5, size=n), rng.random(n) < 0.6,
                 np.arange(5.0), **extra)
    idx = np.array([3, 10, 10, 39])
    want = Dataset(ds.features[idx], ds.time_bin[idx], ds.event[idx], ds.bin_edges,
                   **{k: v[idx] for k, v in extra.items()})
    calls = []

    def counted(rule, real):
        def call(*args):
            calls.append(rule)
            return real(*args)
        return call

    for rule in RULES:
        monkeypatch.setattr(core, rule, counted(rule, getattr(core, rule)))
    got = ds.batch(idx)
    assert calls == []
    for f in dataclasses.fields(Dataset):
        mine, theirs = getattr(got, f.name), getattr(want, f.name)
        if f.name == "_plans":
            assert mine == theirs == {} and mine is not ds._plans
        elif theirs is None:
            assert mine is None
        else:
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), f.name
    Dataset(got.features, got.time_bin, got.event, got.bin_edges)  # the checked construction
    assert {"_labels", "_finite", "_check_edges", "_nonempty"} <= set(calls)


# -- one table per input rule ------------------------------------------------
# Every boundary that takes a kind of input fails on the same bad values with
# a ValueError naming the field (a ConfigError, its subclass, in the CLI).

F3, G3 = np.array([0.2, 0.3, 0.5]), np.array([0.3, 0.3, 0.4])
WORLD3 = MarginalWorld(F3, G3)
DATA3 = gen_marginal(WORLD3, 30, seed=0)
PAIR3 = np.stack([F3, G3])

EVENTS3 = [True, False, True]
BAD_LABELS = {  # name -> (time_bin, event, message)
    "mismatched": ([1, 2, 3], [True], r"event must have time_bin's shape \(3,\), got \(1,\)"),
    "2-d": ([[1, 2], [2, 3]], [[True, False], [True, True]], r"time_bin must be 1-d"),
    "bin 0": ([0, 1, 2], EVENTS3, r"time_bin must lie in 1\.\.(K|3), got labels from 0"),
    "bin K+1": ([1, 2, 4], EVENTS3, r"time_bin must lie in 1\.\.3, got labels from 1 to 4"),
    "bin 1.5": ([1.5, 2.0, 3.0], EVENTS3, "time_bin must hold whole bin numbers"),
    "empty": ([], [], "time_bin is empty: a dataset needs at least one record"),
}
LABEL_BOUNDARIES = {
    "weighted Dataset": lambda u, e: Dataset(np.zeros((len(u), 0)), u, e, WORLD3.bin_edges,
                                             weight=np.ones(len(u))),
    "Dataset": lambda u, e: Dataset(np.zeros((len(u), 0)), u, e, WORLD3.bin_edges),
    "batch_loss": lambda u, e: batch_loss(LossSpec("ipcw-bs", ROLES), PAIR3, PAIR3[::-1],
                                          labelled(u, e, 3)),
    "batch_loss nll": lambda u, e: batch_loss(LossSpec("nll", "censor"), G3, None,
                                              labelled(u, e, 3)),
    "per_horizon_loss": lambda u, e: per_horizon_loss(LossSpec("ipcw-bll", "failure"), F3, G3,
                                                      labelled(u, e, 3)),
    "ipcw_per_sample": lambda u, e: ipcw_per_sample("ipcw-bll", "censor", 1, G3, F3, u, e),
    "ipcw_bs_failure": lambda u, e: ipcw_bs_failure(2, F3, G3, u, e),
    "ipcw_bll_failure": lambda u, e: ipcw_bll_failure(1, F3, G3, u, e),
    "nll": lambda u, e: nll(F3, u, e),
    "ipcw_mean": lambda u, e: ipcw_mean(u, e, G3),
    "ipcw_weight_arrays": lambda u, e: ipcw_weight_arrays("censor", F3, u, e, np.array([1, 2])),
}


@pytest.mark.parametrize(
    "boundary, bad", [(b, v) for b in LABEL_BOUNDARIES for v in BAD_LABELS],
)
def test_labels_follow_one_rule(boundary, bad):
    time_bin, event, message = BAD_LABELS[bad]
    with pytest.raises(ValueError, match=message):
        LABEL_BOUNDARIES[boundary](time_bin, event)


ROWS = "rows must be finite, nonnegative and sum to 1 within 1e-9"
BAD_PMFS = {
    "wrong K": ([0.5, 0.5], "must hold 3 bins on its last axis"),
    "sum 1+1e-8": ([0.2, 0.3, 0.5 + 1e-8], ROWS),
    "sum 1-1e-8": ([0.2, 0.3, 0.5 - 1e-8], ROWS),
    "sum 0.3": ([0.1, 0.1, 0.1], ROWS),
    "negative": ([-0.5, 1.0, 0.5], ROWS),
    "nan": ([np.nan, 0.5, 0.5], ROWS),
    "inf": ([np.inf, 0.5, 0.5], ROWS),
}
PMF_BOUNDARIES = {  # name -> (call, field)
    "MarginalWorld": (lambda p: MarginalWorld(F3, p), "theta_c"),
    "cli world": (lambda p: cli._world({"theta_t": F3.tolist(), "theta_c": p}, "world"),
                  "theta_c"),
    "eval_bs": (lambda p: eval_bs(p, DATA3), "f_pmf"),
    "eval_bll model-G": (lambda p: eval_bll(F3, DATA3, weighting="model-G", g_pmf=p), "g_pmf"),
    "evaluate": (lambda p: evaluate(p, DATA3), "f_pmf"),
    "population_loss pmf_t": (lambda p: population_loss(WORLD3, p, G3, 1), "pmf_t"),
    "population_loss pmf_c": (lambda p: population_loss(WORLD3, F3, p, 2, "ipcw-bll"), "pmf_c"),
    "population_gradients pmf_t": (lambda p: population_gradients(WORLD3, p, G3), "pmf_t"),
    "population_gradients pmf_c": (lambda p: population_gradients(WORLD3, F3, p), "pmf_c"),
    "population_failure_nll": (lambda p: population_failure_nll(WORLD3, p), "pmf_t"),
    "nll": (lambda p: nll(p, [1, 2], [True, False]), "pmf"),
    "ipcw_per_sample own_pmf": (
        lambda p: ipcw_per_sample("ipcw-bs", "failure", 1, p, G3, [1, 2, 3], EVENTS3), "own_pmf"),
    "ipcw_per_sample frozen_pmf": (
        lambda p: ipcw_per_sample("ipcw-bll", "censor", 2, F3, p, [1, 2, 3], EVENTS3),
        "frozen_pmf"),
    "ipcw_weight_arrays": (lambda p: ipcw_weight_arrays("failure", p, [1, 2, 3], EVENTS3, "all"),
                           "frozen_pmf"),
    "ipcw_mean": (lambda p: ipcw_mean([1, 2, 3], EVENTS3, p), "censor_pmf"),
    "batch_loss own_pmf": (lambda p: batch_loss(LossSpec("ipcw-bs", "failure"), p, G3, DATA3),
                           "own_pmf"),
    "batch_loss nll own_pmf": (lambda p: batch_loss(LossSpec("nll", "censor"), p, None, DATA3),
                               "own_pmf"),
    "per_horizon_loss own_pmf": (
        lambda p: per_horizon_loss(LossSpec("ipcw-bll", ROLES), [p, p], PAIR3, DATA3), "own_pmf"),
}
# the per-sample losses take K from the (own) pmf, so "wrong K" is no pmf error there
PER_SAMPLE = ("nll", "ipcw_per_sample own_pmf", "ipcw_per_sample frozen_pmf",
              "ipcw_weight_arrays", "ipcw_mean")
# the training losses take model outputs and skip the pmf rule, but hold them to the batch's K
TRAINING = ("batch_loss own_pmf", "batch_loss nll own_pmf", "per_horizon_loss own_pmf")


@pytest.mark.parametrize(
    "boundary, bad",
    [(b, v) for b in PMF_BOUNDARIES for v in BAD_PMFS
     if not (b in PER_SAMPLE and v == "wrong K") and (b not in TRAINING or v == "wrong K")],
)
def test_pmfs_follow_one_rule(boundary, bad):
    pmf, message = BAD_PMFS[bad]
    call, field = PMF_BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=re.escape(f"{field} {message}")):
        call(pmf)


WEIGHTED3 = Dataset(DATA3.features, DATA3.time_bin, DATA3.event, DATA3.bin_edges,
                    DATA3.latent_time, weight=np.ones(DATA3.n))
UNWEIGHTED_READERS = {  # they weigh every row alike, so row weights would be ignored
    "eval_bs": lambda: eval_bs(F3, WEIGHTED3),
    "eval_bll": lambda: eval_bll(F3, WEIGHTED3, weighting="true-G", world=WORLD3),
    "nll_metric": lambda: nll_metric(F3, WEIGHTED3),
    "concordance": lambda: concordance(F3, WEIGHTED3),
    "calibration_curve": lambda: calibration_curve(F3, WEIGHTED3),
    "evaluate": lambda: evaluate(F3, WEIGHTED3),
    "km_censoring": lambda: km_censoring(WEIGHTED3),
    "select_models": lambda: select_models(train(DATA3, TrainConfig(epochs=1)), WEIGHTED3),
    "train": lambda: train(WEIGHTED3, TrainConfig(epochs=1)),
}


@pytest.mark.parametrize("reader", UNWEIGHTED_READERS)
def test_readers_that_weigh_rows_alike_reject_row_weights(reader):
    with pytest.raises(ValueError, match="weighs every row alike: weight must be None"):
        UNWEIGHTED_READERS[reader]()


def _read_edges(tmp_path, edges):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({"K": len(edges) - 1, "edges": edges}))
    return read_bin_edges(path)


BAD_EDGES = {
    "one edge": [0.0],
    "unsorted": [0.0, 2.0, 1.0, 3.0],
    "repeated": [0.0, 1.0, 1.0, 3.0],
    "nan": [0.0, float("nan"), 2.0, 3.0],
}
EDGE_BOUNDARIES = {
    "Dataset": lambda tmp_path, e: Dataset(np.zeros((0, 0)), [], [], e),
    "discretize": lambda tmp_path, e: discretize(
        RawSurvivalData(np.zeros((2, 0)), [0.5, 1.5], [True, False]), edges=e),
    "read_bin_edges": _read_edges,
}


@pytest.mark.parametrize("bad", BAD_EDGES)
@pytest.mark.parametrize("boundary", EDGE_BOUNDARIES)
def test_bin_edges_follow_one_rule(tmp_path, boundary, bad):
    with pytest.raises(ValueError, match="bin_edges must be at least two finite, strictly "
                                         "increasing edges"):
        EDGE_BOUNDARIES[boundary](tmp_path, BAD_EDGES[bad])


TWO_BINS = MarginalWorld([0.3, 0.7], [0.4, 0.6])
INT_BOUNDARIES = {  # name -> (call, field, minimum)
    "TrainConfig epochs": (lambda v: TrainConfig(epochs=v), "epochs", 0),
    "TrainConfig seed": (lambda v: TrainConfig(seed=v), "seed", 0),
    "TrainConfig batch_size": (lambda v: TrainConfig(batch_size=v), "batch_size", 1),
    "TrainConfig checkpoint_every": (lambda v: TrainConfig(checkpoint_every=v),
                                     "checkpoint_every", 1),
    "TrainConfig hidden": (lambda v: TrainConfig(hidden=(8, v)), "hidden", 1),
    "GammaSimConfig n": (lambda v: GammaSimConfig(n=v), "n", 1),
    "GammaSimConfig feature_dim": (lambda v: GammaSimConfig(n=5, feature_dim=v),
                                   "feature_dim", 1),
    "random_interior_world": (lambda v: random_interior_world(v, np.random.default_rng(0)),
                              "n_bins", 2),
    "gen_marginal": (lambda v: gen_marginal(WORLD3, v), "n", 0),
    "ArchSpec n_bins": (lambda v: ArchSpec("marginal", v), "n_bins", 2),
    "ArchSpec feature_dim": (lambda v: ArchSpec("mlp", 3, v, (4,)), "feature_dim", 1),
    "ArchSpec hidden": (lambda v: ArchSpec("mlp", 3, 2, (4, v)), "hidden", 1),
    "quantile_discretize": (lambda v: quantile_discretize([1.0, 2.0, 3.0], v), "n_bins", 1),
    "gradient_field": (lambda v: gradient_field(TWO_BINS, v), "resolution", 2),
    "joint_objective_scan": (lambda v: joint_objective_scan(TWO_BINS, v), "resolution", 1),
    "stationary_scan": (lambda v: stationary_scan(TWO_BINS, v), "n_starts", 1),
    "cli int key": (lambda v: cli._int_key({"workers": v}, "workers", 1), "workers", 1),
}
ONE_BIN = Dataset(np.zeros((3, 2)), [1, 1, 1], [True, False, True], [0.0, 1.0])
ONE_BIN_BOUNDARIES = {  # a score over horizons 1..K-1 has none on one bin
    "eval_bs": lambda: eval_bs(np.ones(1), ONE_BIN),
    "eval_bll": lambda: eval_bll(np.ones(1), ONE_BIN),
    "evaluate": lambda: evaluate(np.ones(1), ONE_BIN),
    "train bs-game": lambda: train(ONE_BIN, TrainConfig(objective="bs-game", epochs=1)),
    "train bll-game": lambda: train(ONE_BIN, TrainConfig(objective="bll-game", epochs=1)),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3", "minimum - 1"])
@pytest.mark.parametrize("boundary", INT_BOUNDARIES)
def test_sizes_follow_one_rule(boundary, bad):
    call, field, low = INT_BOUNDARIES[boundary]
    value = low - 1 if bad == "minimum - 1" else bad
    error = cli.ConfigError if boundary.startswith("cli") else ValueError
    with pytest.raises(error, match=re.escape(f"'{field}' must be an integer >= {low}, "
                                              f"got {value!r}")):
        call(value)


@pytest.mark.parametrize("boundary", ONE_BIN_BOUNDARIES)
def test_one_bin_scores_are_rejected_by_name(boundary):
    with pytest.raises(ValueError, match=re.escape("'n_bins' must be an integer >= 2, got 1")):
        ONE_BIN_BOUNDARIES[boundary]()


def test_one_bin_likelihood_and_concordance_still_score():
    assert nll(np.ones(1), ONE_BIN.time_bin, ONE_BIN.event).shape == (3,)
    assert np.isfinite(nll_metric(np.ones(1), ONE_BIN))
    assert concordance(np.ones(1), ONE_BIN) == 0.5


REAL_BOUNDARIES = {  # name -> (call, field, minimum or None)
    "TrainConfig learning_rate": (lambda v: TrainConfig(learning_rate=v), "learning_rate", 0),
    "TrainConfig init_scale": (lambda v: TrainConfig(init_scale=v), "init_scale", 0),
    "GammaSimConfig coef_low": (lambda v: GammaSimConfig(n=5, coef_low=v), "coef_low", None),
}


@pytest.mark.parametrize(
    "boundary, bad",
    [(b, v) for b, (_, _, low) in REAL_BOUNDARIES.items()
     for v in (True, "3", np.nan, np.inf, -np.inf) + (() if low is None else (low - 1,))],
)
def test_real_knobs_follow_one_rule(boundary, bad):
    call, field, _ = REAL_BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=f"'{field}' must be a finite number"):
        call(bad)


T3 = [0.5, 1.5, 2.5]
BATCH3 = labelled([1, 2, 3], EVENTS3, 3)
NO_ROWS = r"idx must pick one or more rows on one axis, got shape "
BAD_ROWS = {  # name -> (dataset, idx, message): what a subset of checked rows can break
    "empty": (BATCH3, np.array([], int), NO_ROWS + r"\(0,\)"),
    "empty mask": (BATCH3, np.zeros(3, bool), NO_ROWS + r"\(0,\)"),
    "scalar": (BATCH3, 0, NO_ROWS + r"\(\)"),
    "2-d": (BATCH3, np.array([[0, 1]]), NO_ROWS + r"\(1, 2\)"),
    "zero weights": (labelled([1, 2, 3], EVENTS3, 3, weight=[0.0, 1.0, 0.0]), np.array([2, 0]),
                     "weight must have a positive sum over the rows idx picks"),
}


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_dataset_rows_keep_the_dataset_rules(bad):
    data, idx, message = BAD_ROWS[bad]
    with pytest.raises(ValueError, match=message):
        data.batch(idx)


BAD_EVENTS = {  # name -> (event for 3 records, message)
    "mismatched": ([True], r"event must have time's shape \(3,\), got \(1,\)"),
    "2": ([1, 2, 0], "event must hold only 0 and 1, got int"),
    "0.5": ([1, 0.5, 0], "event must hold only 0 and 1, got float64 values"),
    "nan": ([1, np.nan, 0], "event must hold only 0 and 1, got float64 values"),
}
EVENT_BOUNDARIES = {
    "weighted Dataset": lambda e: Dataset(np.zeros((3, 0)), [1, 2, 3], e, WORLD3.bin_edges,
                                          weight=np.ones(3)),
    "Dataset": lambda e: Dataset(np.zeros((3, 0)), [1, 2, 3], e, WORLD3.bin_edges),
    "nll": lambda e: nll(F3, [1, 2, 3], e),
    "ipcw_per_sample": lambda e: ipcw_per_sample("ipcw-bs", "censor", 1, G3, F3, [1, 2, 3], e),
    "ipcw_weight_arrays": lambda e: ipcw_weight_arrays("failure", G3, [1, 2, 3], e, [1, 2]),
    "ipcw_mean": lambda e: ipcw_mean([1, 2, 3], e, G3),
    "RawSurvivalData": lambda e: RawSurvivalData(np.zeros((3, 0)), T3, e),
    "km_fit": lambda e: km_fit(T3, e),
    "concordance_index": lambda e: concordance_index([0.1, 0.2, 0.3], T3, e),
}
TIME_SHAPED_EVENTS = ("RawSurvivalData", "km_fit", "concordance_index")


@pytest.mark.parametrize(
    "boundary, bad",
    # an event of another shape than time_bin is in the label table
    [(b, v) for b in EVENT_BOUNDARIES for v in BAD_EVENTS
     if v != "mismatched" or b in TIME_SHAPED_EVENTS],
)
def test_events_follow_one_rule(boundary, bad):
    event, message = BAD_EVENTS[bad]
    with pytest.raises(ValueError, match=message):
        EVENT_BOUNDARIES[boundary](event)


NOT_FINITE = "{} must be finite, got 1 NaN or infinite entries"
BAD_TIMES = {  # name -> (times of 3 records, the message for a field)
    "nan": ([0.5, np.nan, 2.5], lambda field: re.escape(NOT_FINITE.format(field))),
    "inf": ([0.5, np.inf, 2.5], lambda field: re.escape(NOT_FINITE.format(field))),
    "2-d": ([T3], lambda field: rf"{field} must be 1-d( with 3 rows)?, got shape \(1, 3\)"),
}
RAW_NO_FEATURES = (np.zeros((3, 0)), T3, EVENTS3)
TIME_BOUNDARIES = {  # name -> (call, field)
    "RawSurvivalData": (lambda t: RawSurvivalData(np.zeros((3, 0)), t, EVENTS3), "time"),
    "RawSurvivalData latent_time": (
        lambda t: RawSurvivalData(*RAW_NO_FEATURES, latent_time=t), "latent_time"),
    "RawSurvivalData latent_censor": (
        lambda t: RawSurvivalData(*RAW_NO_FEATURES, latent_censor=t), "latent_censor"),
    "Dataset latent_time": (
        lambda t: Dataset(np.zeros((3, 0)), [1, 2, 3], EVENTS3, WORLD3.bin_edges, latent_time=t),
        "latent_time"),
    "Dataset latent_censor": (
        lambda t: Dataset(np.zeros((3, 0)), [1, 2, 3], EVENTS3, WORLD3.bin_edges,
                          latent_censor=t), "latent_censor"),
    "quantile_discretize": (lambda t: quantile_discretize(t, 2), "raw_times"),
    "assign_bins": (lambda t: assign_bins(t, [0.0, 1.0, 2.0, 3.0]), "times"),
    "discretize edges": (
        lambda t: discretize(RawSurvivalData(np.zeros((3, 0)), t, EVENTS3), edges=[0, 1, 2, 3]),
        "time"),
    "km_fit": (lambda t: km_fit(t, EVENTS3), "time"),
    "concordance_index time": (lambda t: concordance_index([0.1, 0.2, 0.3], t, EVENTS3), "time"),
    "concordance_index risk": (lambda t: concordance_index(t, T3, EVENTS3), "risk"),
}


@pytest.mark.parametrize("bad", BAD_TIMES)
@pytest.mark.parametrize("boundary", TIME_BOUNDARIES)
def test_times_follow_one_rule(boundary, bad):
    times, message = BAD_TIMES[bad]
    call, field = TIME_BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=message(field)):
        call(times)


BAD_FEATURES = {  # name -> (features of 3 records, message)
    "nan": ([[0.0], [np.nan], [0.0]], NOT_FINITE.format("features")),
    "1-d": (np.zeros(3), "features must be 2-d with 3 rows, got shape (3,)"),
    "wrong rows": (np.zeros((2, 1)), "features must be 2-d with 3 rows, got shape (2, 1)"),
}
FEATURE_BOUNDARIES = {
    "RawSurvivalData": lambda x: RawSurvivalData(x, T3, EVENTS3),
    "Dataset": lambda x: Dataset(x, [1, 2, 3], EVENTS3, WORLD3.bin_edges),
}


@pytest.mark.parametrize("bad", BAD_FEATURES)
@pytest.mark.parametrize("boundary", FEATURE_BOUNDARIES)
def test_feature_matrices_follow_one_rule(boundary, bad):
    features, message = BAD_FEATURES[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        FEATURE_BOUNDARIES[boundary](features)


RAW3 = RawSurvivalData(np.zeros((3, 2)), T3, EVENTS3)
ONE_LENGTH = "'mean' and 'std' must be lists of one length"
POSITIVE = "'mean' must be finite and 'std' finite and positive"
BAD_STANDARDIZERS = {  # name -> (mean, std, message) for data with 2 features
    "mismatched lengths": ([0.0, 0.0], [1.0] * 3, f"{ONE_LENGTH}, got shapes (2,) and (3,)"),
    "2-d": ([[0.0, 0.0]], [[1.0, 1.0]], f"{ONE_LENGTH}, got shapes (1, 2) and (1, 2)"),
    "zero std": ([0.0, 0.0], [1.0, 0.0], POSITIVE),
    "inf std": ([0.0, 0.0], [1.0, np.inf], POSITIVE),
    "nan mean": ([0.0, np.nan], [1.0, 1.0], POSITIVE),
    "3 features": ([0.0] * 3, [1.0] * 3,
                   "'mean' and 'std' hold 3 entries but the data has 2 features"),
}


# the CLI's standardizer file gets the same values in test_cli's path-file table
@pytest.mark.parametrize("bad", BAD_STANDARDIZERS)
def test_standardizers_follow_one_rule(bad):
    mean, std, message = BAD_STANDARDIZERS[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        Standardizer(np.array(mean), np.array(std)).apply(RAW3)


NOT_WHOLE = "times must be 'all' or a 1-d sequence of whole horizons"
OUTSIDE = "times must lie in 1..2 (horizon 3 has zero survival past the last bin)"
BAD_HORIZONS = {  # name -> (horizon on K = 3 bins, message)
    "1.5": (1.5, NOT_WHOLE),
    "0": (0, OUTSIDE),
    "K": (3, OUTSIDE),
    "2-d": ([[1, 2]], NOT_WHOLE),
}
HORIZON_BOUNDARIES = {  # a horizon set is the horizon as a 1-d array, unless it is 2-d
    "resolve_times": lambda t: resolve_times(np.atleast_1d(t), 3),
    "batch_loss": lambda t: batch_loss(LossSpec("ipcw-bs", "failure", np.atleast_1d(t)), F3, G3,
                                       BATCH3),
    "per_horizon_loss": lambda t: per_horizon_loss(LossSpec("ipcw-bll", ROLES, np.atleast_1d(t)),
                                                   PAIR3, PAIR3[::-1], BATCH3),
    "ipcw_weight_arrays": lambda t: ipcw_weight_arrays("censor", F3, [1, 2, 3], EVENTS3,
                                                       np.atleast_1d(t)),
    "ipcw_per_sample": lambda t: ipcw_per_sample("ipcw-bs", "failure", t, F3, G3, [1, 2, 3],
                                                 EVENTS3),
}


@pytest.mark.parametrize("bad", BAD_HORIZONS)
@pytest.mark.parametrize("boundary", HORIZON_BOUNDARIES)
def test_horizons_follow_one_rule(boundary, bad):
    horizon, message = BAD_HORIZONS[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        HORIZON_BOUNDARIES[boundary](horizon)


FOUR = np.full(4, 0.25)
BAD_LOSS_PMFS = {  # name -> (own pmf, frozen pmf, message) on a 3-row batch
    "frozen K + 1": (F3, FOUR, "frozen_pmf must be (K,) or (n, K) with n = 3 and K = 3"),
    "frozen K - 1": (FOUR, G3, "frozen_pmf must be (K,) or (n, K) with n = 3 and K = 4"),
    "own 5 rows": (np.full((5, 3), 1 / 3), G3, "own_pmf must be (K,) or (n, K) with n = 3 and K = 3"),
    "frozen 5 rows": (F3, np.full((5, 3), 1 / 3),
                      "frozen_pmf must be (K,) or (n, K) with n = 3 and K = 3"),
}


def _batch_of(own):
    """The 3-row batch on the own pmf's K bins, so that only the named pmf is at fault."""
    return labelled([1, 2, 3], EVENTS3, np.shape(own)[-1])


LOSS_PMF_BOUNDARIES = {
    "batch_loss": lambda own, frozen: batch_loss(LossSpec("ipcw-bs", "failure"), own, frozen,
                                                 _batch_of(own)),
    "batch_loss roles": lambda own, frozen: batch_loss(LossSpec("ipcw-bll", ROLES),
                                                       np.stack([own, own]),
                                                       np.stack([frozen, frozen]), _batch_of(own)),
    "per_horizon_loss": lambda own, frozen: per_horizon_loss(LossSpec("ipcw-bll", "censor"), own,
                                                             frozen, _batch_of(own)),
    "ipcw_per_sample": lambda own, frozen: ipcw_per_sample("ipcw-bs", "failure", 1, own, frozen,
                                                           [1, 2, 3], EVENTS3),
}


@pytest.mark.parametrize("bad", BAD_LOSS_PMFS)
@pytest.mark.parametrize("boundary", LOSS_PMF_BOUNDARIES)
def test_loss_pmfs_follow_one_rule(boundary, bad):
    own, frozen, message = BAD_LOSS_PMFS[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        LOSS_PMF_BOUNDARIES[boundary](own, frozen)
