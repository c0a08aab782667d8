"""Data containers and discretization."""

import numpy as np
import pytest

from gamesurv.core import (
    Batch,
    CategoricalSurvival,
    Dataset,
    RawSurvivalData,
    assign_bins,
    bin_lower_bounds,
    discretize,
    quantile_discretize,
)


def test_categorical_accessors():
    d = CategoricalSurvival(np.array([0.3, 0.5, 0.2]))
    assert d.n_bins == 3
    assert d.cdf(0) == 0.0
    assert d.cdf(2) == 0.8
    assert d.cdf(3) == 1.0
    assert d.surv(1) == 0.7
    # left limit includes the mass at t itself
    assert d.surv_left(2) == 0.7
    assert d.surv_left(1) == 1.0
    assert d.surv(2) == pytest.approx(0.2)


def test_categorical_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CategoricalSurvival(np.array([1.2, -0.2]))
    with pytest.raises(ValueError, match="sums to"):
        CategoricalSurvival(np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="outside"):
        CategoricalSurvival(np.array([0.5, 0.5])).cdf(3)
    with pytest.raises(ValueError, match="outside"):
        CategoricalSurvival(np.array([0.5, 0.5])).surv_left(0)


def test_assign_bins_hand_case():
    edges = np.array([0.0, 1.0, 2.0, 4.0])
    times = np.array([0.5, 1.0, 3.9, 4.0, 5.0, -1.0])
    # bins are [e_{j-1}, e_j) with the last closed; out-of-range times clip
    np.testing.assert_array_equal(assign_bins(times, edges), [1, 2, 3, 3, 3, 1])


def test_bin_lower_bounds():
    np.testing.assert_array_equal(bin_lower_bounds(np.array([0.0, 1.0, 2.0, 4.0])), [0.0, 1.0, 2.0])


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
    with pytest.raises(ValueError, match="same shape"):
        Batch(np.array([1, 2]), np.array([True]))
    with pytest.raises(ValueError, match="1-indexed"):
        Batch(np.array([0, 2]), np.array([True, False]))
    with pytest.raises(ValueError, match="nonnegative"):
        Batch(np.array([1]), np.array([True]), weight=np.array([-1.0]))
    with pytest.raises(ValueError, match="time_bin is empty"):
        Batch(np.array([], int), np.array([], bool)).norm_weight()
    b = Batch(np.array([1, 2, 2]), np.array([True, False, True]))
    np.testing.assert_allclose(b.norm_weight(), 1.0 / 3.0)
    bw = Batch(np.array([1, 2]), np.array([True, False]), weight=np.array([1.0, 3.0]))
    np.testing.assert_allclose(bw.norm_weight(), [0.25, 0.75])


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
    with pytest.raises(ValueError, match="outside"):
        Dataset(feats, np.array([1, 1, 3]), np.ones(3, bool), edges)
    with pytest.raises(ValueError, match="inconsistent"):
        Dataset(feats, np.array([1, 1, 2]), np.ones(3, bool), edges,
                raw_time=np.array([0.5, 1.5, 1.5]))


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
    sub = ds.subset(np.arange(10))
    assert sub.n == 10
    np.testing.assert_array_equal(sub.bin_edges, ds.bin_edges)
    assert sub.latent_time is not None and sub.latent_time.size == 10
    recs = ds.records()
    assert len(recs) == 50
    assert recs[7].time_bin == int(ds.time_bin[7])
    assert recs[7].event == bool(ds.event[7])
