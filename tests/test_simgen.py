"""Simulation generators, marginal worlds, and file round trips."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from gamesurv.core import RawSurvivalData, assign_bins
from gamesurv.losses import ClampStats, LossSpec, batch_loss
from gamesurv.simgen import (
    GammaSimConfig,
    MarginalWorld,
    Standardizer,
    gamma_from_uniform,
    gen_gamma,
    gen_marginal,
    load_csv,
    load_latent_csv,
    population_batch,
    random_interior_world,
    read_bin_edges,
    save_csv,
    save_latent_csv,
    write_bin_edges,
)


def test_gamma_from_uniform_matches_scipy():
    # mean 1, variance 0.05 is shape 20, scale 0.05
    u = np.array([0.1, 0.5, 0.9])
    got = gamma_from_uniform(np.ones(3), 0.05, u)
    np.testing.assert_array_equal(got, stats.gamma.ppf(u, a=20.0, scale=0.05))
    # general mean vector: matching first two moments
    rng = np.random.default_rng(0)
    mean = rng.uniform(0.5, 3.0, size=1000)
    x = gamma_from_uniform(mean, 0.05, rng.random(1000))
    shape = mean**2 / 0.05
    np.testing.assert_allclose(x, stats.gamma.ppf(stats.gamma.cdf(x, a=shape, scale=0.05 / mean),
                                                  a=shape, scale=0.05 / mean), rtol=1e-12)


def test_gamma_from_uniform_is_monotone_in_u():
    mean = np.full(100, 1.7)
    u = np.linspace(0.01, 0.99, 100)
    x = gamma_from_uniform(mean, 0.05, u)
    assert np.all(np.diff(x) > 0)


def test_gen_gamma_shapes_and_ties():
    raw = gen_gamma(GammaSimConfig(n=500, seed=4))
    assert raw.features.shape == (500, 32)
    assert raw.time.shape == (500,)
    # the indicator is fixed at generation: ties count as events
    np.testing.assert_array_equal(raw.event, raw.latent_time <= raw.latent_censor)
    np.testing.assert_allclose(raw.time, np.minimum(raw.latent_time, raw.latent_censor))
    assert np.all(raw.time > 0)


def test_gen_gamma_censoring_rate():
    # censor mean at 0.9x the failure mean gives roughly two-thirds censoring
    raw = gen_gamma(GammaSimConfig(n=20_000, seed=0))
    assert 1.0 - raw.event.mean() == pytest.approx(0.6795, abs=1e-12)


def test_gen_gamma_prefix_stable():
    small = gen_gamma(GammaSimConfig(n=300, seed=9))
    big = gen_gamma(GammaSimConfig(n=1500, seed=9))
    np.testing.assert_array_equal(small.features, big.features[:300])
    np.testing.assert_array_equal(small.time, big.time[:300])
    np.testing.assert_array_equal(small.event, big.event[:300])
    np.testing.assert_array_equal(small.latent_censor, big.latent_censor[:300])


def test_gen_gamma_tuple_seeds_differ():
    a = gen_gamma(GammaSimConfig(n=100, seed=(3, 0)))
    b = gen_gamma(GammaSimConfig(n=100, seed=(3, 1)))
    c = gen_gamma(GammaSimConfig(n=100, seed=(3, 0)))
    assert not np.array_equal(a.time, b.time)
    np.testing.assert_array_equal(a.time, c.time)


def test_marginal_world_validation():
    with pytest.raises(ValueError):
        MarginalWorld([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError):
        MarginalWorld([0.5, 0.5], [0.5, 0.5, 0.0])
    w = MarginalWorld([0.3, 0.7], [0.4, 0.6])
    assert w.n_bins == 2
    assert w.pmfs.min() > 0


def test_marginal_world_tables_are_read_only_copies():
    theta_t = np.array([0.2, 0.3, 0.5])
    w = MarginalWorld(theta_t, [0.1, 0.6, 0.3])
    theta_t[0] = 0.9  # the caller's array is not the world's
    for row, pmf in enumerate((w.theta_t, w.theta_c)):
        assert np.shares_memory(pmf, w.pmfs)
        cdf = np.concatenate([[0.0], np.cumsum(w.pmfs[row])])
        assert w.cdfs[row].tobytes() == cdf.tobytes()
        assert w.survs[row].tobytes() == (1.0 - cdf).tobytes()
    assert w.theta_t[0] == 0.2
    for table in (w.theta_t, w.pmfs, w.cdfs, w.survs, w.outcomes):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5


def test_random_interior_world_mass_floor():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        w = random_interior_world(k, rng)
        assert w.theta_t.min() >= 0.02 and w.theta_c.min() >= 0.02
        assert w.theta_t.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.pmfs.min() > 0


def test_random_interior_world_rejects_unreachable_floors():
    # (1 - K * 0.02)^(K-1) < 1e-6 from K = 24 on: the rejection loop would not end
    for k in (24, 30, 60):
        with pytest.raises(ValueError, match=f"n_bins={k}.*min_mass=0.02"):
            random_interior_world(k, np.random.default_rng(0))
    # seeded draws the rejection sampler has always made stay the same
    w0 = random_interior_world(4, np.random.default_rng(0))
    assert w0.theta_t.tolist() == [
        0.1524847086420527, 0.4516111766669403, 0.18663110833286156, 0.2092730063581455
    ]
    assert w0.theta_c.tolist() == [
        0.5939582519363663, 0.06675342335601325, 0.05790999541693114, 0.28137832929068934
    ]
    w7 = random_interior_world(4, np.random.default_rng(7))
    assert w7.theta_t.tolist() == [
        0.22135252793178753, 0.3207377658683681, 0.1778720548073249, 0.2800376513925194
    ]
    assert w7.theta_c.tolist() == [
        0.33272609678429865, 0.17380465103831522, 0.31294938783849685, 0.18051986433888936
    ]


def test_gen_marginal_matches_world():
    w = MarginalWorld([0.3, 0.5, 0.2], [0.4, 0.3, 0.3])
    ds = gen_marginal(w, 200_000, seed=1)
    assert ds.features.shape == (200_000, 0)
    # U = min(T, C), ties are events
    lat_t = assign_bins(ds.latent_time, ds.bin_edges)
    lat_c = assign_bins(ds.latent_censor, ds.bin_edges)
    np.testing.assert_array_equal(ds.time_bin, np.minimum(lat_t, lat_c))
    np.testing.assert_array_equal(ds.event, lat_t <= lat_c)
    # empirical bin frequencies approach the world's pmfs
    freq_t = np.bincount(lat_t, minlength=4)[1:] / ds.n
    freq_c = np.bincount(lat_c, minlength=4)[1:] / ds.n
    np.testing.assert_allclose(freq_t, w.theta_t, atol=5e-3)
    np.testing.assert_allclose(freq_c, w.theta_c, atol=5e-3)


def test_gen_marginal_prefix_stable():
    w = MarginalWorld([0.3, 0.7], [0.4, 0.6])
    small = gen_marginal(w, 50, seed=2)
    big = gen_marginal(w, 400, seed=2)
    np.testing.assert_array_equal(small.time_bin, big.time_bin[:50])
    np.testing.assert_array_equal(small.event, big.event[:50])


def test_population_batch_enumerates_outcomes():
    w = MarginalWorld([0.3, 0.5, 0.2], [0.4, 0.3, 0.3])
    pb = population_batch(w)
    assert pb.weight is not None
    assert pb.weight.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pb.weight > 0)
    # every (u, delta) pair appears at most once
    keys = {(int(u), bool(e)) for u, e in zip(pb.time_bin, pb.event)}
    assert len(keys) == pb.n
    # outcome probabilities: P(U=u, delta=1) = f(u) Gbar(u-), P(U=u, delta=0) = g(u) Fbar(u)
    pad_t = np.concatenate([[0.0], np.cumsum(w.theta_t)])
    pad_c = np.concatenate([[0.0], np.cumsum(w.theta_c)])
    for u, e, wt in zip(pb.time_bin, pb.event, pb.weight):
        if e:
            expect = w.theta_t[u - 1] * (1.0 - pad_c[u - 1])
        else:
            expect = w.theta_c[u - 1] * (1.0 - pad_t[u])
        assert wt == pytest.approx(expect, abs=1e-15)


def test_population_batches_of_random_worlds_read_the_outcome_table():
    # the cdf's last entry rounds above 1 in some worlds and below 1 in
    # others, where P(T > K) is a hair above 0 but censoring at K stays
    # impossible
    rng = np.random.default_rng(2024)
    last_cdf = []
    for _ in range(2000):
        w = random_interior_world(int(rng.integers(2, 9)), rng)
        K = w.n_bins
        last_cdf.append(w.cdfs[0, -1])
        pb = population_batch(w)
        assert np.all(pb.weight > 0)
        assert not np.any((pb.time_bin == K) & ~pb.event)
        assert w.outcomes[1, -1] == 0.0
        occurs = w.outcomes > 0
        np.testing.assert_array_equal(pb.weight, w.outcomes[occurs])
        np.testing.assert_array_equal(pb.time_bin, np.nonzero(occurs)[1] + 1)
        np.testing.assert_array_equal(pb.event, np.nonzero(occurs)[0] == 0)
        assert abs(pb.weight.sum() - 1.0) <= 1e-12
        stats = ClampStats()
        batch_loss(LossSpec("nll", "failure"), w.theta_t, None, pb, stats)
        assert stats.count == 0
    last_cdf = np.array(last_cdf)
    assert np.any(last_cdf > 1.0) and np.any(last_cdf < 1.0)


def test_standardizer():
    rng = np.random.default_rng(8)
    x = rng.normal(3.0, 2.5, size=(400, 5))
    x[:, 2] = 7.0  # constant column maps to exactly zero, not NaN
    raw = RawSurvivalData(x, np.ones(400), np.ones(400, bool))
    std = Standardizer.fit(x)
    z = std.apply(raw).features
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_array_equal(z[:, 2], 0.0)
    keep = [0, 1, 3, 4]
    np.testing.assert_allclose(z[:, keep].std(axis=0), 1.0, atol=1e-12)
    # frozen transform: new data reuses the training moments
    y = rng.normal(size=(10, 5))
    fresh = std.apply(RawSurvivalData(y, np.ones(10), np.ones(10, bool)))
    np.testing.assert_allclose(fresh.features, (y - std.mean) / std.std)


def test_csv_roundtrip_bitexact(tmp_path):
    raw = gen_gamma(GammaSimConfig(n=64, seed=6))
    p = tmp_path / "data.csv"
    save_csv(p, raw)
    header = p.read_text().splitlines()[0]
    assert header == ",".join([f"f{i}" for i in range(32)] + ["time", "event"])
    back = load_csv(p)
    np.testing.assert_array_equal(back.features, raw.features)
    np.testing.assert_array_equal(back.time, raw.time)
    np.testing.assert_array_equal(back.event, raw.event)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(0, 3), data=st.data())
def test_csv_roundtrip_is_exact_for_any_finite_values(tmp_path, d, data):
    # repr(float) round-trips every double, signed zeros and subnormals too
    rows = data.draw(st.lists(st.tuples(st.lists(_FINITE, min_size=d, max_size=d), _FINITE,
                                        st.booleans()), max_size=8))
    raw = RawSurvivalData(np.array([r[0] for r in rows], dtype=float).reshape(len(rows), d),
                          np.array([r[1] for r in rows], dtype=float),
                          np.array([r[2] for r in rows], dtype=bool))
    p = tmp_path / "data.csv"
    save_csv(p, raw)
    back = load_csv(p)
    for got, want in zip((back.features, back.time, back.event),
                         (raw.features, raw.time, raw.event)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=st.lists(_FINITE, min_size=2, max_size=12, unique=True))
def test_bin_edges_roundtrip_is_exact(tmp_path, edges):
    # bin edges are finite and strictly increasing; any others are invalid input
    edges = np.array(sorted(edges))
    p = tmp_path / "edges.json"
    write_bin_edges(p, edges)
    assert read_bin_edges(p).tobytes() == edges.tobytes()


def test_latent_csv_roundtrip(tmp_path):
    raw = gen_gamma(GammaSimConfig(n=32, seed=6))
    p = tmp_path / "latent.csv"
    save_latent_csv(p, raw)
    assert p.read_text().splitlines()[0] == "t_latent,c_latent"
    t, c = load_latent_csv(p)
    np.testing.assert_array_equal(t, raw.latent_time)
    np.testing.assert_array_equal(c, raw.latent_censor)


def test_load_csv_reports_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,time,event\n0.1,1.5,1\n0.2,oops,0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("t,c\n1.0,2.0\n", "line 1: expected header t_latent,c_latent"),
        ("t_latent,c_latent\n1.0,2.0\n3.0\n", "line 3: expected 2 fields, got 1"),
        ("t_latent,c_latent\n1.0,2.0\n\n1.5,x\n", "line 4: could not convert"),
    ],
)
def test_load_latent_csv_names_the_file_and_line(tmp_path, text, message):
    p = tmp_path / "latent.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}"):
        load_latent_csv(p)


def test_bin_edges_roundtrip(tmp_path):
    edges = np.array([0.0, 0.5, 1.25, 9.75])
    p = tmp_path / "edges.json"
    write_bin_edges(p, edges)
    np.testing.assert_array_equal(read_bin_edges(p), edges)
