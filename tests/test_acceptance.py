"""Acceptance gate: one test per claimed property, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
Criterion 7's last clause asserts that likelihood training has the lowest
mean test NLL at the largest training size, n=1000. Likelihood training
early-stops on the very loss it is scored on, so leading on that metric is
a large-sample property only: at n=200 the game-trained models carry the
better test NLL (bll-game on every seed), which the printed line records
as per-seed values and paired differences but does not assert.
"""

import numpy as np
from conftest import labelled

import gamesurv as gs
from gamesurv import oracle
from gamesurv.cli import _sweep_point
from gamesurv.core import RawSurvivalData, discretize
from gamesurv.games import init_state, step_summed
from gamesurv.losses import (
    LossSpec,
    ipcw_bll_failure,
    ipcw_bs_failure,
    ipcw_mean,
    per_horizon_loss,
)
from gamesurv.metrics import concordance_index, eval_bs, km_fit, nll_metric
from gamesurv.models import ArchSpec, Model, loss_and_grad

TRUTH = gs.MarginalWorld([0.3, 0.7], [0.4, 0.6])


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_truth_is_stationary():
    # exact oracle gradients at the true parameters, then a Monte-Carlo
    # replica whose per-coordinate mean must sit within 3 standard errors
    # of zero at n = 1e6
    rng = np.random.default_rng(2026)
    worst_oracle = 0.0
    worst_z = 0.0
    for i in range(20):
        k = int(rng.integers(2, 5))
        w = gs.random_interior_world(k, rng)
        for family in ("ipcw-bs", "ipcw-bll"):
            xi_t, xi_c = oracle.population_gradients(w, w.theta_t, w.theta_c, family)
            worst_oracle = max(worst_oracle, np.abs(xi_t).max(), np.abs(xi_c).max())
        ds = gs.gen_marginal(w, 1_000_000, seed=i)
        fhat = np.tile(w.theta_t, (ds.n, 1))
        ghat = np.tile(w.theta_c, (ds.n, 1))
        chunks = np.array_split(np.arange(ds.n), 100)
        for family in ("ipcw-bs", "ipcw-bll"):
            for role, own, frozen in (("failure", fhat, ghat), ("censor", ghat, fhat)):
                means = np.empty((len(chunks), k - 1))
                for c, ix in enumerate(chunks):
                    _, coefs = per_horizon_loss(LossSpec(family, role),
                                                own[ix], frozen[ix], ds.batch(ix))
                    means[c] = coefs
                se = means.std(axis=0, ddof=1) / np.sqrt(len(chunks))
                worst_z = max(worst_z, (np.abs(means.mean(axis=0)) / se).max())
    ok = worst_oracle < 1e-10 and worst_z < 3.0
    _line(1, ok, f"oracle gradient at truth {worst_oracle:.2e} < 1e-10, "
                 f"MC |z| {worst_z:.2f} < 3 over 20 worlds")


def test_criterion_02_truth_is_the_only_root():
    for k in (2, 3, 4):
        w = gs.random_interior_world(k, np.random.default_rng(k))
        scan = oracle.stationary_scan(w, n_starts=100, seed=k)
        assert len(scan.roots) == 1, (k, scan.roots)
        assert scan.max_truth_deviation < 1e-8
        assert scan.induction_agrees
    rng = np.random.default_rng(77)
    min_qy = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        w = gs.random_interior_world(k, rng)
        for step in range(1, k):
            min_qy = min(min_qy, oracle.spurious_gbs_root_qy(w, step))
    ok = min_qy > 1.0
    _line(2, ok, f"100-start scans find one root matching truth for K=2,3,4; "
                 f"min spurious q+y over 1000 worlds {min_qy:.4f} > 1")


def test_criterion_03_summed_objective_is_improper():
    scan = oracle.joint_objective_scan(TRUTH, resolution=201)
    gap = scan.truth_value - scan.min_value
    ok = (scan.improper and abs(scan.truth_value - 0.45) < 1e-12
          and gap > 0.02 and abs(scan.argmin_x - 0.3) > 0.1)
    _line(3, ok, f"joint minimum {scan.min_value:.6f} at x={scan.argmin_x:.4f} sits "
                 f"{gap:.4f} below the truth value 0.45, far beyond one grid cell")


def test_criterion_04_ipcw_identities():
    # (a) with no censored rows and a point-mass censor model, every
    # weight is 1 and the IPCW scores are bitwise the plain scores on a
    # batch enumerating every uncensored outcome
    k = 4
    rng = np.random.default_rng(55)
    f = rng.dirichlet(np.ones(k), size=k)
    u = np.arange(1, k + 1)
    ev = np.ones(k, bool)
    g_free = np.zeros(k)
    g_free[-1] = 1.0
    cdf = np.cumsum(f, axis=1)
    for t in range(1, k):
        ind = (u <= t).astype(float)
        plain_bs = (ind - cdf[:, t - 1]) ** 2
        plain_bll = -ind * np.log(cdf[:, t - 1]) - (1 - ind) * np.log(1 - cdf[:, t - 1])
        np.testing.assert_array_equal(ipcw_bs_failure(t, f, g_free, u, ev), plain_bs)
        np.testing.assert_array_equal(ipcw_bll_failure(t, f, g_free, u, ev), plain_bll)
    # (b) exact population example: T, C independent uniform on {1, 2}
    time_bin = np.array([1, 1, 1, 2])
    event = np.array([True, True, False, True])
    exact = ipcw_mean(time_bin, event, np.array([0.5, 0.5]))
    assert exact == 1.5
    # (c) Monte-Carlo unbiasedness for E[T] with the true censor weights
    w = gs.MarginalWorld([0.25, 0.45, 0.3], [0.5, 0.25, 0.25])
    e_t = np.dot(np.arange(1, 4), w.theta_t)
    rng = np.random.default_rng(17)
    n = 100_000
    t = rng.choice([1, 2, 3], p=w.theta_t, size=n)
    c = rng.choice([1, 2, 3], p=w.theta_c, size=n)
    u2 = np.minimum(t, c)
    ev2 = t <= c
    est = ipcw_mean(u2, ev2, w.theta_c)
    pad_c = np.concatenate([[0.0], np.cumsum(w.theta_c)])
    contrib = np.where(ev2, u2 / (1.0 - pad_c[u2 - 1]), 0.0)
    z = abs(est - e_t) / (contrib.std(ddof=1) / np.sqrt(n))
    ok = z < 3.0
    _line(4, ok, f"censoring-free scores bitwise equal, population example 1.5 exact, "
                 f"MC mean {est:.4f} vs E[T]={e_t} at |z|={z:.2f} < 3")


def _min_preactivation(model, feats):
    h = feats
    closest = np.inf
    for i in range(len(model.arch.hidden)):
        z = h @ model.view(f"W{i}").T + model.view(f"b{i}")
        closest = min(closest, np.abs(z).min())
        h = np.maximum(z, 0.0)
    return closest


def test_criterion_05_gradients_match_finite_differences():
    rng = np.random.default_rng(505)
    specs = [
        LossSpec("ipcw-bs", "failure"),
        LossSpec("ipcw-bs", "censor"),
        LossSpec("ipcw-bll", "failure"),
        LossSpec("ipcw-bll", "censor"),
        LossSpec("nll", "failure"),
        LossSpec("nll", "censor"),
    ]
    cases = 0
    worst = 0.0
    for trial in range(18):
        k = int(rng.integers(2, 5))
        kind = ("marginal", "marginal-prob", "mlp")[trial % 3]
        if kind == "mlp":
            arch = ArchSpec("mlp", n_bins=k, feature_dim=int(rng.integers(2, 6)),
                            hidden=((5,), (7,), (6, 4))[trial % 3])
        else:
            arch = ArchSpec(kind, n_bins=k)
        n = int(rng.integers(8, 16))
        if kind == "marginal-prob":
            params = rng.dirichlet(np.ones(k))[:-1]
        else:
            params = Model.init(arch, seed=trial, init_scale=0.4).params
        feats = None
        if kind == "mlp":
            # central differences cannot cross a relu kink; redraw inputs
            # until every pre-activation clears the step size
            feats = rng.normal(size=(n, arch.feature_dim))
            while _min_preactivation(Model(arch, params), feats) < 1e-4:
                feats = rng.normal(size=(n, arch.feature_dim))
        batch = labelled(rng.integers(1, k + 1, size=n), rng.random(n) < 0.6, k, feats)
        frozen = rng.dirichlet(np.ones(k), size=n)
        for spec in specs:
            out = loss_and_grad(Model(arch, params), frozen, batch, spec)
            fd = np.empty_like(params)
            for i in range(params.size):
                up = params.copy()
                dn = params.copy()
                up[i] += 1e-6
                dn[i] -= 1e-6
                hi = loss_and_grad(Model(arch, up), frozen, batch, spec).value
                lo = loss_and_grad(Model(arch, dn), frozen, batch, spec).value
                fd[i] = (hi - lo) / 2e-6
            err = np.abs(out.grad - fd).max() / max(np.abs(fd).max(), 1.0)
            worst = max(worst, err)
            cases += 1
    ok = cases >= 100 and worst < 1e-5
    _line(5, ok, f"{cases} randomized (arch, batch, loss) cases, "
                 f"worst relative gradient error {worst:.2e} < 1e-5")


def test_criterion_06_population_game_converges():
    pb = gs.population_batch(TRUTH)
    worst_dev = 0.0
    for s in range(20):
        cfg = gs.TrainConfig(objective="bs-game", optimizer="sgd", learning_rate=0.25,
                             epochs=0, seed=s, init_scale=1.5)
        state = init_state(2, 0, cfg)
        for _ in range(2000):
            step_summed(state, pb)
        f = state.model_f.predict_pmf(n=1)[0]
        g = state.model_g.predict_pmf(n=1)[0]
        worst_dev = max(worst_dev, abs(f[0] - 0.3), abs(g[0] - 0.4))
    ok = worst_dev < 1e-4
    _line(6, ok, f"20 random inits, worst distance to truth after "
                 f"simultaneous GD {worst_dev:.2e} < 1e-4")


def test_criterion_07_training_trends():
    cfg = {
        "generator": {"kind": "gamma"},
        "n_val": 1000, "n_test": 3000, "n_bins": 20,
        "train": {"epochs": 100, "hidden": [128, 64, 64],
                  "batch_size": 64, "learning_rate": 1e-3},
        "selection": {"enabled": True},
        "weighting": "uncensored-latent",
    }
    res, nll_rows = {}, {}
    for obj in ("nll", "bs-game", "bll-game"):
        for n in (200, 1000):
            rows = [_sweep_point({"cfg": cfg, "objective": obj, "size": n, "seed": s})["report"]
                    for s in range(5)]
            nll_rows[(obj, n)] = np.array([r["nll"] for r in rows])
            res[(obj, n)] = (np.mean([r["bs_sum"] for r in rows]), nll_rows[(obj, n)].mean())
    a_ok = res[("bs-game", 200)][0] <= res[("nll", 200)][0]
    gap = abs(res[("bs-game", 1000)][0] - res[("nll", 1000)][0]) / res[("nll", 1000)][0]
    b_ok = gap < 0.20
    c_ok = res[("nll", 1000)][1] <= min(res[("bs-game", 1000)][1], res[("bll-game", 1000)][1])

    def nll_detail(n):
        # per-seed test NLL shares a model-independent offset (rows censored
        # in bin K cost -log(floor) under every model), so only the paired
        # difference nll - game, with its SE over seeds, is comparable
        parts = [f"{obj} {res[(obj, n)][1]:.4f}" for obj in ("nll", "bs-game", "bll-game")]
        seeds = "; ".join(f"{obj} [{', '.join(f'{v:.4f}' for v in nll_rows[(obj, n)])}]"
                          for obj in ("nll", "bs-game", "bll-game"))
        diffs = []
        for game in ("bs-game", "bll-game"):
            d = nll_rows[("nll", n)] - nll_rows[(game, n)]
            diffs.append(f"nll-{game} {d.mean():+.4f} (SE {d.std(ddof=1) / np.sqrt(d.size):.4f})")
        return f"n={n} {', '.join(parts)}; per seed {seeds}; paired {', '.join(diffs)}"

    detail = (f"(a) test BS at n=200: game {res[('bs-game', 200)][0]:.4f} vs "
              f"likelihood {res[('nll', 200)][0]:.4f} [{'ok' if a_ok else 'FAIL'}]; "
              f"(b) n=1000 relative gap {gap:.2%} < 20% [{'ok' if b_ok else 'FAIL'}]; "
              f"(c) likelihood best on test NLL at n=1000 [{'ok' if c_ok else 'FAIL'}: "
              f"{nll_detail(1000)}]; not asserted, small-sample test NLL [{nll_detail(200)}]")
    # clause (c) holds at the largest size only: likelihood training
    # early-stops on the test metric's own loss, so its lead is a
    # large-sample property; at n=200 the MLP overfits within a few epochs
    # and bll-game wins test NLL on every seed, printed above, not asserted
    _line(7, a_ok and b_ok and c_ok, detail)


def test_criterion_08_nll_and_bs_rankings_disagree():
    lrs = np.logspace(-4, -2, 5)
    argmins = []
    for seed in (0, 1, 2):
        raw = gs.gen_gamma(gs.GammaSimConfig(n=500, seed=(seed, 0)))
        std = gs.Standardizer.fit(raw.features)
        tr = discretize(std.apply(raw), n_bins=10)
        test_raw = gs.gen_gamma(gs.GammaSimConfig(n=3000, seed=(seed, 2)))
        test = discretize(std.apply(test_raw), edges=tr.bin_edges)
        nlls, bss = [], []
        for lr in lrs:
            cfg = gs.TrainConfig(objective="nll", epochs=60, hidden=(32, 16),
                                 batch_size=64, learning_rate=float(lr), seed=seed)
            state = gs.train(tr, cfg)
            pt = state.model_f.predict_pmf(test.features)
            nlls.append(nll_metric(pt, test))
            bss.append(eval_bs(pt, test, "uncensored-latent").sum())
        argmins.append((int(np.argmin(nlls)), int(np.argmin(bss))))
    disagreements = sum(a != b for a, b in argmins)
    ok = disagreements >= 1
    _line(8, ok, f"argmin (NLL, BS) over 5 learning rates per seed: {argmins}; "
                 f"{disagreements} of 3 seeds disagree")


def test_criterion_09_population_nll_tracks_censoring():
    log3 = np.log(3.0)
    worst = max(abs(oracle.nll_censoring_dependence(rho) - (1.0 - rho) * log3)
                for rho in (0.0, 0.25, 0.5, 1.0))
    ok = worst < 1e-15
    _line(9, ok, f"population failure NLL equals (1-rho)*log 3, "
                 f"max deviation {worst:.1e} over rho in {{0, 0.25, 0.5, 1}}")


def test_criterion_10_metric_oracles():
    # fast concordance against a quadratic reference on heavily tied data
    rng = np.random.default_rng(10)
    n = 200
    time = rng.integers(1, 6, size=n)
    event = rng.random(n) < 0.6
    risk = np.round(rng.normal(size=n), 1)
    conc = 0.0
    admissible = 0
    for i in range(n):
        if not event[i]:
            continue
        for j in range(n):
            if i == j:
                continue
            if time[i] < time[j] or (time[i] == time[j] and not event[j]):
                admissible += 1
                conc += 1.0 if risk[i] > risk[j] else (0.5 if risk[i] == risk[j] else 0.0)
    brute = conc / admissible
    fast = concordance_index(risk, time, event)
    assert fast == brute
    # KM hand case
    km = km_fit(np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1, 1, 1, 0, 1], bool))
    np.testing.assert_allclose(km.surv, [0.8, 0.4, 0.4, 0.0], atol=1e-15)
    # KM-weighted BS on censoring-free data is bitwise the plain score
    raw = RawSurvivalData(rng.normal(size=(300, 2)), rng.gamma(2.0, 1.0, 300),
                          np.ones(300, bool))
    ds = discretize(raw, n_bins=5)
    pmf = rng.dirichlet(np.ones(5), size=300)
    cdf = np.cumsum(pmf, axis=1)
    ind = (ds.time_bin[:, None] <= np.arange(1, 5)[None, :]).astype(float)
    plain = ((ind - cdf[:, :-1]) ** 2).mean(axis=0)
    np.testing.assert_array_equal(eval_bs(pmf, ds, weighting="km"), plain)
    _line(10, True, f"fast concordance {fast:.4f} equals brute force exactly; "
                    f"KM hand case and censoring-free identity exact")
