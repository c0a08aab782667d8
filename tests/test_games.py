"""Simultaneous-descent training loops and validation-set selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesurv import games, losses
from gamesurv.core import Batch
from gamesurv.games import (
    TrainConfig,
    _Adam,
    _alternating_argmin,
    _project_simplex_coords,
    _selection_tables,
    _step_metrics,
    family_of,
    init_state,
    select_models,
    step_multiplayer,
    step_summed,
    train,
)
from gamesurv.losses import LossSpec, batch_loss
from gamesurv.models import loss_and_grad
from gamesurv.oracle import population_fbs, population_gbs
from gamesurv.simgen import MarginalWorld, gen_marginal, population_batch

TRUTH = MarginalWorld([0.3, 0.7], [0.4, 0.6])


def test_family_of():
    assert family_of("bs-game") == "ipcw-bs"
    assert family_of("bll-game") == "ipcw-bll"
    assert family_of("nll") == "nll"
    with pytest.raises(ValueError, match="objective"):
        family_of("mse")


def test_train_config_validation():
    with pytest.raises(ValueError, match="game_form"):
        TrainConfig(game_form="solo")
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="'nll' has no per-horizon game"):
        TrainConfig(objective="nll", game_form="multiplayer")
    with pytest.raises(ValueError, match="nonnegative"):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(batch_size=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
    for bad in (2.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="weight_floor"):
            TrainConfig(weight_floor=bad)


def test_train_rejects_empty_dataset():
    empty = gen_marginal(TRUTH, 10, seed=0).subset(np.array([], int))
    with pytest.raises(ValueError, match="time_bin"):
        train(empty, TrainConfig(objective="bs-game", epochs=1))


def _sigmoid_pair(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_one_step_matches_hand_chain():
    # two bins, three observations: an event at 1, a censoring at 1, an
    # event at 2. Single horizon t=1, so both players' games reduce to a
    # scalar chain that fits on paper:
    #   L_F = [(1-F1)^2 + F1^2/(1-G1)] / 3
    #   L_G = [(1-G1)^2 + G1^2] / (3 (1-F1))
    # both evaluated at the pre-step parameters of the *other* player.
    zf = np.array([0.2, -0.1])
    zg = np.array([-0.3, 0.4])
    lr = 0.05
    batch = Batch(np.array([1, 1, 2]), np.array([True, False, True]))

    for objective in ("bs-game", "bll-game"):
        cfg = TrainConfig(objective=objective, optimizer="sgd", learning_rate=lr, epochs=0)
        state = init_state(2, 0, cfg)
        state.pair.params[0] = zf
        state.pair.params[1] = zg

        f1 = _sigmoid_pair(zf)[0]
        g1 = _sigmoid_pair(zg)[0]
        if objective == "bs-game":
            loss_f = ((1 - f1) ** 2 + f1**2 / (1 - g1)) / 3
            loss_g = ((1 - g1) ** 2 + g1**2) / (3 * (1 - f1))
            dldf = (-2 * (1 - f1) + 2 * f1 / (1 - g1)) / 3
            dldg = (-2 * (1 - g1) + 2 * g1) / (3 * (1 - f1))
        else:
            loss_f = (-np.log(f1) - np.log(1 - f1) / (1 - g1)) / 3
            loss_g = (-np.log(g1) - np.log(1 - g1)) / (3 * (1 - f1))
            dldf = (-1 / f1 + 1 / ((1 - f1) * (1 - g1))) / 3
            dldg = (-1 / g1 + 1 / (1 - g1)) / (3 * (1 - f1))
        jac = np.array([1.0, -1.0])  # d pmf[0] / d logits, up to p(1-p)
        want_zf = zf - lr * dldf * f1 * (1 - f1) * jac
        want_zg = zg - lr * dldg * g1 * (1 - g1) * jac

        metrics = step_summed(state, batch)
        assert metrics["loss_F"] == pytest.approx(loss_f, rel=1e-12)
        assert metrics["loss_G"] == pytest.approx(loss_g, rel=1e-12)
        # the censor update sees the pre-step F1: simultaneity, not Gauss-Seidel
        np.testing.assert_allclose(state.model_f.params, want_zf, rtol=0, atol=1e-14)
        np.testing.assert_allclose(state.model_g.params, want_zg, rtol=0, atol=1e-14)


@settings(max_examples=40)
@given(
    objective=st.sampled_from(["nll", "bs-game", "bll-game"]),
    feature_dim=st.sampled_from([0, 3]),
    n_bins=st.integers(2, 5),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_summed_is_two_frozen_single_steps(objective, feature_dim, n_bins, n, seed):
    # one pair step equals each player's own loss_and_grad with the other
    # player's pre-step pmf frozen, followed by its own SGD update
    rng = np.random.default_rng(seed)
    lr = 0.1
    cfg = TrainConfig(objective=objective, optimizer="sgd", learning_rate=lr, epochs=0,
                      hidden=(4, 3), init_scale=1.0, seed=int(rng.integers(100)))
    state = init_state(n_bins, feature_dim, cfg)
    features = rng.normal(size=(n, feature_dim)) if feature_dim else None
    batch = Batch(rng.integers(1, n_bins + 1, size=n), rng.random(n) < 0.6, features)
    f, g = state.model_f, state.model_g
    game = family_of(objective) != "nll"
    frozen_g = g.predict_pmf(features, n=n) if game else None
    frozen_f = f.predict_pmf(features, n=n) if game else None
    want_f = loss_and_grad(f, frozen_g, batch, LossSpec(family_of(objective), "failure"))
    want_g = loss_and_grad(g, frozen_f, batch, LossSpec(family_of(objective), "censor"))
    metrics = step_summed(state, batch)
    assert (metrics["loss_F"], metrics["loss_G"]) == (want_f.value, want_g.value)
    np.testing.assert_array_equal(state.pair.params[0], f.params - lr * want_f.grad)
    np.testing.assert_array_equal(state.pair.params[1], g.params - lr * want_g.grad)


def test_step_names_the_player_with_a_non_finite_gradient():
    # under the likelihood the players are independent, so a NaN in the
    # censoring model's parameters reaches only its own gradient
    state = init_state(3, 0, TrainConfig(objective="nll", optimizer="sgd", epochs=0))
    state.pair.params[1, 0] = np.nan
    with pytest.raises(RuntimeError, match="for the censoring model at epoch 0"):
        step_summed(state, Batch(np.array([1, 2]), np.array([True, False])))


def test_step_metrics_check_rows_only_when_a_norm_is_not_finite():
    state = init_state(2, 0, TrainConfig(objective="bs-game", epochs=0))
    values = np.array([0.5, 0.25])
    for bad in (np.nan, np.inf):
        grad = np.array([[bad, 1.0], [1.0, 2.0]])
        with pytest.raises(RuntimeError, match="for the failure model at epoch 0"):
            _step_metrics(state, values, grad)
    # a finite gradient whose squared sum overflows is not an error
    with np.errstate(over="ignore"):
        record = _step_metrics(state, values, np.array([[1e200, 1.0], [3.0, 4.0]]))
    assert record == {"loss_F": 0.5, "loss_G": 0.25, "grad_norm_F": np.inf, "grad_norm_G": 5.0}


@pytest.mark.parametrize("game_form, steps", [("summed", 2000), ("multiplayer", 500)])
def test_repeated_steps_on_one_batch_build_one_label_plan(monkeypatch, game_form, steps):
    # guards the label-plan memo: the population batch's labels are
    # planned once, however many steps reuse it
    builds = []
    original = losses.label_plan

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(losses, "label_plan", counted)
    state = init_state(2, 0, TrainConfig(objective="bs-game", game_form=game_form,
                                         optimizer="sgd", learning_rate=0.01, epochs=0))
    batch = population_batch(TRUTH)
    step = step_multiplayer if game_form == "multiplayer" else step_summed
    for _ in range(steps):
        step(state, batch)
    assert len(builds) == 1


def test_truth_is_stationary_multiplayer():
    # start both players exactly at the truth of an interior world; plain
    # gradient steps on the enumerated population batch must not move them
    pb = population_batch(TRUTH)
    for objective in ("bs-game", "bll-game"):
        cfg = TrainConfig(objective=objective, game_form="multiplayer",
                          optimizer="sgd", learning_rate=0.2, epochs=0)
        state = init_state(2, 0, cfg)
        state.pair.view("theta")[...] = [TRUTH.theta_t[:-1], TRUTH.theta_c[:-1]]
        for _ in range(50):
            step_multiplayer(state, pb)
        assert abs(state.model_f.predict_pmf(n=1)[0, 0] - 0.3) < 1e-12
        assert abs(state.model_g.predict_pmf(n=1)[0, 0] - 0.4) < 1e-12


def test_truth_is_stationary_summed():
    world = MarginalWorld([0.25, 0.35, 0.4], [0.3, 0.3, 0.4])
    pb = population_batch(world)
    for objective in ("bs-game", "bll-game"):
        cfg = TrainConfig(objective=objective, optimizer="sgd", learning_rate=0.2, epochs=0)
        state = init_state(3, 0, cfg)
        state.pair.params[...] = np.log([world.theta_t, world.theta_c])
        start_f = state.model_f.predict_pmf(n=1)[0].copy()
        start_g = state.model_g.predict_pmf(n=1)[0].copy()
        for _ in range(50):
            step_summed(state, pb)
        np.testing.assert_allclose(state.model_f.predict_pmf(n=1)[0], start_f, atol=1e-12)
        np.testing.assert_allclose(state.model_g.predict_pmf(n=1)[0], start_g, atol=1e-12)


def test_own_objectives_are_proper_at_truth():
    # scan each player's own population loss with the opponent at truth:
    # the minimum over the grid sits at the true mass, strictly
    xs = np.linspace(0.05, 0.9, 11)
    fvals = [population_fbs(TRUTH, 1, x, 0.4) for x in xs]
    gvals = [population_gbs(TRUTH, 1, 0.3, y) for y in xs]
    f_truth = population_fbs(TRUTH, 1, 0.3, 0.4)
    g_truth = population_gbs(TRUTH, 1, 0.3, 0.4)
    assert all(v > f_truth for v in fvals if abs(v - f_truth) > 1e-12)
    assert all(v > g_truth for v in gvals if abs(v - g_truth) > 1e-12)
    assert min(fvals) > f_truth - 1e-12
    assert min(gvals) > g_truth - 1e-12


def test_population_game_converges_to_truth():
    pb = population_batch(TRUTH)
    cfg = TrainConfig(objective="bs-game", game_form="multiplayer",
                      optimizer="sgd", learning_rate=0.25, epochs=0, seed=3,
                      init_scale=1.0)
    state = init_state(2, 0, cfg)
    for _ in range(800):
        step_multiplayer(state, pb)
    assert abs(state.model_f.predict_pmf(n=1)[0, 0] - 0.3) < 1e-3
    assert abs(state.model_g.predict_pmf(n=1)[0, 0] - 0.4) < 1e-3


def test_project_simplex_coords():
    out = _project_simplex_coords(np.array([0.99999, 1e-9]), 1e-6)
    assert out.min() >= 1e-6
    assert out.sum() <= 1.0 - 1e-6 + 1e-15
    # interior points pass through untouched
    np.testing.assert_array_equal(_project_simplex_coords(np.array([0.2, 0.3]), 1e-6), [0.2, 0.3])


def test_multiplayer_guards():
    cfg = TrainConfig(objective="nll", game_form="summed")
    state = init_state(2, 0, cfg)
    with pytest.raises(ValueError, match="game objectives"):
        step_multiplayer(state, Batch(np.array([1]), np.array([True])))
    cfg2 = TrainConfig(objective="bs-game", game_form="summed")
    state2 = init_state(2, 0, cfg2)
    with pytest.raises(ValueError, match="probability coordinates"):
        step_multiplayer(state2, Batch(np.array([1]), np.array([True])))


@pytest.mark.parametrize(
    "objective, game_form",
    [("nll", "summed"), ("bs-game", "summed"), ("bll-game", "summed"),
     ("bs-game", "multiplayer"), ("bll-game", "multiplayer")],
)
def test_one_loss_call_per_step(monkeypatch, objective, game_form):
    # both players are scored by one role-stacked kernel call per step
    calls = {"batch_loss": 0, "per_horizon_loss": 0}
    for name in calls:
        original = getattr(games, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(games, name, counted)
    state = init_state(3, 0, TrainConfig(objective=objective, game_form=game_form,
                                         optimizer="sgd", learning_rate=0.01, epochs=0))
    batch = population_batch(MarginalWorld([0.2, 0.3, 0.5], [0.3, 0.3, 0.4]))
    step = step_multiplayer if game_form == "multiplayer" else step_summed
    for _ in range(3):
        step(state, batch)
    used = "per_horizon_loss" if game_form == "multiplayer" else "batch_loss"
    assert calls == {**dict.fromkeys(calls, 0), used: 3}


def test_adam_update_is_the_textbook_expression():
    # the in-place moment updates give the same bits as the allocating form
    rng = np.random.default_rng(21)
    shape = (2, 7)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = _Adam(lr, b1, b2, eps, shape)
    params = rng.normal(size=shape)
    want, m, v = params.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 51):
        grad = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=shape)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        want = want - lr * mhat / (np.sqrt(vhat) + eps)
        before = params
        params = opt.update(params, grad)
        assert params is not before and not np.shares_memory(params, opt.m)
        np.testing.assert_array_equal(params, want)
        np.testing.assert_array_equal(opt.m, m)
        np.testing.assert_array_equal(opt.v, v)


def test_train_epoch_accounting():
    ds = gen_marginal(TRUTH, 64, seed=4)
    cfg = TrainConfig(objective="bs-game", optimizer="sgd", learning_rate=0.05,
                      epochs=3, batch_size=17, seed=1, checkpoint_every=2)
    state = train(ds, cfg)
    assert [r["epoch"] for r in state.history] == [1, 2, 3]
    assert set(state.checkpoints) == {2, 3}  # every 2, final always kept
    for rec in state.history:
        for key in ("loss_F", "loss_G", "grad_norm_F", "grad_norm_G", "clamp_count"):
            assert key in rec
    # epochs=0 keeps the initialization as the only checkpoint
    state0 = train(ds, TrainConfig(epochs=0))
    assert set(state0.checkpoints) == {0}


def test_train_is_deterministic():
    ds = gen_marginal(TRUTH, 80, seed=6)
    cfg = TrainConfig(objective="bll-game", epochs=4, batch_size=32, seed=9,
                      learning_rate=3e-3)
    a = train(ds, cfg)
    b = train(ds, cfg)
    np.testing.assert_array_equal(a.model_f.params, b.model_f.params)
    np.testing.assert_array_equal(a.model_g.params, b.model_g.params)
    assert a.history == b.history
    c = train(ds, TrainConfig(objective="bll-game", epochs=4, batch_size=32, seed=10,
                              learning_rate=3e-3))
    assert not np.array_equal(a.model_f.params, c.model_f.params)


def test_alternating_argmin_converges_and_cycles():
    # a dominant column converges to the mutual best response
    lgf = np.array([[0.0, 1.0], [0.0, 1.0]])
    lfg = np.array([[0.0, 1.0], [1.0, 0.0]])
    f, g, converged, rounds = _alternating_argmin(lgf, lfg, start_f=1, max_rounds=50)
    assert converged and (f, g) == (0, 0)
    assert rounds == 2
    # a matching-pennies table never settles: the pick chases itself forever
    lgf = np.array([[0.0, 1.0], [1.0, 0.0]])
    lfg = np.array([[1.0, 0.0], [0.0, 1.0]])
    f, g, converged, rounds = _alternating_argmin(lgf, lfg, start_f=0, max_rounds=50)
    assert not converged
    assert rounds == 50


def test_select_models_nll_reduces_to_argmin():
    ds = gen_marginal(TRUTH, 120, seed=2)
    val = gen_marginal(TRUTH, 200, seed=3)
    cfg = TrainConfig(objective="nll", optimizer="adam", learning_rate=5e-2,
                      epochs=6, batch_size=40, seed=0)
    state = train(ds, cfg)
    sel = select_models(state, val, selection_seed=11)
    assert sel.converged and sel.rounds <= 2
    # the likelihood decouples: selection is the plain per-model argmin
    nll_f = {e: batch_loss(LossSpec("nll", "failure"),
                           state.model_at(e, "F").predict_pmf(n=val.n), None, val.batch())[0]
             for e in state.checkpoints}
    assert sel.f_epoch == min(nll_f, key=nll_f.get)
    np.testing.assert_array_equal(sel.model_f.params, state.checkpoints[sel.f_epoch][0])


@pytest.mark.parametrize("objective", ["bs-game", "bll-game"])
def test_select_models_game_is_best_response_pair(objective):
    ds = gen_marginal(TRUTH, 150, seed=8)
    val = gen_marginal(TRUTH, 250, seed=9)
    cfg = TrainConfig(objective=objective, optimizer="adam", learning_rate=2e-2,
                      epochs=5, batch_size=50, seed=4)
    family = family_of(objective)
    state = train(ds, cfg)
    sel = select_models(state, val, selection_seed=0)
    epochs, lgf, lfg = _selection_tables(
        state.pair.arch, state.checkpoints, val, family, cfg.weight_floor)
    fi = epochs.index(sel.f_epoch)
    gi = epochs.index(sel.g_epoch)
    if sel.converged:
        assert gi == int(np.argmin(lgf[fi]))
        assert fi == int(np.argmin(lfg[gi]))
    # every entry of both tables matches a direct loss evaluation
    pf = [state.model_at(e, "F").predict_pmf(n=val.n) for e in epochs]
    pg = [state.model_at(e, "G").predict_pmf(n=val.n) for e in epochs]
    for i in range(len(epochs)):
        for j in range(len(epochs)):
            censor = batch_loss(LossSpec(family, "censor"), pg[j], pf[i], val.batch())[0]
            failure = batch_loss(LossSpec(family, "failure"), pf[i], pg[j], val.batch())[0]
            assert lgf[i, j] == pytest.approx(censor, rel=1e-12)
            assert lfg[j, i] == pytest.approx(failure, rel=1e-12)
