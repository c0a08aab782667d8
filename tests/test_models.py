"""Model parameterizations and hand-rolled gradients."""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import labelled
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesurv.core import ROW_BLOCK
from gamesurv.losses import LossSpec
from gamesurv.models import KINDS, ArchSpec, Model, loss_and_grad


def test_arch_layout_and_param_count():
    arch = ArchSpec("mlp", n_bins=2, feature_dim=3, hidden=(4,))
    names = [n for n, _ in arch.layout()]
    assert names == ["W0", "b0", "W1", "b1"]
    assert arch.n_params == 4 * 3 + 4 + 2 * 4 + 2
    assert ArchSpec("marginal", n_bins=5).n_params == 5
    assert ArchSpec("marginal-prob", n_bins=5).n_params == 4


def test_arch_validation():
    with pytest.raises(ValueError, match="kind"):
        ArchSpec("linear", n_bins=3)
    with pytest.raises(ValueError, match="'n_bins' must be an integer >= 2"):
        ArchSpec("marginal", n_bins=1)
    with pytest.raises(ValueError, match="feature_dim"):
        ArchSpec("mlp", n_bins=3)
    with pytest.raises(ValueError, match="no features"):
        ArchSpec("marginal", n_bins=3, hidden=(8,))


def test_marginal_softmax_pmf():
    arch = ArchSpec("marginal", n_bins=3)
    logits = np.array([0.1, -0.4, 1.2])
    m = Model(arch, logits)
    e = np.exp(logits - logits.max())
    np.testing.assert_allclose(m.predict_pmf(n=1)[0], e / e.sum(), rtol=1e-15)
    pm = m.predict_pmf(n=4)
    assert pm.shape == (4, 3)
    np.testing.assert_array_equal(pm, np.tile(pm[0], (4, 1)))


def test_marginal_prob_passthrough():
    arch = ArchSpec("marginal-prob", n_bins=3)
    m = Model(arch, np.array([0.3, 0.45]))
    np.testing.assert_allclose(m.predict_pmf(n=1)[0], [0.3, 0.45, 0.25], atol=1e-15)


def test_mlp_pmf_rows_are_distributions():
    rng = np.random.default_rng(2)
    arch = ArchSpec("mlp", n_bins=4, feature_dim=5, hidden=(8, 6))
    m = Model.init(arch, seed=3, init_scale=0.5)
    x = rng.normal(size=(20, 5))
    pmf = m.predict_pmf(x)
    assert pmf.shape == (20, 4)
    assert np.all(pmf > 0)
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-12)
    # distinct inputs give distinct conditionals
    assert not np.allclose(pmf[0], pmf[1])


def test_init_seeded_and_scaled():
    arch = ArchSpec("mlp", n_bins=3, feature_dim=4, hidden=(6,))
    a = Model.init(arch, seed=11, init_scale=0.1)
    b = Model.init(arch, seed=11, init_scale=0.1)
    c = Model.init(arch, seed=12, init_scale=0.1)
    np.testing.assert_array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)
    wide = Model.init(arch, seed=11, init_scale=0.2)
    np.testing.assert_allclose(wide.params, 2.0 * a.params, rtol=1e-15)


def test_save_load_roundtrip(tmp_path):
    arch = ArchSpec("mlp", n_bins=3, feature_dim=2, hidden=(5,))
    m = Model.init(arch, seed=7, init_scale=0.3)
    p = tmp_path / "model.json"
    m.save(p)
    back = Model.load(p)
    assert back.arch == m.arch
    np.testing.assert_array_equal(back.params, m.params)


def test_view_maps_into_flat_vector():
    arch = ArchSpec("mlp", n_bins=2, feature_dim=3, hidden=(4,))
    m = Model.init(arch, seed=0)
    w0 = m.view("W0")
    assert w0.shape == (4, 3)
    w0[0, 0] = 123.0
    assert m.params[0] == 123.0  # views alias, not copy
    pair = Model(arch, np.zeros((2, arch.n_params)))
    assert pair.view("W0").shape == (2, 4, 3)
    pair.view("b1")[1] = [5.0, 6.0]
    np.testing.assert_array_equal(pair.params[1, -2:], [5.0, 6.0])
    assert not pair.params[0].any()
    with pytest.raises(ValueError, match="params"):
        Model(arch, np.zeros((2, 2, arch.n_params)))


def test_params_message_names_any_stack_of_models():
    arch = ArchSpec("marginal", n_bins=3)
    assert Model(arch, np.zeros((6, 3))).predict_pmf(n=2).shape == (6, 2, 3)
    for shape in ((2, 4), (3, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"expected (3,) params or an (M, 3) stack of them, got {shape}")):
            Model(arch, np.zeros(shape))


def test_mlp_forward_rejects_a_mismatched_n():
    arch = ArchSpec("mlp", n_bins=3, feature_dim=2, hidden=(4,))
    model = Model.init(arch, seed=0)
    x = np.zeros((10, 2))
    for call in (lambda: model.forward(x, n=5), lambda: model.predict_pmf(x, n=5),
                 lambda: Model(arch, np.stack([model.params] * 2)).predict_pmf(x, n=11)):
        with pytest.raises(ValueError, match=r"n = (5|11) but the features hold 10 rows"):
            call()
    assert model.predict_pmf(x, n=10).shape == (10, 3)


def test_forward_runs_the_feature_rule_and_checks_the_row_count():
    # an MLP's features follow core's feature-matrix rule: a NaN fails by
    # name instead of giving a NaN pmf, and a list of rows is a matrix
    mlp = Model.init(ArchSpec("mlp", n_bins=3, feature_dim=2, hidden=(4,)), seed=0)
    for call in (mlp.predict_pmf, mlp.forward):
        with pytest.raises(ValueError, match="features must be finite, got 1 NaN"):
            call(np.array([[np.nan, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="features must be 2-d"):
            call(np.zeros(2))
    rows = [[0.5, -1.0], [2.0, 0.0]]
    assert np.array_equal(mlp.predict_pmf(rows), mlp.predict_pmf(np.array(rows)))
    # a marginal kind reads only the row count, which must agree with n
    for kind in ("marginal", "marginal-prob"):
        model = Model.init(ArchSpec(kind, n_bins=3), seed=0)
        assert model.predict_pmf(np.zeros((4, 0))).shape == (4, 3)
        assert model.predict_pmf(np.zeros((4, 0)), n=4).shape == (4, 3)
        with pytest.raises(ValueError, match="n = 2 but the features hold 4 rows"):
            model.forward(np.zeros((4, 0)), n=2)


@settings(max_examples=60)
@given(
    kind=st.sampled_from(KINDS),
    n_bins=st.integers(2, 6),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_equals_two_singles(kind, n_bins, n, seed):
    # a (2, P) model is two independent models computed in one pass: its
    # pmfs and gradients equal the single models' bit for bit
    rng = np.random.default_rng(seed)
    features = None
    if kind == "mlp":
        hidden = tuple(int(h) for h in rng.integers(1, 8, size=rng.integers(0, 3)))
        arch = ArchSpec("mlp", n_bins, 3, hidden)
        features = rng.normal(size=(n, 3))
        params = rng.normal(0.0, 0.8, size=(2, arch.n_params))
    elif kind == "marginal":
        arch = ArchSpec(kind, n_bins)
        params = rng.normal(0.0, 1.5, size=(2, n_bins))
    else:
        arch = ArchSpec(kind, n_bins)
        params = rng.dirichlet(np.ones(n_bins), size=2)[:, :-1]
    dpmf = rng.normal(size=(2, n, n_bins))
    pair = Model(arch, params)
    pmf, cache = pair.forward(features, n=n)
    grad = pair.backprop(cache, dpmf)
    assert pmf.shape == (2, n, n_bins) and grad.shape == params.shape
    for i in range(2):
        single = Model(arch, params[i])
        pmf_i, cache_i = single.forward(features, n=n)
        np.testing.assert_array_equal(pmf[i], pmf_i)
        np.testing.assert_array_equal(grad[i], single.backprop(cache_i, dpmf[i]))


@pytest.mark.parametrize("pair", [False, True])
def test_predict_pmf_equals_cached_forward(pair):
    # the cache-free forward runs in row blocks of at least ROW_BLOCK rows and
    # must give the training forward's bits at every block boundary case
    rng = np.random.default_rng(5)
    arch = ArchSpec("mlp", 6, 3, (9, 5))
    model = Model(arch, rng.normal(0.0, 0.8, size=(2, arch.n_params) if pair else arch.n_params))
    B = ROW_BLOCK
    for n in (1, 60, 61, B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 17):
        x = rng.normal(size=(n, 3))
        pmf = model.predict_pmf(x)
        assert pmf.shape == (*model.params.shape[:-1], n, 6)
        np.testing.assert_array_equal(pmf, model.forward(x)[0])


def test_predict_pmf_keeps_no_activations():
    # the peak stays below the output plus two blocks' activations, so no
    # layer is kept for the whole batch
    arch = ArchSpec("mlp", 20, 4, (128, 64, 64))
    model = Model.init(arch, seed=0)
    n = 4 * ROW_BLOCK
    x = np.random.default_rng(0).normal(size=(n, 4))
    tracemalloc.start()
    try:
        model.predict_pmf(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_acts = ROW_BLOCK * (sum(arch.hidden) + arch.n_bins) * 8
    assert peak < n * arch.n_bins * 8 + 2 * block_acts


def _fd_grad(make_loss, params, eps=1e-6):
    g = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (make_loss(up) - make_loss(dn)) / (2 * eps)
    return g


def test_gradients_match_finite_differences():
    # every model kind against every loss family and role, plus the
    # likelihood losses; analytic gradients from the flat vector
    rng = np.random.default_rng(44)
    archs = [
        ArchSpec("marginal", n_bins=3),
        ArchSpec("marginal-prob", n_bins=3),
        ArchSpec("mlp", n_bins=3, feature_dim=4, hidden=(6,)),
        ArchSpec("mlp", n_bins=2, feature_dim=2, hidden=(5, 4)),
    ]
    specs = [
        LossSpec("ipcw-bs", "failure"),
        LossSpec("ipcw-bs", "censor", times=(1,)),
        LossSpec("ipcw-bll", "failure"),
        LossSpec("ipcw-bll", "censor"),
        LossSpec("nll", "failure"),
        LossSpec("nll", "censor"),
    ]
    for arch in archs:
        n = 12
        feats = rng.normal(size=(n, arch.feature_dim)) if arch.kind == "mlp" else None
        batch = labelled(rng.integers(1, arch.n_bins + 1, size=n), rng.random(n) < 0.6, arch.n_bins,
                         feats)
        frozen = rng.dirichlet(np.ones(arch.n_bins), size=n)
        if arch.kind == "marginal-prob":
            params = rng.dirichlet(np.ones(arch.n_bins))[:-1]
        else:
            params = Model.init(arch, seed=1, init_scale=0.4).params
        for spec in specs:
            model = Model(arch, params)
            out = loss_and_grad(model, frozen, batch, spec)

            def f(p, spec=spec):
                return loss_and_grad(Model(arch, p), frozen, batch, spec).value

            fd = _fd_grad(f, params.copy())
            scale = np.maximum(np.abs(fd), 1.0)
            np.testing.assert_allclose(out.grad, fd, atol=2e-6 * scale.max())


def test_nll_gradient_ignores_frozen_model():
    rng = np.random.default_rng(9)
    arch = ArchSpec("marginal", n_bins=3)
    m = Model.init(arch, seed=5, init_scale=0.7)
    batch = labelled(rng.integers(1, 4, size=30), rng.random(30) < 0.5, 3)
    spec = LossSpec("nll", "failure")
    a = loss_and_grad(m, rng.dirichlet(np.ones(3), size=30), batch, spec)
    b = loss_and_grad(m, None, batch, spec)
    assert a.value == b.value
    np.testing.assert_array_equal(a.grad, b.grad)
