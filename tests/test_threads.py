"""Parts of a call on two threads (`core._each_part`): the caller and one
helper thread give the bits, clamp counts and failures of the serial loop,
and every traced entry point runs on the caller."""

import contextlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from conftest import labelled

from gamesurv import cli, core, games, losses, metrics, models
from gamesurv.core import Dataset
from gamesurv.games import TrainConfig, _selection_tables, select_models, train
from gamesurv.losses import ROLES, ClampStats, LossSpec, batch_loss, ipcw_weight_arrays
from gamesurv.losses import per_horizon_loss
from gamesurv.models import ArchSpec, Model
from gamesurv.simgen import MarginalWorld, gen_marginal

N, K = 40, 5  # 5 blocks of 7 rows, the last of 12, once ROW_BLOCK is 7
WIDE = 1 << 40  # cells that make any call of 3 parts or more wide enough to thread


@pytest.fixture(autouse=True)
def _seven_row_blocks(monkeypatch):
    # and every call of 3 parts or more wide enough to thread
    monkeypatch.setattr(core, "ROW_BLOCK", 7)
    monkeypatch.setattr(core, "_THREAD_CELLS", 1)
    assert len(core._row_blocks(N)) == 5


def _each_block(n, kernel, cells=WIDE):
    return core._each_part(core._row_blocks(n), kernel, cells)


@contextlib.contextmanager
def _cpus(k):
    """The process seems to run on ``k`` CPUs; yields the threads started,
    each of which the calling thread must start: a helper starts none."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        assert threading.current_thread() is threading.main_thread()
        started.append(thread)
        start(thread)

    with patch.object(os, "sched_getaffinity", lambda pid: set(range(k))), \
            patch.object(threading.Thread, "start", counted):
        yield started


class _CallerStats(ClampStats):
    """Clamp stats that only the calling thread may add to: a helper block
    adding to them could lose an update."""

    def add(self, k):
        assert threading.current_thread() is threading.main_thread()
        super().add(k)


def _outputs(seed=3):
    """Every threaded entry point on 40 rows, as a list of arrays, with the
    clamp count: a floor of 0.2 clamps most cells, and a NaN in the frozen
    pmfs of the training losses reaches some of them."""
    rng = np.random.default_rng(seed)
    world = MarginalWorld(rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)))
    ds = gen_marginal(world, N, seed=seed)
    arch = ArchSpec("mlp", K, 3, (8,))
    x = rng.normal(size=(N, 3))
    out = [Model.init(arch, seed, init_scale=1.0).predict_pmf(x)]
    # a checkpoint stack of 3 pairs, and its selection tables read in full
    ckpts = {e: rng.normal(0.0, 1.0, (2, arch.n_params)) for e in range(3)}
    out.append(Model(arch, np.concatenate(list(ckpts.values()))).predict_pmf(x))
    f, g = rng.dirichlet(np.full(K, 0.3), size=(2, N))
    f[:, 0] += 4.0  # survival past bin 1 below 0.2: the weights of most cells clamp
    g[:, 0] += 4.0
    f, g = f / f.sum(axis=-1, keepdims=True), g / g.sum(axis=-1, keepdims=True)
    batch = labelled(ds.time_bin, ds.event, K, weight=rng.random(N) + 0.1)
    nan = g.copy()
    nan[np.argmax(ds.time_bin), 0] = np.nan  # a row that reads Xbar(t) at every horizon
    stats = _CallerStats()
    for roles, own, frozen in (("failure", f, nan), (ROLES, np.stack([f, g]), np.stack([nan, f]))):
        for family in ("nll", "ipcw-bs", "ipcw-bll"):
            spec = LossSpec(family, roles, weight_floor=0.2)
            out += batch_loss(spec, own, frozen, batch, stats)
            if family != "nll":
                out += per_horizon_loss(spec, own, frozen, batch, stats)
    out += [ipcw_weight_arrays("censor", ckpt, ds.time_bin, ds.event, "all", 0.2, stats)
            for ckpt in (f, g, f[::-1])]
    val = Dataset(x, ds.time_bin, ds.event, np.arange(K + 1.0))
    for family in ("ipcw-bs", "ipcw-bll"):
        _, lgf, lfg = _selection_tables(arch, ckpts, val, family, 0.2)
        out += [lgf[i] for i in range(3)] + [lfg[j] for j in range(3)]
    for weighting in metrics.WEIGHTINGS:
        report = metrics.evaluate(f, ds, weighting, g, world, floor=0.2)
        out.append(np.frombuffer(json.dumps(report.to_dict(), sort_keys=True).encode(), np.uint8))
    return out, stats.count


def _same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_threads_give_the_serial_bits():
    # predict_pmf of one model and of a checkpoint stack, batch_loss (three
    # families, one role and both), per_horizon_loss, three checkpoints'
    # weight arrays, the selection tables and the reports under all four
    # weightings; repeated under a short switch interval so that a lost
    # clamp update or a block written by the wrong thread shows
    with _cpus(1) as started:
        want, want_clamps = _outputs()
    assert not started and want_clamps > 1000
    assert any(np.isnan(a).any() for a in want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(2) as started:
            for _ in range(50):
                got, clamps = _outputs()
                _same(got, want)
                assert clamps == want_clamps
    finally:
        sys.setswitchinterval(interval)
    # one helper per call: 2 forwards, 10 training losses, 3 checkpoints'
    # weights, 4 reports, and per family of selection tables 1 forward and 6
    # rows' weights
    assert len(started) == 50 * 33 and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_threads_give_the_serial_bits_under_blas_threads(blas_threads):
    # the same test in a fresh interpreter whose OpenBLAS runs on 1 or 2 threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    test = f"{Path(__file__).resolve()}::test_threads_give_the_serial_bits"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:]


def test_the_helper_runs_the_odd_parts_of_a_wide_call_on_two_cpus(monkeypatch):
    def kernel(rows):
        return rows.start, threading.get_ident()

    caller = threading.get_ident()
    monkeypatch.setattr(core, "_THREAD_CELLS", 10)
    with _cpus(2) as started:
        blocks = _each_block(N, kernel, cells=50)  # 5 parts of 10 cells
        assert len(started) == 1 and not started[0].is_alive()
        assert [start for start, _ in blocks] == [0, 7, 14, 21, 28]
        assert [ident == caller for _, ident in blocks] == [True, False, True, False, True]
        assert _each_block(21, kernel, cells=30) != _each_block(21, kernel, cells=29)
        assert len(started) == 2  # 3 parts of 10 cells thread, and 9.67 cells do not
        assert _each_block(14, kernel) == [(0, caller), (7, caller)]  # 2 parts never do
    with _cpus(1) as started:
        assert [ident for _, ident in _each_block(N, kernel)] == [caller] * 5
    assert not started


def test_narrow_calls_run_serially_and_wide_ones_on_two_threads(monkeypatch):
    # at the shipped constants: criterion 01's 10k-row chunks at K <= 4 stay
    # on the caller, a 1e5-row K = 20 score and a checkpoint stack do not
    monkeypatch.undo()
    assert core.ROW_BLOCK == 1024 and core._THREAD_CELLS == 1 << 14
    rng = np.random.default_rng(0)
    for n, k, threads in ((10_000, 4, 0), (100_000, 20, 1)):
        f, g = rng.dirichlet(np.ones(k), size=(2, n))
        batch = labelled(rng.integers(1, k + 1, size=n), rng.random(n) < 0.5, k)
        with _cpus(2) as started:
            per_horizon_loss(LossSpec("ipcw-bs", "failure"), f, g, batch)
        assert len(started) == threads, (n, k)
    arch = ArchSpec("mlp", 20, 4, (16,))
    stack = Model(arch, rng.normal(0.0, 0.1, (6, arch.n_params)))  # 3 pairs, one block each
    with _cpus(2) as started:
        stack.predict_pmf(rng.normal(size=(1000, 4)))
    assert len(started) == 1


def _failing(blocks, error=ValueError):
    def kernel(rows):
        i = rows.start // 7
        if i in blocks:
            raise error(f"block {i}")
        return i
    return kernel


@pytest.mark.parametrize("blocks, first", [((3,), 3), ((1, 4), 1), ((2, 3), 2), ((0, 1), 0)])
def test_the_first_failure_in_block_order_reaches_the_caller(blocks, first):
    with _cpus(2):
        with pytest.raises(ValueError, match=f"^block {first}$"):
            _each_block(N, _failing(blocks))


def test_a_runtime_warning_in_a_helper_block_reaches_the_caller():
    def kernel(rows):
        if rows.start // 7 % 2:  # the helper's blocks
            np.log(np.zeros(1))
        return rows.start

    with _cpus(2), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            _each_block(N, kernel)
        # the caller's errstate holds in the helper's blocks
        with np.errstate(divide="ignore"):
            assert _each_block(N, kernel) == [0, 7, 14, 21, 28]


@pytest.mark.parametrize("rows", [5, N])  # one row block, and five
def test_a_checkpoint_stack_gives_each_pairs_bits_in_one_split(rows):
    # every (pair, row block) part of the stack runs from one call on the
    # caller, so no helper starts a thread of its own
    rng = np.random.default_rng(11)
    arch = ArchSpec("mlp", K, 3, (8,))
    pairs = rng.normal(0.0, 1.0, (4, 2, arch.n_params))
    x = rng.normal(size=(rows, 3))
    with _cpus(1):
        want = [Model(arch, pair).predict_pmf(x) for pair in pairs]
    with _cpus(2) as started:
        got = Model(arch, pairs.reshape(8, -1)).predict_pmf(x)
    assert len(started) == 1
    assert got.shape == (8, rows, K)
    for i, pmf in enumerate(want):
        assert got[2 * i : 2 * i + 2].tobytes() == pmf.tobytes()


TRACED = [(Model, "__init__"), (Model, "forward"), (Model, "predict_pmf"),
          (losses, "ipcw_weight_arrays"), (losses, "batch_loss")]


def test_traced_entry_points_run_on_the_caller(monkeypatch):
    # the bench tracer keeps one span stack and unlocked counters, so each
    # entry point it wraps must run on the calling thread, never a helper
    threads = []
    for owner, name in TRACED:
        original = vars(owner)[name]

        def wrapper(*args, _original=original, _name=name, **kwargs):
            threads.append((_name, threading.current_thread()))
            return _original(*args, **kwargs)

        owners = [owner] if isinstance(owner, type) else [
            m for m in (cli, core, games, losses, metrics, models) if vars(m).get(name) is original]
        for module in owners:
            monkeypatch.setattr(module, name, wrapper)
    rng = np.random.default_rng(2)
    world = MarginalWorld(rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)))
    labels = gen_marginal(world, 2 * N, seed=2)
    data = [Dataset(rng.normal(size=(N, 3)), labels.time_bin[part], labels.event[part],
                    np.arange(K + 1.0)) for part in (slice(N), slice(N, None))]
    with _cpus(2) as started:
        for objective in ("nll", "bs-game"):
            state = train(data[0], TrainConfig(objective=objective, epochs=3, batch_size=N,
                                               hidden=(8,)))
            sel = select_models(state, data[1])
            f, g = (m.predict_pmf(data[1].features) for m in (sel.model_f, sel.model_g))
            batch_loss(LossSpec("ipcw-bll", "failure"), f, g, data[1].batch())
            metrics.evaluate(f, data[1], "model-G", g)
    assert started and {name for name, _ in threads} == {name for _, name in TRACED}
    assert all(thread is threading.main_thread() for _, thread in threads)
