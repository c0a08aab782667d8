"""Row blocks on two threads (`core._each_block`): the caller and one helper
thread give the bits, clamp counts and failures of the serial loop."""

import contextlib
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from gamesurv import core, metrics
from gamesurv.core import Batch
from gamesurv.losses import ROLES, ClampStats, LossSpec, batch_loss, ipcw_weight_arrays
from gamesurv.losses import per_horizon_loss
from gamesurv.models import ArchSpec, Model
from gamesurv.simgen import MarginalWorld, gen_marginal

N, K = 40, 5  # 5 blocks of 7 rows, the last of 12, once ROW_BLOCK is 7


@pytest.fixture(autouse=True)
def _seven_row_blocks(monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK", 7)
    assert len(core._row_blocks(N)) == 5


@contextlib.contextmanager
def _cpus(k):
    """The process seems to run on ``k`` CPUs; yields the threads started."""
    started = []
    start = threading.Thread.start

    def counted(thread):
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
    model = Model.init(ArchSpec("mlp", K, 3, (8,)), seed, init_scale=1.0)
    out = [model.predict_pmf(rng.normal(size=(N, 3)))]
    f, g = rng.dirichlet(np.full(K, 0.3), size=(2, N))
    f[:, 0] += 4.0  # survival past bin 1 below 0.2: the weights of most cells clamp
    g[:, 0] += 4.0
    f, g = f / f.sum(axis=-1, keepdims=True), g / g.sum(axis=-1, keepdims=True)
    batch = Batch(ds.time_bin, ds.event, weight=rng.random(N) + 0.1)
    nan = g.copy()
    nan[np.argmax(ds.time_bin), 0] = np.nan  # a row that reads Xbar(t) at every horizon
    stats = _CallerStats()
    for roles, own, frozen in (("failure", f, nan), (ROLES, np.stack([f, g]), np.stack([nan, f]))):
        for family in ("nll", "ipcw-bs", "ipcw-bll"):
            spec = LossSpec(family, roles, weight_floor=0.2)
            out += batch_loss(spec, own, frozen, batch, stats)
            if family != "nll":
                out += per_horizon_loss(spec, own, frozen, batch, stats)
    out.append(ipcw_weight_arrays("censor", np.stack([f, g, f[::-1]]), ds.time_bin, ds.event,
                                  "all", 0.2, stats))
    for weighting in metrics.WEIGHTINGS:
        report = metrics.evaluate(f, ds, weighting, g, world, floor=0.2)
        out.append(np.frombuffer(report.to_json().encode(), np.uint8))
    return out, stats.count


def _same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_threads_give_the_serial_bits():
    # predict_pmf, batch_loss (three families, one role and both),
    # per_horizon_loss, a checkpoint stack's weight arrays and the reports
    # under all four weightings; repeated under a short switch interval so
    # that a lost clamp update or a block written by the wrong thread shows
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
    # one helper per call: 1 forward, 10 training losses, 1 weight stack, 4 reports
    assert len(started) == 50 * 16 and not any(t.is_alive() for t in started)


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


def test_the_helper_runs_the_odd_blocks_from_four_blocks_on_two_cpus():
    def kernel(rows):
        return rows.start, threading.get_ident()

    with _cpus(2) as started:
        blocks = core._each_block(N, kernel)
        assert len(started) == 1 and not started[0].is_alive()
        assert [start for start, _ in blocks] == [0, 7, 14, 21, 28]
        caller = threading.get_ident()
        assert [ident == caller for _, ident in blocks] == [True, False, True, False, True]
        assert core._each_block(27, kernel) == [(0, caller), (7, caller), (14, caller)]
    with _cpus(1) as started:
        assert [ident for _, ident in core._each_block(N, kernel)] == [caller] * 5
    assert not started


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
            core._each_block(N, _failing(blocks))


def test_a_runtime_warning_in_a_helper_block_reaches_the_caller():
    def kernel(rows):
        if rows.start // 7 % 2:  # the helper's blocks
            np.log(np.zeros(1))
        return rows.start

    with _cpus(2), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            core._each_block(N, kernel)
        # the caller's errstate holds in the helper's blocks
        with np.errstate(divide="ignore"):
            assert core._each_block(N, kernel) == [0, 7, 14, 21, 28]
