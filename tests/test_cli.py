"""Config-driven command line: artifacts, determinism, error contract."""

import csv
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gamesurv.games
import gamesurv.models
import gamesurv.oracle
import gamesurv.simgen
from gamesurv.cli import main
from gamesurv.models import Model
from gamesurv.simgen import MarginalWorld, load_csv, load_latent_csv, read_bin_edges

GAMMA_GEN = {"kind": "gamma", "feature_dim": 4}
MARGINAL_GEN = {"kind": "marginal", "theta_t": [0.3, 0.5, 0.2], "theta_c": [0.4, 0.3, 0.3]}

TRAIN_CFG = {
    "experiment": "exp",
    "seed": 0,
    "n_bins": 5,
    "data": {"generator": GAMMA_GEN, "n_train": 48, "n_val": 40},
    "train": {"objective": "bs-game", "epochs": 2, "batch_size": 24,
              "learning_rate": 0.01, "hidden": [6]},
    "selection": {"enabled": True},
}


def _run(tmp_path, command, cfg, name="cfg.json", out="out"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return main([command, str(path), "--out", str(tmp_path / out)])


def test_simulate_writes_csvs(tmp_path):
    cfg = {"experiment": "sim", "generator": MARGINAL_GEN, "seeds": [0, 1], "sizes": [30]}
    assert _run(tmp_path, "simulate", cfg) == 0
    for seed in (0, 1):
        data = load_csv(tmp_path / "out" / "sim" / str(seed) / "data_n30.csv")
        assert data.n == 30
        t, c = load_latent_csv(tmp_path / "out" / "sim" / str(seed) / "data_n30_latent.csv")
        assert t.shape == (30,)
        np.testing.assert_array_equal(data.event, t <= c)
    # different seeds draw different data
    a = load_csv(tmp_path / "out" / "sim" / "0" / "data_n30.csv")
    b = load_csv(tmp_path / "out" / "sim" / "1" / "data_n30.csv")
    assert not np.array_equal(a.time, b.time)


def test_simulate_is_deterministic(tmp_path):
    cfg = {"experiment": "sim", "generator": GAMMA_GEN, "seeds": [3], "sizes": [25]}
    assert _run(tmp_path, "simulate", cfg, out="a") == 0
    assert _run(tmp_path, "simulate", cfg, out="b") == 0
    fa = (tmp_path / "a" / "sim" / "3" / "data_n25.csv").read_bytes()
    fb = (tmp_path / "b" / "sim" / "3" / "data_n25.csv").read_bytes()
    assert fa == fb


def test_train_writes_artifacts(tmp_path):
    assert _run(tmp_path, "train", TRAIN_CFG) == 0
    out = tmp_path / "out" / "exp" / "0"
    for name in ("model_F.json", "model_G.json", "bin_edges.json",
                 "standardizer.json", "train_log.jsonl", "selection.json"):
        assert (out / name).exists(), name
    log = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert [rec["epoch"] for rec in log] == [1, 2]
    assert all("loss_F" in rec and "loss_G" in rec for rec in log)
    model = Model.load(out / "model_F.json")
    assert model.arch.n_bins == 5
    assert read_bin_edges(out / "bin_edges.json").shape == (6,)
    sel = json.loads((out / "selection.json").read_text())
    assert set(sel) == {"f_epoch", "g_epoch", "converged", "rounds"}


def test_train_is_deterministic(tmp_path):
    assert _run(tmp_path, "train", TRAIN_CFG, out="a") == 0
    assert _run(tmp_path, "train", TRAIN_CFG, out="b") == 0
    for name in ("model_F.json", "model_G.json", "train_log.jsonl"):
        fa = (tmp_path / "a" / "exp" / "0" / name).read_bytes()
        fb = (tmp_path / "b" / "exp" / "0" / name).read_bytes()
        assert fa == fb, name


def test_train_output_independent_of_blas_threads(tmp_path):
    # a gradient of ~13k entries is long enough for OpenBLAS to split its
    # dot products across threads; every artefact must still be the same
    cfg = {
        "experiment": "thr", "seed": 0, "n_bins": 20,
        "data": {"generator": {"kind": "gamma"}, "n_train": 128, "n_val": 64},
        "train": {"objective": "bs-game", "epochs": 2, "batch_size": 64,
                  "learning_rate": 0.01, "hidden": [128, 64, 64]},
        "selection": {"enabled": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "gamesurv.cli", "train", str(path), "--out", str(out)],
                       env=env, check=True)
        outs.append(out / "thr" / "0")
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    assert "train_log.jsonl" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_importing_the_package_leaves_scipy_special_unloaded():
    # scipy.special is most of the package's import time, and only the gamma
    # generator and the oracle's scan use it: they import it when called
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gamesurv, gamesurv.cli; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_train_without_validation_fails_under_selection(tmp_path, capsys):
    cfg = dict(TRAIN_CFG)
    cfg["data"] = {"generator": GAMMA_GEN, "n_train": 48}
    assert _run(tmp_path, "train", cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "validation" in err["message"]


def test_train_selection_disabled_needs_no_val(tmp_path):
    cfg = dict(TRAIN_CFG)
    cfg["data"] = {"generator": GAMMA_GEN, "n_train": 48}
    cfg["selection"] = {"enabled": False}
    assert _run(tmp_path, "train", cfg) == 0
    assert not (tmp_path / "out" / "exp" / "0" / "selection.json").exists()


def test_evaluate_reads_trained_models(tmp_path):
    assert _run(tmp_path, "train", TRAIN_CFG) == 0
    model_dir = tmp_path / "out" / "exp" / "0"
    cfg = {
        "experiment": "eval",
        "seed": 0,
        "model_f": str(model_dir / "model_F.json"),
        "model_g": str(model_dir / "model_G.json"),
        "bin_edges": str(model_dir / "bin_edges.json"),
        "standardizer": str(model_dir / "standardizer.json"),
        "data": {"generator": GAMMA_GEN, "n_test": 60},
        "weighting": "km",
    }
    assert _run(tmp_path, "evaluate", cfg, name="eval.json") == 0
    out = tmp_path / "out" / "eval" / "0"
    report = json.loads((out / "report.json").read_text())
    assert report["weighting"] == "km"
    assert report["n"] == 60 and report["n_bins"] == 5
    assert len(report["bs"]) == 4 and len(report["bll"]) == 4
    assert 0.0 <= report["concordance"] <= 1.0
    with open(out / "calibration.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "observed"]
    assert len(rows) == 10


def test_evaluate_predicts_the_censoring_model_only_under_model_g(tmp_path, monkeypatch):
    # only the model-G weighting reads the censoring model's test-split pmfs
    assert _run(tmp_path, "train", TRAIN_CFG) == 0
    model_dir = tmp_path / "out" / "exp" / "0"
    predict, calls = Model.predict_pmf, []
    monkeypatch.setattr(Model, "predict_pmf",
                        lambda self, *a, **k: calls.append(1) or predict(self, *a, **k))
    for weighting, forwards in (("km", 1), ("uncensored-latent", 1), ("model-G", 2)):
        calls.clear()
        cfg = {"experiment": weighting, "weighting": weighting,
               "data": {"generator": GAMMA_GEN, "n_test": 60},
               **{key: str(model_dir / name) for key, name in (
                   ("model_f", "model_F.json"), ("model_g", "model_G.json"),
                   ("bin_edges", "bin_edges.json"), ("standardizer", "standardizer.json"))}}
        assert _run(tmp_path, "evaluate", cfg, name="eval.json") == 0
        assert len(calls) == forwards, weighting


def test_sweep_grid_and_aggregate(tmp_path):
    cfg = {
        "experiment": "sw",
        "generator": GAMMA_GEN,
        "sizes": [40],
        "seeds": [0, 1],
        "objectives": ["nll", "bs-game"],
        "n_bins": 5,
        "n_val": 30,
        "n_test": 50,
        "train": {"epochs": 2, "batch_size": 20, "learning_rate": 0.01, "hidden": [6]},
    }
    assert _run(tmp_path, "sweep", cfg) == 0
    out = tmp_path / "out" / "sw" / "sweep"
    for obj in ("nll", "bs-game"):
        for seed in (0, 1):
            point = json.loads((out / f"{obj}_n40_seed{seed}.json").read_text())
            assert point["objective"] == obj and point["seed"] == seed
            assert point["report"]["weighting"] == "uncensored-latent"
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg) == {"nll|n=40", "bs-game|n=40"}
    for entry in agg.values():
        assert set(entry) == {"bs_sum", "bs_mean", "bll_sum", "bll_mean", "nll", "concordance"}
        for stat in entry.values():
            assert set(stat) == {"mean", "std"}


def test_sweep_workers_do_not_change_results(tmp_path):
    cfg = {
        "experiment": "sw",
        "generator": GAMMA_GEN,
        "sizes": [36],
        "seeds": [0, 1],
        "objectives": ["bs-game"],
        "n_bins": 4,
        "n_val": 24,
        "n_test": 40,
        "train": {"epochs": 1, "batch_size": 18, "learning_rate": 0.01, "hidden": [5]},
    }
    assert _run(tmp_path, "sweep", cfg, out="serial") == 0
    cfg["workers"] = 2
    assert _run(tmp_path, "sweep", cfg, out="parallel") == 0
    fa = (tmp_path / "serial" / "sw" / "sweep" / "aggregate.json").read_bytes()
    fb = (tmp_path / "parallel" / "sw" / "sweep" / "aggregate.json").read_bytes()
    assert fa == fb


FORKED_SWEEP = """
import os, sys, threading
from gamesurv import core
from gamesurv.cli import main

core.ROW_BLOCK = 7  # the 40-row test split runs in 5 blocks, here and in forked workers
core._THREAD_CELLS = 1  # and each call of 3 blocks or more is wide enough to thread
cpus, cfg, out = sys.argv[1:]
os.sched_getaffinity = lambda pid: set(range(int(cpus)))
idents = core._each_part(core._row_blocks(40), lambda rows: threading.get_ident(), 40)
assert len(set(idents)) == int(cpus)  # blocks ran on `cpus` threads before any fork
sys.exit(main(["sweep", cfg, "--out", out]))
"""


def test_sweep_workers_fork_after_a_threaded_call(tmp_path):
    # forked sweep workers run threaded blocks after the parent has: no
    # thread may outlive a call, or a worker waits on one that fork left behind
    cfg = {
        "experiment": "sw", "generator": GAMMA_GEN, "sizes": [36], "seeds": [0, 1],
        "objectives": ["bs-game"], "n_bins": 4, "n_val": 24, "n_test": 40,
        "train": {"epochs": 1, "batch_size": 18, "learning_rate": 0.01, "hidden": [5]},
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for cpus, workers in (("1", 1), ("2", 2)):  # no thread at all, then threads and forks
        path = tmp_path / f"cfg{workers}.json"
        path.write_text(json.dumps(dict(cfg, workers=workers)))
        outs.append(tmp_path / f"out{workers}")
        args = [sys.executable, "-c", FORKED_SWEEP, cpus, str(path), str(outs[-1])]
        proc = subprocess.Popen(args, env=env, start_new_session=True)
        try:
            assert proc.wait(timeout=120) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail(f"the sweep with {workers} workers hung")
    serial, forked = (sorted((out / "sw" / "sweep").iterdir()) for out in outs)
    assert [f.name for f in serial] == [f.name for f in forked] and len(serial) == 3
    for a, b in zip(serial, forked):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_gradient_field_outputs(tmp_path):
    cfg = {"experiment": "field",
           "world": {"theta_t": [0.3, 0.7], "theta_c": [0.4, 0.6]},
           "resolution": 21}
    assert _run(tmp_path, "gradient-field", cfg) == 0
    out = tmp_path / "out" / "field"
    with open(out / "field.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "u", "v"]
    assert len(rows) == 21 * 21 + 1
    summary = json.loads((out / "field_summary.json").read_text())
    # the quietest cell sits within one cell of the truth
    assert abs(summary["min_norm_x"] - summary["truth_x"]) <= summary["cell_width"]
    assert abs(summary["min_norm_y"] - summary["truth_y"]) <= summary["cell_width"]


def test_joint_scan_outputs(tmp_path):
    cfg = {"experiment": "scan",
           "world": {"theta_t": [0.3, 0.7], "theta_c": [0.4, 0.6]},
           "resolution": 41}
    assert _run(tmp_path, "joint-scan", cfg) == 0
    out = tmp_path / "out" / "scan"
    summary = json.loads((out / "joint_scan_summary.json").read_text())
    assert summary["improper"] is True
    assert summary["min_value"] < summary["truth_value"]
    assert summary["truth_value"] == pytest.approx(0.45, abs=1e-12)
    with open(out / "joint_scan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 41 * 41 + 1


def test_stationary_check_outputs(tmp_path):
    cfg = {"experiment": "st",
           "random": {"n_bins": 2, "count": 2, "seed": 1},
           "n_starts": 15}
    assert _run(tmp_path, "stationary-check", cfg) == 0
    payload = json.loads((tmp_path / "out" / "st" / "stationary.json").read_text())
    assert payload["n_starts"] == 15
    assert len(payload["worlds"]) == 2
    for world in payload["worlds"]:
        assert world["n_roots"] == 1
        assert world["matches_truth"] is True
        assert world["induction_agrees"] is True
        assert world["spurious_qy_min"] > 1.0


def test_stationary_check_writes_strict_json_for_a_linear_step(tmp_path):
    # theta_t puts no mass in bin 1, so step 1 has no spurious root and its
    # q + y is infinite; the file must still be JSON, which has no Infinity
    cfg = {"experiment": "lin", "n_starts": 5,
           "worlds": [{"theta_t": [0.0, 1.0], "theta_c": [0.4, 0.6]}]}
    assert _run(tmp_path, "stationary-check", cfg) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    text = (tmp_path / "out" / "lin" / "stationary.json").read_text()
    (world,) = json.loads(text, parse_constant=reject)["worlds"]
    assert world["spurious_qy_min"] is None
    assert world["n_roots"] == 1 and world["matches_truth"] is True


def test_error_contract(tmp_path, capsys):
    # missing required key
    assert _run(tmp_path, "simulate", {"generator": MARGINAL_GEN, "sizes": [10]}) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "experiment" in err["message"]
    # config that is not an object
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["train", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    # unreadable config path
    assert main(["train", str(tmp_path / "missing.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


PLANAR_WORLD = {"theta_t": [0.3, 0.7], "theta_c": [0.4, 0.6]}


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("gradient-field", {"world": PLANAR_WORLD, "resolution": 2.7}, "resolution"),
        ("gradient-field", {"world": PLANAR_WORLD, "resolution": "abc"}, "resolution"),
        ("gradient-field", {"world": PLANAR_WORLD, "resolution": 1}, "resolution"),
        ("joint-scan", {"world": PLANAR_WORLD, "resolution": 2.7}, "resolution"),
        ("joint-scan", {"world": PLANAR_WORLD, "resolution": 0}, "resolution"),
        ("stationary-check", {"random": {"n_bins": 2}, "n_starts": 2.7}, "n_starts"),
        ("stationary-check", {"random": {"n_bins": 2}, "n_starts": 0}, "n_starts"),
        ("stationary-check", {"random": {"n_bins": 2, "count": "abc"}}, "count"),
        ("stationary-check", {"random": {"n_bins": 2, "count": 0}}, "count"),
        ("stationary-check", {"random": {"n_bins": 2.7}}, "n_bins"),
        ("stationary-check", {"random": {"n_bins": True}}, "n_bins"),
        ("stationary-check", {"random": {"n_bins": 1}}, "n_bins"),
        ("stationary-check", {"random": {"count": 1}}, "n_bins"),
        ("stationary-check", {"random": {"n_bins": 2, "seed": 2.7}}, "seed"),
        ("stationary-check", {"random": {"n_bins": 2, "seed": -1}}, "seed"),
    ],
)
def test_oracle_commands_reject_bad_integer_keys(tmp_path, capsys, command, cfg, key):
    assert _run(tmp_path, command, {"experiment": "bad", **cfg}) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert repr(key) in err["message"]


SWEEP_CFG = {
    "generator": GAMMA_GEN, "sizes": [30], "seeds": [0], "objectives": ["nll"],
    "n_bins": 4, "n_val": 20, "n_test": 30,
    "train": {"epochs": 1, "batch_size": 15, "hidden": [4]},
}


def _with(cfg, **changes):
    return {**cfg, **changes}


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("simulate", {"generator": MARGINAL_GEN, "seed": 2.7, "sizes": [10]}, "seed"),
        ("simulate", {"generator": MARGINAL_GEN, "seeds": [0, -1], "sizes": [10]}, "seeds[1]"),
        ("simulate", {"generator": MARGINAL_GEN, "seeds": 3, "sizes": [10]}, "seeds"),
        ("simulate", {"generator": MARGINAL_GEN, "sizes": ["x"]}, "sizes[0]"),
        ("simulate", {"generator": MARGINAL_GEN, "sizes": []}, "sizes"),
        ("simulate", {"generator": {**MARGINAL_GEN, "n": 10.5}}, "n"),
        ("train", _with(TRAIN_CFG, seed="0"), "seed"),
        ("train", _with(TRAIN_CFG, n_bins="x"), "n_bins"),
        ("train", _with(TRAIN_CFG, n_bins=1), "n_bins"),
        ("train", _with(TRAIN_CFG, data={"generator": GAMMA_GEN, "n_train": 48.5,
                                         "n_val": 40}), "n_train"),
        ("train", _with(TRAIN_CFG, data={"generator": GAMMA_GEN, "n_train": 48,
                                         "n_val": 0}), "n_val"),
        ("evaluate", {"seed": True, "model_f": "unread.json"}, "seed"),
        ("sweep", _with(SWEEP_CFG, sizes=[30, 2.5]), "sizes[1]"),
        ("sweep", _with(SWEEP_CFG, seeds=["a"]), "seeds[0]"),
        ("sweep", _with(SWEEP_CFG, n_test=-5), "n_test"),
        ("sweep", _with(SWEEP_CFG, workers=2.7), "workers"),
        ("sweep", _with(SWEEP_CFG, workers=0), "workers"),
        ("sweep", _with(SWEEP_CFG, workers="2"), "workers"),
        ("train", _with(TRAIN_CFG, selection={"enabled": True, "seed": "x"}), "seed"),
        ("train", _with(TRAIN_CFG, selection={"enabled": 1}), "enabled"),
        ("sweep", _with(SWEEP_CFG, selection={"seed": -1}), "seed"),
        ("sweep", _with(SWEEP_CFG, selection={"enabled": "yes"}), "enabled"),
    ],
)
def test_data_commands_reject_bad_integer_keys(tmp_path, capsys, no_work, command, cfg, key):
    # floats and strings are rejected, not truncated, and every key fails
    # before any data is generated or a pool starts
    assert repr(key) in _config_error(tmp_path, capsys, command, cfg)


def test_evaluate_rejects_bad_n_test(tmp_path, capsys):
    assert _run(tmp_path, "train", TRAIN_CFG) == 0
    model_dir = tmp_path / "out" / "exp" / "0"
    cfg = {
        "experiment": "eval",
        "model_f": str(model_dir / "model_F.json"),
        "bin_edges": str(model_dir / "bin_edges.json"),
        "data": {"generator": GAMMA_GEN, "n_test": 12.5},
    }
    assert _run(tmp_path, "evaluate", cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "'n_test'" in err["message"]


@pytest.mark.parametrize("weighting, key", [("true-G", "world"), ("model-G", "model_g")])
def test_evaluate_rejects_weighting_without_its_input(tmp_path, capsys, monkeypatch,
                                                      weighting, key):
    assert _run(tmp_path, "train", TRAIN_CFG) == 0
    model_dir = tmp_path / "out" / "exp" / "0"
    calls = []
    monkeypatch.setattr(gamesurv.simgen, "gen_gamma", lambda *args: calls.append(args))
    cfg = {
        "weighting": weighting,
        "model_f": str(model_dir / "model_F.json"),
        "bin_edges": str(model_dir / "bin_edges.json"),
        "data": {"generator": GAMMA_GEN, "n_test": 20},
    }
    assert repr(key) in _config_error(tmp_path, capsys, "evaluate", cfg)
    assert calls == []


def test_train_bins_marginal_worlds_on_their_own_grid(tmp_path, capsys):
    # a marginal generator's times are the bin indices 1..K, so its world's
    # grid is the bin grid; quantile edges would coincide
    world = MarginalWorld(MARGINAL_GEN["theta_t"], MARGINAL_GEN["theta_c"])
    cfg = _with(TRAIN_CFG, data={"generator": MARGINAL_GEN, "n_train": 48, "n_val": 40})
    del cfg["n_bins"]
    for name, run_cfg in (("omitted", cfg), ("three", _with(cfg, n_bins=3))):
        assert _run(tmp_path, "train", run_cfg, out=name) == 0
        out = tmp_path / name / "exp" / "0"
        np.testing.assert_array_equal(read_bin_edges(out / "bin_edges.json"), world.bin_edges)
        assert Model.load(out / "model_F.json").arch.n_bins == 3
    assert "'n_bins'" in _config_error(tmp_path, capsys, "train", _with(cfg, n_bins=5))


def test_stationary_check_rejects_unreachable_random_worlds(tmp_path, capsys):
    # 60 bins at the 0.02 mass floor used to spin in the rejection sampler
    cfg = {"experiment": "st", "random": {"n_bins": 60, "count": 1}, "n_starts": 1}
    assert _run(tmp_path, "stationary-check", cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "n_bins=60" in err["message"]


def test_unknown_generator_kind(tmp_path, capsys):
    cfg = {"experiment": "x", "generator": {"kind": "weibull"}, "sizes": [10]}
    assert _run(tmp_path, "simulate", cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert "weibull" in err["message"]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any data is generated or read, a model is loaded,
    training starts or an oracle scan runs."""

    def boom(*args, **kwargs):
        raise AssertionError("a config check ran after work had started")

    for module, name in [
        (gamesurv.games, "train"),
        (gamesurv.simgen, "gen_gamma"),
        (gamesurv.simgen, "gen_marginal"),
        (gamesurv.simgen, "load_csv"),
        (gamesurv.models.Model, "load"),
        (gamesurv.oracle, "gradient_field"),
        (gamesurv.oracle, "joint_objective_scan"),
        (gamesurv.oracle, "stationary_scan"),
    ]:
        monkeypatch.setattr(module, name, boom)


def _config_error(tmp_path, capsys, command, cfg):
    assert _run(tmp_path, command, {"experiment": "bad", **cfg}) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert not (tmp_path / "out" / "bad").exists()  # a failing config writes nothing
    return err["message"]


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("sweep", _with(SWEEP_CFG, weighting="kmm")),
        ("sweep", _with(SWEEP_CFG, weighting="true-G")),  # a sweep has no world
        ("evaluate", {"weighting": "kmm", "model_f": "unread.json"}),
        ("evaluate", {"weighting": ["km"], "model_f": "unread.json"}),
    ],
)
def test_commands_reject_bad_weighting(tmp_path, capsys, no_work, command, cfg):
    assert "'weighting'" in _config_error(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("objectives", ["nll", [], ["nll", "bogus"], [["nll"]]])
def test_sweep_rejects_bad_objectives(tmp_path, capsys, no_work, objectives):
    cfg = _with(SWEEP_CFG, objectives=objectives)
    assert "'objectives'" in _config_error(tmp_path, capsys, "sweep", cfg)


def test_sweep_rejects_objective_in_train_block(tmp_path, capsys, no_work):
    # a sweep's objectives come from 'objectives' alone, never from 'train'
    cfg = _with(SWEEP_CFG, train={**SWEEP_CFG["train"], "objective": "bogus"})
    assert "'objectives'" in _config_error(tmp_path, capsys, "sweep", cfg)


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("train", _with(TRAIN_CFG, selection=True)),
        ("train", _with(TRAIN_CFG, selection=["enabled"])),
        ("sweep", _with(SWEEP_CFG, selection=True)),
    ],
)
def test_training_commands_reject_non_object_selection(tmp_path, capsys, no_work, command, cfg):
    assert "'selection'" in _config_error(tmp_path, capsys, command, cfg)


def test_train_rejects_unknown_train_keys(tmp_path, capsys, no_work):
    # the Adam constants are fixed, not settable
    cfg = _with(TRAIN_CFG, train={**TRAIN_CFG["train"], "adam_beta1": 0.8})
    assert "bad train config" in _config_error(tmp_path, capsys, "train", cfg)


def _without_n_val(data):
    return {k: v for k, v in data.items() if k != "n_val"}


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("train", _with(TRAIN_CFG, train={**TRAIN_CFG["train"], "objective": "bogus"}),
         "objective"),
        # the per-horizon game has no likelihood form: one TrainConfig per sweep objective
        ("sweep", _with(SWEEP_CFG, objectives=["bs-game", "nll"],
                        train={**SWEEP_CFG["train"], "game_form": "multiplayer"}), "objective"),
        ("train", _with(TRAIN_CFG, data=_without_n_val(TRAIN_CFG["data"])), "'n_val'"),
        ("train", _with(TRAIN_CFG, data={"train_csv": "unread.csv"}), "'val_csv'"),
        ("sweep", _with(SWEEP_CFG, n_val=0), "'n_val'"),
        ("sweep", _with(SWEEP_CFG, n_val="20"), "'n_val'"),
    ],
)
def test_training_commands_check_train_and_val_before_data(tmp_path, capsys, no_work,
                                                           command, cfg, key):
    assert key in _config_error(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize(
    "knobs, key",
    [
        ({"feature_variance": float("nan")}, "'feature_variance'"),
        ({"time_variance": float("inf")}, "'time_variance'"),
        ({"feature_dim": "x"}, "'feature_dim'"),
        ({"feature_dimm": 4}, "'feature_dimm'"),
        ({"coef_low": 0.2, "coef_high": 0.1}, "'coef_low'"),
    ],
)
@pytest.mark.parametrize("command", ["train", "sweep", "simulate"])
def test_commands_reject_bad_gamma_knobs(tmp_path, capsys, no_work, command, knobs, key):
    gen = {**GAMMA_GEN, **knobs}
    cfg = {
        "train": _with(TRAIN_CFG, data={**TRAIN_CFG["data"], "generator": gen}),
        "sweep": _with(SWEEP_CFG, generator=gen),
        "simulate": {"generator": gen, "sizes": [10]},
    }[command]
    assert key in _config_error(tmp_path, capsys, command, cfg)


# Every hole in a config fails up front with a ConfigError naming the key:
# unknown keys at every object level, path keys that name no file, worlds
# that are not distributions (or do not fit the command), and bad train
# fields. The path keys that are meant to exist name PRESENT, which the test
# creates in its working directory.
PRESENT, MISSING = "present.json", "missing.json"
CSV_DATA = {"train_csv": PRESENT, "val_csv": PRESENT}
EVAL_CFG = {"model_f": PRESENT, "bin_edges": PRESENT,
            "data": {"generator": GAMMA_GEN, "n_test": 20}}
NOT_A_PMF = {"theta_t": [0.5, 0.6], "theta_c": [0.4, 0.6]}
NAN_WORLD = {"theta_t": [float("nan"), 0.5], "theta_c": [0.4, 0.6]}
THREE_BINS = {"theta_t": [0.2, 0.3, 0.5], "theta_c": [0.3, 0.3, 0.4]}


def _train_data(**changes):
    return _with(TRAIN_CFG, data={**TRAIN_CFG["data"], **changes})


def _train_block(**changes):
    return _with(TRAIN_CFG, train={**TRAIN_CFG["train"], **changes})


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        # unknown keys, at every object level
        ("simulate", {"generator": MARGINAL_GEN, "sizes": [10], "size": 10}, "size"),
        ("simulate", {"generator": MARGINAL_GEN, "sizes": [10], "seeds": [0], "seed": 0}, "seed"),
        ("simulate", {"generator": {**GAMMA_GEN, "seed": 3}, "sizes": [10]}, "seed"),
        ("simulate", {"generator": {**MARGINAL_GEN, "n": 10}, "sizes": [10]}, "n"),
        ("train", _with(TRAIN_CFG, selecton={"enabled": False}), "selecton"),
        ("train", _with(TRAIN_CFG, selection={"enabled": True, "sead": 1}), "sead"),
        ("train", _train_data(n_test=10), "n_test"),
        ("train", _with(TRAIN_CFG, data={**CSV_DATA, "n_train": 10}), "n_train"),
        ("train", _train_data(generator={**GAMMA_GEN, "n": 10}), "n"),
        ("train", _train_data(generator={**GAMMA_GEN, "seed": 1}), "seed"),
        ("train", _train_data(generator={**MARGINAL_GEN, "seed": 1}), "seed"),
        ("evaluate", _with(EVAL_CFG, wieghting="km"), "wieghting"),
        ("evaluate", _with(EVAL_CFG, data={"generator": GAMMA_GEN, "n_test": 20, "n_val": 5}),
         "n_val"),
        ("evaluate", _with(EVAL_CFG, data={"test_csv": PRESENT, "n_test": 20}), "n_test"),
        ("evaluate", _with(EVAL_CFG, data={"generator": {**GAMMA_GEN, "n": 5}, "n_test": 20}),
         "n"),
        ("evaluate", _with(EVAL_CFG, world={**PLANAR_WORLD, "theta": [1.0]}), "theta"),
        ("sweep", _with(SWEEP_CFG, worker=2), "worker"),
        ("sweep", _with(SWEEP_CFG, generator={**GAMMA_GEN, "seed": 0}), "seed"),
        ("sweep", _with(SWEEP_CFG, generator={**GAMMA_GEN, "n": 30}), "n"),
        ("sweep", _with(SWEEP_CFG, selection={"enabled": True, "sead": 1}), "sead"),
        ("gradient-field", {"world": PLANAR_WORLD, "resolutoin": 5}, "resolutoin"),
        ("gradient-field", {"world": {**PLANAR_WORLD, "kind": "marginal"}}, "kind"),
        ("joint-scan", {"world": PLANAR_WORLD, "n_starts": 5}, "n_starts"),
        ("joint-scan", {"world": {**PLANAR_WORLD, "n": 3}}, "n"),
        ("stationary-check", {"random": {"n_bins": 2}, "resolution": 5}, "resolution"),
        ("stationary-check", {"random": {"n_bins": 2, "counts": 2}}, "counts"),
        ("stationary-check", {"worlds": [PLANAR_WORLD, {**PLANAR_WORLD, "seed": 0}]}, "seed"),
        ("stationary-check", {"worlds": [PLANAR_WORLD], "random": {"n_bins": 2}}, "random"),
        # string keys
        ("simulate", {"generator": MARGINAL_GEN, "sizes": [10], "experiment": 5}, "experiment"),
        ("joint-scan", {"world": PLANAR_WORLD, "out": ["out"]}, "out"),
        # path keys must name existing files
        ("train", _with(TRAIN_CFG, data={**CSV_DATA, "train_csv": MISSING}), "train_csv"),
        ("train", _with(TRAIN_CFG, data={**CSV_DATA, "val_csv": MISSING}), "val_csv"),
        ("evaluate", _with(EVAL_CFG, model_f=MISSING), "model_f"),
        ("evaluate", _with(EVAL_CFG, model_g=MISSING), "model_g"),
        ("evaluate", _with(EVAL_CFG, bin_edges=MISSING), "bin_edges"),
        ("evaluate", _with(EVAL_CFG, standardizer=MISSING), "standardizer"),
        ("evaluate", _with(EVAL_CFG, data={"test_csv": MISSING}), "test_csv"),
        # worlds must be distributions that fit the command
        ("simulate", {"generator": {"kind": "marginal", **NOT_A_PMF}, "sizes": [10]},
         "generator"),
        ("train", _train_data(generator={"kind": "marginal", **NAN_WORLD}), "generator"),
        ("sweep", _with(SWEEP_CFG, generator={"kind": "marginal", **NOT_A_PMF}), "generator"),
        ("evaluate", _with(EVAL_CFG, world=NOT_A_PMF), "world"),
        ("evaluate", _with(EVAL_CFG, world=[0.5, 0.5]), "world"),
        ("gradient-field", {"world": NOT_A_PMF}, "world"),
        ("gradient-field", {"world": THREE_BINS}, "world"),
        ("joint-scan", {"world": NAN_WORLD}, "world"),
        ("joint-scan", {"world": THREE_BINS}, "world"),
        ("stationary-check", {"worlds": [PLANAR_WORLD, NOT_A_PMF]}, "worlds[1]"),
        ("stationary-check", {"worlds": [{"theta_t": [0.2, 0.3, 0.5],
                                          "theta_c": [0.3, 0.7, 0.0]}]}, "worlds[0]"),
        ("stationary-check", {"worlds": [THREE_BINS, {"theta_t": [0.2, 0.8, 0.0],
                                                      "theta_c": [0.3, 0.3, 0.4]}]}, "worlds[1]"),
        # train fields are integers or finite reals, never truncated
        ("train", _train_block(hidden=[6.7]), "hidden"),
        ("train", _train_block(hidden=[0]), "hidden"),
        ("train", _train_block(epochs=2.5), "epochs"),
        ("train", _train_block(batch_size=24.5), "batch_size"),
        ("train", _train_block(init_scale=float("nan")), "init_scale"),
        ("train", _train_block(learning_rate="0.1"), "learning_rate"),
        ("sweep", _with(SWEEP_CFG, train={**SWEEP_CFG["train"], "hidden": [6.7]}), "hidden"),
    ],
)
def test_commands_reject_config_holes_before_work(tmp_path, capsys, monkeypatch, no_work,
                                                  command, cfg, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / PRESENT).touch()
    assert repr(key) in _config_error(tmp_path, capsys, command, cfg)
    assert not (tmp_path / "out").exists()


# Path files that exist but are malformed, or do not fit the run, fail once
# read, before the test split is drawn or anything is written, with a
# ValueError naming the file and the key or line.
MLP_ARCH = {"kind": "mlp", "n_bins": 5, "feature_dim": 4, "hidden": [6]}
GOOD_FILES = {
    "model_f": {"arch": MLP_ARCH, "params": [0.0] * 65},
    "model_g": {"arch": MLP_ARCH, "params": [0.0] * 65},
    "bin_edges": {"K": 5, "edges": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]},
    "standardizer": {"mean": [0.0] * 4, "std": [1.0] * 4},
}


@pytest.mark.parametrize(
    "key, content, message",
    [
        ("bin_edges", {"edges": [0.0, 1.0, 2.0]}, "missing key 'K'"),
        ("bin_edges", {"K": 2}, "missing key 'edges'"),
        ("bin_edges", {"K": 2, "edges": [0.0, "x", 2.0]}, "key 'edges' must hold numbers"),
        ("bin_edges", {"K": 3, "edges": [0.0, 1.0, 2.0]}, "K = 3 but 3 edges"),
        ("bin_edges", "[0.0, 1.0", "line 1"),
        ("standardizer", {"mean": [0.0] * 4}, "missing key 'std'"),
        ("standardizer", {"mean": "zero", "std": [1.0] * 4}, "key 'mean' must hold numbers"),
        ("model_f", {"params": [0.0] * 65}, "missing key 'arch'"),
        ("model_f", {"arch": {**MLP_ARCH, "hidden": None}, "params": []}, "not iterable"),
        ("model_g", {"arch": {"kind": "mlp", "n_bins": 5}, "params": []}, "missing key 'feature_dim'"),
        ("model_g", {"arch": MLP_ARCH, "params": ["w"] * 65}, "key 'params' must hold numbers"),
        ("model_g", [MLP_ARCH], "list indices"),
        # files that parse but do not fit the run
        ("bin_edges", {"K": 5, "edges": [0.0, 2.0, 1.0, 3.0, 4.0, 5.0]}, "strictly increasing"),
        ("bin_edges", {"K": 5, "edges": [0.0, 1.0, 2.0, float("nan"), 4.0, 5.0]}, "finite"),
        ("standardizer", {"mean": [0.0] * 3, "std": [1.0] * 3},
         "'mean' and 'std' hold 3 entries but model_f takes 4 features"),
        ("standardizer", {"mean": [0.0] * 4, "std": [1.0] * 3}, "lists of one length"),
        ("standardizer", {"mean": [[0.0] * 4], "std": [[1.0] * 4]}, "lists of one length"),
        ("standardizer", {"mean": [0.0] * 4, "std": [1.0, 0.0, 1.0, 1.0]}, "finite and positive"),
        ("standardizer", {"mean": [0.0] * 4, "std": [1.0, float("inf"), 1.0, 1.0]},
         "finite and positive"),
        ("standardizer", {"mean": [0.0, float("nan"), 0.0, 0.0], "std": [1.0] * 4},
         "'mean' must be finite"),
    ],
)
def test_evaluate_names_a_malformed_path_file(tmp_path, capsys, monkeypatch, key, content,
                                              message):
    def boom(*args, **kwargs):
        raise AssertionError("the test split was drawn before the path files were checked")

    monkeypatch.setattr(gamesurv.simgen, "gen_gamma", boom)
    paths = {}
    for name, good in GOOD_FILES.items():
        value = content if name == key else good
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(value if isinstance(value, str) else json.dumps(value))
    cfg = {**EVAL_CFG, **{name: str(path) for name, path in paths.items()}, "experiment": "bad"}
    assert _run(tmp_path, "evaluate", cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{paths[key]}: ") and message in err["message"], err
    assert not (tmp_path / "out").exists()


def test_evaluate_names_a_standardizer_that_does_not_fit_the_test_split(tmp_path, capsys):
    # a marginal model takes no features, so only the drawn split can show the misfit
    cfg = _with(TRAIN_CFG, train={**TRAIN_CFG["train"], "game_form": "multiplayer"})
    assert _run(tmp_path, "train", cfg) == 0
    model_dir = tmp_path / "out" / "exp" / "0"
    std = tmp_path / "std.json"
    std.write_text(json.dumps({"mean": [0.0] * 3, "std": [1.0] * 3}))
    eval_cfg = {**EVAL_CFG, "experiment": "bad", "standardizer": str(std),
                "model_f": str(model_dir / "model_F.json"),
                "bin_edges": str(model_dir / "bin_edges.json")}
    assert _run(tmp_path, "evaluate", eval_cfg) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"] == f"{std}: 'mean' and 'std' hold 3 entries but the data has 4 features"
    assert not (tmp_path / "out" / "bad").exists()


def _readme_cli_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_readme_cli_examples_pass_their_checks(tmp_path, capsys, monkeypatch, no_work):
    # the README's train and evaluate configs get past every config check
    # and reach work, where the no_work fixture stops them
    train_cfg, eval_cfg = _readme_cli_examples()
    monkeypatch.chdir(tmp_path)
    for key in ("model_f", "model_g", "bin_edges", "standardizer"):
        Path(eval_cfg[key]).parent.mkdir(parents=True, exist_ok=True)
        Path(eval_cfg[key]).touch()
    for command, cfg in (("train", train_cfg), ("evaluate", eval_cfg)):
        Path(f"{command}.json").write_text(json.dumps(cfg))
        assert main([command, f"{command}.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AssertionError", err
