"""Golden artefacts, byte for byte (see tests/golden/make.py): the model
pair, the log and the selection summary of two tiny ``cli train`` runs; the
report and calibration table of one run's models under every weighting;
every file of the other command cases; and the population games' end
states."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def _skip_other_builds():
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    if make.environment() != recorded:
        pytest.skip(f"golden bytes were made under {recorded}, not {make.environment()}")


@pytest.mark.parametrize("objective", make.OBJECTIVES)
def test_train_reproduces_the_golden_bytes(tmp_path, objective):
    _skip_other_builds()
    run = make.train(objective, tmp_path)
    for name in make.FILES:
        assert (run / name).read_bytes() == (GOLDEN / objective / name).read_bytes(), name


def test_evaluate_reproduces_the_golden_bytes(tmp_path):
    _skip_other_builds()
    run = make.train("bs-game", tmp_path)
    for weighting in make.WEIGHTINGS:
        out = make.evaluate(weighting, run, tmp_path)
        for name in make.EVAL_FILES:
            expected = (GOLDEN / "evaluate" / weighting / name).read_bytes()
            assert (out / name).read_bytes() == expected, (weighting, name)


@pytest.mark.parametrize("case", make.COMMANDS)
def test_command_reproduces_the_golden_bytes(tmp_path, case):
    _skip_other_builds()
    run = make.run_command(case, tmp_path)
    assert make.files(run) == make.files(GOLDEN / case)
    for name in make.files(run):
        assert (run / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


@pytest.mark.parametrize("seed", make.POPULATION_SEEDS)
def test_population_games_reproduce_the_golden_end_states(seed):
    _skip_other_builds()
    assert make.population(seed) == (GOLDEN / "population" / f"world-{seed}.json").read_text()
