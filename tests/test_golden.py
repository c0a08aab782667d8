"""Golden ``cli train`` artefacts: the model pair, the log and the
selection summary of two tiny runs, byte for byte (see tests/golden/make.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


@pytest.mark.parametrize("objective", make.OBJECTIVES)
def test_train_reproduces_the_golden_bytes(tmp_path, objective):
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    if make.environment() != recorded:
        pytest.skip(f"golden bytes were made under {recorded}, not {make.environment()}")
    run = make.train(objective, tmp_path)
    for name in make.FILES:
        assert (run / name).read_bytes() == (GOLDEN / objective / name).read_bytes(), name
