"""The demos still run against the library's current API."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, last_line", [
    ("car_following", "faults recorded:      0"),
    ("q_function_anatomy", "vs analytic mu:"),
])
def test_demo_main_runs(name, last_line, capsys):
    load(name).main()
    out = capsys.readouterr().out.strip().splitlines()
    assert last_line in out[-1]


def test_small_training_run_imports():
    # its main() trains for about a minute, so only the imports are checked
    assert callable(load("small_training_run").main)
