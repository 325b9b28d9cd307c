"""Golden outputs: a short seed-0 `nafdrive train`, an `eval` and a `trace` of
its final checkpoint, and the seed-0 gradient audit must reproduce pinned
bytes.

A refactor or optimisation that keeps the numbers keeps these digests.  A
change that alters outputs on purpose updates them and says so in
CHANGES.md.  The run is 1000 steps with pretrain 500; the replay buffer
first holds a batch near step 300, so both training stages take gradient
steps.
"""

import hashlib
import json
import warnings

import pytest

from nafdrive.cli import checkgrad_suite, default_config_dict, main

# sha256 prefixes of the outputs
GOLDEN = {
    "loss.csv": "0bb99ffd772789ba",
    "episodes.csv": "a228bb039560ed95",
    "checkpoint_00001000.json": "1b91f5768953e950",
    "eval.csv": "3f436ada28b6178c",
    "trace.csv": "787142499242769d",
}

# the max relative errors of `checkgrad_suite(0)`, exactly
CHECKGRAD_SEED0 = {"net": 3.33268076921267e-09, "q_value": 1.6243408730407188e-06,
                   "batch_loss": 6.15911031303485e-07}


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The run directory of the golden train, eval and trace, and the
    warnings the train raised."""
    tmp_path = tmp_path_factory.mktemp("golden")
    data = default_config_dict(seed=0)
    data["train"].update(total_steps=1000, pretrain_steps=500,
                         checkpoint_schedule=[1000])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    run = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint_00001000.json"),
                 "--config", str(cfg), "--episodes", "5", "--seed", "1000",
                 "--out", str(run / "eval.csv")]) == 0
    assert main(["trace", "--checkpoint", str(run / "checkpoint_00001000.json"),
                 "--config", str(cfg), "--seed", "0",
                 "--out", str(run / "trace.csv")]) == 0
    return run, caught


def test_short_train_and_eval_match_golden_digests(golden_run):
    run, _ = golden_run
    losses = dict(line.split(",") for line in (run / "loss.csv").read_text().splitlines()
                  if line[0].isdigit())
    assert losses["500"], "no gradient step in the pretrain stage"
    assert {name: sha256_prefix(run / name) for name in GOLDEN} == GOLDEN


def test_golden_train_raises_no_warning(golden_run):
    _, caught = golden_run
    assert [str(w.message) for w in caught] == []


def test_checkgrad_errors_match_golden_values():
    assert checkgrad_suite(0) == CHECKGRAD_SEED0
