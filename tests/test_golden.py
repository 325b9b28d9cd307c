"""Golden outputs: a short seed-0 `nafdrive train` and an `eval` of its final
checkpoint must reproduce pinned bytes.

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

from nafdrive.cli import default_config_dict, main

# sha256 prefixes of the outputs
GOLDEN = {
    "loss.csv": "0bb99ffd772789ba",
    "episodes.csv": "a228bb039560ed95",
    "checkpoint_00001000.json": "1b91f5768953e950",
    "eval.csv": "3f436ada28b6178c",
}


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The run directory of the golden train and eval, and the warnings the
    train raised."""
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
