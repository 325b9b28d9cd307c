"""Config parsing, checkpoints, CSV outputs, and the four subcommands."""

import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nafdrive import cli, learner
from nafdrive.cli import (CHECKPOINT_VERSION, checkgrad_suite, cmd_checkgrad,
                          config_digest, default_config_dict, load_checkpoint,
                          load_config, main, parse_config, save_checkpoint)
from nafdrive.errors import ConfigurationError, NumericalError
from nafdrive.learner import TrainConfig, make_rngs
from nafdrive.nafq import A_CAP, M_EPS, T_MAX, T_MIN, NafParams
from nafdrive.simworld import WorldConfig


def desk_config(seed=0):
    """Tiny but schema-complete config for fast end-to-end runs."""
    data = default_config_dict(seed)
    data["train"].update(total_steps=600, pretrain_steps=300,
                         target_sync_every=200, checkpoint_schedule=[300, 600],
                         batch_size=16, buffer_capacity=2000)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- config


def test_default_config_parses():
    cfg = parse_config(default_config_dict())
    assert cfg.train.gamma == 0.95
    assert cfg.world.road.lane_width == 3.75
    assert cfg.naf_constants["a_cap"] == 0.6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_config_is_the_dataclass_defaults(seed):
    cfg = parse_config(default_config_dict(seed))
    assert cfg.train == TrainConfig(seed=seed)
    assert cfg.world == WorldConfig()
    assert cfg.naf_constants == {"a_cap": A_CAP, "t_min": T_MIN,
                                 "t_max": T_MAX, "m_eps": M_EPS}


def test_missing_field_named_in_error():
    data = default_config_dict()
    del data["idm"]["b_max"]
    with pytest.raises(ConfigurationError, match="idm.b_max"):
        parse_config(data)


def test_missing_section_named_in_error():
    data = default_config_dict()
    del data["reward"]
    with pytest.raises(ConfigurationError, match="reward"):
        parse_config(data)


def test_seed_override(tmp_path):
    path = write_config(tmp_path, default_config_dict(seed=0))
    assert load_config(path, seed_override=77).seed == 77


def test_digest_ignores_seed_but_not_physics():
    a = default_config_dict(seed=0)
    b = default_config_dict(seed=99)
    assert config_digest(a) == config_digest(b)
    b["idm"]["a_m"] = 2.5
    assert config_digest(a) != config_digest(b)


# -- checkpoints


def checkpoint_params(seed=0):
    return NafParams.init(make_rngs(seed)["init"], hidden=(8,))


def test_checkpoint_round_trip_bytes(tmp_path):
    params = checkpoint_params()
    digest = config_digest(default_config_dict())
    p1 = str(tmp_path / "ck1.json")
    p2 = str(tmp_path / "ck2.json")
    save_checkpoint(p1, 123, params, None, None, None, digest)
    assert set(json.loads(Path(p1).read_text())) == {
        "format_version", "step", "params", "config_digest"}
    ck = load_checkpoint(p1)
    assert ck["step"] == 123 and ck["config_digest"] == digest
    save_checkpoint(p2, ck["step"], ck["params"], None, None, None,
                    ck["config_digest"])
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_checkpoint_restores_parameters(tmp_path):
    params = checkpoint_params(3)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, 1, params, None, None, None, "d")
    ck = load_checkpoint(path)
    for name in NafParams.NET_NAMES:
        for a, b in zip(getattr(ck["params"], name).weights,
                        getattr(params, name).weights):
            assert np.array_equal(a, b)


def test_checkpoint_version_checked(tmp_path, capsys):
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, 1, checkpoint_params(), None, None, None, "d")
    data = json.loads(Path(path).read_text())
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        data["format_version"] = version
        Path(path).write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)
    # eval and trace refuse a version-2 file
    data["format_version"] = 2
    Path(path).write_text(json.dumps(data))
    cfg_path = write_config(tmp_path, desk_config())
    dst = str(tmp_path / "out.csv")
    assert main(["eval", "--checkpoint", path, "--config", cfg_path,
                 "--episodes", "1", "--out", dst]) == 2
    assert main(["trace", "--checkpoint", path, "--config", cfg_path,
                 "--out", dst]) == 2
    assert "unsupported checkpoint version 2" in capsys.readouterr().err
    assert not os.path.exists(dst)


def whole_document(step, params, digest):
    # the reference: the checkpoint encoded in one piece, flat as a list
    return cli._dumps({
        "format_version": CHECKPOINT_VERSION, "step": step,
        "params": {"layer_dims": list(params.layer_dims), "flat": params.flat.tolist(),
                   "constants": {f.name: getattr(params, f.name)
                                 for f in cli.SECTIONS["naf"]}},
        "config_digest": digest})


@pytest.mark.parametrize("block", ["1", "7", "n", "n+1"])
def test_checkpoint_blocks_keep_the_whole_document_bytes(block, tmp_path, monkeypatch):
    params = checkpoint_params()
    n = params.flat.size
    monkeypatch.setattr(cli, "_FLAT_BLOCK", {"1": 1, "7": 7, "n": n, "n+1": n + 1}[block])
    rng = np.random.default_rng(7)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]
    for k in range(3):
        flat = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
        # at both ends of the vector and on both sides of a 7-float block's edge
        flat[[0, 6, 7, 8, n // 2, n - 1]] = np.roll(specials, k)
        params.flat[:] = flat
        path = tmp_path / f"ck{k}.json"
        save_checkpoint(str(path), k, params, None, None, None, f"digest{k}")
        assert path.read_bytes() == whole_document(k, params, f"digest{k}").encode()


def test_checkpoint_save_holds_less_than_the_file(tmp_path):
    # the vector is encoded a block at a time; the whole document in memory
    # at once would take several times the file's size
    params = NafParams.init(0)
    path = tmp_path / "ck.json"
    tracemalloc.start()
    try:
        save_checkpoint(str(path), 0, params, None, None, None, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert path.read_bytes() == whole_document(0, params, "d").encode()


def test_atomic_write_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")

    def pieces():
        yield "first piece, written\n"
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        cli.atomic_write(str(path), pieces())
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("malform", [
    lambda data: [data],
    lambda data: {**data, "params": {**data["params"], "flat": data["params"]["flat"][:-1]}},
    lambda data: {**data, "params": {**data["params"], "layer_dims": [6, 0, 1]}},
    lambda data: {**data, "params": []},
    lambda data: {**data, "params": {**data["params"], "flat": ["x"]}},
    lambda data: {**data, "params": {**data["params"],
                                     "constants": {**data["params"]["constants"], "x": 1}}},
], ids=["list", "flat-one-short", "zero-width-layer", "params-list", "flat-string",
        "unknown-constant"])
def test_malformed_checkpoint_refused(malform, trained_run, tmp_path, capsys):
    cfg_path, run = trained_run
    data = json.loads(Path(run, "checkpoint_00000600.json").read_text())
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(malform(data)))
    with pytest.raises(ConfigurationError):
        load_checkpoint(str(path))
    dst = tmp_path / "out.csv"
    for argv in (["eval", "--episodes", "1"], ["trace"]):
        assert main([*argv, "--checkpoint", str(path), "--config", cfg_path,
                     "--out", str(dst)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
    assert not dst.exists()


# -- train command


def test_cmd_train_outputs(tmp_path):
    cfg_path = write_config(tmp_path, desk_config())
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert "loss.csv" in names and "episodes.csv" in names
    assert "checkpoint_00000300.json" in names
    assert "checkpoint_00000600.json" in names
    loss_lines = Path(out, "loss.csv").read_text().splitlines()
    assert loss_lines[0].startswith("#")
    assert loss_lines[1] == "step,loss"
    assert len(loss_lines) == 2 + 600 // 20
    ep_lines = Path(out, "episodes.csv").read_text().splitlines()
    assert ep_lines[0] == ("vehicle_id,start_step,end_step,duration_s,"
                           "R,R_acce,R_rate,R_dev,outcome")


def test_cmd_train_rerun_byte_identical(tmp_path):
    data = desk_config(seed=5)
    # seed 5 first holds a batch at step 388, so pretrain runs to 500
    data["train"].update(total_steps=1000, pretrain_steps=500,
                         checkpoint_schedule=[500, 1000])
    cfg_path = write_config(tmp_path, data)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", cfg_path, "--out", out1]) == 0
        assert main(["train", "--config", cfg_path, "--out", out2]) == 0
    assert [str(w.message) for w in caught] == []
    losses = dict(line.split(",") for line in
                  Path(out1, "loss.csv").read_text().splitlines()
                  if line[0].isdigit())
    assert losses["500"] and losses["1000"], "a stage took no gradient step"
    assert len(Path(out1, "episodes.csv").read_text().splitlines()) > 1
    for name in os.listdir(out1):
        assert Path(out1, name).read_bytes() == Path(out2, name).read_bytes(), name


def test_cmd_train_fault_keeps_logged_rows(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, desk_config())
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    assert main(["train", "--config", cfg_path, "--out", full]) == 0
    calls = 0
    train_step = learner.train_step

    def failing_train_step(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 100:
            raise NumericalError("injected fault")
        return train_step(*args, **kwargs)

    monkeypatch.setattr(learner, "train_step", failing_train_step)
    assert main(["train", "--config", cfg_path, "--out", cut]) == 1
    assert "injected fault" in capsys.readouterr().err
    # the files hold the start of a clean run's logs, up to the fault
    kept = {}
    for name in ("loss.csv", "episodes.csv"):
        kept[name] = Path(cut, name).read_text().splitlines()
        whole = Path(full, name).read_text().splitlines()
        assert kept[name] == whole[:len(kept[name])]
    losses = [line.split(",")[1] for line in kept["loss.csv"][2:]]
    assert len(losses) < 600 // 20
    # the 99 steps trained before the fault span at least four log points
    assert sum(loss != "" for loss in losses) >= 4


def test_cmd_train_missing_field_exit_code(tmp_path, capsys):
    data = desk_config()
    del data["train"]["gamma"]
    cfg_path = write_config(tmp_path, data)
    assert main(["train", "--config", cfg_path,
                 "--out", str(tmp_path / "x")]) == 2
    assert "train.gamma" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    data = desk_config()
    cfg_path = write_config(tmp, data)
    out = str(tmp / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    return cfg_path, out


@pytest.mark.parametrize("section", [None, "train", "road", "traffic",
                                     "reward", "idm", "naf", "sim"])
def test_unknown_key_rejected(section, trained_run, tmp_path, capsys):
    data = desk_config()
    if section is None:
        data["gama"] = 0.99
        name = "gama"
    else:
        data[section]["gama"] = 0.99
        name = f"{section}.gama"
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        parse_config(data)
    cfg_path = write_config(tmp_path, data)
    ck = os.path.join(trained_run[1], "checkpoint_00000600.json")
    out = tmp_path / "out"
    for argv in (["train", "--out", str(out)],
                 ["eval", "--checkpoint", ck, "--episodes", "1", "--out", str(out)],
                 ["trace", "--checkpoint", ck, "--out", str(out)]):
        assert main([*argv, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config_seed", [
    (["eval", "--episodes", "0"], 0),
    (["eval", "--episodes", "-3"], 0),
    (["eval", "--seed", "-1"], 0),
    (["trace", "--seed", "-1"], 0),
    (["train", "--seed", "-1"], 0),
    (["train"], -1),
])
def test_negative_seed_and_nonpositive_episodes_rejected(argv, config_seed, trained_run,
                                                         tmp_path, capsys):
    cfg_path = write_config(tmp_path, desk_config(config_seed))
    ck = os.path.join(trained_run[1], "checkpoint_00000600.json")
    out = tmp_path / "out"
    where = [] if argv[0] == "train" else ["--checkpoint", ck]
    assert main([*argv, *where, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["checkgrad", "--seed", "-1"],
    ["eval", "--episodes", "1", "--out", "{missing}/eval.csv"],
    ["trace", "--out", "{missing}/trace.csv"],
    ["train", "--out", "{file}"],
    ["train", "--out", "{file}/sub"],
    ["eval", "--episodes", "1", "--out", "{dir}"],
    ["trace", "--out", "{dir}"],
])
def test_every_command_reports_a_refused_argument_on_one_line(argv, trained_run, tmp_path,
                                                              capsys, monkeypatch):
    def rollout(*args):
        raise AssertionError("rolled out before the arguments were checked")

    monkeypatch.setattr(cli, "run_eval_episodes", rollout)
    monkeypatch.setattr(cli, "run_trace", rollout)
    cfg_path, run = trained_run
    file = tmp_path / "file"
    file.write_text("")
    given = [arg.format(missing=tmp_path / "missing", file=file, dir=tmp_path)
             for arg in argv]
    if argv[0] in ("eval", "trace"):
        given += ["--checkpoint", os.path.join(run, "checkpoint_00000600.json")]
    if argv[0] != "checkgrad":
        given += ["--config", cfg_path]
    assert main(given) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    if argv[0] in ("eval", "trace"):  # named as given, not by a temporary file
        assert given[argv.index("--out") + 1] in err[0] and ".tmp-" not in err[0], err


@pytest.mark.parametrize("section, field, value", [
    ("seed", None, True),
    ("train", None, 5),
    ("train", "batch_size", "64"),
    ("train", "batch_size", True),
    ("train", "checkpoint_schedule", [300, 600.0]),
    ("road", "lanes", 3.0),
    ("road", "curvature_profile", [[0.0, 0.001, 5.0]]),
    ("traffic", "depart_min", "5.0"),
    ("reward", "w_acce", None),
    ("idm", "T", False),
    ("naf", "a_cap", [0.6]),
    ("sim", "strict", 1),
])
def test_wrong_type_rejected(section, field, value, tmp_path, capsys):
    data = desk_config()
    if field is None:
        data[section] = value
        name = f"config section {section} "
    else:
        data[section][field] = value
        name = f"{section}.{field} "
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        parse_config(data)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("train", "dt", math.inf),
    ("road", "lane_width", math.nan),
    ("idm", "b_max", -math.inf),
    ("road", "curvature_profile", [[0.0, 0.001], [500.0, math.nan]]),
])
def test_non_finite_float_rejected(section, field, value, tmp_path, capsys):
    # Python's json writes and reads NaN and Infinity, so a config file can hold them
    data = desk_config()
    data[section][field] = value
    path = write_config(tmp_path, data)
    assert "NaN" in Path(path).read_text() or "Infinity" in Path(path).read_text()
    msg = f"config field {section}.{field} must be finite, not {value!r}"
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        load_config(path)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {msg}"]
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("road", "lanes", 0),
    ("road", "lane_width", 0.0),
    ("idm", "a_m", 0.0),
    ("idm", "b", 0.0),
    ("idm", "b", -1.0),
    ("reward", "d_avg", 0.0),
    ("traffic", "desired_speed_min", 0.0),
    ("sim", "episode_cap_steps", 0),
])
def test_physics_that_would_fail_midway_rejected(section, field, value, tmp_path, capsys):
    # each would divide by zero, fail a square root, run an empty road or
    # close every episode in its first tick
    data = desk_config()
    data[section][field] = value
    msg = f"config field {section}.{field} must be positive, not {value!r}"
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        parse_config(data)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {msg}"]
    assert not out.exists()


def test_unreachable_trigger_station_rejected(tmp_path, capsys):
    # no car reaches it, so the run would draw no lane change and train nothing
    data = desk_config()
    data["traffic"]["trigger_station"] = 2000.0
    msg = ("config field traffic.trigger_station must not exceed road.length while "
           "sim.lane_changes_enabled, not 2000.0 > 1000.0")
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        parse_config(data)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {msg}"]
    assert not out.exists()
    cfg = parse_config(desk_config())
    world = replace(cfg.world, traffic=replace(cfg.world.traffic, trigger_station=2000.0))
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        learner.run_training(cfg.train, world)
    # traffic with lane changes off, as the dense-traffic benchmark runs it, draws none
    data["sim"]["lane_changes_enabled"] = False
    parse_config(data)


@pytest.mark.parametrize("name, low, high", [("depart", 10.0, 5.0),
                                             ("init_speed", 14.0, 8.0),
                                             ("desired_speed", 33.0, 22.0)])
def test_reversed_traffic_range_rejected(name, low, high, tmp_path, capsys):
    # the first draw from it would fail, after the run directory was made
    traffic = {f"{name}_min": low, f"{name}_max": high}
    data = desk_config()
    data["traffic"].update(traffic)
    msg = (f"config field traffic.{name}_min must not exceed traffic.{name}_max, "
           f"not {low!r} > {high!r}")
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        parse_config(data)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {msg}"]
    assert not out.exists()
    cfg = parse_config(desk_config())
    world = replace(cfg.world, traffic=replace(cfg.world.traffic, **traffic))
    with pytest.raises(ConfigurationError, match=re.escape(msg)):
        learner.run_training(cfg.train, world)


def test_equal_traffic_bounds_accepted(tmp_path):
    data = desk_config()
    data["traffic"].update(depart_min=7.0, depart_max=7.0, init_speed_min=10.0,
                           init_speed_max=10.0, desired_speed_min=25.0,
                           desired_speed_max=25.0)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    assert (out / "episodes.csv").exists()


@pytest.mark.parametrize("profile", [[[0, 0.001], [500, 0.002], [200, -0.001]],
                                     [[0, 0.001], [0, 0.002]]])
def test_unsorted_curvature_profile_rejected(profile, tmp_path, capsys):
    # curvature_at stops at the first segment past the station, so station 300
    # of the first profile would read 0.001, not -0.001
    data = desk_config()
    data["road"]["curvature_profile"] = profile
    with pytest.raises(ConfigurationError, match=r"road\.curvature_profile .* increasing"):
        parse_config(data)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config field road.curvature_profile")
    assert not out.exists()
    # the first profile's segments in station order are read as written
    data["road"]["curvature_profile"] = [[0, 0.001], [200, -0.001], [500, 0.002]]
    assert parse_config(data).world.road.curvature_at(300.0) == -0.001


def test_int_accepted_for_float_field():
    data = desk_config()
    data["idm"]["T"] = 2
    assert parse_config(data).world.idm.T == 2


# -- eval command


def test_cmd_eval_single_episode(trained_run, tmp_path):
    cfg_path, out = trained_run
    ck = os.path.join(out, "checkpoint_00000600.json")
    dst = str(tmp_path / "eval.csv")
    assert main(["eval", "--checkpoint", ck, "--config", cfg_path,
                 "--episodes", "1", "--seed", "3", "--out", dst]) == 0
    lines = Path(dst).read_text().splitlines()
    assert len(lines) == 3  # header + one episode + summary
    assert lines[-1].startswith("summary,")


def test_cmd_eval_summary_is_mean(trained_run, tmp_path):
    cfg_path, out = trained_run
    ck = os.path.join(out, "checkpoint_00000600.json")
    dst = str(tmp_path / "eval.csv")
    assert main(["eval", "--checkpoint", ck, "--config", cfg_path,
                 "--episodes", "3", "--seed", "3", "--out", dst]) == 0
    lines = Path(dst).read_text().splitlines()[1:]
    body, summary = lines[:-1], lines[-1].split(",")
    rs = [float(row.split(",")[4]) for row in body]
    assert float(summary[4]) == pytest.approx(sum(rs) / len(rs), rel=1e-12)


def test_cmd_eval_digest_mismatch_refused(trained_run, tmp_path, capsys):
    cfg_path, out = trained_run
    data = json.loads(Path(cfg_path).read_text())
    data["idm"]["a_m"] = 2.5
    other_cfg = write_config(tmp_path, data, "other.json")
    ck = os.path.join(out, "checkpoint_00000600.json")
    dst = str(tmp_path / "eval.csv")
    assert main(["eval", "--checkpoint", ck, "--config", other_cfg,
                 "--episodes", "1", "--seed", "3", "--out", dst]) == 2
    assert "digest" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", ck, "--config", other_cfg,
                 "--episodes", "1", "--seed", "3", "--out", dst,
                 "--force"]) == 0


# -- trace command


def test_cmd_trace_rows(trained_run, tmp_path):
    cfg_path, out = trained_run
    ck = os.path.join(out, "checkpoint_00000600.json")
    dst = str(tmp_path / "trace.csv")
    assert main(["trace", "--checkpoint", ck, "--config", cfg_path,
                 "--seed", "4", "--out", dst]) == 0
    lines = Path(dst).read_text().splitlines()
    assert lines[0] == ("step,t,a_yaw,omega,theta,d,delta_d_lat,"
                        "r,r_acce,r_rate,r_dev")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 2
    assert float(rows[0][1]) == 0.0
    dts = [float(b[1]) - float(a[1]) for a, b in zip(rows, rows[1:])]
    assert all(abs(d - 0.1) < 1e-9 for d in dts)


# -- checkgrad command


def test_checkgrad_passes_fresh_params(capsys):
    assert cmd_checkgrad(seed=0) == 0
    out = capsys.readouterr().out
    assert "net" in out and "q_value" in out and "batch_loss" in out


def test_checkgrad_detects_injected_fault(monkeypatch, capsys):
    q_gradients_batch = cli.q_gradients_batch

    def corrupted(states, actions, coeffs, params):
        grad, q = q_gradients_batch(states, actions, coeffs, params)
        grad[params.span(NafParams.Q).start] *= 1.10  # first weight of m_net
        return grad, q

    monkeypatch.setattr(cli, "q_gradients_batch", corrupted)
    assert cmd_checkgrad(seed=0) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: gradient check failed for: q_value"]


def test_checkgrad_repeatable(capsys):
    main(["checkgrad", "--seed", "3"])
    first = capsys.readouterr().out
    main(["checkgrad", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_checkgrad_suite_thresholds():
    errors = checkgrad_suite(seed=1)
    assert all(err < 1e-4 for err in errors.values())
