"""Tests of the benchmark itself, at smoke size.

    python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nafdrive import simworld  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(name, tmp_path, trace, seed=0):
    work_dir = tmp_path / f"{name}-{int(trace)}-{seed}-{len(os.listdir(tmp_path))}"
    work_dir.mkdir()
    return bench.run(name, seed, 0, trace, str(work_dir), smoke=True)


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(name, tmp_path):
    result = _run(name, tmp_path, trace=False)
    assert result["correct"], result["error"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


# metrics each workload must move (non-zero) and must leave at zero
LAYERS = {
    "train-default": (("nafq.fit_calls", "netcore.adam_calls", "learner.push_calls",
                       "cli.checkpoint_save_s", "simworld.vehicle_ticks"), ()),
    "eval-greedy": (("nafq.greedy_calls", "cli.checkpoint_load_s", "gapcheck.calls"),
                    ("nafq.fit_calls", "netcore.adam_calls", "learner.push_calls")),
    "traffic-dense": (("longitudinal.calls", "simworld.lane_index_s"),
                      ("gapcheck.calls", "nafq.greedy_calls", "policy.calls",
                       "netcore.forward_s")),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_splits_wall_time_and_repeats_counts(name, tmp_path):
    first = _run(name, tmp_path, trace=True)
    assert first["correct"], first["error"]
    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        {p["name"]: p["unit"] for p in SPEC["per_layer"]}
    split = sum(m[k] for k in tracing.SELF_TIME_METRICS) + m["trace.untraced_s"]
    assert split == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.overhead_ratio"] > 0
    moved, untouched = LAYERS[name]
    assert all(m[k] > 0 for k in moved) and all(m[k] == 0 for k in untouched)

    again = _run(name, tmp_path, trace=True)
    for key in tracing.EXACT_COUNTS:
        assert again["metrics"][key]["value"] == m[key], key


def test_tracing_restores_the_program():
    originals = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracing.Region(tracer):
            assert vars(simworld.World)["step"] is not originals[0]
            1 / 0
    assert [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS] == originals


def test_train_checks_reject_bad_outputs(tmp_path):
    w = workloads.TrainDefault(str(tmp_path), 0, smoke=True)
    out = tmp_path / "job"
    out.mkdir()
    w.run_job(str(out), tracing.Region())
    args = (str(out), w.ops, w.train["loss_log_every"], w.train["checkpoint_schedule"])
    workloads.check_train_outputs(*args)

    loss = out / "loss.csv"
    good = loss.read_text()
    loss.write_text(good.rstrip("\n").rsplit(",", 1)[0] + ",nan\n")
    with pytest.raises(workloads.CheckFailed, match="not finite"):
        workloads.check_train_outputs(*args)
    loss.write_text(good)
    os.remove(out / f"checkpoint_{w.ops:08d}.json")
    with pytest.raises(workloads.CheckFailed, match="missing"):
        workloads.check_train_outputs(*args)


def test_eval_check_rejects_a_wrong_return(tmp_path):
    w = workloads.EvalGreedy(str(tmp_path), 0, smoke=True)
    w.run_job(str(tmp_path), tracing.Region())
    path = tmp_path / "eval.csv"
    assert workloads.check_eval_csv(str(path), w.ops) > 0
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("R")
    fields = rows[0].split(",")
    fields[col] = repr(float(fields[col]) + 1e-9)
    path.write_text("\n".join([header, ",".join(fields), *rows[1:]]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="R_acce"):
        workloads.check_eval_csv(str(path), w.ops)
    with pytest.raises(workloads.CheckFailed, match="expected 5"):
        workloads.check_eval_csv(str(path), w.ops + 1)


def test_windows_are_normalised_by_the_kernel_on_either_side():
    windows = calibrate.Windows(calibrate.TRAINING)
    windows.start()
    windows.cut()
    windows.stop()
    assert len(windows.spans) == 2 and len(windows.kernel_s) == 3
    assert all(k > 0 for k in windows.kernel_s)

    ref = calibrate.TRAINING.reference_s
    windows.spans, windows.kernel_s = [1.0, 2.0], [ref, 2 * ref, ref]
    # a host at two thirds of the reference speed: each span counts for less
    assert windows.normalised(0) == pytest.approx(1.0 / 1.5)
    assert windows.normalised(1) == pytest.approx(2.0 / 1.5)
    assert calibrate.Windows(None).kernel_s == []


def test_a_fast_but_wrong_world_fails(tmp_path, monkeypatch):
    """Vehicles that ignore their leaders collide; the run says so."""
    monkeypatch.setattr(simworld.World, "_longitudinal",
                        lambda self, lane_lists, veh, faults: veh.idm.a_m)
    result = _run("traffic-dense", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "faults" in result["error"] or "gap" in result["error"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_last(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traffic-dense", "--seed", "3",
         "--seconds", "0", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    environment = json.loads(next(l for l in lines if l.startswith("environment: "))
                             .split(": ", 1)[1])
    assert environment["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "eval-greedy", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_pairs_two_checkouts():
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", "--base", ROOT, "--change", ROOT,
         "--seeds", "0", "1", "--workloads", "traffic-dense", "--seconds", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [row["metric"] for row in report] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(row["pairs"] == 2 for row in report)


def test_verdicts():
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert verdict(base, [x * 1.2 for x in base], "higher", 0.25) == (10, "gain")
    assert verdict(base, [x * 0.7 for x in base], "higher", 0.25)[1] == "regression"
    assert verdict(base, [x * 0.7 for x in base], "lower", 0.25)[1] == "gain"
    assert verdict(base, list(base), "higher", 0.25) == (0, "within bound")
