"""The program names the benchmark uses still exist.

`perfbench/tracing.py` replaces the attributes in its `TARGETS` with timing
wrappers, `perfbench/test_perfbench.py` replaces `World._longitudinal`
with a function of the same arguments, `perfbench/setup_probe.py`
initialises, copies and checkpoints a `NafParams`, and each workload in
`perfbench/workloads.py` builds its config (and eval's checkpoint) in its
constructor.  Those tests are not in this suite, so a rename would otherwise
surface only when the benchmark runs.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from nafdrive.simworld import World

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, _label in tracing.TARGETS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_longitudinal_takes_the_arguments_the_benchmark_passes():
    params = list(inspect.signature(World._longitudinal).parameters)
    assert params == ["self", "lane_lists", "veh", "faults"]


def test_setup_probe_runs(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(tmp_path), "0"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0


def test_every_workload_builds(tmp_path):
    # EvalGreedy's constructor checkpoints through the seven-argument
    # `cli.save_checkpoint`, so this also guards that signature
    code = ("import os, sys, workloads\n"
            "for name, workload in workloads.WORKLOADS.items():\n"
            "    os.mkdir(os.path.join(sys.argv[1], name))\n"
            "    workload(os.path.join(sys.argv[1], name), 0, smoke=True)\n"
            "    print(name)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(
        None, [str(PERFBENCH), str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["train-default", "eval-greedy", "traffic-dense"]
    assert (tmp_path / "eval-greedy" / "init-checkpoint.json").is_file()
