"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop of identical jobs at one seed: a job runs the
program once through its public entry points, and the next job starts only
after the previous one has ended and its outputs have been checked.  Because
every job at a seed does the same work, repeated jobs must produce the same
output bytes (the rerun determinism the program promises).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

from calibrate import SIMULATION, TRAINING, Windows
from nafdrive import cli, learner
from nafdrive.learner import make_rngs, opt_states_init
from nafdrive.nafq import NafParams
from nafdrive.simworld import World

OUTCOMES = {"completed", "aborted", "capped", "exited"}


class CheckFailed(Exception):
    """An output of the program is wrong."""


# Rates are taken over short windows of a job, each timed between two runs of
# the calibration kernel, so that a window is set against the machine's speed
# of its own moment.
WINDOW = 250


@dataclass
class Window:
    ops: int
    ticks: int
    seconds: float   # normalised: seconds of the reference machine
    wall_s: float    # as measured


@dataclass
class JobResult:
    seconds: float          # wall time of the job's timed region
    windows: list[Window]   # measured windows within it
    digest: str             # hash of the job's outputs


def _write_json(directory: str, name: str, data: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def check_episode_rows(header: list[str], rows: list[list[str]]):
    """Each episode's return is exactly the sum of its three components."""
    if header != cli.EPISODE_HEADER:
        raise CheckFailed(f"unexpected episode header {header}")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        R, acce, rate, dev = (float(row[col[k]]) for k in ("R", "R_acce", "R_rate", "R_dev"))
        if not math.isfinite(R) or R != acce + rate + dev:
            raise CheckFailed(f"episode of vehicle {row[0]}: R={R} is not "
                              f"R_acce + R_rate + R_dev = {acce + rate + dev}")
        if row[col["outcome"]] not in OUTCOMES:
            raise CheckFailed(f"episode of vehicle {row[0]}: outcome {row[col['outcome']]!r}")


def check_train_outputs(out_dir: str, total_steps: int, log_every: int,
                        schedule: list[int]) -> str:
    """Loss log, episode log and checkpoints of one `nafdrive train` run."""
    _, loss_rows = _csv_rows(os.path.join(out_dir, "loss.csv"))
    steps = [int(row[0]) for row in loss_rows]
    if steps != list(range(log_every, total_steps + 1, log_every)):
        raise CheckFailed("loss.csv does not log every scheduled step")
    losses = [row[1] for row in loss_rows]
    first = next((i for i, loss in enumerate(losses) if loss), None)
    if first is None:
        raise CheckFailed("loss.csv logs no trained step")
    for step, loss in zip(steps[first:], losses[first:]):
        if not loss or not math.isfinite(float(loss)):
            raise CheckFailed(f"loss at step {step} is {loss!r}, not finite")
    check_episode_rows(*_csv_rows(os.path.join(out_dir, "episodes.csv")))
    for step in schedule:
        path = os.path.join(out_dir, f"checkpoint_{step:08d}.json")
        if not os.path.exists(path):
            raise CheckFailed(f"scheduled checkpoint {os.path.basename(path)} missing")
        if cli.load_checkpoint(path)["step"] != step:
            raise CheckFailed(f"{os.path.basename(path)} reloads with the wrong step")
    return _digest(os.path.join(out_dir, "loss.csv"), os.path.join(out_dir, "episodes.csv"),
                   os.path.join(out_dir, f"checkpoint_{schedule[-1]:08d}.json"))


def check_eval_csv(path: str, episodes: int) -> int:
    """Rows of one `nafdrive eval` run; returns the world ticks it took."""
    header, rows = _csv_rows(path)
    if len(rows) != episodes + 1 or rows[-1][0] != "summary":
        raise CheckFailed(f"eval CSV has {len(rows) - 1} episodes, expected {episodes}")
    check_episode_rows(header, rows[:-1])
    # the loop stops on the tick that closes the last episode it needs
    return max(int(row[header.index("end_step")]) for row in rows[:-1])


class TrainDefault:
    """`nafdrive train` at the default config, shortened in length only.

    Windows of WINDOW gradient steps are measured, one tick each, from the
    first gradient step on, with the training kernel run between them.  The
    ticks before the first gradient step only fill the replay buffer; how many
    there are depends on the seed (about 250 to 700 here), and at the default
    400k-step length they are a negligible share of a run.
    """

    name = "train-default"
    op = "train steps"
    kernel = TRAINING

    def __init__(self, workdir: str, seed: int, smoke: bool = False):
        n = 600 if smoke else 3000
        data = cli.default_config_dict(seed)
        # two checkpoints, so that few measured windows include a save
        data["train"].update(total_steps=n, pretrain_steps=n // 4,
                             checkpoint_schedule=[n // 2, n])
        self.train = data["train"]
        self.ops = n
        self.config = _write_json(workdir, "train-config.json", data)

    def run_job(self, job_dir: str, region, windows: Windows | None = None) -> JobResult:
        windows = windows or Windows(None)
        steps = 0
        train_step = learner.train_step

        def noted_train_step(*args, **kwargs):
            nonlocal steps
            if steps == 0:
                windows.start()
            elif steps % WINDOW == 0:
                windows.cut()
            steps += 1
            return train_step(*args, **kwargs)

        learner.train_step = noted_train_step
        try:
            with region:
                status = cli.main(["train", "--config", self.config, "--out", job_dir])
                if steps:
                    windows.stop()
        finally:
            learner.train_step = train_step
        if status != 0:
            raise CheckFailed(f"nafdrive train exited with status {status}")
        digest = check_train_outputs(job_dir, self.ops, self.train["loss_log_every"],
                                     self.train["checkpoint_schedule"])
        # the last span runs on to the end of the job, over the final writes
        full = range(len(windows.spans) - 1)
        return JobResult(region.seconds, [Window(WINDOW, WINDOW, windows.normalised(k),
                                                 windows.spans[k]) for k in full], digest)


# Evaluation compares checkpoints on one fixed evaluation world, as `nafdrive
# eval --seed` is used; the seed picks the parameters.  Episodes per tick vary
# by about 10% between worlds even over 100 episodes, which would otherwise
# swamp the program's speed in eval_episodes_per_s.
EVAL_WORLD_SEED = 1000


class EvalGreedy:
    """`nafdrive eval`: greedy rollouts of freshly initialised parameters.

    One window is a whole job.  To set it against the machine's speed, it is
    cut into spans of WINDOW world ticks with the calibration kernel between
    them, and its time is the sum of the spans' normalised times.
    """

    name = "eval-greedy"
    op = "eval episodes"
    kernel = SIMULATION

    def __init__(self, workdir: str, seed: int, smoke: bool = False):
        data = cli.default_config_dict(seed)
        self.config = _write_json(workdir, "eval-config.json", data)
        self.checkpoint = os.path.join(workdir, "init-checkpoint.json")
        params = NafParams.init(seed)
        cli.save_checkpoint(self.checkpoint, 0, params, params.copy(),
                            opt_states_init(params), make_rngs(seed),
                            cli.config_digest(data))
        self.ops = 4 if smoke else 30

    def run_job(self, job_dir: str, region, windows: Windows | None = None) -> JobResult:
        windows = windows or Windows(None)
        out = os.path.join(job_dir, "eval.csv")
        ticks = 0
        step = World.step

        def noted_step(*args, **kwargs):
            nonlocal ticks
            if ticks and ticks % WINDOW == 0:
                windows.cut()
            ticks += 1
            return step(*args, **kwargs)

        World.step = noted_step
        try:
            with region:
                windows.start()
                status = cli.main(["eval", "--checkpoint", self.checkpoint,
                                   "--config", self.config, "--episodes", str(self.ops),
                                   "--seed", str(EVAL_WORLD_SEED), "--out", out])
                windows.stop()
        finally:
            World.step = step
        if status != 0:
            raise CheckFailed(f"nafdrive eval exited with status {status}")
        ticks = check_eval_csv(out, self.ops)
        seconds = sum(windows.normalised(k) for k in range(len(windows.spans)))
        return JobResult(region.seconds, [Window(self.ops, ticks, seconds, sum(windows.spans))],
                         _digest(out))


def _no_policy(states):
    raise CheckFailed(f"policy asked for {len(states)} actions with lane changes disabled")


class TrafficDense:
    """`World.step` on dense traffic without lane changes: no nets at all."""

    name = "traffic-dense"
    op = "world ticks"
    kernel = SIMULATION

    def __init__(self, workdir: str, seed: int, smoke: bool = False):
        data = cli.default_config_dict(seed)
        data["sim"]["lane_changes_enabled"] = False
        data["traffic"].update(depart_min=1.5, depart_max=3.0)
        cfg = cli.parse_config(data)
        self.world_cfg, self.dt = cfg.world, cfg.train.dt
        self.seed = seed
        # the untimed warm-up fills the 1 km road before the timed ticks
        self.warmup, self.ops = (100, 200) if smoke else (500, 2500)

    def run_job(self, job_dir: str, region, windows: Windows | None = None) -> JobResult:
        windows = windows or Windows(None)
        rngs = make_rngs(self.seed)
        world = World(self.world_cfg, rngs["spawn"], rngs["trigger"])
        min_gap = math.inf
        for _ in range(self.warmup):
            min_gap = min(min_gap, world.step(_no_policy, self.dt).min_gap)
        with region:
            windows.start()
            for tick in range(self.ops):
                if tick and tick % WINDOW == 0:
                    windows.cut()
                min_gap = min(min_gap, world.step(_no_policy, self.dt).min_gap)
            windows.stop()
        if world.fault_log:
            raise CheckFailed(f"{len(world.fault_log)} faults, first: {world.fault_log[0]}")
        if not min_gap > 0:
            raise CheckFailed(f"minimum gap {min_gap} is not positive")
        state = [(v.id, v.station, v.d, v.v, v.a_lng) for v in world.vehicles]
        digest = hashlib.sha256(repr((world.step_count, min_gap, state)).encode()).hexdigest()
        sizes = [min(WINDOW, self.ops - k * WINDOW) for k in range(len(windows.spans))]
        return JobResult(region.seconds, [
            Window(n, n, windows.normalised(k), windows.spans[k])
            for k, n in enumerate(sizes)], digest)


WORKLOADS = {w.name: w for w in (TrainDefault, EvalGreedy, TrafficDense)}
