"""Per-layer tracing by wrapping the program's layer functions from outside.

Callers in the package resolve these functions at call time, through a module
global (``simworld.step_kinematics``) or a class attribute (``World.step``).
Replacing those attributes with timing wrappers for the length of a timed
region therefore traces every call without changing the program.  On exit the
original attributes are put back.

A span's self time is its duration minus the durations of the spans opened
inside it.  Time in the timed region outside every span is the untraced
remainder, so the self times plus the remainder add up to the region's wall
time.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

from nafdrive import cli, learner, nafq, simworld
from nafdrive.gapcheck import MonitorDecision

# (owner, attribute, span label)
TARGETS = [
    (simworld.World, "step", "world_step"),
    (simworld.World, "_lane_lists", "lane_index"),
    (simworld.World, "_leader", "neighbour_scan"),
    (simworld.World, "_follower", "neighbour_scan"),
    (simworld, "step_kinematics", "kinematics"),
    (simworld, "idm_accel", "longitudinal"),
    (simworld, "free_leader_accel", "longitudinal"),
    (simworld, "dual_leader_accel", "longitudinal"),
    (simworld, "gap_acceptable", "gap_acceptable"),
    (simworld, "monitor_step", "monitor"),
    (nafq, "greedy_actions_batch", "greedy"),
    (learner, "greedy_actions_batch", "greedy"),
    (nafq, "net_forward", "forward"),
    (nafq, "net_backward", "backward"),
    (learner, "fit_gradients", "fit"),
    (learner, "net_forward", "target_forward"),
    (learner, "adaptive_update", "adam"),
    (learner, "train_step", "train_step"),
    (learner.ReplayBuffer, "push", "push"),
    (learner.ReplayBuffer, "sample", "sample"),
    (cli, "run_training", "train_loop"),
    (cli, "save_checkpoint", "checkpoint_save"),
    (cli, "load_checkpoint", "checkpoint_load"),
    (cli, "write_csv", "log_write"),
]

# Every span label reports its self time under exactly one of these metrics,
# so these metrics plus trace.untraced_s add up to trace.wall_s.
SELF_TIME_METRICS = {
    "simworld.step_self_s": ("world_step",),
    "simworld.lane_index_s": ("lane_index",),
    "simworld.neighbour_scan_s": ("neighbour_scan",),
    "simworld.kinematics_s": ("kinematics",),
    "policy.self_s": ("policy",),
    "longitudinal.self_s": ("longitudinal",),
    "gapcheck.self_s": ("gap_acceptable", "monitor"),
    "nafq.greedy_self_s": ("greedy",),
    "nafq.fit_self_s": ("fit",),
    "netcore.forward_s": ("forward",),
    "netcore.backward_s": ("backward",),
    "netcore.adam_s": ("adam",),
    "netcore.target_forward_s": ("target_forward",),
    "learner.train_step_self_s": ("train_step",),
    "learner.sample_s": ("sample",),
    "learner.push_s": ("push",),
    "learner.loop_self_s": ("train_loop",),
    "cli.checkpoint_save_s": ("checkpoint_save",),
    "cli.checkpoint_load_s": ("checkpoint_load",),
    "cli.log_write_s": ("log_write",),
}

# Counts that repeat exactly at a fixed seed; a traced job whose counts differ
# from the first traced job's fails the run.
EXACT_COUNTS = ("longitudinal.calls", "gapcheck.calls", "nafq.greedy_calls",
                "nafq.fit_calls", "netcore.adam_calls", "learner.push_calls",
                "policy.calls", "simworld.vehicle_ticks", "simworld.faults")


class Tracer:
    """Span self times, call counts and layer counters of one timed region."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.step_durations: list[float] = []
        self.checkpoint_bytes = 0
        self.buffer = None
        self.wall_s = 0.0
        self._stack = [[0.0]]  # child time of each open span; [0] is the region
        self._saved = []

    def span(self, label, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` runs once it closes."""
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                stack[-1][0] += duration
                self_s[label] += duration - frame[0]
                calls[label] += 1
            if after is not None:
                after(args, result, duration)
            return result

        return wrapper

    # -- counters fed by `after` hooks

    def _after_step(self, args, result, duration):
        self.step_durations.append(duration)
        self.counts["faults"] += len(result.faults)
        for ep in result.episodes:
            self.counts["closed"] += 1
            self.counts["completed"] += ep.outcome == "completed"

    def _after_gap(self, args, result, duration):
        self.counts["accepted"] += result.acceptable

    def _after_monitor(self, args, result, duration):
        self.counts["aborts"] += result is MonitorDecision.ABORT

    def _after_greedy(self, args, result, duration):
        self.counts["greedy_rows"] += len(result)

    def _after_push(self, args, result, duration):
        self.buffer = args[0]

    def _after_checkpoint(self, args, result, duration):
        self.checkpoint_bytes = os.path.getsize(args[0])

    def _wrapper_for(self, label, original):
        if label == "world_step":
            step = self.span(label, original, self._after_step)
            # the policy is an argument of World.step, so wrap it per call
            return lambda world, policy, dt: step(world, self.span("policy", policy), dt)
        after = {
            "gap_acceptable": self._after_gap,
            "monitor": self._after_monitor,
            "greedy": self._after_greedy,
            "push": self._after_push,
            "checkpoint_save": self._after_checkpoint,
            "checkpoint_load": self._after_checkpoint,
        }.get(label)
        return self.span(label, original, after)

    def install(self):
        for owner, attr, label in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper_for(label, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Region:
    """Timed region of a job; with a tracer, the layers are traced inside it."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.seconds = self.end - self._t0
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.wall_s = self.seconds
        return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced region as {name: (value, unit)}."""
    t, c, n = tracer.self_s, tracer.calls, tracer.counts
    steps_us = sorted(d * 1e6 for d in tracer.step_durations)
    if len(steps_us) >= 2:
        pct = statistics.quantiles(steps_us, n=100)
        p50, p99 = pct[49], pct[98]
    else:
        p50 = p99 = steps_us[0] if steps_us else 0.0
    gap_calls = c["gap_acceptable"]
    greedy_calls = c["greedy"]
    buf = tracer.buffer
    out = {
        "simworld.step_us_p50": (p50, "us"),
        "simworld.step_us_p99": (p99, "us"),
        "simworld.step_samples": (len(steps_us), "count"),
        "simworld.vehicle_ticks": (c["kinematics"], "count"),
        "simworld.faults": (n["faults"], "count"),
        "simworld.closed_episodes": (n["closed"], "count"),
        "simworld.completion_ratio": (n["completed"] / n["closed"] if n["closed"] else 0.0,
                                      "ratio"),
        "policy.calls": (c["policy"], "count"),
        "longitudinal.calls": (c["longitudinal"], "count"),
        "gapcheck.calls": (gap_calls + c["monitor"], "count"),
        "gapcheck.accept_ratio": (n["accepted"] / gap_calls if gap_calls else 0.0, "ratio"),
        "gapcheck.aborts": (n["aborts"], "count"),
        "nafq.greedy_calls": (greedy_calls, "count"),
        "nafq.greedy_rows_per_call": (n["greedy_rows"] / greedy_calls if greedy_calls else 0.0,
                                      "rows"),
        "nafq.fit_calls": (c["fit"], "count"),
        "netcore.adam_calls": (c["adam"], "count"),
        "learner.push_calls": (c["push"], "count"),
        "learner.buffer_fill": (len(buf) / buf.capacity if buf is not None else 0.0, "ratio"),
        "cli.checkpoint_bytes": (tracer.checkpoint_bytes, "bytes"),
    }
    for name, labels in SELF_TIME_METRICS.items():
        out[name] = (sum(t[label] for label in labels), "s")
    covered = tracer._stack[0][0]  # time inside top-level spans
    out["trace.wall_s"] = (tracer.wall_s, "s")
    out["trace.untraced_s"] = (tracer.wall_s - covered, "s")
    return out
