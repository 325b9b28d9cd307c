"""Golden outputs: a short seed-0 `nafdrive train`, an `eval` and a `trace` of
its final checkpoint, the seed-0 gradient audit, a world driven through every
episode outcome (on a straight and on a curved road), a dense-traffic world of
lane keepers, and the benchmark's train config at seeds 0-2 must reproduce
pinned bytes.

A refactor or optimisation that keeps the numbers keeps these digests.  A
change that alters outputs on purpose updates them and says so in
CHANGES.md.  The run is 1000 steps with pretrain 500; the replay buffer
first holds a batch near step 300, so both training stages take gradient
steps.
"""

import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import astuple

import pytest

from nafdrive.cli import checkgrad_suite, default_config_dict, main, parse_config
from nafdrive.learner import make_rngs
from nafdrive.simworld import RoadSpec, TrafficConfig, World, WorldConfig

# sha256 prefixes of the outputs
GOLDEN = {
    "loss.csv": "0bb99ffd772789ba",
    "episodes.csv": "a228bb039560ed95",
    "checkpoint_00001000.json": "a60bff4a0ee9e99d",
    "eval.csv": "3f436ada28b6178c",
    "trace.csv": "787142499242769d",
}

# the max relative errors of `checkgrad_suite(0)`, exactly
CHECKGRAD_SEED0 = {"net": 3.33268076921267e-09, "q_value": 1.6243408730407188e-06,
                   "batch_loss": 6.15911031303485e-07}

# sha256 prefix of the lifecycle run's ticks and final vehicles, and the
# outcomes of the episodes it closes
LIFECYCLE = "ec46f9eed0376821"
LIFECYCLE_OUTCOMES = {"capped": 12, "exited": 5, "completed": 2, "aborted": 1}

# the same for the lifecycle world on a road that curves both ways
CURVED_ROAD = [(0.0, 0.0), (200.0, 0.002), (450.0, -0.0015), (700.0, 0.0005)]
CURVED_LIFECYCLE = "e3c1d9e3621a0e07"
CURVED_LIFECYCLE_OUTCOMES = {"capped": 15, "exited": 5}

# sha256 prefixes of the dense-traffic world (about 55 lane keepers) after
# 3000 ticks, per seed, and of its fault log
DENSE_TRAFFIC = {0: "4806472f18d52af9", 1: "593bcd6a012b28d1", 2: "b12259427b76c881"}
DENSE_TRAFFIC_FAULTS = "4f53cda18c2baa0c"

# sha256 prefixes of the benchmark's train config (3000 steps, pretrain 750,
# checkpoints at 1500 and 3000), an eval of its last checkpoint (30 episodes
# at world seed 1000) and a trace (world seed = train seed), per train seed
PERFBENCH_CONFIG = {
    0: {"loss.csv": "76b8084762d4495a", "episodes.csv": "26da66765044de5c",
        "checkpoint_00001500.json": "4b18aebbd625ce08",
        "checkpoint_00003000.json": "b292932f832784d2",
        "eval.csv": "dac62b49e741e42a", "trace.csv": "f6826ef599a9f4cd"},
    1: {"loss.csv": "24b156ca80136663", "episodes.csv": "332900dba2ddaf04",
        "checkpoint_00001500.json": "57893564355b7aa8",
        "checkpoint_00003000.json": "8ef17aa4a9b237b9",
        "eval.csv": "5eec6966598bc5fc", "trace.csv": "bdb0cbcc6f630917"},
    2: {"loss.csv": "2a8fdecef7ff716d", "episodes.csv": "57d27c40df7874f6",
        "checkpoint_00001500.json": "8aefa5d18ed33756",
        "checkpoint_00003000.json": "2000bb6b97a55542",
        "eval.csv": "f5f5547925584328", "trace.csv": "1fa7105d34e3ae2f"},
}


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


def damped_policy(states):
    """A fixed third-order pole placement toward the target lane (T = 1),
    squashed to 0.3 rad/s^2."""
    actions = []
    for s in states:
        a_tmp = -(s.delta_d_lat + 3.0 * s.v * math.sin(s.theta)
                  + 3.0 * s.v * s.omega) / (s.v if s.v > 1.0 else 1.0)
        actions.append(0.3 * math.tanh(3.0 * a_tmp))
    return actions


def lifecycle_ticks(curvature_profile):
    """The lifecycle world: dense traffic, a short step cap and a steering
    policy close episodes with all four outcomes.  Yields the world and its
    StepResult after each of 3000 ticks."""
    cfg = WorldConfig(road=RoadSpec(curvature_profile=curvature_profile),
                      traffic=TrafficConfig(depart_min=2.0, depart_max=4.0),
                      episode_cap_steps=80)
    rngs = make_rngs(0)
    world = World(cfg, rngs["spawn"], rngs["trigger"])
    for _ in range(3000):
        yield world, world.step(damped_policy, 0.1)


def lifecycle_digest(curvature_profile):
    """The sha256 prefix of the lifecycle run's ticks and final vehicles,
    and the outcomes of the episodes it closes."""
    h = hashlib.sha256()
    outcomes = Counter()
    for world, res in lifecycle_ticks(curvature_profile):
        h.update(repr((
            [(t.vehicle_id, tuple(t.s), t.a_yaw, tuple(t.s_next), t.r,
              t.r_acce, t.r_rate, t.r_dev, t.terminal) for t in res.transitions],
            [astuple(ep) for ep in res.episodes],
            res.min_gap, res.faults,
        )).encode())
        outcomes.update(ep.outcome for ep in res.episodes)
    h.update(repr([(v.id, v.station, v.d, v.v, v.a_lng, v.theta, v.omega, v.lane,
                    v.target_lane, v.maneuver) for v in world.vehicles]).encode())
    assert world.fault_log == []
    return h.hexdigest()[:16], dict(outcomes)


def test_lifecycle_matches_golden_digest():
    assert lifecycle_digest([]) == (LIFECYCLE, LIFECYCLE_OUTCOMES)


def test_curved_lifecycle_matches_golden_digest():
    assert lifecycle_digest(CURVED_ROAD) == (CURVED_LIFECYCLE, CURVED_LIFECYCLE_OUTCOMES)


def test_lifecycle_closes_follow_the_close_table():
    """A completed or aborted close is terminal, a capped or exited one is
    not, and a capped vehicle leaves the road in the tick that caps it."""
    closes = Counter()
    for world, res in lifecycle_ticks([]):
        last = {t.vehicle_id: t for t in res.transitions}
        present = {veh.id for veh in world.vehicles}
        for ep in res.episodes:
            closes[ep.outcome, last[ep.vehicle_id].terminal] += 1
            assert ep.outcome != "capped" or ep.vehicle_id not in present
        closed = {ep.vehicle_id for ep in res.episodes}
        assert all(t.vehicle_id in closed for t in res.transitions if t.terminal)
    assert closes == {("completed", True): 2, ("aborted", True): 1,
                      ("capped", False): 12, ("exited", False): 5}


@pytest.mark.parametrize("seed", sorted(DENSE_TRAFFIC))
def test_dense_traffic_matches_golden_digest(seed):
    """The traffic-dense benchmark world: departures every 1.5-3 s and no
    lane changes, so every vehicle keeps its lane behind its leader."""
    data = default_config_dict(seed)
    data["sim"]["lane_changes_enabled"] = False
    data["traffic"].update(depart_min=1.5, depart_max=3.0)
    cfg = parse_config(data)
    rngs = make_rngs(seed)
    world = World(cfg.world, rngs["spawn"], rngs["trigger"])
    min_gap = math.inf
    for _ in range(3000):
        min_gap = min(min_gap, world.step(lambda states: [], cfg.train.dt).min_gap)
    state = [(v.id, v.station, v.d, v.v, v.a_lng) for v in world.vehicles]
    digest = hashlib.sha256(repr((world.step_count, min_gap, state)).encode())
    assert digest.hexdigest()[:16] == DENSE_TRAFFIC[seed]
    faults = hashlib.sha256(repr(world.fault_log).encode()).hexdigest()[:16]
    assert faults == DENSE_TRAFFIC_FAULTS


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(PERFBENCH_CONFIG))
def test_perfbench_config_matches_golden_digests(tmp_path, seed):
    data = default_config_dict(seed=seed)
    data["train"].update(total_steps=3000, pretrain_steps=750,
                         checkpoint_schedule=[1500, 3000])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    checkpoint = str(run / "checkpoint_00003000.json")
    assert main(["eval", "--checkpoint", checkpoint, "--config", str(cfg),
                 "--episodes", "30", "--seed", "1000",
                 "--out", str(run / "eval.csv")]) == 0
    assert main(["trace", "--checkpoint", checkpoint, "--config", str(cfg),
                 "--seed", str(seed), "--out", str(run / "trace.csv")]) == 0
    assert ({name: sha256_prefix(run / name) for name in PERFBENCH_CONFIG[seed]}
            == PERFBENCH_CONFIG[seed])
