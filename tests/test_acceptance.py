"""End-to-end acceptance gate.

Nine criteria, each reported as a single PASS/FAIL line.  The exact-oracle
criteria run in seconds; criterion 7 trains three desk-scale runs (80k
steps each, side by side in worker processes) and dominates the runtime.
"""

import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from nafdrive.cli import (checkgrad_suite, default_config_dict, main,
                          run_eval_episodes, run_trace)
from nafdrive.learner import TrainConfig, make_rngs, run_training
from nafdrive.longitudinal import IdmParams, idm_accel
from nafdrive.nafq import (A_CAP, NafParams, RlState, greedy_actions_batch,
                           q_values_batch)
from nafdrive.simworld import (RewardWeights, RoadSpec, World, WorldConfig,
                               immediate_reward)

DT = 0.1


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def random_state(rng) -> RlState:
    return RlState(v=float(rng.uniform(0, 35)), a_lng=float(rng.normal()),
                   delta_d_lat=float(rng.normal(0, 2)),
                   theta=float(rng.normal(0, 0.1)),
                   omega=float(rng.normal(0, 0.1)),
                   c=float(rng.normal(0, 0.001)))


def test_criterion_1_gradient_exactness():
    worst = 0.0
    for seed in range(20):
        errors = checkgrad_suite(seed)
        worst = max(worst, *errors.values())
    report(1, "gradient exactness", worst < 1e-4,
           f"max relative error {worst:.2e} over 20 seeds")


def test_criterion_2_analytic_argmax():
    rng = np.random.default_rng(0)
    grid = np.arange(-A_CAP, A_CAP + 1e-12, 1e-3)
    worst_gap = -math.inf   # max Q(grid) - Q(mu), should never be positive
    worst_vertex = 0.0      # |Q(s, mu) - V(s)|
    for _ in range(1000):
        params = NafParams.init(rng, hidden=(8,))
        s = random_state(rng)
        q_mu, heads = q_values_batch([s], greedy_actions_batch([s], params), params)
        q_star = q_mu[0]
        worst_vertex = max(worst_vertex, abs(q_star - heads.v[0]))
        states = np.tile(s, (len(grid), 1))
        qs, _ = q_values_batch(states, grid, params)
        worst_gap = max(worst_gap, float(qs.max()) - q_star)
    report(2, "analytic argmax", worst_gap <= 0.0 and worst_vertex <= 1e-12,
           f"max grid excess {worst_gap:.2e}, max |Q(mu)-V| {worst_vertex:.2e}")


def test_criterion_3_idm_oracle_and_monotonicity():
    oracle_err = abs(idm_accel(20.0, 0.0, 30.0, IdmParams(v0=30.0))
                     - 2.0 * (1.0 - (25.0 / 30.0) ** 2))
    p = IdmParams(v0=30.0)
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(100_000):
        v = rng.uniform(0, 40)
        dv = rng.uniform(-15, 15)
        gap = rng.uniform(0.5, 150.0)
        a = idm_accel(v, dv, gap, p)
        if idm_accel(v, dv, gap + rng.uniform(0.1, 50), p) < a - 1e-12:
            violations += 1
        if idm_accel(v, dv + rng.uniform(0.1, 5), gap, p) > a + 1e-12:
            violations += 1
    report(3, "longitudinal oracle", oracle_err < 1e-9 and violations == 0,
           f"oracle error {oracle_err:.1e}, monotonicity violations "
           f"{violations}/100000")


def test_criterion_4_reward_oracle():
    r, *_ = immediate_reward(0.1, RlState(20, 0, 1.875, 0.0, 0.05, 0),
                             RewardWeights())
    composite_ok = (r == -0.275)
    result = run_training(
        TrainConfig(total_steps=1200, pretrain_steps=600,
                    target_sync_every=300, checkpoint_schedule=[1200],
                    batch_size=16, buffer_capacity=4000, seed=0),
        WorldConfig())
    decomposition_ok = all(
        ep.R == ep.R_acce + ep.R_rate + ep.R_dev
        and ep.R_acce <= 0 and ep.R_rate <= 0 and ep.R_dev <= 0
        for ep in result.episode_rows)
    report(4, "reward oracle", composite_ok and decomposition_ok,
           f"composite case exact: {composite_ok}; decomposition bit-exact "
           f"over {len(result.episode_rows)} episodes: {decomposition_ok}")


def test_criterion_5_target_network_semantics():
    params = NafParams.init(np.random.default_rng(2))
    target = params.copy()
    rng = np.random.default_rng(3)
    sync_ok = all(
        q_values_batch([s], [a], params)[0] == q_values_batch([s], [a], target)[0]
        for s, a in ((random_state(rng), float(rng.uniform(-0.6, 0.6)))
                     for _ in range(1000)))

    # an entire pretrain-stage run leaves the greedy heads bit-identical
    # to their initialization
    seed = 5
    cfg = TrainConfig(total_steps=500, pretrain_steps=500,
                      target_sync_every=100, checkpoint_schedule=[500],
                      batch_size=16, buffer_capacity=2000, seed=seed)
    result = run_training(cfg, WorldConfig())
    reference = NafParams.init(make_rngs(seed)["init"])
    freeze_ok = all(
        np.array_equal(a, b)
        for name in NafParams.MU_NET_NAMES
        for a, b in zip(
            getattr(result.params, name).weights + getattr(result.params, name).biases,
            getattr(reference, name).weights + getattr(reference, name).biases))
    report(5, "target-network semantics", sync_ok and freeze_ok,
           f"post-sync bit-equality on 1000 pairs: {sync_ok}; "
           f"pretrain greedy-head freeze: {freeze_ok}")


def test_criterion_6_car_following_safety():
    t0 = time.time()
    worst = math.inf
    for seed in range(10):
        rngs = make_rngs(seed)
        world = World(WorldConfig(lane_changes_enabled=False),
                      rngs["spawn"], rngs["trigger"])
        for _ in range(10_000):  # 1000 simulated seconds
            result = world.step(lambda s: [], DT)
            worst = min(worst, result.min_gap)
    elapsed = time.time() - t0
    report(6, "car-following safety", worst > 0.0,
           f"min bumper gap {worst:.2f} m over 10 seeds x 1000 s "
           f"({elapsed:.0f}s)")


def desk_run(seed):
    """One desk-scale training run: its loss rows, its layer sizes and the
    flat parameter vectors of its first and last checkpoints."""
    cfg = TrainConfig(total_steps=80_000, pretrain_steps=20_000,
                      checkpoint_schedule=[10_000 * k for k in range(1, 9)],
                      seed=seed)
    saved = {}

    def hook(step, params):
        if step in (10_000, 80_000):
            saved[step] = params.copy()

    result = run_training(cfg, WorldConfig(), checkpoint_hook=hook)
    return (result.loss_rows, saved[10_000].layer_dims,
            saved[10_000].flat, saved[80_000].flat)


@pytest.fixture(scope="module")
def desk_runs():
    """Three desk-scale training runs with first/last checkpoints kept.

    Each run is a pure function of its config and seed, so the three run
    side by side in worker processes.  A worker returns flat vectors, from
    which the NafParams are rebuilt here.
    """
    workers = min(3, os.cpu_count() or 1)
    # a warning fails a run here as conftest.py makes it fail a test
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"),
                             initializer=warnings.simplefilter,
                             initargs=("error",)) as pool:
        results = list(pool.map(desk_run, range(3)))
    return [{"seed": seed, "loss_rows": loss_rows,
             "first": NafParams(list(dims), first), "last": NafParams(list(dims), last)}
            for seed, (loss_rows, dims, first, last) in enumerate(results)]


@pytest.mark.slow
def test_criterion_7_training_trends(desk_runs):
    wc = WorldConfig()
    ratios, reward_wins, yaw_wins = [], 0, 0
    details = []
    for run in desk_runs:
        losses = [l for _, l in run["loss_rows"] if l is not None]
        k = max(1, len(losses) // 10)
        first_loss = float(np.mean(losses[:k]))
        last_loss = float(np.mean(losses[-k:]))
        ratios.append(last_loss / first_loss)

        def avg_reward(params):
            eps = run_eval_episodes(params, wc, DT, 100, seed=1000 + run["seed"])
            return sum(ep.R for ep in eps) / len(eps)

        r_first = avg_reward(run["first"])
        r_last = avg_reward(run["last"])
        if r_last > r_first:
            reward_wins += 1

        def mean_yaw(params):
            vals = []
            for trace_seed in range(20):
                rows = run_trace(params, wc, DT, seed=trace_seed)
                vals.extend(abs(row[2]) for row in rows)
            return float(np.mean(vals))

        y_first = mean_yaw(run["first"])
        y_last = mean_yaw(run["last"])
        if y_last <= 0.7 * y_first:
            yaw_wins += 1
        details.append(
            f"seed {run['seed']}: loss {first_loss:.3f}->{last_loss:.3f}, "
            f"avgR {r_first:.2f}->{r_last:.2f}, "
            f"|a_yaw| {y_first:.4f}->{y_last:.4f}")

    converged = all(r <= 0.5 for r in ratios)
    ok = converged and reward_wins >= 2 and yaw_wins >= 2
    report(7, "desk-scale training trends", ok,
           f"loss ratios {[f'{r:.3f}' for r in ratios]} (need all <= 0.5), "
           f"reward improved in {reward_wins}/3, yaw shrank 30% in "
           f"{yaw_wins}/3; " + "; ".join(details))


def test_criterion_8_train_determinism(tmp_path):
    import json
    import os

    data = default_config_dict(seed=3)
    data["train"].update(total_steps=2000, pretrain_steps=1000,
                         target_sync_every=500,
                         checkpoint_schedule=[1000, 2000],
                         batch_size=32, buffer_capacity=5000)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    identical = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                    for name in names)
    report(8, "rerun determinism", sorted(os.listdir(outs[1])) == names
           and identical, f"{len(names)} files byte-identical: {identical}")


def test_criterion_9_single_vehicle_closed_loop():
    # long road so the vehicle stays active for the full 100 s
    cfg = WorldConfig(road=RoadSpec(length=10_000.0))
    rngs = make_rngs(0)
    world = World(cfg, rngs["spawn"], rngs["trigger"])
    while not world.vehicles:
        world.step(lambda s: [], DT)
    world._next_depart = [math.inf] * cfg.road.lanes
    veh = world.vehicles[0]
    v_ref, s_ref, v0 = veh.v, veh.station, veh.idm.v0

    worst = 0.0
    for _ in range(1000):  # 100 s
        # independently coded free-flow law
        a = 2.0 * (1.0 - (v_ref / v0) ** 4)
        a = min(max(a, -9.0), 2.0)
        v_ref = max(0.0, v_ref + a * DT)
        s_ref += v_ref * DT
        world.step(lambda s: [], DT)
        veh = world.vehicles[0]
        worst = max(worst, abs(veh.v - v_ref), abs(veh.station - s_ref))
    report(9, "single-vehicle closed loop", worst < 1e-9,
           f"max per-step deviation {worst:.2e} over 100 s")
