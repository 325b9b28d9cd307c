"""Command-line entry points: train, eval, trace, checkgrad.

Configuration and checkpoints are canonical JSON (sorted keys, explicit
floats) so runs are byte-reproducible and files diff cleanly.  Every
physics constant must be present in the config; there are no silent
defaults.  Checkpoints embed a digest of the physics portion of the
config and refuse to run against a different one unless --force is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .learner import (TrainConfig, Transition, batch_loss, make_rngs,
                      run_training)
from .longitudinal import IdmParams
from .nafq import (Action, NafParams, RlState, greedy_policy, q_gradients_batch,
                   q_value)
from .netcore import OptState, finite_diff_check, net_backward, net_forward, net_init
from .simworld import (RewardWeights, RoadSpec, TrafficConfig, World,
                       WorldConfig, build_rl_state)

CHECKPOINT_VERSION = 2

CONFIG_SCHEMA = {
    "seed": None,
    "train": ["dt", "learning_rate", "gamma", "batch_size", "target_sync_every",
              "pretrain_steps", "total_steps", "checkpoint_schedule",
              "sigma_start", "sigma_end", "buffer_capacity", "loss_log_every"],
    "road": ["lanes", "lane_width", "length", "curvature_profile"],
    "traffic": ["depart_min", "depart_max", "init_speed_min", "init_speed_max",
                "desired_speed_min", "desired_speed_max", "trigger_station",
                "change_prob_left", "change_prob_right", "entry_clear_zone"],
    "reward": ["w_acce", "w_rate", "w_dev", "d_avg"],
    "idm": ["s0", "T", "a_m", "b", "delta", "v0", "b_max"],
    "naf": ["a_cap", "t_min", "t_max", "m_eps"],
    "sim": ["episode_cap_steps", "sensing_range", "lane_changes_enabled",
            "strict"],
}


@dataclass
class RunConfig:
    seed: int
    train: TrainConfig
    world: WorldConfig
    naf_constants: dict
    raw: dict


def default_config_dict(seed: int = 0) -> dict:
    """Full config with the default hyperparameters; handy starting point."""
    return {
        "seed": seed,
        "train": {
            "dt": 0.1, "learning_rate": 0.0005, "gamma": 0.95, "batch_size": 64,
            "target_sync_every": 1000, "pretrain_steps": 200000,
            "total_steps": 400000,
            "checkpoint_schedule": [40000 * k for k in range(1, 11)],
            "sigma_start": 0.1, "sigma_end": 0.01,
            "buffer_capacity": 1000, "loss_log_every": 20,
        },
        "road": {"lanes": 3, "lane_width": 3.75, "length": 1000.0,
                 "curvature_profile": []},
        "traffic": {
            "depart_min": 5.0, "depart_max": 10.0,
            "init_speed_min": 30.0 / 3.6, "init_speed_max": 50.0 / 3.6,
            "desired_speed_min": 80.0 / 3.6, "desired_speed_max": 120.0 / 3.6,
            "trigger_station": 150.0,
            "change_prob_left": 1.0 / 6.0, "change_prob_right": 1.0 / 6.0,
            "entry_clear_zone": 15.0,
        },
        "reward": {"w_acce": 2.0, "w_rate": 0.5, "w_dev": 0.05, "d_avg": 1.875},
        "idm": {"s0": 5.0, "T": 1.0, "a_m": 2.0, "b": 1.5, "delta": 4.0,
                "v0": 120.0 / 3.6, "b_max": 9.0},
        "naf": {"a_cap": 0.6, "t_min": 0.5, "t_max": 10.0, "m_eps": 1e-3},
        "sim": {"episode_cap_steps": 300, "sensing_range": 150.0,
                "lane_changes_enabled": True, "strict": False},
    }


def _check_schema(data: dict):
    for section, fields in CONFIG_SCHEMA.items():
        if section not in data:
            raise ConfigurationError(f"missing config section: {section}")
        if fields is None:
            continue
        for name in fields:
            if name not in data[section]:
                raise ConfigurationError(f"missing config field: {section}.{name}")


def parse_config(data: dict) -> RunConfig:
    _check_schema(data)
    train = TrainConfig(seed=data["seed"], **data["train"]).validate()
    road = RoadSpec(
        lanes=data["road"]["lanes"],
        lane_width=data["road"]["lane_width"],
        length=data["road"]["length"],
        curvature_profile=[tuple(seg) for seg in data["road"]["curvature_profile"]],
    )
    world = WorldConfig(
        road=road,
        traffic=TrafficConfig(**data["traffic"]),
        rewards=RewardWeights(**data["reward"]),
        idm=IdmParams(**data["idm"]),
        episode_cap_steps=data["sim"]["episode_cap_steps"],
        sensing_range=data["sim"]["sensing_range"],
        lane_changes_enabled=data["sim"]["lane_changes_enabled"],
        strict=data["sim"]["strict"],
    )
    return RunConfig(seed=data["seed"], train=train, world=world,
                     naf_constants=dict(data["naf"]), raw=data)


def load_config(path: str, seed_override=None) -> RunConfig:
    with open(path) as fh:
        data = json.load(fh)
    if seed_override is not None:
        data["seed"] = seed_override
    return parse_config(data)


def config_digest(data: dict) -> str:
    """Digest of the physics portion of the config (seed and training-length
    knobs excluded, so evaluation of a checkpoint under the same physics
    but a different seed is legitimate)."""
    physics = {section: data[section]
               for section in ("road", "traffic", "reward", "idm", "naf", "sim")}
    physics["dt"] = data["train"]["dt"]
    blob = json.dumps(physics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- canonical JSON / atomic files


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- checkpoint serialization


def _params_to_json(p: NafParams) -> dict:
    return {
        "layer_dims": list(p.layer_dims),
        "flat": p.flat.tolist(),
        "constants": {"a_cap": p.a_cap, "t_min": p.t_min,
                      "t_max": p.t_max, "m_eps": p.m_eps},
    }


def _params_from_json(d: dict) -> NafParams:
    return NafParams(list(d["layer_dims"]), np.array(d["flat"], dtype=float),
                     **d["constants"])


def _opt_to_json(opt: OptState) -> dict:
    return {"m": opt.m.tolist(), "v": opt.v.tolist(), "t": dict(opt.t)}


def _opt_from_json(d: dict) -> OptState:
    return OptState(np.array(d["m"], dtype=float), np.array(d["v"], dtype=float),
                    dict(d["t"]))


def _rngs_to_json(rngs: dict) -> dict:
    return {name: g.bit_generator.state for name, g in rngs.items()}


def _rngs_from_json(d: dict) -> dict:
    out = {}
    for name, state in d.items():
        g = np.random.default_rng()
        g.bit_generator.state = state
        out[name] = g
    return out


def save_checkpoint(path: str, step: int, params: NafParams,
                    target_params: NafParams, opt_states: OptState, rngs: dict,
                    digest: str):
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "step": step,
        "params": _params_to_json(params),
        "target_params": _params_to_json(target_params),
        "opt_states": _opt_to_json(opt_states),
        "rng_states": _rngs_to_json(rngs),
        "config_digest": digest,
    }
    atomic_write(path, _dumps(payload))


def load_checkpoint(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {data.get('format_version')!r}")
    return {
        "step": data["step"],
        "params": _params_from_json(data["params"]),
        "target_params": _params_from_json(data["target_params"]),
        "opt_states": _opt_from_json(data["opt_states"]),
        "rngs": _rngs_from_json(data["rng_states"]),
        "config_digest": data["config_digest"],
    }


def _check_digest(ck: dict, cfg: RunConfig, force: bool):
    expected = config_digest(cfg.raw)
    if ck["config_digest"] != expected and not force:
        raise ConfigurationError(
            "checkpoint was trained under different physics constants "
            "(config digest mismatch); pass --force to override")


# -- CSV writers (full 64-bit round-trip precision)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows, comment: str | None = None):
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write(path, "\n".join(lines) + "\n")


EPISODE_HEADER = ["vehicle_id", "start_step", "end_step", "duration_s",
                  "R", "R_acce", "R_rate", "R_dev", "outcome"]


def _episode_row(ep):
    return [ep.vehicle_id, ep.start_step, ep.end_step, ep.duration,
            ep.R, ep.R_acce, ep.R_rate, ep.R_dev, ep.outcome]


# -- commands


def cmd_train(config_path: str, out_dir: str, seed_override=None) -> int:
    try:
        cfg = load_config(config_path, seed_override)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    digest = config_digest(cfg.raw)

    def hook(step, state):
        save_checkpoint(os.path.join(out_dir, f"checkpoint_{step:08d}.json"),
                        step, state["params"], state["target_params"],
                        state["opt_states"], state["rngs"], digest)

    status = 0
    loss_rows, episode_rows = [], []
    try:
        run_training(cfg.train, cfg.world, checkpoint_hook=hook,
                     naf_constants=cfg.naf_constants,
                     loss_rows=loss_rows, episode_rows=episode_rows)
    except Exception as exc:  # flush partial logs on mid-run faults
        print(f"error: training aborted: {exc}", file=sys.stderr)
        status = 1

    write_csv(
        os.path.join(out_dir, "loss.csv"), ["step", "loss"],
        [(s, "" if l is None else _fmt(l)) for s, l in loss_rows],
        comment=f"loss sampled every {cfg.train.loss_log_every} global steps; "
                "empty before the first trained step",
    )
    write_csv(os.path.join(out_dir, "episodes.csv"), EPISODE_HEADER,
              [_episode_row(ep) for ep in episode_rows])
    return status


def _apply_constants(params: NafParams, constants: dict):
    params.a_cap = constants["a_cap"]
    params.t_min = constants["t_min"]
    params.t_max = constants["t_max"]
    params.m_eps = constants["m_eps"]


def run_eval_episodes(params: NafParams, world_cfg: WorldConfig, dt: float,
                      n_episodes: int, seed: int, max_steps: int = 500_000):
    """Greedy rollouts until n_episodes lane changes finish."""
    rngs = make_rngs(seed)
    world = World(world_cfg, rngs["spawn"], rngs["trigger"])
    policy = greedy_policy(params)
    episodes = []
    for _ in range(max_steps):
        result = world.step(policy, dt)
        episodes.extend(result.episodes)
        if len(episodes) >= n_episodes:
            return episodes[:n_episodes]
    raise RuntimeError(
        f"only {len(episodes)} lane-change episodes in {max_steps} steps")


def cmd_eval(checkpoint_path: str, config_path: str, episodes: int, seed: int,
             out_path: str, force: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        ck = load_checkpoint(checkpoint_path)
        _check_digest(ck, cfg, force)
        params = ck["params"]
        _apply_constants(params, cfg.naf_constants)
        eps = run_eval_episodes(params, cfg.world, cfg.train.dt, episodes, seed)
    except (ConfigurationError, OSError, json.JSONDecodeError, KeyError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [_episode_row(ep) for ep in eps]
    n = len(eps)
    rows.append(["summary", "", "", sum(ep.duration for ep in eps) / n,
                 sum(ep.R for ep in eps) / n,
                 sum(ep.R_acce for ep in eps) / n,
                 sum(ep.R_rate for ep in eps) / n,
                 sum(ep.R_dev for ep in eps) / n, ""])
    write_csv(out_path, EPISODE_HEADER, rows)
    return 0


TRACE_HEADER = ["step", "t", "a_yaw", "omega", "theta", "d", "delta_d_lat",
                "r", "r_acce", "r_rate", "r_dev"]


def run_trace(params: NafParams, world_cfg: WorldConfig, dt: float, seed: int,
              max_steps: int = 100_000):
    """Per-step record of the first greedy lane-change episode."""
    rngs = make_rngs(seed)
    world = World(world_cfg, rngs["spawn"], rngs["trigger"])
    policy = greedy_policy(params)
    traced_id = None
    last_target = 0
    rows = []
    for _ in range(max_steps):
        result = world.step(policy, dt)
        for tr in result.transitions:
            if traced_id is None:
                traced_id = tr.vehicle_id
            if tr.vehicle_id != traced_id:
                continue
            for veh in world.vehicles:
                if veh.id == traced_id:
                    last_target = veh.target_lane
                    break
            k = len(rows)
            d = tr.s_next.delta_d_lat + world.cfg.road.center(last_target)
            rows.append([k, k * dt, tr.a.a_yaw, tr.s_next.omega,
                         tr.s_next.theta, d, tr.s_next.delta_d_lat,
                         tr.r, tr.r_acce, tr.r_rate, tr.r_dev])
        # transition.terminal covers completion only; capped/exited
        # episodes close through the episode record, so watch for that
        if any(ep.vehicle_id == traced_id for ep in result.episodes):
            return rows
    raise RuntimeError(f"no lane-change episode finished within {max_steps} steps")


def cmd_trace(checkpoint_path: str, config_path: str, seed: int, out_path: str,
              force: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        ck = load_checkpoint(checkpoint_path)
        _check_digest(ck, cfg, force)
        params = ck["params"]
        _apply_constants(params, cfg.naf_constants)
        rows = run_trace(params, cfg.world, cfg.train.dt, seed)
    except (ConfigurationError, OSError, json.JSONDecodeError, KeyError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_csv(out_path, TRACE_HEADER, rows)
    return 0


# -- gradient verification harness


def checkgrad_suite(seed: int, h: float = 1e-4, inject_fault: bool = False) -> dict:
    """Finite-difference sweeps for net, Q, and loss gradients.

    Small hidden layers keep the parameter sweep fast; the gradient code
    paths are identical at any width.
    """
    rng = np.random.default_rng(seed)

    net = net_init([3, 8, 1], rng)
    x = rng.normal(size=3)
    y, cache = net_forward(net, x)
    net_grad, _ = net_backward(net, cache, np.ones_like(y))
    net_err = finite_diff_check(lambda: float(np.sum(net_forward(net, x)[0])),
                                net.flat, net_grad, h)

    params = NafParams.init(rng, hidden=(8,))
    state_arr = rng.normal(size=6)
    state_arr[0] = abs(state_arr[0]) * 10  # plausible speed
    state = RlState(*state_arr)
    action = Action(float(rng.uniform(-0.5, 0.5)))
    grad, _ = q_gradients_batch(state_arr[None, :], [action.a_yaw], [1.0], params)
    if inject_fault:
        grad[params.span("m_net").start] *= 1.10  # first weight of m_net
    q_err = finite_diff_check(lambda: q_value(state, action, params),
                              params.flat, grad, h)

    # loss gradients on a small random batch
    target = NafParams.init(rng, hidden=(8,))
    batch = []
    for _ in range(4):
        sa = rng.normal(size=6)
        sb = rng.normal(size=6)
        batch.append(Transition(RlState(*sa), Action(float(rng.uniform(-0.5, 0.5))),
                                RlState(*sb), float(-abs(rng.normal())),
                                bool(rng.uniform() < 0.2)))
    states = np.stack([tr.s.as_array() for tr in batch])
    actions = np.array([tr.a.a_yaw for tr in batch])
    _, errors = batch_loss(batch, params, target, 0.95)
    coeffs = (2.0 / len(batch)) * (-errors)  # errors are target - Q
    loss_grad, _ = q_gradients_batch(states, actions, coeffs, params)
    loss_err = finite_diff_check(lambda: batch_loss(batch, params, target, 0.95)[0],
                                 params.flat, loss_grad, h)

    return {"net": net_err, "q_value": q_err, "batch_loss": loss_err}


def cmd_checkgrad(seed: int, inject_fault: bool = False,
                  threshold: float = 1e-4) -> int:
    errors = checkgrad_suite(seed, inject_fault=inject_fault)
    bad = []
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
        if err >= threshold:
            bad.append(name)
    if bad:
        print(f"error: gradient check failed for: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


# -- argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nafdrive",
        description="Train and evaluate the lane-change maneuver policy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="average episode metrics of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("trace", help="per-step trace of one greedy episode")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("checkgrad", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return cmd_train(args.config, args.out, args.seed)
    if args.command == "eval":
        return cmd_eval(args.checkpoint, args.config, args.episodes, args.seed,
                        args.out, args.force)
    if args.command == "trace":
        return cmd_trace(args.checkpoint, args.config, args.seed, args.out,
                         args.force)
    if args.command == "checkgrad":
        return cmd_checkgrad(args.seed, args.inject_fault)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
