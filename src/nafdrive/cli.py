"""Command-line entry points: train, eval, trace, checkgrad.

Configuration and checkpoints are canonical JSON (sorted keys, explicit
floats) so runs are byte-reproducible and files diff cleanly.  Each config
section holds the fields of one dataclass (`SECTIONS`), which declares
their names and defaults; `default_config_dict` fills them from those
defaults.  A config must give every field, each a value of the field's
type, and no other key, so there are no silent defaults and no ignored
typos.  Checkpoints embed a digest of the physics portion of the config
and refuse to run against a different one unless --force is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigurationError
from .learner import TrainConfig, make_rngs, run_training, td_targets
from .longitudinal import IdmParams
from .nafq import (NafParams, RlState, fit_gradients, greedy_policy,
                   q_gradients_batch, q_values_batch)
from .netcore import finite_diff_check, net_backward, net_forward, net_init
from .simworld import RewardWeights, RoadSpec, TrafficConfig, World, WorldConfig

CHECKPOINT_VERSION = 3
EVAL_MAX_STEPS = 500_000  # ticks an evaluation runs before it gives up
TRACE_MAX_STEPS = 100_000  # ticks a trace runs before it gives up
CHECKGRAD_THRESHOLD = 1e-4  # the relative error at which a gradient check fails


# config section -> its dataclass and the fields it leaves out; each name,
# type and default is declared once, in its dataclass
_SECTION_CLASSES = {
    "train": (TrainConfig, "seed"),
    "road": (RoadSpec,),
    "traffic": (TrafficConfig,),
    "reward": (RewardWeights,),
    "idm": (IdmParams,),
    "naf": (NafParams, "layer_dims", "flat"),
    "sim": (WorldConfig, "road", "traffic", "rewards", "idm"),
}
# config section -> the init fields of its dataclass that it holds
SECTIONS = {section: tuple(f for f in fields(cls) if f.init and f.name not in skip)
            for section, (cls, *skip) in _SECTION_CLASSES.items()}
# config section -> field name -> type; the modules postpone annotations, so
# a field's own `type` is only the annotation's text
_FIELD_TYPES = {section: typing.get_type_hints(cls)
                for section, (cls, *_) in _SECTION_CLASSES.items()}


@dataclass
class RunConfig:
    seed: int
    train: TrainConfig
    world: WorldConfig
    naf_constants: dict
    raw: dict


def default_config_dict(seed: int = 0) -> dict:
    """Full config with the dataclass defaults; handy starting point."""
    data = {"seed": seed}
    for section, carried in SECTIONS.items():
        data[section] = {f.name: f.default if f.default_factory is MISSING
                         else f.default_factory() for f in carried}
    return data


def _fits(value, tp) -> bool:
    """Whether the JSON value `value` is of the field type `tp`.  A JSON int
    fits a float field, but a bool fits neither an int nor a float field."""
    if tp in (int, float):
        return isinstance(value, (int, tp)) and not isinstance(value, bool)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, t) for v, t in zip(value, args)))
    return isinstance(value, tp)


def _finite(value) -> bool:
    """Whether every float in the JSON value `value` is finite; Python's
    json reads NaN and Infinity, which no field accepts."""
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _section(data: dict, section: str) -> dict:
    """The section's values, which must name exactly its fields, each with
    a finite value of the field's type."""
    if section not in data:
        raise ConfigurationError(f"missing config section: {section}")
    values = data[section]
    if not isinstance(values, dict):
        raise ConfigurationError(f"config section {section} must be an object")
    names = [f.name for f in SECTIONS[section]]
    for key in values:
        if key not in names:
            raise ConfigurationError(f"unknown config field: {section}.{key}")
    for f in SECTIONS[section]:
        if f.name not in values:
            raise ConfigurationError(f"missing config field: {section}.{f.name}")
        if not _fits(values[f.name], _FIELD_TYPES[section][f.name]):
            raise ConfigurationError(f"config field {section}.{f.name} must be "
                                     f"{f.type}, not {values[f.name]!r}")
        if not _finite(values[f.name]):
            raise ConfigurationError(f"config field {section}.{f.name} must be "
                                     f"finite, not {values[f.name]!r}")
    return dict(values)


def _check_seed(seed: int):
    # numpy's generators take no negative seed
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, not {seed}")


def _check_out(path: str):
    # atomic_write would fail only after the rollout, naming its temporary file
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write --out {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigurationError(f"cannot write --out {path}: no such directory")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    if "seed" not in data:
        raise ConfigurationError("missing config section: seed")
    if not _fits(data["seed"], int):
        raise ConfigurationError(f"config section seed must be int, not {data['seed']!r}")
    _check_seed(data["seed"])
    for key in data:
        if key != "seed" and key not in SECTIONS:
            raise ConfigurationError(f"unknown config section: {key}")
    sec = {section: _section(data, section) for section in SECTIONS}
    road = sec["road"]
    road["curvature_profile"] = profile = [tuple(seg) for seg in road["curvature_profile"]]
    if any(a[0] >= b[0] for a, b in zip(profile, profile[1:])):  # curvature_at needs this
        raise ConfigurationError("config field road.curvature_profile must have strictly "
                                 f"increasing start stations, not {profile!r}")
    world = WorldConfig(road=RoadSpec(**road),
                        traffic=TrafficConfig(**sec["traffic"]),
                        rewards=RewardWeights(**sec["reward"]),
                        idm=IdmParams(**sec["idm"]), **sec["sim"]).validate()
    return RunConfig(seed=data["seed"],
                     train=TrainConfig(seed=data["seed"], **sec["train"]).validate(),
                     world=world, naf_constants=sec["naf"], raw=data)


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
    physics = {section: data[section] for section in SECTIONS if section != "train"}
    physics["dt"] = data["train"]["dt"]
    blob = json.dumps(physics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- canonical JSON / atomic files


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: str, pieces):
    """Write the strings of `pieces` in turn; `path` gets them all or keeps
    what it held, since they go to a temporary file renamed at the end."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- checkpoint serialization


def _params_from_json(d: dict) -> NafParams:
    return NafParams(list(d["layer_dims"]), np.array(d["flat"], dtype=float),
                     **d["constants"])


_FLAT_BLOCK = 2048  # floats of params.flat encoded per piece of a checkpoint


def _checkpoint_pieces(head: str, flat: np.ndarray, tail: str):
    """`head`, the floats of `flat` as a JSON array's items, `tail`: a block
    at a time, so the whole vector is never held as Python floats or text."""
    yield head
    for i in range(0, flat.size, _FLAT_BLOCK):
        if i:
            yield ","
        yield json.dumps(flat[i:i + _FLAT_BLOCK].tolist(), separators=(",", ":"))[1:-1]
    yield tail


# perfbench/ passes all seven positionally, so the three unwritten ones stay
def save_checkpoint(path: str, step: int, params: NafParams, _target_params,
                    _opt_states, _rngs, digest: str):
    """Write the canonical JSON of the checkpoint document; `params.flat`
    goes between the two halves of the document encoded with it empty."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "step": step,
        "params": {
            "layer_dims": list(params.layer_dims),
            "flat": [],
            "constants": {f.name: getattr(params, f.name) for f in SECTIONS["naf"]},
        },
        "config_digest": digest,
    }
    # no string value holds an unescaped quote, so only the key matches
    head, key, tail = _dumps(payload).partition('"flat":[')
    atomic_write(path, _checkpoint_pieces(head + key, params.flat, tail))


def load_checkpoint(path: str) -> dict:
    """The step, parameters and config digest saved at `path`; a file that
    is not a checkpoint of this version raises ConfigurationError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError(f"checkpoint {path} must be a JSON object")
    if data.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {data.get('format_version')!r}")
    # a value of a wrong JSON type, or a flat that does not fit layer_dims
    try:
        params = _params_from_json(data["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed checkpoint {path}: {exc}") from None
    return {
        "step": data["step"],
        "params": params,
        "config_digest": data["config_digest"],
    }


def _load_policy(checkpoint_path: str, config_path: str,
                 force: bool) -> tuple[RunConfig, NafParams]:
    """The config and the checkpoint's parameters with the config's head
    constants set; refuses a checkpoint trained under other physics unless
    forced."""
    cfg = load_config(config_path)
    ck = load_checkpoint(checkpoint_path)
    if ck["config_digest"] != config_digest(cfg.raw) and not force:
        raise ConfigurationError(
            "checkpoint was trained under different physics constants "
            "(config digest mismatch); pass --force to override")
    params = ck["params"]
    for f in SECTIONS["naf"]:
        setattr(params, f.name, cfg.naf_constants[f.name])
    return cfg, params


# what every command reports as `error:` with exit status 2
_RUN_ERRORS = (ConfigurationError, OSError, json.JSONDecodeError, KeyError,
               RuntimeError)


# -- CSV writers (full 64-bit round-trip precision)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows, comment: str | None = None):
    def lines():
        if comment:
            yield "# " + comment + "\n"
        yield ",".join(header) + "\n"
        for row in rows:
            yield ",".join(_fmt(x) for x in row) + "\n"
    atomic_write(path, lines())


EPISODE_HEADER = ["vehicle_id", "start_step", "end_step", "duration_s",
                  "R", "R_acce", "R_rate", "R_dev", "outcome"]


def _episode_row(ep):
    return [ep.vehicle_id, ep.start_step, ep.end_step, ep.duration,
            ep.R, ep.R_acce, ep.R_rate, ep.R_dev, ep.outcome]


# -- commands


def cmd_train(config_path: str, out_dir: str, seed_override=None) -> int:
    cfg = load_config(config_path, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    digest = config_digest(cfg.raw)

    def hook(step, params):
        save_checkpoint(os.path.join(out_dir, f"checkpoint_{step:08d}.json"),
                        step, params, None, None, None, digest)

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
        [(s, "" if l is None else l) for s, l in loss_rows],
        comment=f"loss sampled every {cfg.train.loss_log_every} global steps; "
                "empty before the first trained step",
    )
    write_csv(os.path.join(out_dir, "episodes.csv"), EPISODE_HEADER,
              [_episode_row(ep) for ep in episode_rows])
    return status


def run_eval_episodes(params: NafParams, world_cfg: WorldConfig, dt: float,
                      n_episodes: int, seed: int):
    """Greedy rollouts until n_episodes lane changes finish."""
    rngs = make_rngs(seed)
    world = World(world_cfg, rngs["spawn"], rngs["trigger"])
    policy = greedy_policy(params)
    episodes = []
    for _ in range(EVAL_MAX_STEPS):
        result = world.step(policy, dt)
        episodes.extend(result.episodes)
        if len(episodes) >= n_episodes:
            return episodes[:n_episodes]
    raise RuntimeError(
        f"only {len(episodes)} lane-change episodes in {EVAL_MAX_STEPS} steps")


def cmd_eval(checkpoint_path: str, config_path: str, episodes: int, seed: int,
             out_path: str, force: bool = False) -> int:
    _check_seed(seed)
    if episodes < 1:
        raise ConfigurationError(f"episodes must be positive, not {episodes}")
    _check_out(out_path)
    cfg, params = _load_policy(checkpoint_path, config_path, force)
    eps = run_eval_episodes(params, cfg.world, cfg.train.dt, episodes, seed)
    rows = [_episode_row(ep) for ep in eps]
    # the mean of each numeric column: duration_s, R, R_acce, R_rate, R_dev
    means = [sum(col) / len(eps) for col in zip(*(row[3:8] for row in rows))]
    rows.append(["summary", "", "", *means, ""])
    write_csv(out_path, EPISODE_HEADER, rows)
    return 0


TRACE_HEADER = ["step", "t", "a_yaw", "omega", "theta", "d", "delta_d_lat",
                "r", "r_acce", "r_rate", "r_dev"]


def run_trace(params: NafParams, world_cfg: WorldConfig, dt: float, seed: int):
    """Per-step record of the first greedy lane-change episode."""
    rngs = make_rngs(seed)
    world = World(world_cfg, rngs["spawn"], rngs["trigger"])
    policy = greedy_policy(params)
    # the traced vehicle's record is held: it outlives the vehicle's removal
    # from the road, when it is capped or exits in the tick its episode closes
    traced = None
    rows = []
    for _ in range(TRACE_MAX_STEPS):
        present = world.vehicles[:] if traced is None else None
        result = world.step(policy, dt)
        for tr in result.transitions:
            if traced is None:
                traced = next(veh for veh in present + world.vehicles
                              if veh.id == tr.vehicle_id)
            if tr.vehicle_id != traced.id:
                continue
            k = len(rows)
            d = tr.s_next.delta_d_lat + world.cfg.road.center(traced.target_lane)
            rows.append([k, k * dt, tr.a_yaw, tr.s_next.omega,
                         tr.s_next.theta, d, tr.s_next.delta_d_lat,
                         tr.r, tr.r_acce, tr.r_rate, tr.r_dev])
        # whether a close is terminal depends on its outcome (simworld.CLOSES),
        # so watch the episode records, which every close produces
        if traced is not None and any(ep.vehicle_id == traced.id
                                      for ep in result.episodes):
            return rows
    raise RuntimeError(f"no lane-change episode finished within {TRACE_MAX_STEPS} steps")


def cmd_trace(checkpoint_path: str, config_path: str, seed: int, out_path: str,
              force: bool = False) -> int:
    _check_seed(seed)
    _check_out(out_path)
    cfg, params = _load_policy(checkpoint_path, config_path, force)
    rows = run_trace(params, cfg.world, cfg.train.dt, seed)
    write_csv(out_path, TRACE_HEADER, rows)
    return 0


# -- gradient verification harness


def checkgrad_suite(seed: int) -> dict:
    """Finite-difference sweeps for net, Q, and loss gradients.

    Small hidden layers keep the parameter sweep fast; the gradient code
    paths are identical at any width.
    """
    rng = np.random.default_rng(seed)

    net = net_init([3, 8, 1], rng)
    x = rng.normal(size=(1, 3))
    y, cache = net_forward(net, x)
    net_grad = net_backward(net, cache, np.ones_like(y))
    net_err = finite_diff_check(lambda: float(np.sum(net_forward(net, x)[0])),
                                net.flat, net_grad)

    params = NafParams.init(rng, hidden=(8,))
    state_arr = rng.normal(size=6)
    state_arr[0] = abs(state_arr[0]) * 10  # plausible speed
    state = RlState(*state_arr)
    a_yaw = float(rng.uniform(-0.5, 0.5))
    grad, _ = q_gradients_batch([state], [a_yaw], [1.0], params)
    q_err = finite_diff_check(lambda: q_values_batch([state], [a_yaw], params)[0][0],
                              params.flat, grad)

    # loss gradients on a small random batch
    target_v = NafParams.init(rng, hidden=(8,)).v_net
    rows = []
    for _ in range(4):
        sa = rng.normal(size=6)
        sb = rng.normal(size=6)
        rows.append((sa, rng.uniform(-0.5, 0.5), sb, -abs(rng.normal()),
                     0.0 if rng.uniform() < 0.2 else 1.0))
    states, actions, next_states, rewards, nonterminal = (
        np.array(column) for column in zip(*rows))
    targets = td_targets(next_states, rewards, nonterminal, target_v, 0.95)
    # the gradient train_step takes, against the loss it descends
    _, loss_grad = fit_gradients(states, actions, targets, params)
    loss_err = finite_diff_check(
        lambda: fit_gradients(states, actions, targets, params)[0],
        params.flat, loss_grad)

    return {"net": net_err, "q_value": q_err, "batch_loss": loss_err}


def cmd_checkgrad(seed: int) -> int:
    _check_seed(seed)
    errors = checkgrad_suite(seed)
    bad = []
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
        if err >= CHECKGRAD_THRESHOLD:
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed)
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.config, args.episodes, args.seed,
                            args.out, args.force)
        if args.command == "trace":
            return cmd_trace(args.checkpoint, args.config, args.seed, args.out,
                             args.force)
        if args.command == "checkgrad":
            return cmd_checkgrad(args.seed)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
