"""Training machinery: replay memory, TD targets against a frozen copy of
the parameters, the mini-batch squared-error loss, the two-stage freezing
schedule, and the top-level interleaved simulate/train loop.

The "two parallel loops" (simulation and training) are realized as a
deterministic interleave: one environment tick, then one gradient step
once the buffer holds a full batch.  The whole pipeline is a pure
function of (TrainConfig, WorldConfig, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalError
from .nafq import (STATE_DIM, NafParams, fit_gradients, greedy_actions_batch,
                   q_values_batch)
from .netcore import OptState, adaptive_update, net_forward
from .simworld import EpisodeMetrics, World, WorldConfig

PRETRAIN = "pretrain"
JOINT = "joint"

# Parameter slices stepped by Adam, each with its own step count: the
# curvature and value nets train in both stages, the greedy head only in
# the joint stage.
ADAM_SLICES = {"head": NafParams.MU_NET_NAMES, "q": ("m_net", "v_net")}
STAGE_SLICES = {PRETRAIN: ("q",), JOINT: ("head", "q")}


class ReplayBuffer:
    """Fixed-capacity ring of transitions, one row of preallocated arrays
    each; the oldest row is overwritten first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self.states = np.zeros((capacity, STATE_DIM))
        self.actions = np.zeros(capacity)
        self.next_states = np.zeros((capacity, STATE_DIM))
        self.rewards = np.zeros(capacity)
        self.nonterminal = np.zeros(capacity)  # 1.0, or 0.0 after a terminal step
        self._size = 0
        self._cursor = 0

    def __len__(self):
        return self._size

    def push(self, s, a: float, s_next, r: float, terminal: bool):
        i = self._cursor
        self.states[i] = s
        self.actions[i] = a
        self.next_states[i] = s_next
        self.rewards[i] = r
        self.nonterminal[i] = 0.0 if terminal else 1.0
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng):
        """n rows drawn uniformly with replacement, as the batch
        (states, actions, next_states, rewards, nonterminal) of copies."""
        if not self._size:
            raise ContractError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        return (self.states[idx], self.actions[idx], self.next_states[idx],
                self.rewards[idx], self.nonterminal[idx])


@dataclass
class TrainConfig:
    dt: float = 0.1
    learning_rate: float = 0.0005
    gamma: float = 0.95
    batch_size: int = 64
    target_sync_every: int = 1000
    pretrain_steps: int = 200_000
    total_steps: int = 400_000
    checkpoint_schedule: list[int] = field(
        default_factory=lambda: [40_000 * k for k in range(1, 11)]
    )
    sigma_start: float = 0.1
    sigma_end: float = 0.01
    buffer_capacity: int = 1_000
    loss_log_every: int = 20
    seed: int = 0

    def validate(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigurationError("gamma must be in [0, 1)")
        for name in ("batch_size", "target_sync_every", "pretrain_steps",
                     "total_steps", "buffer_capacity", "loss_log_every"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.dt <= 0 or self.learning_rate < 0:
            raise ConfigurationError("dt must be positive and learning_rate >= 0")
        if not (self.sigma_start >= self.sigma_end >= 0):
            raise ConfigurationError("need sigma_start >= sigma_end >= 0")
        return self


def td_targets(next_states, rewards, nonterminal, target_params, gamma):
    """r + gamma * V(s') under the frozen target value net; zero V at terminals."""
    v_next, _ = net_forward(target_params.v_net, next_states)
    return rewards + gamma * nonterminal * v_next[:, 0]


def batch_loss(batch, params: NafParams, target_params: NafParams, gamma: float):
    """Mean squared TD error over the batch
    (states, actions, next_states, rewards, nonterminal); also returns
    per-item errors."""
    states, actions, next_states, rewards, nonterminal = batch
    if not len(actions):
        raise ContractError("empty batch")
    targets = td_targets(next_states, rewards, nonterminal, target_params, gamma)
    q, _ = q_values_batch(states, actions, params)
    errors = targets - q
    return float(np.mean(errors**2)), errors


def train_step(params: NafParams, target_params: NafParams, batch,
               stage: str, opt_states: OptState, lr: float, gamma: float) -> float:
    """One semi-gradient step on the mini-batch loss.

    The target is treated as a constant (no gradient through the frozen
    copy).  In the pretrain stage only the curvature and value networks
    update; the three greedy-head networks stay bit-frozen.
    """
    if stage not in STAGE_SLICES:
        raise ConfigurationError(f"unknown stage {stage!r}")
    states, actions, next_states, rewards, nonterminal = batch
    targets = td_targets(next_states, rewards, nonterminal, target_params, gamma)

    # semi-gradient: dL/dtheta = (2/N) * sum_i (Q_i - target_i) * dQ_i/dtheta,
    # backpropagated only through the nets this stage steps
    nets = [name for key in STAGE_SLICES[stage] for name in ADAM_SLICES[key]]
    loss, grad = fit_gradients(states, actions, targets, params, nets)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss; step aborted")

    for key in STAGE_SLICES[stage]:
        span = params.span(*ADAM_SLICES[key])
        opt_states.t[key] = adaptive_update(params.flat[span], grad[span],
                                            opt_states.m[span], opt_states.v[span],
                                            opt_states.t[key], lr)
    return loss


def opt_states_init(params: NafParams) -> OptState:
    return OptState(np.zeros_like(params.flat), np.zeros_like(params.flat),
                    dict.fromkeys(ADAM_SLICES, 0))


def make_rngs(seed: int) -> dict:
    """Named deterministic substreams derived from one master seed."""
    names = ("init", "spawn", "trigger", "explore", "replay")
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(seq) for name, seq in zip(names, seqs)}


def explore_actions(S, params: NafParams, sigma: float, rng) -> np.ndarray:
    """Greedy actions for the states `S` (a list of states or an (n, 6)
    array) plus Gaussian noise of standard deviation sigma, clipped to the
    action cap."""
    mu = greedy_actions_batch(S, params)
    noise = rng.normal(0.0, sigma, size=len(S))
    return np.clip(mu + noise, -params.a_cap, params.a_cap)


def sigma_at(cfg: TrainConfig, step: int) -> float:
    """Linear exploration-noise decay over the configured total steps."""
    if cfg.total_steps <= 1:
        return cfg.sigma_end
    frac = min(1.0, (step - 1) / (cfg.total_steps - 1))
    return cfg.sigma_start + (cfg.sigma_end - cfg.sigma_start) * frac


@dataclass
class TrainResult:
    params: NafParams
    loss_rows: list[tuple[int, float | None]]
    episode_rows: list[EpisodeMetrics]


def run_training(train_cfg: TrainConfig, world_cfg: WorldConfig,
                 checkpoint_hook=None, naf_constants: dict | None = None,
                 loss_rows: list | None = None,
                 episode_rows: list | None = None) -> TrainResult:
    """Interleaved simulate/train loop.

    Per tick: every maneuvering vehicle acts under the current parameters
    with Gaussian exploration and its transition enters the buffer; one
    gradient step runs once the buffer holds a full batch; the frozen copy
    is overwritten every target_sync_every steps; the stage switches from
    pretrain to joint after pretrain_steps (a RuntimeWarning says so when
    that comes before the first gradient step).  Loss is logged every
    loss_log_every global steps (empty before the first trained step) and
    `checkpoint_hook(step, params)` fires at each scheduled step with the
    online parameters, which training goes on to update in place.
    Rows are appended to `loss_rows` and `episode_rows` as they are
    produced, so a caller that passes its own lists keeps the rows logged
    before a fault.
    """
    train_cfg.validate()
    rngs = make_rngs(train_cfg.seed)
    params = NafParams.init(rngs["init"], **(naf_constants or {}))
    target_params = params.copy()
    opt_states = opt_states_init(params)
    buffer = ReplayBuffer(train_cfg.buffer_capacity)
    world = World(world_cfg, rngs["spawn"], rngs["trigger"])

    loss_rows = [] if loss_rows is None else loss_rows
    episode_rows = [] if episode_rows is None else episode_rows
    schedule = set(train_cfg.checkpoint_schedule)
    last_loss: float | None = None

    rng_explore = rngs["explore"]

    def policy(states):
        return explore_actions(states, params, sigma, rng_explore)

    for step in range(1, train_cfg.total_steps + 1):
        sigma = sigma_at(train_cfg, step)
        result = world.step(policy, train_cfg.dt)
        for tr in result.transitions:
            buffer.push(tr.s, tr.a_yaw, tr.s_next, tr.r, tr.terminal)
        episode_rows.extend(result.episodes)

        if len(buffer) >= train_cfg.batch_size:
            batch = buffer.sample(train_cfg.batch_size, rngs["replay"])
            stage = PRETRAIN if step <= train_cfg.pretrain_steps else JOINT
            if stage == JOINT and last_loss is None:
                warnings.warn(
                    f"the first gradient step, at step {step}, is in the joint "
                    f"stage: pretrain_steps {train_cfg.pretrain_steps} ended before "
                    f"the replay buffer held a batch of {train_cfg.batch_size}, so "
                    f"no pretrain step ran", RuntimeWarning, stacklevel=2)
            last_loss = train_step(params, target_params, batch, stage,
                                   opt_states, train_cfg.learning_rate,
                                   train_cfg.gamma)
        if step % train_cfg.loss_log_every == 0:
            loss_rows.append((step, last_loss))
        if step % train_cfg.target_sync_every == 0:
            target_params = params.copy()
        if step in schedule and checkpoint_hook is not None:
            checkpoint_hook(step, params)

    return TrainResult(params, loss_rows, episode_rows)
