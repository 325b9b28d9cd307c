"""Training machinery: replay memory, TD targets against a frozen copy of
the value net, the mini-batch squared-error loss, the two-stage freezing
schedule, and the top-level interleaved simulate/train loop.

A training stage is the block of the parameter layout it steps,
`NafParams.Q` in pretrain and `NafParams.ALL` in the joint stage; Adam
keeps a step count for each layout block, HEAD and Q, and steps each one
inside the stage's block.

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
from .nafq import STATE_DIM, NafParams, fit_gradients, greedy_actions_batch
from .netcore import Network, OptState, adaptive_update, net_forward
from .simworld import EpisodeMetrics, World, WorldConfig

# glibc hands the top of its heap back to the system whenever a free leaves
# more than its trim threshold there, and that threshold is twice the
# largest block yet freed from its own mapping.  A gradient step frees about
# 0.7 MB, so until a larger free (in a default run, the first checkpoint's
# text) the heap could shrink and regrow every step, faulting its pages in
# again, depending on where the step's blocks land.  Freeing one 4 MiB block
# on import gives every gradient loop, run_training's or a caller's own,
# the later regime.
np.empty(1 << 19)


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
        for step in self.checkpoint_schedule:
            if not 1 <= step <= self.total_steps:
                raise ConfigurationError(f"checkpoint_schedule step {step} is outside "
                                         f"1..total_steps ({self.total_steps})")
        return self


def td_targets(next_states, rewards, nonterminal, target_v: Network, gamma):
    """r + gamma * V(s') under `target_v`, the frozen value net; zero V at terminals."""
    v_next, _ = net_forward(target_v, next_states)
    return rewards + gamma * nonterminal * v_next[0, :, 0]


def train_step(params: NafParams, target_v: Network, batch,
               block: range, opt_states: OptState, lr: float, gamma: float) -> float:
    """One semi-gradient step on the mini-batch loss through the nets of
    `block`: `NafParams.Q` in pretrain, `NafParams.ALL` in the joint stage.

    The TD target is a constant: no gradient flows through `target_v`, the
    frozen value net.  In the pretrain stage only the curvature and value
    networks update; the three greedy-head networks stay bit-frozen.
    """
    if block not in (NafParams.Q, NafParams.ALL):
        raise ContractError(f"train_step steps NafParams.Q or NafParams.ALL, not {block!r}")
    states, actions, next_states, rewards, nonterminal = batch
    targets = td_targets(next_states, rewards, nonterminal, target_v, gamma)

    # semi-gradient: dL/dtheta = (2/N) * sum_i (Q_i - target_i) * dQ_i/dtheta,
    # backpropagated only through the block this stage steps
    loss, grad = fit_gradients(states, actions, targets, params, block)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss; step aborted")

    for part, t in opt_states.t.items():  # each layout block inside `block`
        if block.start <= part.start and part.stop <= block.stop:
            span = params.span(part)
            opt_states.t[part] = adaptive_update(params.flat[span], grad[span],
                                                 opt_states.m[span], opt_states.v[span], t, lr)
    return loss


def opt_states_init(params: NafParams) -> OptState:
    """Zero Adam moments and a zero step count for each layout block."""
    return OptState(np.zeros_like(params.flat), np.zeros_like(params.flat),
                    dict.fromkeys((NafParams.HEAD, NafParams.Q), 0))


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
    gradient step runs once the buffer holds a full batch; the value net is
    copied every target_sync_every steps into its frozen copy, allocated
    once; the stage switches from pretrain to joint after pretrain_steps (a
    RuntimeWarning says so when that comes before the first gradient step).
    Loss is logged every loss_log_every global steps (empty before the
    first trained step) and `checkpoint_hook(step, params)` fires at each
    scheduled step with the online parameters, which training goes on to
    update in place.  Rows are appended to `loss_rows` and `episode_rows`
    as they are produced, so a caller that passes its own lists keeps the
    rows logged before a fault.
    """
    train_cfg.validate()
    world_cfg.validate()
    rngs = make_rngs(train_cfg.seed)
    params = NafParams.init(rngs["init"], **(naf_constants or {}))
    target_v = Network(params.layer_dims, params.v_net.flat.copy())
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
            block = NafParams.Q if step <= train_cfg.pretrain_steps else NafParams.ALL
            if block == NafParams.ALL and last_loss is None:
                warnings.warn(
                    f"the first gradient step, at step {step}, is in the joint "
                    f"stage: pretrain_steps {train_cfg.pretrain_steps} ended before "
                    f"the replay buffer held a batch of {train_cfg.batch_size}, so "
                    f"no pretrain step ran", RuntimeWarning, stacklevel=2)
            last_loss = train_step(params, target_v, batch, block,
                                   opt_states, train_cfg.learning_rate,
                                   train_cfg.gamma)
        if step % train_cfg.loss_log_every == 0:
            loss_rows.append((step, last_loss))
        if step % train_cfg.target_sync_every == 0:
            target_v.flat[:] = params.v_net.flat
        if step in schedule and checkpoint_hook is not None:
            checkpoint_hook(step, params)

    return TrainResult(params, loss_rows, episode_rows)
