"""Replay memory, TD targets, exploration, loss, freezing schedule, training loop."""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nafdrive import learner, nafq
from nafdrive.errors import ConfigurationError, ContractError, NumericalError
from nafdrive.learner import (ReplayBuffer, TrainConfig, explore_actions, make_rngs,
                              opt_states_init, run_training, sigma_at, td_targets,
                              train_step)
from nafdrive.nafq import (A_CAP, NafParams, RlState, fit_gradients,
                           greedy_actions_batch, q_values_batch)
from nafdrive.simworld import WorldConfig


def const_params(v_bias: float) -> NafParams:
    """Single affine layer with zero weights per net; V(s) = v_bias."""
    params = NafParams([6, 1])
    params.v_net.biases[0][0] = v_bias
    return params


def random_transition(rng):
    """One transition as the arguments of ReplayBuffer.push."""
    s = rng.normal(size=6)
    s_next = rng.normal(size=6)
    return (s, float(rng.uniform(-0.5, 0.5)), s_next,
            float(-abs(rng.normal())), bool(rng.uniform() < 0.1))


def stack(transitions):
    """Transitions stacked into a (states, actions, next_states, rewards,
    nonterminal) batch."""
    s, a, s_next, r, terminal = zip(*transitions)
    return (np.stack(s), np.array(a), np.stack(s_next), np.array(r),
            np.array([0.0 if t else 1.0 for t in terminal]))


def terminal_batch(*rewards):
    """Zero-state terminal transitions with action 0 and the given rewards."""
    return stack([(np.zeros(6), 0.0, np.zeros(6), r, True) for r in rewards])


def fit_loss(batch, params, target_v, gamma=0.95):
    """The loss and gradient `train_step` takes on `batch`."""
    states, actions, next_states, rewards, nonterminal = batch
    targets = td_targets(next_states, rewards, nonterminal, target_v, gamma)
    return fit_gradients(states, actions, targets, params)


def buffer_rows(buf):
    n = len(buf)
    return (buf.states[:n], buf.actions[:n], buf.next_states[:n],
            buf.rewards[:n], buf.nonterminal[:n])


def assert_batches_equal(a, b):
    assert len(a) == len(b) == 5
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# -- replay buffer


def test_buffer_push_to_empty():
    buf = ReplayBuffer(4)
    buf.push(*random_transition(np.random.default_rng(0)))
    assert len(buf) == 1


def test_buffer_insertion_order_preserved():
    buf = ReplayBuffer(5)
    items = [random_transition(np.random.default_rng(i))[:4] + (i % 2 == 0,)
             for i in range(4)]
    for tr in items:
        buf.push(*tr)
    assert_batches_equal(buffer_rows(buf), stack(items))


def test_buffer_ring_eviction():
    buf = ReplayBuffer(2)
    items = [random_transition(np.random.default_rng(i)) for i in range(3)]
    for tr in items:
        buf.push(*tr)
    assert len(buf) == 2
    # the third push overwrote the oldest row, row 0
    assert_batches_equal(buffer_rows(buf), stack([items[2], items[1]]))


def test_buffer_invalid_capacity():
    with pytest.raises(ConfigurationError):
        ReplayBuffer(0)


def test_sample_empty_rejected():
    with pytest.raises(ContractError):
        ReplayBuffer(4).sample(1, np.random.default_rng(0))


def test_sample_single_item_with_replacement():
    buf = ReplayBuffer(4)
    tr = random_transition(np.random.default_rng(0))
    buf.push(*tr)
    batch = buf.sample(3, np.random.default_rng(1))
    assert_batches_equal(batch, stack([tr, tr, tr]))


def test_sample_deterministic_given_seed():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(*random_transition(np.random.default_rng(i)))
    a = buf.sample(8, np.random.default_rng(5))
    b = buf.sample(8, np.random.default_rng(5))
    assert_batches_equal(a, b)


def test_sample_uniformity():
    buf = ReplayBuffer(10)
    for i in range(10):
        s, a, s_next, _, terminal = random_transition(np.random.default_rng(i))
        buf.push(s, a, s_next, float(i), terminal)  # the reward tags the row
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.bincount(buf.sample(n, rng)[3].astype(int), minlength=10)
    expected = n / 10
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert len(counts) == 10
    for c in counts:
        assert abs(c - expected) <= 3 * sigma


def test_sampled_batch_is_a_copy():
    buf = ReplayBuffer(8)
    for i in range(5):
        buf.push(*random_transition(np.random.default_rng(i)))
    before = [x.copy() for x in buffer_rows(buf)]
    for x in buf.sample(4, np.random.default_rng(0)):
        x[...] = 99.0
    assert_batches_equal(buffer_rows(buf), before)


def test_train_step_on_ring_sample_matches_stacked_states():
    # a batch sampled from the ring trains exactly like the same rows
    # stacked by hand from RlState objects
    rng = np.random.default_rng(12)
    params = NafParams.init(rng, hidden=(8,))
    target = params.copy().v_net
    items = [random_transition(rng) for _ in range(40)]
    buf = ReplayBuffer(32)
    for tr in items:
        buf.push(*tr)
    ring_batch = buf.sample(16, np.random.default_rng(3))
    idx = np.random.default_rng(3).integers(0, len(buf), size=16)
    rows = [items[32 + i] if i < 8 else items[i] for i in idx]  # 8 rows evicted
    by_hand = (np.stack([RlState(*tr[0]) for tr in rows]),
               np.array([tr[1] for tr in rows]),
               np.stack([RlState(*tr[2]) for tr in rows]),
               np.array([tr[3] for tr in rows]),
               np.array([0.0 if tr[4] else 1.0 for tr in rows]))
    results = []
    for batch in (ring_batch, by_hand):
        p = params.copy()
        opt = opt_states_init(p)
        losses = [train_step(p, target, batch, block, opt, 0.001, 0.95)
                  for block in (NafParams.Q, NafParams.ALL, NafParams.ALL)]
        results.append((losses, p.flat))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


# -- TD target and loss


def test_td_target_terminal_is_reward():
    _, _, next_states, rewards, nonterminal = terminal_batch(-0.5)
    targets = td_targets(next_states, rewards, nonterminal, const_params(-2.0).v_net, 0.95)
    assert targets[0] == -0.5


def test_td_target_zero_gamma_is_reward():
    targets = td_targets(np.zeros((1, 6)), np.array([-0.7]), np.ones(1),
                         const_params(-2.0).v_net, 0.0)
    assert targets[0] == -0.7


def test_td_target_hand_case():
    # r = -0.5, gamma = 0.95, V(s') = -2  ->  -2.4
    targets = td_targets(np.zeros((1, 6)), np.array([-0.5]), np.ones(1),
                         const_params(-2.0).v_net, 0.95)
    assert targets[0] == pytest.approx(-2.4, abs=1e-12)


def test_batch_loss_zero_when_predictions_match():
    # zero-feature states give Q(s, 0) = V = 0; terminal targets r = 0
    params = const_params(0.0)
    loss, grad = fit_loss(terminal_batch(0.0), params, params.v_net)
    assert loss == 0.0 and np.all(grad == 0.0)


def test_batch_loss_hand_case():
    # Q = 0 everywhere (a = 0, V = 0); terminal rewards 1 and 3 give
    # errors 1 and 3 -> loss (1 + 9)/2 = 5
    params = const_params(0.0)
    loss, _ = fit_loss(terminal_batch(1.0, 3.0), params, params.v_net)
    assert loss == pytest.approx(5.0, abs=1e-12)


def test_batch_loss_single_item_square():
    params = const_params(0.0)
    loss, _ = fit_loss(terminal_batch(-0.3), params, params.v_net)
    assert loss == pytest.approx(0.09, abs=1e-15)


# -- exploration


def random_state_rows(rng, n):
    """n copies of one plausible state, as rows."""
    s = [rng.uniform(0, 35), rng.normal(), rng.normal(0, 2), rng.normal(0, 0.1),
         rng.normal(0, 0.1), rng.normal(0, 0.001)]
    return np.tile(s, (n, 1))


def test_explore_zero_sigma_is_greedy():
    rng = np.random.default_rng(7)
    params = NafParams.init(rng, hidden=(8,))
    for S in (random_state_rows(rng, 1), np.random.default_rng(1).normal(size=(20, 6))):
        a = explore_actions(S, params, 0.0, np.random.default_rng(0))
        assert np.array_equal(a, greedy_actions_batch(S, params))


def test_explore_mean_matches_mu():
    rng = np.random.default_rng(8)
    params = NafParams.init(rng, hidden=(8,))
    S = random_state_rows(rng, 10_000)
    mu = greedy_actions_batch(S[:1], params)[0]
    noise_rng = np.random.default_rng(99)
    one_row = [explore_actions(S[:1], params, 0.1, noise_rng)[0]
               for _ in range(10_000)]
    many_rows = explore_actions(S, params, 0.1, noise_rng)
    for samples in (one_row, many_rows):
        assert abs(np.mean(samples) - mu) < 0.003  # 3 sigma / sqrt(N)


def test_explore_clipped_to_cap():
    rng = np.random.default_rng(9)
    params = NafParams.init(rng, hidden=(8,))
    S = random_state_rows(rng, 1000)
    noise_rng = np.random.default_rng(0)
    one_row = [explore_actions(S[:1], params, 1.0, noise_rng)[0] for _ in range(1000)]
    many_rows = explore_actions(S, params, 1.0, noise_rng)
    for samples in (np.array(one_row), many_rows):
        assert np.all(np.abs(samples) <= A_CAP)
        assert np.any(np.abs(samples) == A_CAP)  # sigma 1 reaches the cap


# -- train step


def _params_and_batch(seed=0, n=16):
    rng = np.random.default_rng(seed)
    params = NafParams.init(rng, hidden=(8,))
    target = params.copy().v_net
    batch = stack([random_transition(rng) for _ in range(n)])
    return params, target, batch


def test_pretrain_freezes_greedy_heads():
    params, target, batch = _params_and_batch()
    head = params.span(NafParams.HEAD)
    frozen = params.flat[head].copy()
    opt = opt_states_init(params)
    for _ in range(5):
        train_step(params, target, batch, NafParams.Q, opt, 0.001, 0.95)
    assert np.array_equal(params.flat[head], frozen)
    assert np.all(opt.m[head] == 0.0) and opt.t == {NafParams.HEAD: 0, NafParams.Q: 5}
    # the value heads did move
    assert not np.array_equal(params.v_net.biases[-1], target.biases[-1])


def test_head_adam_step_count_starts_at_joint_stage():
    # the greedy head's first Adam step is its own step 1, however many
    # pretrain steps the curvature and value nets took: with zero moments
    # carried in, each parameter moves by lr * |g| / (|g| + eps)
    params, target, batch = _params_and_batch(5)
    opt = opt_states_init(params)
    for _ in range(5):
        train_step(params, target, batch, NafParams.Q, opt, 0.001, 0.95)
    head = params.span(NafParams.HEAD)
    before = params.flat[head].copy()
    states, actions, next_states, rewards, nonterminal = batch
    targets = td_targets(next_states, rewards, nonterminal, target, 0.95)
    _, grad = fit_gradients(states, actions, targets, params)
    g = np.abs(grad[head])
    lr = 0.001
    train_step(params, target, batch, NafParams.ALL, opt, lr, 0.95)
    assert opt.t == {NafParams.HEAD: 1, NafParams.Q: 6}
    moved = np.abs(params.flat[head] - before)
    big = g > 1e-4
    assert big.sum() > 10
    assert np.allclose(moved[big], lr * g[big] / (g[big] + 1e-8), rtol=1e-9)


def test_adam_steps_each_layout_block_inside_the_stepped_block():
    # a step moves the parameters and first moments of the stepped block
    # only, and counts one Adam step for each layout block inside it
    params, target, batch = _params_and_batch(8)
    opt = opt_states_init(params)
    for block, stepped in ((NafParams.Q, [NafParams.Q]),
                           (NafParams.ALL, [NafParams.HEAD, NafParams.Q])):
        before, m_before, t_before = params.flat.copy(), opt.m.copy(), dict(opt.t)
        train_step(params, target, batch, block, opt, 0.001, 0.95)
        outside = np.ones(params.flat.size, dtype=bool)
        outside[params.span(block)] = False
        for new, old in ((params.flat, before), (opt.m, m_before)):
            assert np.array_equal(new[outside], old[outside]), block
            assert np.all(new[~outside] != old[~outside]), block
        assert opt.t == {part: t + (part in stepped) for part, t in t_before.items()}


def test_train_step_backpropagates_only_the_stepped_nets(monkeypatch):
    params, target, batch = _params_and_batch(6)
    blocks = {id(stack): block for block, stack in params.stacks.items()}
    seen = []
    backward = nafq.net_backward

    def counted(net, *args):
        seen.append(blocks[id(net)])
        return backward(net, *args)

    monkeypatch.setattr(nafq, "net_backward", counted)
    opt = opt_states_init(params)
    train_step(params, target, batch, NafParams.Q, opt, 0.001, 0.95)
    assert seen == [NafParams.Q]
    seen.clear()
    train_step(params, target, batch, NafParams.ALL, opt, 0.001, 0.95)
    assert seen == [NafParams.ALL]


def test_pretrain_step_with_nonfinite_m_net_names_it():
    params, target, batch = _params_and_batch(7)
    params.m_net.weights[0][0, 0, 0] = math.nan  # one weight of the stack of one
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="m_net"):
        train_step(params, target, batch, NafParams.Q, opt_states_init(params),
                   0.001, 0.95)


def test_zero_lr_changes_nothing():
    params, target, batch = _params_and_batch(1)
    before = params.copy()
    train_step(params, target, batch, NafParams.ALL, opt_states_init(params), 0.0, 0.95)
    assert np.array_equal(params.flat, before.flat)


def test_unknown_stage_rejected():
    params, target, batch = _params_and_batch(2)
    with pytest.raises(ContractError):
        train_step(params, target, batch, NafParams.HEAD, opt_states_init(params),
                   0.001, 0.95)


def test_overfit_one_batch():
    params, target, batch = _params_and_batch(3, n=8)
    opt = opt_states_init(params)
    initial = fit_loss(batch, params, target)[0]
    loss = initial
    for _ in range(100):
        loss = train_step(params, target, batch, NafParams.ALL, opt, 0.01, 0.95)
    assert loss < 0.1 * initial


# -- target network


def test_sync_target_bit_exact_and_independent():
    params, _, _ = _params_and_batch(4)
    target = params.copy()
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = RlState(*rng.normal(size=6))
        a = float(rng.uniform(-0.5, 0.5))
        assert q_values_batch([s], [a], params)[0] == q_values_batch([s], [a], target)[0]
    params.v_net.biases[-1][0] += 1.0
    assert target.v_net.biases[-1][0] != params.v_net.biases[-1][0]


def test_copy_stacks_read_the_copy():
    # a stack carried over by the copy would hand the target the online views
    params, _, batch = _params_and_batch(9)
    states, _, next_states, rewards, nonterminal = batch
    online_mu = greedy_actions_batch(states, params)
    target = params.copy()
    for block, stack in params.stacks.items():
        assert target.stacks[block] is not stack
        assert np.shares_memory(target.stacks[block].flat, target.flat)
        assert not np.shares_memory(target.stacks[block].flat, params.flat)
    target_mu = greedy_actions_batch(states, target)
    targets = td_targets(next_states, rewards, nonterminal, target.v_net, 0.95)
    train_step(params, target.v_net, batch, NafParams.ALL, opt_states_init(params),
               0.01, 0.95)
    assert np.array_equal(greedy_actions_batch(states, target), target_mu)
    assert np.array_equal(
        td_targets(next_states, rewards, nonterminal, target.v_net, 0.95), targets)
    assert not np.array_equal(greedy_actions_batch(states, params), online_mu)


# Minor page faults per gradient step of a training run at the default
# nets and batch of 64, in a fresh interpreter, after its first 100 steps.
# The run takes about 450 steps in each stage.  The argument is the size of
# a block allocated before anything else, which shifts where the heap's
# blocks land.
FAULTS_PER_STEP = """
import resource
import sys
heap_shift = bytearray(int(sys.argv[1]))
from nafdrive import learner
from nafdrive.learner import TrainConfig, run_training
from nafdrive.simworld import WorldConfig

train_step = learner.train_step
faults = []

def counted(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return train_step(*args)

learner.train_step = counted
run_training(TrainConfig(total_steps=1200, pretrain_steps=750, checkpoint_schedule=[]),
             WorldConfig())
print(len(faults), (faults[-1] - faults[100]) / (len(faults) - 101))
"""


def test_training_steps_do_not_fault_pages():
    # A step whose blocks glibc maps and unmaps, or whose heap top it trims
    # and grows again, faults tens to hundreds of pages a step; one that
    # reuses heap memory faults none.  Which of the two happens can turn on
    # where the blocks land, so every one of a few heap layouts is checked.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for shift in (0, 9_000, 33_000):
        proc = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP, str(shift)], env=env,
                              capture_output=True, text=True, check=True)
        steps, per_step = proc.stdout.split()
        assert int(steps) > 800 and float(per_step) < 2.0, (shift, proc.stdout)


# -- schedules and config


def test_sigma_schedule_endpoints_and_midpoint():
    cfg = TrainConfig(total_steps=1001, sigma_start=0.1, sigma_end=0.01)
    assert sigma_at(cfg, 1) == pytest.approx(0.1)
    assert sigma_at(cfg, 1001) == pytest.approx(0.01)
    assert sigma_at(cfg, 501) == pytest.approx(0.055)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(gamma=1.0).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(sigma_start=0.01, sigma_end=0.1).validate()
    with pytest.raises(ConfigurationError, match="step 40000 "):
        TrainConfig(total_steps=400).validate()  # the published schedule
    with pytest.raises(ConfigurationError, match="step 0 "):
        TrainConfig(total_steps=400, checkpoint_schedule=[400, 0]).validate()
    TrainConfig().validate()  # published defaults are valid


def test_make_rngs_named_streams_deterministic():
    a = make_rngs(11)
    b = make_rngs(11)
    assert set(a) == {"init", "spawn", "trigger", "explore", "replay"}
    for name in a:
        assert a[name].uniform() == b[name].uniform()
    # distinct streams
    c = make_rngs(11)
    assert c["spawn"].uniform() != c["trigger"].uniform()


# -- training loop


def small_train_cfg(**kw):
    """1000 steps with pretrain 500: at seeds 0 and 9 the buffer first holds
    a batch before step 500, so both stages take gradient steps."""
    base = dict(total_steps=1000, pretrain_steps=500, target_sync_every=100,
                checkpoint_schedule=[500, 1000], batch_size=16,
                buffer_capacity=1000, loss_log_every=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def run_trained(cfg: TrainConfig, **kw):
    """run_training that must raise no RuntimeWarning, log a loss in each
    stage and close at least one episode; its loss rows and episode rows."""
    loss_rows, episode_rows = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_training(cfg, WorldConfig(), loss_rows=loss_rows,
                     episode_rows=episode_rows, **kw)
    logged = [step for step, loss in loss_rows if loss is not None]
    assert logged and logged[0] <= cfg.pretrain_steps < logged[-1]
    assert episode_rows
    return loss_rows, episode_rows


def test_run_training_loss_row_count():
    loss_rows, _ = run_trained(small_train_cfg())
    assert len(loss_rows) == 1000 // 20
    assert [s for s, _ in loss_rows] == list(range(20, 1001, 20))


def test_run_training_checkpoint_hook_fires_on_schedule():
    seen = []
    run_trained(small_train_cfg(),
                checkpoint_hook=lambda step, params: seen.append(step))
    assert seen == [500, 1000]


def test_run_training_deterministic():
    a_loss, a_episodes = run_trained(small_train_cfg(seed=9))
    b_loss, b_episodes = run_trained(small_train_cfg(seed=9))
    assert a_loss == b_loss
    assert [(e.vehicle_id, e.R, e.outcome) for e in a_episodes] == \
        [(e.vehicle_id, e.R, e.outcome) for e in b_episodes]


def test_run_training_rewards_nonpositive():
    # seed 2 first holds a batch at step 647, so its pretrain runs to 700
    _, episode_rows = run_trained(small_train_cfg(seed=2, pretrain_steps=700,
                                                  checkpoint_schedule=[1000]))
    for ep in episode_rows:
        assert ep.R_acce <= 0 and ep.R_rate <= 0 and ep.R_dev <= 0
        assert ep.R == ep.R_acce + ep.R_rate + ep.R_dev


def test_run_training_syncs_one_target_value_net_in_place(monkeypatch):
    # the target is one value net of the run's own, which each sync
    # overwrites with the online value net and gradient steps then leave
    targets = []
    train_step = learner.train_step

    def noted_train_step(params, target_v, *args):
        if not targets:
            targets.append(target_v)
        assert target_v is targets[0]
        return train_step(params, target_v, *args)

    monkeypatch.setattr(learner, "train_step", noted_train_step)
    seen = []

    def hook(step, params):
        target_v = targets[0]
        assert not np.shares_memory(target_v.flat, params.flat)
        seen.append((step, target_v.flat.tobytes() == params.v_net.flat.tobytes()))

    # syncs every 100 steps; step 950 is 50 gradient steps after one
    run_trained(small_train_cfg(checkpoint_schedule=[500, 950, 1000]),
                checkpoint_hook=hook)
    assert seen == [(500, True), (950, False), (1000, True)]


def test_pretrain_ending_before_the_first_gradient_step_warns():
    cfg = small_train_cfg(total_steps=300, pretrain_steps=1, loss_log_every=1,
                          checkpoint_schedule=[])
    loss_rows = []
    with pytest.warns(RuntimeWarning, match="pretrain_steps 1 ") as record:
        run_training(cfg, WorldConfig(), loss_rows=loss_rows)
    first = next(step for step, loss in loss_rows if loss is not None)
    assert len(record) == 1
    assert f"first gradient step, at step {first}," in str(record[0].message)
