"""Replay memory, TD targets, loss, freezing schedule, training loop."""

import math

import numpy as np
import pytest

from nafdrive.errors import ConfigurationError, ContractError
from nafdrive.learner import (JOINT, PRETRAIN, ReplayBuffer, TrainConfig,
                              Transition, _batch_arrays, _targets, batch_loss,
                              make_rngs, opt_states_init, run_training,
                              sigma_at, sync_target, td_target, train_step)
from nafdrive.nafq import Action, NafParams, RlState, fit_gradients, q_value
from nafdrive.simworld import WorldConfig


def const_params(v_bias: float) -> NafParams:
    """Single affine layer with zero weights per net; V(s) = v_bias."""
    params = NafParams([6, 1])
    params.v_net.biases[0][0] = v_bias
    return params


def zero_state():
    return RlState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def random_transition(rng) -> Transition:
    s = RlState(*rng.normal(size=6))
    s2 = RlState(*rng.normal(size=6))
    return Transition(s, Action(float(rng.uniform(-0.5, 0.5))), s2,
                      float(-abs(rng.normal())), bool(rng.uniform() < 0.1))


# -- replay buffer


def test_buffer_push_to_empty():
    buf = ReplayBuffer(4)
    buf.push(random_transition(np.random.default_rng(0)))
    assert len(buf) == 1


def test_buffer_insertion_order_preserved():
    buf = ReplayBuffer(5)
    items = [random_transition(np.random.default_rng(i)) for i in range(4)]
    for tr in items:
        buf.push(tr)
    assert buf.contents() == items


def test_buffer_ring_eviction():
    buf = ReplayBuffer(2)
    items = [random_transition(np.random.default_rng(i)) for i in range(3)]
    for tr in items:
        buf.push(tr)
    assert len(buf) == 2
    assert set(id(t) for t in buf.contents()) == {id(items[1]), id(items[2])}


def test_buffer_invalid_capacity():
    with pytest.raises(ConfigurationError):
        ReplayBuffer(0)


def test_sample_empty_rejected():
    with pytest.raises(ContractError):
        ReplayBuffer(4).sample(1, np.random.default_rng(0))


def test_sample_single_item_with_replacement():
    buf = ReplayBuffer(4)
    tr = random_transition(np.random.default_rng(0))
    buf.push(tr)
    batch = buf.sample(3, np.random.default_rng(1))
    assert batch == [tr, tr, tr]


def test_sample_deterministic_given_seed():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(random_transition(np.random.default_rng(i)))
    a = buf.sample(8, np.random.default_rng(5))
    b = buf.sample(8, np.random.default_rng(5))
    assert a == b


def test_sample_uniformity():
    buf = ReplayBuffer(10)
    items = [random_transition(np.random.default_rng(i)) for i in range(10)]
    for tr in items:
        buf.push(tr)
    rng = np.random.default_rng(7)
    counts = dict.fromkeys(range(10), 0)
    n = 100_000
    index_of = {id(tr): i for i, tr in enumerate(items)}
    for tr in buf.sample(n, rng):
        counts[index_of[id(tr)]] += 1
    expected = n / 10
    sigma = math.sqrt(n * 0.1 * 0.9)
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


# -- TD target and loss


def test_td_target_terminal_is_reward():
    tr = Transition(zero_state(), Action(0.0), zero_state(), -0.5, True)
    params = const_params(-2.0)
    assert td_target(tr, params, 0.95) == -0.5


def test_td_target_zero_gamma_is_reward():
    tr = Transition(zero_state(), Action(0.0), zero_state(), -0.7, False)
    params = const_params(-2.0)
    assert td_target(tr, params, 0.0) == -0.7


def test_td_target_hand_case():
    # r = -0.5, gamma = 0.95, V(s') = -2  ->  -2.4
    tr = Transition(zero_state(), Action(0.0), zero_state(), -0.5, False)
    params = const_params(-2.0)
    assert td_target(tr, params, 0.95) == pytest.approx(-2.4, abs=1e-12)


def test_batch_loss_zero_when_predictions_match():
    # zero-feature states give Q(s, 0) = V = 0; terminal targets r = 0
    params = const_params(0.0)
    batch = [Transition(zero_state(), Action(0.0), zero_state(), 0.0, True)]
    loss, errors = batch_loss(batch, params, params, 0.95)
    assert loss == 0.0 and np.all(errors == 0.0)


def test_batch_loss_hand_case():
    # Q = 0 everywhere (a = 0, V = 0); terminal rewards 1 and 3 give
    # errors 1 and 3 -> loss (1 + 9)/2 = 5
    params = const_params(0.0)
    batch = [Transition(zero_state(), Action(0.0), zero_state(), 1.0, True),
             Transition(zero_state(), Action(0.0), zero_state(), 3.0, True)]
    loss, errors = batch_loss(batch, params, params, 0.95)
    assert loss == pytest.approx(5.0, abs=1e-12)
    assert sorted(errors.tolist()) == [1.0, 3.0]


def test_batch_loss_single_item_square():
    params = const_params(0.0)
    batch = [Transition(zero_state(), Action(0.0), zero_state(), -0.3, True)]
    loss, _ = batch_loss(batch, params, params, 0.95)
    assert loss == pytest.approx(0.09, abs=1e-15)


def test_batch_loss_empty_rejected():
    params = NafParams.init(0, hidden=(8,))
    with pytest.raises(ContractError):
        batch_loss([], params, params, 0.95)


# -- train step


def _params_and_batch(seed=0, n=16):
    rng = np.random.default_rng(seed)
    params = NafParams.init(rng, hidden=(8,))
    target = sync_target(params)
    batch = [random_transition(rng) for _ in range(n)]
    return params, target, batch


def test_pretrain_freezes_greedy_heads():
    params, target, batch = _params_and_batch()
    head = params.span(*NafParams.MU_NET_NAMES)
    frozen = params.flat[head].copy()
    opt = opt_states_init(params)
    for _ in range(5):
        train_step(params, target, batch, PRETRAIN, opt, 0.001, 0.95)
    assert np.array_equal(params.flat[head], frozen)
    assert np.all(opt.m[head] == 0.0) and opt.t == {"head": 0, "q": 5}
    # the value heads did move
    assert not np.array_equal(params.v_net.biases[-1], target.v_net.biases[-1])


def test_head_adam_step_count_starts_at_joint_stage():
    # the greedy head's first Adam step is its own step 1, however many
    # pretrain steps the curvature and value nets took: with zero moments
    # carried in, each parameter moves by lr * |g| / (|g| + eps)
    params, target, batch = _params_and_batch(5)
    opt = opt_states_init(params)
    for _ in range(5):
        train_step(params, target, batch, PRETRAIN, opt, 0.001, 0.95)
    head = params.span(*NafParams.MU_NET_NAMES)
    before = params.flat[head].copy()
    states, actions, next_states, rewards, nonterminal = _batch_arrays(batch)
    targets = _targets(next_states, rewards, nonterminal, target, 0.95)
    _, grad = fit_gradients(states, actions, targets, params)
    g = np.abs(grad[head])
    lr = 0.001
    train_step(params, target, batch, JOINT, opt, lr, 0.95)
    assert opt.t == {"head": 1, "q": 6}
    moved = np.abs(params.flat[head] - before)
    big = g > 1e-4
    assert big.sum() > 10
    assert np.allclose(moved[big], lr * g[big] / (g[big] + 1e-8), rtol=1e-9)


def test_zero_lr_changes_nothing():
    params, target, batch = _params_and_batch(1)
    before = params.copy()
    train_step(params, target, batch, JOINT, opt_states_init(params), 0.0, 0.95)
    assert np.array_equal(params.flat, before.flat)


def test_unknown_stage_rejected():
    params, target, batch = _params_and_batch(2)
    with pytest.raises(ConfigurationError):
        train_step(params, target, batch, "warmup", opt_states_init(params),
                   0.001, 0.95)


def test_overfit_one_batch():
    params, target, batch = _params_and_batch(3, n=8)
    opt = opt_states_init(params)
    initial = batch_loss(batch, params, target, 0.95)[0]
    loss = initial
    for _ in range(100):
        loss = train_step(params, target, batch, JOINT, opt, 0.01, 0.95)
    assert loss < 0.1 * initial


# -- target network


def test_sync_target_bit_exact_and_independent():
    params, _, _ = _params_and_batch(4)
    target = sync_target(params)
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = RlState(*rng.normal(size=6))
        a = Action(float(rng.uniform(-0.5, 0.5)))
        assert q_value(s, a, params) == q_value(s, a, target)
    params.v_net.biases[-1][0] += 1.0
    assert target.v_net.biases[-1][0] != params.v_net.biases[-1][0]


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
    base = dict(total_steps=400, pretrain_steps=200, target_sync_every=100,
                checkpoint_schedule=[200, 400], batch_size=16,
                buffer_capacity=1000, loss_log_every=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_run_training_loss_row_count():
    result = run_training(small_train_cfg(), WorldConfig())
    assert len(result.loss_rows) == 400 // 20
    assert [s for s, _ in result.loss_rows] == list(range(20, 401, 20))


def test_run_training_checkpoint_hook_fires_on_schedule():
    seen = []
    run_training(small_train_cfg(), WorldConfig(),
                 checkpoint_hook=lambda step, state: seen.append(step))
    assert seen == [200, 400]


def test_run_training_deterministic():
    a = run_training(small_train_cfg(seed=9), WorldConfig())
    b = run_training(small_train_cfg(seed=9), WorldConfig())
    assert a.loss_rows == b.loss_rows
    assert [(e.vehicle_id, e.R, e.outcome) for e in a.episode_rows] == \
        [(e.vehicle_id, e.R, e.outcome) for e in b.episode_rows]


def test_run_training_rewards_nonpositive():
    result = run_training(small_train_cfg(seed=2, total_steps=600,
                                          checkpoint_schedule=[600]),
                          WorldConfig())
    for ep in result.episode_rows:
        assert ep.R_acce <= 0 and ep.R_rate <= 0 and ep.R_dev <= 0
        assert ep.R == ep.R_acce + ep.R_rate + ep.R_dev
