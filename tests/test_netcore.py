"""Dense-network core: init, forward, backward, finite differences, Adam."""

import numpy as np
import pytest

from nafdrive.errors import ConfigurationError, ContractError, NumericalError
from nafdrive.netcore import (Network, adaptive_update, finite_diff_check,
                              net_backward, net_forward, net_init, param_count)


def sum_objective(net, x):
    return lambda: float(np.sum(net_forward(net, x)[0]))


def sum_gradient(net, x):
    y, cache = net_forward(net, x)
    return net_backward(net, cache, np.ones_like(y))


def test_init_shapes_and_zero_biases():
    net = net_init([2, 3], seed=0)
    assert len(net.weights) == 1 and net.weights[0].shape == (3, 2)
    assert len(net.biases) == 1 and net.biases[0].shape == (3,)
    assert np.all(net.biases[0] == 0.0)


def test_views_share_the_flat_vector():
    # layout W_0 (row-major), b_0, W_1, b_1
    net = Network([2, 3, 1], np.arange(13.0))
    assert net.weights[0].tolist() == [[0, 1], [2, 3], [4, 5]]
    assert net.biases[0].tolist() == [6, 7, 8]
    assert net.weights[1].tolist() == [[9, 10, 11]]
    assert net.biases[1].tolist() == [12]
    net.biases[1][0] = -1.0
    assert net.flat[12] == -1.0
    with pytest.raises(ContractError):
        Network([2, 3, 1], np.zeros(12))


def test_init_param_count():
    net = net_init([6, 64, 64, 1], seed=0)
    assert net.flat.size == param_count([6, 64, 64, 1]) == \
        6 * 64 + 64 + 64 * 64 + 64 + 64 * 1 + 1 == 4673


def test_init_deterministic():
    a = net_init([6, 64, 1], seed=7)
    b = net_init([6, 64, 1], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_uniform_bounds():
    net = net_init([6, 64, 1], seed=3)
    for w, fan_in, fan_out in zip(net.weights, [6, 64], [64, 1]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)


def test_init_invalid_dims():
    with pytest.raises(ConfigurationError):
        net_init([5], seed=0)
    with pytest.raises(ConfigurationError):
        net_init([3, 0, 1], seed=0)


def test_forward_zero_net_is_zero():
    net = net_init([4, 8, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    y, _ = net_forward(net, np.ones((1, 4)))
    assert np.all(y == 0.0)


def test_forward_identity_layer():
    net = Network([1, 1], np.array([1.0, 0.0]))  # w = 1, b = 0
    y, _ = net_forward(net, np.array([[0.5]]))
    assert y[0, 0] == 0.5


def test_forward_single_hidden_tanh():
    net = Network([1, 1, 1], np.array([1.0, 0.0, 1.0, 0.0]))
    y, _ = net_forward(net, np.array([[0.5]]))
    assert y[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-15)


def test_forward_batch_matches_single():
    net = net_init([3, 8, 2], seed=1)
    X = np.random.default_rng(0).normal(size=(5, 3))
    Y, _ = net_forward(net, X)
    for i in range(5):
        y, _ = net_forward(net, X[i:i + 1])
        assert np.allclose(Y[i], y[0], atol=0.0)


def test_forward_dim_mismatch():
    net = net_init([3, 2], seed=0)
    for x in (np.ones((1, 4)), np.ones(3)):  # a wrong width, and one row as 1-D
        with pytest.raises(ContractError):
            net_forward(net, x)


def test_backward_linear_layer_derivatives():
    # y = w*x + b: dw = x, db = 1
    net = Network([1, 1], np.array([1.7, 0.0]))
    _, cache = net_forward(net, np.array([[0.3]]))
    grad = net_backward(net, cache, np.ones((1, 1)))
    assert grad[0] == pytest.approx(0.3)
    assert grad[1] == pytest.approx(1.0)


def test_backward_tanh_at_zero_passes_upstream():
    # tanh'(0) = 1, so with zero input the hidden unit is transparent: the
    # hidden bias b_0 gets the output weight w_1 as its gradient
    net = Network([1, 1, 1], np.array([2.0, 0.0, 3.0, 0.0]))  # w_0, b_0, w_1, b_1
    _, cache = net_forward(net, np.zeros((1, 1)))
    grad = net_backward(net, cache, np.ones((1, 1)))
    assert grad[1] == pytest.approx(3.0)


def test_backward_batch_accumulates():
    net = net_init([3, 4, 1], seed=2)
    X = np.random.default_rng(1).normal(size=(6, 3))
    _, cache = net_forward(net, X)
    g_all = net_backward(net, cache, np.ones((6, 1)))
    acc = np.zeros(net.flat.size)
    for i in range(6):
        _, c = net_forward(net, X[i:i + 1])
        acc += net_backward(net, c, np.ones((1, 1)))
    assert np.allclose(g_all, acc, atol=1e-12)


def test_backward_writes_into_out():
    net = net_init([3, 4, 1], seed=2)
    _, cache = net_forward(net, np.ones((1, 3)))
    out = np.full(net.flat.size, np.nan)
    grad = net_backward(net, cache, np.ones((1, 1)), out)
    assert grad is out and np.all(np.isfinite(out))
    with pytest.raises(ContractError):
        net_backward(net, cache, np.ones((1, 1)), np.empty(net.flat.size + 1))
    with pytest.raises(ContractError):  # upstream must be (n, out)
        net_backward(net, cache, np.ones(1), out)


def test_backward_stale_cache_rejected():
    net3 = net_init([3, 4, 1], seed=0)
    net2 = net_init([2, 4, 1], seed=0)
    _, cache = net_forward(net2, np.ones((1, 2)))
    with pytest.raises(ContractError):
        net_backward(net3, cache, np.ones((1, 1)))


def test_finite_diff_zero_net():
    net = net_init([3, 4, 1], seed=0)
    net.flat[:] = 0.0
    x = np.ones((1, 3))
    assert finite_diff_check(sum_objective(net, x), net.flat, sum_gradient(net, x)) < 1e-6


def test_finite_diff_random_net():
    net = net_init([3, 8, 1], seed=5)
    x = np.random.default_rng(5).normal(size=(1, 3))
    assert finite_diff_check(sum_objective(net, x), net.flat, sum_gradient(net, x)) < 1e-5


def test_finite_diff_detects_corrupted_gradient():
    net = net_init([3, 8, 1], seed=6)
    x = np.random.default_rng(6).normal(size=(1, 3))
    grad = sum_gradient(net, x)
    grad[0] *= 1.10  # +10% on one weight
    assert finite_diff_check(sum_objective(net, x), net.flat, grad) >= 0.05


def adam_state(net):
    return np.zeros(net.flat.size), np.zeros(net.flat.size)


def test_adam_zero_gradients_keep_parameters():
    net = net_init([2, 3, 1], seed=0)
    before = net.flat.copy()
    m, v = adam_state(net)
    assert adaptive_update(net.flat, np.zeros_like(m), m, v, 0, lr=0.1) == 1
    assert np.array_equal(net.flat, before)


def test_adam_zero_lr_keeps_parameters():
    net = net_init([2, 3, 1], seed=0)
    before = net.flat.copy()
    m, v = adam_state(net)
    adaptive_update(net.flat, np.ones_like(m), m, v, 0, lr=0.0)
    assert np.array_equal(net.flat, before)


def test_adam_first_step_magnitude_near_lr():
    # bias-corrected first step: delta = -lr * g / (|g| + eps'), |delta| ~ lr
    net = Network([1, 1], np.zeros(2))
    m, v = adam_state(net)
    g = 0.37
    adaptive_update(net.flat, np.array([g, 0.0]), m, v, 0, lr=0.01)
    assert net.weights[0][0, 0] == pytest.approx(-0.01, rel=1e-5)


def test_adam_rejects_nonfinite_gradient():
    net = net_init([2, 3, 1], seed=0)
    m, v = adam_state(net)
    grad = np.zeros_like(m)
    grad[0] = np.nan
    with pytest.raises(NumericalError):
        adaptive_update(net.flat, grad, m, v, 0, lr=0.01)
