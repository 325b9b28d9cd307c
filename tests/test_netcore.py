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
    net = net_init([2, 3], seed=0)  # a lone net is a stack of one
    assert len(net.weights) == 1 and net.weights[0].shape == (1, 3, 2)
    assert len(net.biases) == 1 and net.biases[0].shape == (1, 3)
    assert np.all(net.biases[0] == 0.0)


def test_views_share_the_flat_vector():
    # layout W_0 (row-major), b_0, W_1, b_1
    net = Network([2, 3, 1], np.arange(13.0))
    assert net.weights[0].tolist() == [[[0, 1], [2, 3], [4, 5]]]
    assert net.biases[0].tolist() == [[6, 7, 8]]
    assert net.weights[1].tolist() == [[[9, 10, 11]]]
    assert net.biases[1].tolist() == [[12]]
    net.biases[1][0, 0] = -1.0
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
    assert Y.shape == (1, 5, 2)
    for i in range(5):
        y, _ = net_forward(net, X[i:i + 1])
        assert np.allclose(Y[0, i], y[0, 0], atol=0.0)


def test_forward_dim_mismatch():
    net = net_init([3, 2], seed=0)
    for x in (np.ones((1, 4)), np.ones(3)):  # a wrong width, and one row as 1-D
        with pytest.raises(ContractError):
            net_forward(net, x)


def test_forward_cache_is_each_layer_input_once():
    net = net_init([3, 5, 4, 2], seed=3)
    x = np.random.default_rng(4).normal(size=(7, 3))
    _, cache = net_forward(net, x)
    assert len(cache) == len(net.weights)
    assert all(type(h) is np.ndarray for h in cache)
    assert np.array_equal(cache[0], x)
    for k in range(len(net.weights) - 1):  # cache[k + 1] is layer k's tanh output
        assert np.array_equal(cache[k + 1],
                              np.tanh(cache[k] @ net.weights[k].mT + net.biases[k][:, None]))


def test_backward_linear_layer_derivatives():
    # y = w*x + b: dw = x, db = 1
    net = Network([1, 1], np.array([1.7, 0.0]))
    _, cache = net_forward(net, np.array([[0.3]]))
    grad = net_backward(net, cache, np.ones((1, 1, 1)))
    assert grad[0] == pytest.approx(0.3)
    assert grad[1] == pytest.approx(1.0)


def test_backward_tanh_at_zero_passes_upstream():
    # tanh'(0) = 1, so with zero input the hidden unit is transparent: the
    # hidden bias b_0 gets the output weight w_1 as its gradient
    net = Network([1, 1, 1], np.array([2.0, 0.0, 3.0, 0.0]))  # w_0, b_0, w_1, b_1
    _, cache = net_forward(net, np.zeros((1, 1)))
    grad = net_backward(net, cache, np.ones((1, 1, 1)))
    assert grad[1] == pytest.approx(3.0)


def test_backward_batch_accumulates():
    net = net_init([3, 4, 1], seed=2)
    X = np.random.default_rng(1).normal(size=(6, 3))
    _, cache = net_forward(net, X)
    g_all = net_backward(net, cache, np.ones((1, 6, 1)))
    acc = np.zeros(net.flat.size)
    for i in range(6):
        _, c = net_forward(net, X[i:i + 1])
        acc += net_backward(net, c, np.ones((1, 1, 1)))
    assert np.allclose(g_all, acc, atol=1e-12)


def test_backward_writes_into_out():
    net = net_init([3, 4, 1], seed=2)
    _, cache = net_forward(net, np.ones((1, 3)))
    out = np.full(net.flat.size, np.nan)
    grad = net_backward(net, cache, np.ones((1, 1, 1)), out)
    assert grad is out and np.all(np.isfinite(out))
    with pytest.raises(ContractError):
        net_backward(net, cache, np.ones((1, 1, 1)), np.empty(net.flat.size + 1))
    for upstream in (np.ones(1), np.ones((1, 1))):  # upstream must be (count, n, out)
        with pytest.raises(ContractError):
            net_backward(net, cache, upstream, out)


def test_backward_stale_cache_rejected():
    net3 = net_init([3, 4, 1], seed=0)
    net2 = net_init([2, 4, 1], seed=0)
    _, cache = net_forward(net2, np.ones((1, 2)))
    with pytest.raises(ContractError):
        net_backward(net3, cache, np.ones((1, 1)))


def lone_net_reference(weights, biases, x, upstream):
    """One net's output (n, out) and parameter gradient in plain 2-D numpy,
    from its (fan_out, fan_in) weights and (fan_out,) biases: the bits a
    stack must give for each of its nets."""
    inputs, h = [], x
    for k, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w.T
        h += b
        if k < len(weights) - 1:
            np.tanh(h, out=h)
    grads, delta = [], upstream
    for k in range(len(weights) - 1, -1, -1):
        grads[:0] = [(delta.T @ inputs[k]).ravel(), delta.sum(axis=0)]
        if k > 0:
            delta = (delta @ weights[k]) * (1.0 - inputs[k] ** 2)
    return h, np.concatenate(grads)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [3, 5])
def test_stack_equals_each_net_alone_bit_for_bit(count):
    # OpenBLAS takes different kernels at 1, 2, small and large row counts,
    # and a numpy fallback from BLAS sums in another order; either would
    # show in the last bits somewhere in this range
    dims = [6, 64, 64, 1]
    size = param_count(dims)
    rng = np.random.default_rng(count)
    flat = rng.normal(scale=0.3, size=count * size)
    stack = Network(dims, flat, count)
    for view in stack.weights + stack.biases:
        assert view.base is not None and np.shares_memory(view, flat)
    for n in (1, 2, 3, 18, 19, 64, 256):
        x = rng.normal(size=(n, 6))
        upstream = rng.normal(size=(count, n, 1))
        y, cache = net_forward(stack, x)
        grad = net_backward(stack, cache, upstream)
        assert y.shape == (count, n, 1)
        for i in range(count):
            want_y, want_grad = lone_net_reference(
                [w[i] for w in stack.weights], [b[i] for b in stack.biases], x, upstream[i])
            alone = Network(dims, flat[i * size:(i + 1) * size])
            alone_y, alone_cache = net_forward(alone, x)
            assert same_bits(y[i], want_y) and same_bits(alone_y[0], want_y), (n, i)
            assert same_bits(grad[i * size:(i + 1) * size], want_grad), (n, i)
            assert same_bits(net_backward(alone, alone_cache, upstream[i:i + 1]), want_grad)
        # a sub-stack backpropagates over its rows of the whole stack's
        # cache, as views, and gives its nets' slices of the whole gradient
        for i in range(count):
            for j in range(i + 1, count + 1):
                sub = Network(dims, flat[i * size:j * size], j - i)
                rows = [cache[0]] + [layer[i:j] for layer in cache[1:]]
                assert all(np.shares_memory(r, c) for r, c in zip(rows, cache))
                assert same_bits(net_backward(sub, rows, upstream[i:j]),
                                 grad[i * size:j * size]), (n, i, j)


def test_stack_reads_the_flat_vector_it_was_built_on():
    dims = [6, 8, 1]
    size = param_count(dims)
    flat = np.random.default_rng(0).normal(size=3 * size)
    stack = Network(dims, flat, 3)
    x = np.ones((2, 6))
    before, _ = net_forward(stack, x)
    flat[2 * size - 1] += 1.0  # the output bias of the middle net
    after, _ = net_forward(stack, x)
    assert np.allclose(after[1], before[1] + 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(after[[0, 2]], before[[0, 2]])
    with pytest.raises(ContractError):
        Network(dims, flat[:-1], 3)


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
