"""Quadratic Q-function and its structured greedy head."""

import math

import numpy as np
import pytest

from nafdrive.errors import NumericalError
from nafdrive.errors import ContractError
from nafdrive.nafq import (A_CAP, M_EPS, T_MAX, T_MIN, Action, NafParams,
                           RlState, deviation_features, explore_action,
                           greedy_action, m_value, mu_action,
                           q_gradients_batch, q_value, v_value)
from nafdrive.netcore import finite_diff_check


def const_params(amax_bias=0.0, beta_bias=0.0, ttrans_bias=0.0,
                 m_bias=0.0, v_bias=0.0) -> NafParams:
    """Single affine layer with zero weights per net: each outputs its bias."""
    params = NafParams([6, 1])
    biases = (amax_bias, beta_bias, ttrans_bias, m_bias, v_bias)
    for net, bias in zip(params.nets().values(), biases):
        net.biases[0][0] = bias
    return params


def q_gradient(state, action, params):
    grad, _ = q_gradients_batch(state.as_array()[None, :], [action.a_yaw],
                                [1.0], params)
    return grad


def random_state(rng) -> RlState:
    return RlState(v=float(rng.uniform(0, 35)), a_lng=float(rng.normal()),
                   delta_d_lat=float(rng.normal(0, 2)),
                   theta=float(rng.normal(0, 0.1)),
                   omega=float(rng.normal(0, 0.1)),
                   c=float(rng.normal(0, 0.001)))


# -- deviation features


def test_features_zero_theta_gives_zero_lateral_velocity():
    f = deviation_features(RlState(25.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert f.delta_v == 0.0


def test_features_zero_state():
    f = deviation_features(RlState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert (f.delta_d, f.delta_v, f.delta_phi) == (0.0, 0.0, 0.0)


def test_features_hand_case():
    f = deviation_features(RlState(20.0, 0.0, 1.875, 0.05, 0.0, 0.0))
    assert f.delta_v == pytest.approx(20.0 * math.sin(0.05), abs=1e-12)
    assert f.delta_v == pytest.approx(0.9996, abs=1e-4)
    assert f.delta_d == 1.875 and f.delta_phi == 0.05


# -- greedy head


def test_mu_zero_features_gives_zero_action():
    rng = np.random.default_rng(0)
    params = NafParams.init(rng, hidden=(8,))
    a, _ = mu_action(RlState(20.0, 0.0, 0.0, 0.0, 0.1, 0.0), params)
    assert a.a_yaw == 0.0


def test_mu_bounded_by_cap():
    rng = np.random.default_rng(1)
    for _ in range(100):
        params = NafParams.init(rng, hidden=(8,))
        a, heads = mu_action(random_state(rng), params)
        assert abs(a.a_yaw) < heads.a_max <= A_CAP


def test_mu_hand_case():
    # heads fixed at T = 2, a_max = 0.5, beta = 1; state gives
    # a_tmp = 1.875/4 = 0.46875, mu = 0.5 * tanh(0.46875)
    amax_bias = math.log(5.0)            # 0.6 * sigmoid = 0.5
    beta_bias = math.log(math.e - 1.0)   # softplus = 1
    ttrans_bias = math.log(1.5 / 8.0)    # 0.5 + 9.5 * sigmoid = 2
    params = const_params(amax_bias, beta_bias, ttrans_bias)
    a, heads = mu_action(RlState(20.0, 0.0, 1.875, 0.0, 0.0, 0.0), params)
    assert heads.a_max == pytest.approx(0.5, abs=1e-12)
    assert heads.beta_sen == pytest.approx(1.0, abs=1e-12)
    assert heads.t_trns == pytest.approx(2.0, abs=1e-12)
    assert heads.a_tmp == pytest.approx(0.46875, abs=1e-12)
    assert a.a_yaw == pytest.approx(0.5 * math.tanh(0.46875), abs=1e-12)
    assert a.a_yaw == pytest.approx(0.2186, abs=1e-4)


def test_mu_odd_in_atmp_with_heads_fixed():
    # with constant heads, mu = a_max * tanh(beta * a_tmp) is odd in a_tmp;
    # zero yaw keeps the velocity-angle product term out so flipping the
    # lateral deviation negates a_tmp exactly
    params = const_params()
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = float(rng.uniform(0, 35))
        dd = float(rng.normal(0, 2))
        s = RlState(v, 0.0, dd, 0.0, 0.0, 0.0)
        mirrored = RlState(v, 0.0, -dd, 0.0, 0.0, 0.0)
        a, h = mu_action(s, params)
        am, hm = mu_action(mirrored, params)
        assert hm.a_tmp == pytest.approx(-h.a_tmp, abs=1e-12)
        assert am.a_yaw == pytest.approx(-a.a_yaw, abs=1e-12)


def test_nonfinite_head_error_names_network():
    params = const_params(amax_bias=math.nan)
    with pytest.raises(NumericalError, match="amax_net"):
        mu_action(RlState(20.0, 0.0, 1.0, 0.0, 0.0, 0.0), params)


# -- curvature and value heads


def test_m_value_raw_zero():
    params = const_params()
    m = m_value(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params)
    assert m == pytest.approx(-math.log(2.0) - M_EPS, abs=1e-12)
    assert m == pytest.approx(-0.6941, abs=1e-4)


def test_m_value_always_negative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = NafParams.init(rng, hidden=(8,))
        assert m_value(random_state(rng), params) <= -M_EPS


def test_m_value_limit_is_minus_eps():
    params = const_params(m_bias=-50.0)  # softplus -> 0
    m = m_value(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params)
    assert m == pytest.approx(-M_EPS, abs=1e-12)


def test_v_value_zero_and_bias_nets():
    assert v_value(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), const_params()) == 0.0
    params = const_params(v_bias=-2.5)
    assert v_value(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params) == -2.5


# -- Q


def test_q_at_mu_equals_v():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = NafParams.init(rng, hidden=(8,))
        s = random_state(rng)
        mu = greedy_action(s, params)
        assert q_value(s, mu, params) == pytest.approx(v_value(s, params),
                                                       abs=1e-12)


def test_q_hand_case():
    # m = -1, mu - a = 0.3, V = -1  ->  Q = -1 * 0.09 + (-1) = -1.09
    m_bias = math.log(math.expm1(1.0 - M_EPS))  # softplus + eps = 1
    params = const_params(m_bias=m_bias, v_bias=-1.0)
    s = RlState(20.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # zero features -> mu = 0
    q = q_value(s, Action(-0.3), params)
    assert q == pytest.approx(-1.09, abs=1e-12)


def test_q_below_v_away_from_mu():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = NafParams.init(rng, hidden=(8,))
        s = random_state(rng)
        a = greedy_action(s, params).a_yaw
        v = v_value(s, params)
        assert q_value(s, Action(a + 0.2), params) < v
        assert q_value(s, Action(a - 0.2), params) < v


def test_grid_search_never_beats_mu():
    rng = np.random.default_rng(6)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    q_star = q_value(s, greedy_action(s, params), params)
    grid = np.arange(-A_CAP, A_CAP + 1e-9, 1e-3)
    qs = [q_value(s, Action(float(a)), params) for a in grid]
    assert max(qs) <= q_star + 1e-12


# -- exploration


def test_explore_zero_sigma_is_greedy():
    rng = np.random.default_rng(7)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    a = explore_action(s, params, 0.0, np.random.default_rng(0))
    assert a.a_yaw == greedy_action(s, params).a_yaw


def test_explore_mean_matches_mu():
    rng = np.random.default_rng(8)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    mu = greedy_action(s, params).a_yaw
    noise_rng = np.random.default_rng(99)
    samples = [explore_action(s, params, 0.1, noise_rng).a_yaw
               for _ in range(10_000)]
    assert abs(np.mean(samples) - mu) < 0.003  # 3 sigma / sqrt(N)


def test_explore_clipped_to_cap():
    rng = np.random.default_rng(9)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    noise_rng = np.random.default_rng(0)
    for _ in range(1000):
        a = explore_action(s, params, 1.0, noise_rng)
        assert -A_CAP <= a.a_yaw <= A_CAP


# -- gradients


def test_gradient_zero_for_amax_when_atmp_zero():
    rng = np.random.default_rng(10)
    params = NafParams.init(rng, hidden=(8,))
    s = RlState(20.0, 0.0, 0.0, 0.0, 0.1, 0.0)  # a_tmp = 0
    grad = q_gradient(s, Action(0.2), params)
    assert np.all(grad[params.span("amax_net")] == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    a = Action(float(rng.uniform(-0.5, 0.5)))
    grad = q_gradient(s, a, params)
    max_err = finite_diff_check(lambda: q_value(s, a, params), params.flat, grad)
    assert max_err < 1e-4


def test_constants_defaults():
    params = NafParams.init(0, hidden=(8,))
    assert (params.a_cap, params.t_min, params.t_max, params.m_eps) == \
        (A_CAP, T_MIN, T_MAX, M_EPS)


def test_params_copy_independent():
    params = NafParams.init(0, hidden=(8,))
    dup = params.copy()
    params.v_net.biases[-1][0] += 1.0
    assert dup.v_net.biases[-1][0] != params.v_net.biases[-1][0]
    assert np.shares_memory(params.v_net.flat, params.flat)
    assert not np.shares_memory(dup.flat, params.flat)


def test_params_span_layout():
    params = NafParams.init(0, hidden=(8,))
    n = params.v_net.param_count()
    assert params.flat.shape == (5 * n,)
    assert params.span(*NafParams.MU_NET_NAMES) == slice(0, 3 * n)
    assert params.span("m_net", "v_net") == slice(3 * n, 5 * n)
    assert np.array_equal(params.flat[params.span("beta_net")], params.beta_net.flat)
    with pytest.raises(ContractError):
        params.span("amax_net", "m_net")
