"""Quadratic Q-function and its structured greedy head."""

import math

import numpy as np
import pytest

from nafdrive import nafq
from nafdrive.errors import NumericalError
from nafdrive.errors import ContractError
from nafdrive.nafq import (A_CAP, M_EPS, T_MAX, T_MIN, Heads, NafParams, RlState,
                           fit_gradients, greedy_actions_batch, q_gradients_batch,
                           q_values_batch)
from nafdrive.netcore import finite_diff_check


def const_params(amax_bias=0.0, beta_bias=0.0, ttrans_bias=0.0,
                 m_bias=0.0, v_bias=0.0) -> NafParams:
    """Single affine layer with zero weights per net: each outputs its bias."""
    params = NafParams([6, 1])
    biases = (amax_bias, beta_bias, ttrans_bias, m_bias, v_bias)
    for net, bias in zip(params.nets().values(), biases):
        net.biases[0][0] = bias
    return params


def q_gradient(state, a_yaw, params):
    grad, _ = q_gradients_batch([state], [a_yaw], [1.0], params)
    return grad


def heads(state, params, nets=NafParams.MU_NET_NAMES) -> Heads:
    """The named nets evaluated at one state, a one-row batch."""
    return Heads(params, [state], nets)


def q_of(state, a_yaw, params) -> float:
    return q_values_batch([state], [a_yaw], params)[0][0]


def random_state(rng) -> RlState:
    return RlState(v=float(rng.uniform(0, 35)), a_lng=float(rng.normal()),
                   delta_d_lat=float(rng.normal(0, 2)),
                   theta=float(rng.normal(0, 0.1)),
                   omega=float(rng.normal(0, 0.1)),
                   c=float(rng.normal(0, 0.001)))


def forward_calls(monkeypatch, params):
    """Record, in call order, the name of each net of `params` that the
    nafq module global net_forward is called on, as the tracer sees them."""
    names = {id(net): name for name, net in params.nets().items()}
    seen = []
    forward = nafq.net_forward

    def counted(net, *args):
        seen.append(names[id(net)])
        return forward(net, *args)

    monkeypatch.setattr(nafq, "net_forward", counted)
    return seen


# -- sigmoid


def test_sigmoid_equals_scipy_expit_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    overflow = -709.782712893384  # below it exp(-x) overflows
    edges = [overflow, np.nextafter(overflow, -np.inf), -overflow, 745.0, -745.0,
             746.0, -746.0, np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
             2.2250738585072014e-308, -2.2250738585072014e-308]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges] + [rng.normal(scale=scale, size=20_000)
                                  for scale in (0.01, 0.1, 1.0, 10.0, 100.0)])
    assert np.array_equal(nafq._sigmoid(x).view(np.uint64),
                          special.expit(x).view(np.uint64))


# -- deviation features


def features(state: RlState):
    """The deviation triple (dd, dv, dphi) that feeds mu."""
    h = heads(state, NafParams.init(0, hidden=(8,)))
    return h.dd[0], h.dv[0], h.dphi[0]


def test_features_zero_theta_gives_zero_lateral_velocity():
    _, dv, _ = features(RlState(25.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert dv == 0.0


def test_features_zero_state():
    assert features(RlState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_features_hand_case():
    dd, dv, dphi = features(RlState(20.0, 0.0, 1.875, 0.05, 0.0, 0.0))
    assert dv == pytest.approx(20.0 * math.sin(0.05), abs=1e-12)
    assert dv == pytest.approx(0.9996, abs=1e-4)
    assert dd == 1.875 and dphi == 0.05


# -- greedy head


def test_mu_zero_features_gives_zero_action():
    rng = np.random.default_rng(0)
    params = NafParams.init(rng, hidden=(8,))
    assert heads(RlState(20.0, 0.0, 0.0, 0.0, 0.1, 0.0), params).mu[0] == 0.0


def test_mu_bounded_by_cap():
    rng = np.random.default_rng(1)
    for _ in range(100):
        params = NafParams.init(rng, hidden=(8,))
        h = heads(random_state(rng), params)
        assert abs(h.mu[0]) < h.a_max[0] <= A_CAP


def test_mu_hand_case():
    # heads fixed at T = 2, a_max = 0.5, beta = 1; state gives
    # a_tmp = 1.875/4 = 0.46875, mu = 0.5 * tanh(0.46875)
    amax_bias = math.log(5.0)            # 0.6 * sigmoid = 0.5
    beta_bias = math.log(math.e - 1.0)   # softplus = 1
    ttrans_bias = math.log(1.5 / 8.0)    # 0.5 + 9.5 * sigmoid = 2
    params = const_params(amax_bias, beta_bias, ttrans_bias)
    h = heads(RlState(20.0, 0.0, 1.875, 0.0, 0.0, 0.0), params)
    assert h.a_max[0] == pytest.approx(0.5, abs=1e-12)
    assert h.beta[0] == pytest.approx(1.0, abs=1e-12)
    assert h.t_trns[0] == pytest.approx(2.0, abs=1e-12)
    assert h.a_tmp[0] == pytest.approx(0.46875, abs=1e-12)
    assert h.mu[0] == pytest.approx(0.5 * math.tanh(0.46875), abs=1e-12)
    assert h.mu[0] == pytest.approx(0.2186, abs=1e-4)


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
        h, hm = heads(s, params), heads(mirrored, params)
        assert hm.a_tmp[0] == pytest.approx(-h.a_tmp[0], abs=1e-12)
        assert hm.mu[0] == pytest.approx(-h.mu[0], abs=1e-12)


def test_nonfinite_head_error_names_network():
    params = const_params(amax_bias=math.nan)
    with pytest.raises(NumericalError, match="amax_net"):
        heads(RlState(20.0, 0.0, 1.0, 0.0, 0.0, 0.0), params)


def test_policy_evaluates_only_the_head_nets(monkeypatch):
    rng = np.random.default_rng(7)
    params = NafParams.init(rng, hidden=(8,))
    states = [random_state(rng) for _ in range(3)]
    seen = forward_calls(monkeypatch, params)
    greedy_actions_batch(states, params)
    assert seen == list(NafParams.MU_NET_NAMES)
    seen.clear()
    heads(states[0], params, ("m_net",))
    assert seen == ["m_net"]


# -- curvature and value heads


def m_of(state, params) -> float:
    return heads(state, params, ("m_net",)).m[0]


def v_of(state, params) -> float:
    return heads(state, params, ("v_net",)).v[0]


def test_m_value_raw_zero():
    params = const_params()
    m = m_of(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params)
    assert m == pytest.approx(-math.log(2.0) - M_EPS, abs=1e-12)
    assert m == pytest.approx(-0.6941, abs=1e-4)


def test_m_value_always_negative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = NafParams.init(rng, hidden=(8,))
        assert m_of(random_state(rng), params) <= -M_EPS


def test_m_value_limit_is_minus_eps():
    params = const_params(m_bias=-50.0)  # softplus -> 0
    m = m_of(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params)
    assert m == pytest.approx(-M_EPS, abs=1e-12)


def test_v_value_zero_and_bias_nets():
    assert v_of(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), const_params()) == 0.0
    params = const_params(v_bias=-2.5)
    assert v_of(RlState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), params) == -2.5


# -- Q


def test_q_at_mu_equals_v():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = NafParams.init(rng, hidden=(8,))
        s = random_state(rng)
        mu = greedy_actions_batch([s], params)[0]
        assert q_of(s, mu, params) == pytest.approx(v_of(s, params), abs=1e-12)


def test_q_hand_case():
    # m = -1, mu - a = 0.3, V = -1  ->  Q = -1 * 0.09 + (-1) = -1.09
    m_bias = math.log(math.expm1(1.0 - M_EPS))  # softplus + eps = 1
    params = const_params(m_bias=m_bias, v_bias=-1.0)
    s = RlState(20.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # zero features -> mu = 0
    q = q_of(s, -0.3, params)
    assert q == pytest.approx(-1.09, abs=1e-12)


def test_q_below_v_away_from_mu():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = NafParams.init(rng, hidden=(8,))
        s = random_state(rng)
        a = greedy_actions_batch([s], params)[0]
        v = v_of(s, params)
        assert q_of(s, a + 0.2, params) < v
        assert q_of(s, a - 0.2, params) < v


def test_grid_search_never_beats_mu():
    rng = np.random.default_rng(6)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    q_star = q_of(s, greedy_actions_batch([s], params)[0], params)
    grid = np.arange(-A_CAP, A_CAP + 1e-9, 1e-3)
    qs = [q_of(s, float(a), params) for a in grid]
    assert max(qs) <= q_star + 1e-12


# -- gradients


def test_gradient_zero_for_amax_when_atmp_zero():
    rng = np.random.default_rng(10)
    params = NafParams.init(rng, hidden=(8,))
    s = RlState(20.0, 0.0, 0.0, 0.0, 0.1, 0.0)  # a_tmp = 0
    grad = q_gradient(s, 0.2, params)
    assert np.all(grad[params.span("amax_net")] == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    params = NafParams.init(rng, hidden=(8,))
    s = random_state(rng)
    a = float(rng.uniform(-0.5, 0.5))
    grad = q_gradient(s, a, params)
    max_err = finite_diff_check(lambda: q_of(s, a, params), params.flat, grad)
    assert max_err < 1e-4


def test_fit_restricted_to_q_nets_matches_full_fit():
    rng = np.random.default_rng(12)
    params = NafParams.init(rng, hidden=(8,))
    states = np.array([random_state(rng) for _ in range(16)])
    actions, targets = rng.uniform(-0.5, 0.5, 16), rng.normal(size=16)
    loss, grad = fit_gradients(states, actions, targets, params)
    q_loss, q_grad = fit_gradients(states, actions, targets, params, ("m_net", "v_net"))
    q_span = params.span("m_net", "v_net")
    assert q_loss == loss
    assert np.array_equal(q_grad[q_span], grad[q_span])
    assert np.all(q_grad[params.span(*NafParams.MU_NET_NAMES)] == 0.0)
    assert np.any(grad[params.span(*NafParams.MU_NET_NAMES)] != 0.0)


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
    n = params.v_net.flat.size
    assert params.flat.shape == (5 * n,)
    assert params.span(*NafParams.MU_NET_NAMES) == slice(0, 3 * n)
    assert params.span("m_net", "v_net") == slice(3 * n, 5 * n)
    assert np.array_equal(params.flat[params.span("beta_net")], params.beta_net.flat)
    with pytest.raises(ContractError):
        params.span("amax_net", "m_net")
