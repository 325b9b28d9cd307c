"""Quadratic Q-function and its structured greedy head."""

import copy
import math
import pickle

import numpy as np
import pytest

from nafdrive import nafq
from nafdrive.errors import NumericalError
from nafdrive.errors import ContractError
from nafdrive.nafq import (A_CAP, M_EPS, T_MAX, T_MIN, Heads, NafParams, RlState,
                           fit_gradients, greedy_actions_batch, q_gradients_batch,
                           q_values_batch)
from nafdrive.netcore import finite_diff_check, net_backward, net_forward


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


def heads(state, params, block=NafParams.HEAD) -> Heads:
    """The nets of `block` evaluated as one stack at one state, a one-row
    batch."""
    return Heads(params, [state], block)


def net_span(params, name) -> slice:
    """The slice of `params.flat` holding the named net."""
    i = NafParams.NET_NAMES.index(name)
    return params.span(range(i, i + 1))


def q_of(state, a_yaw, params) -> float:
    return q_values_batch([state], [a_yaw], params)[0][0]


def random_state(rng) -> RlState:
    return RlState(v=float(rng.uniform(0, 35)), a_lng=float(rng.normal()),
                   delta_d_lat=float(rng.normal(0, 2)),
                   theta=float(rng.normal(0, 0.1)),
                   omega=float(rng.normal(0, 0.1)),
                   c=float(rng.normal(0, 0.001)))


def forward_calls(monkeypatch, params):
    """Record, in call order, the block of each stack of `params` that the
    nafq module global net_forward is called on, as the tracer sees them."""
    blocks = {id(stack): block for block, stack in params.stacks.items()}
    seen = []
    forward = nafq.net_forward

    def counted(net, *args):
        seen.append(blocks[id(net)])
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
    """The deviation triple (dd, dv, dphi) that feeds mu, from the state row
    Heads holds."""
    s = heads(state, NafParams.init(0, hidden=(8,))).S[0]
    return s[2], s[0] * np.sin(s[3]), s[3]


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


# well-conditioned points of the law: (a_max, beta, T, state), at which no
# partial is near zero
LAW_POINTS = [
    (0.5, 1.0, 2.0, RlState(20.0, 0.0, 1.875, 0.05, 0.0, 0.0)),
    (0.3, 2.5, 1.2, RlState(12.0, 0.3, -0.8, 0.02, 0.1, 0.001)),
    (0.55, 0.7, 4.0, RlState(30.0, -0.5, 2.5, -0.04, -0.05, 0.0)),
]


@pytest.mark.parametrize("a_max, beta, t_trns, state", LAW_POINTS)
def test_head_law_partials_match_central_differences(a_max, beta, t_trns, state):
    S = np.array([state])
    a_tmp, tanh_arg, _ = nafq.head_law(a_max, beta, t_trns, S)
    dmu_damax, dmu_dbeta, dmu_datmp, datmp_dt = (
        float(p[0]) for p in nafq.head_law_partials(a_max, beta, t_trns, S, a_tmp, tanh_arg))

    def law(a, b, t):
        return [float(out[0]) for out in nafq.head_law(a, b, t, S)]

    def central(f, x, h=1e-6):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    pairs = [  # (analytic, central difference)
        (dmu_damax, central(lambda a: law(a, beta, t_trns)[2], a_max)),
        (dmu_dbeta, central(lambda b: law(a_max, b, t_trns)[2], beta)),
        (datmp_dt, central(lambda t: law(a_max, beta, t)[0], t_trns)),
        (dmu_datmp * datmp_dt, central(lambda t: law(a_max, beta, t)[2], t_trns)),
    ]
    for analytic, numeric in pairs:
        assert abs(analytic) > 1e-3
        assert abs(numeric - analytic) <= 1e-7 * abs(analytic)


def test_nonfinite_head_error_names_network():
    # one check covers the three head values and names the first net, in
    # MU_NET_NAMES order, whose value is not finite
    state = RlState(20.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    nan, inf = math.nan, math.inf
    for biases, name in (
        (dict(amax_bias=nan), "amax_net"),
        (dict(beta_bias=nan), "beta_net"),
        (dict(beta_bias=inf), "beta_net"),  # softplus(inf) is inf
        (dict(ttrans_bias=nan), "ttrans_net"),
        (dict(beta_bias=nan, ttrans_bias=nan), "beta_net"),
        (dict(amax_bias=nan, ttrans_bias=nan), "amax_net"),
        (dict(amax_bias=nan, beta_bias=inf, ttrans_bias=nan), "amax_net"),
    ):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match=f"from {name}$"):
            heads(state, const_params(**biases))
    # the sigmoids saturate at an infinite raw output, so these head values
    # are finite and nothing is raised
    h = heads(state, const_params(amax_bias=inf, beta_bias=-inf, ttrans_bias=-inf))
    assert (h.a_max[0], h.beta[0], h.t_trns[0]) == (A_CAP, 0.0, T_MIN)


def test_policy_evaluates_only_the_head_nets(monkeypatch):
    rng = np.random.default_rng(7)
    params = NafParams.init(rng, hidden=(8,))
    states = [random_state(rng) for _ in range(3)]
    seen = forward_calls(monkeypatch, params)
    greedy_actions_batch(states, params)
    assert seen == [NafParams.HEAD]  # one pass over the head stack
    seen.clear()
    fit_gradients(states, np.zeros(3), np.zeros(3), params)
    assert seen == [NafParams.ALL]  # the fit: one pass over all five


# -- curvature and value heads


def m_of(state, params) -> float:
    return heads(state, params, NafParams.ALL).m[0]


def v_of(state, params) -> float:
    return heads(state, params, NafParams.ALL).v[0]


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
    assert np.all(grad[net_span(params, "amax_net")] == 0.0)


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
    q_loss, q_grad = fit_gradients(states, actions, targets, params, NafParams.Q)
    q_span = params.span(NafParams.Q)
    assert q_loss == loss
    assert np.array_equal(q_grad[q_span], grad[q_span])
    assert np.all(q_grad[params.span(NafParams.HEAD)] == 0.0)
    assert np.any(grad[params.span(NafParams.HEAD)] != 0.0)


@pytest.mark.parametrize("nets", [NafParams.ALL, NafParams.Q])
def test_fit_is_the_q_gradient_weighted_by_the_td_error(nets):
    # the one Q evaluation and the one backward pass: fit_gradients equals,
    # bit for bit, q_values_batch's loss and q_gradients_batch's gradient
    # with coefficients (2/N)(Q - target), on the span of the nets it fits
    rng = np.random.default_rng(13)
    params = NafParams.init(rng, hidden=(8,))
    states = np.array([random_state(rng) for _ in range(16)])
    actions, targets = rng.uniform(-0.5, 0.5, 16), rng.normal(size=16)
    loss, grad = fit_gradients(states, actions, targets, params, nets)
    q, _ = q_values_batch(states, actions, params)
    q_grad, q_again = q_gradients_batch(states, actions,
                                        (2.0 / len(q)) * (q - targets), params)
    span = params.span(nets)
    assert np.array_equal(q_again, q)
    assert loss == float(np.mean((q - targets) ** 2))
    assert np.array_equal(grad[span], q_grad[span])
    assert not grad[:span.start].any() and not grad[span.stop:].any()


def reference_fit(states, actions, targets, params, nets):
    """fit_gradients as one net_forward and one net_backward call per net:
    each net evaluated alone, the head transforms applied and the upstream
    of each net chained by hand, and each net of the block `nets`
    backpropagated on its own cache."""
    S = np.asarray(states, dtype=float)
    out, caches = {}, {}
    for name, net in params.nets().items():
        y, caches[name] = net_forward(net, S)
        out[name] = y[0, :, 0]
    sig_amax = nafq._sigmoid(out["amax_net"])
    sig_ttrans = nafq._sigmoid(out["ttrans_net"])
    a_max = params.a_cap * sig_amax
    beta = np.logaddexp(0.0, out["beta_net"])
    t_trns = (params.t_max - params.t_min) * sig_ttrans + params.t_min
    dd, dphi = S[:, 2], S[:, 3]
    dv = S[:, 0] * np.sin(dphi)
    a_tmp = dd / t_trns**2 + dv * dphi / t_trns
    tanh_arg = np.tanh(beta * a_tmp)
    m = -np.logaddexp(0.0, out["m_net"]) - params.m_eps
    diff = a_max * tanh_arg - actions
    errors = m * diff * diff + out["v_net"] - targets
    coeffs = (2.0 / len(actions)) * errors
    dq_dmu = 2.0 * m * diff
    sech2 = 1.0 - tanh_arg**2
    datmp_dt = -2.0 * dd / t_trns**3 - dv * dphi / t_trns**2
    upstream = {
        "amax_net": dq_dmu * tanh_arg * params.a_cap * sig_amax * (1.0 - sig_amax),
        "beta_net": dq_dmu * (a_max * sech2 * a_tmp) * nafq._sigmoid(out["beta_net"]),
        "ttrans_net": (dq_dmu * (a_max * sech2 * beta) * datmp_dt
                       * (params.t_max - params.t_min) * sig_ttrans * (1.0 - sig_ttrans)),
        "m_net": -(diff * diff) * nafq._sigmoid(out["m_net"]),
        "v_net": 1.0,
    }
    grad = np.zeros(params.flat.shape)
    for name in NafParams.NET_NAMES[nets.start:nets.stop]:
        up = (coeffs * upstream[name])[None, :, None]
        net_backward(getattr(params, name), caches[name], up, grad[net_span(params, name)])
    return float(np.mean(errors**2)), grad


@pytest.mark.parametrize("nets", [NafParams.ALL, NafParams.Q])
def test_fit_equals_the_per_net_fit_bit_for_bit(nets):
    # OpenBLAS picks its kernel by row count, so the sizes span its paths
    rng = np.random.default_rng(15)
    params = NafParams.init(rng)
    for n in (1, 2, 3, 18, 19, 64, 256):
        states = np.column_stack([rng.uniform(0, 35, n), rng.normal(size=n),
                                  rng.normal(0, 2, n), rng.normal(0, 0.1, n),
                                  rng.normal(0, 0.1, n), rng.normal(0, 0.001, n)])
        actions, targets = rng.uniform(-0.5, 0.5, n), rng.normal(size=n)
        loss, grad = fit_gradients(states, actions, targets, params, nets)
        want_loss, want_grad = reference_fit(states, actions, targets, params, nets)
        assert repr(loss) == repr(want_loss), n
        assert grad.tobytes() == want_grad.tobytes(), n
        assert grad[params.span(nets)].any(), n


@pytest.mark.parametrize("bad", range(5))
def test_nonfinite_gradient_names_only_its_net(monkeypatch, bad):
    # inf in one net's rows of the cached activations makes that net's
    # gradient, and no other net's, non-finite; a stage that does not step
    # the net is unaffected
    rng = np.random.default_rng(16)
    params = NafParams.init(rng, hidden=(8, 8))
    states = np.array([random_state(rng) for _ in range(4)])
    actions, targets = rng.uniform(-0.5, 0.5, 4), rng.normal(size=4)
    forward = nafq.net_forward

    def poisoned(net, x):
        y, cache = forward(net, x)
        if net.count == len(NafParams.NET_NAMES):
            cache[1][bad] = math.inf
        return y, cache

    monkeypatch.setattr(nafq, "net_forward", poisoned)
    name = NafParams.NET_NAMES[bad]
    for nets in (NafParams.ALL, NafParams.Q):
        with np.errstate(invalid="ignore", over="ignore"):
            if bad in nets:
                with pytest.raises(NumericalError, match=f"through {name}$"):
                    fit_gradients(states, actions, targets, params, nets)
            else:
                _, grad = fit_gradients(states, actions, targets, params, nets)
                assert np.isfinite(grad).all()


@pytest.mark.parametrize("actions", [np.zeros((3, 1)), np.zeros((1, 3)), np.zeros(2),
                                     np.float64(0.0), [[0.0], [0.0], [0.0]]])
def test_q_values_refuses_actions_not_of_shape_n(actions):
    # an (n, 1) column would broadcast against the (n,) mu into an (n, n) Q
    rng = np.random.default_rng(14)
    params = NafParams.init(rng, hidden=(8,))
    states = np.array([random_state(rng) for _ in range(3)])
    with pytest.raises(ContractError, match=r"expected \(3,\)$"):
        q_values_batch(states, actions, params)
    assert q_values_batch(states, np.zeros(3), params)[0].shape == (3,)


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


@pytest.mark.parametrize("duplicate", [lambda p: pickle.loads(pickle.dumps(p)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
def test_params_survive_pickle_and_deepcopy(duplicate):
    params = NafParams.init(0, hidden=(8,), a_cap=0.5, t_max=8.0)
    before = params.flat.copy()
    rng = np.random.default_rng(1)
    states = [random_state(rng) for _ in range(4)]
    actions = rng.uniform(-0.5, 0.5, size=4)
    dup = duplicate(params)
    assert (dup.a_cap, dup.t_min, dup.t_max, dup.m_eps) == (0.5, T_MIN, 8.0, M_EPS)
    assert np.array_equal(q_values_batch(states, actions, dup)[0],
                          q_values_batch(states, actions, params)[0])
    dup.flat += 1.0  # reaches every net and stack of the copy, not the original
    for name, net in dup.nets().items():
        assert net.flat.base is dup.flat
        assert np.array_equal(net.flat, before[net_span(dup, name)] + 1.0)
    for block, stack in dup.stacks.items():
        assert stack.flat.base is dup.flat
        assert np.array_equal(stack.flat, before[dup.span(block)] + 1.0)
    assert np.array_equal(params.flat, before)


def test_params_span_layout():
    # the two blocks tile the flat vector in NET_NAMES order, and every
    # stack, a copy's too, is a view of its own params' vector
    params = NafParams.init(0, hidden=(8,))
    n = params.v_net.flat.size
    assert params.flat.shape == (5 * n,)
    assert params.HEAD.start == 0 and params.HEAD.stop == params.Q.start
    assert params.Q.stop == len(NafParams.NET_NAMES) and params.ALL == range(5)
    assert params.span(NafParams.HEAD) == slice(0, 3 * n)
    assert params.span(NafParams.Q) == slice(3 * n, 5 * n)
    assert np.array_equal(params.flat[net_span(params, "beta_net")], params.beta_net.flat)
    dup = params.copy()
    for p in (params, dup):
        assert set(p.stacks) == {NafParams.HEAD, NafParams.Q, NafParams.ALL}
        for block, stack in p.stacks.items():
            assert stack.count == len(block)
            assert np.shares_memory(stack.flat, p.flat)
            assert stack.flat.base is p.flat
            assert np.array_equal(stack.flat, p.flat[p.span(block)])
        for name, net in p.nets().items():
            assert net.flat.base is p.flat
            assert np.array_equal(net.flat, p.flat[net_span(p, name)])
    for stack in dup.stacks.values():
        assert not np.shares_memory(stack.flat, params.flat)
