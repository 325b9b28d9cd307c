"""Quadratic Q-function with a structured greedy-action head.

Q(s, a) = m(s) * (mu(s) - a)^2 + V(s), with m(s) strictly negative, so the
greedy action is mu(s) in closed form.  mu is built from three small
networks whose outputs are squashed into a driver acceleration cap, a
sensitivity gain, and a transition time, then combined with the lateral
deviation features of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import ContractError, NumericalError
from .netcore import Network, net_backward, net_forward, net_init, param_count

STATE_DIM = 6
DEFAULT_HIDDEN = (64, 64)

# Transform constants (see NafParams): action cap [rad/s^2], transition-time
# bounds [s], and the margin keeping the curvature strictly negative.
A_CAP = 0.6
T_MIN = 0.5
T_MAX = 10.0
M_EPS = 1e-3


@dataclass
class RlState:
    """Observation fed to the Q-function."""

    v: float            # speed, m/s
    a_lng: float        # longitudinal acceleration, m/s^2
    delta_d_lat: float  # lateral deviation from target lane center, m
    theta: float        # yaw angle relative to road tangent, rad
    omega: float        # yaw rate, rad/s
    c: float            # road curvature at current station, 1/m

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.v, self.a_lng, self.delta_d_lat, self.theta, self.omega, self.c]
        )


@dataclass
class Action:
    a_yaw: float  # yaw acceleration, rad/s^2


@dataclass
class DeviationFeatures:
    delta_d: float    # lateral position deviation, m
    delta_v: float    # lateral velocity deviation, m/s
    delta_phi: float  # yaw-angle deviation, rad


@dataclass
class HeadValues:
    """Transformed head outputs, kept for logging and gradient reuse."""

    a_max: float
    beta_sen: float
    t_trns: float
    a_tmp: float


@dataclass
class NafParams:
    """The five networks behind Q plus the transform constants.

    All five nets share `layer_dims`, and their parameters are one flat
    vector `flat`, net after net in NET_NAMES order; each net attribute is
    a Network of views into it.  Gradients and optimizer moments use the
    same layout.
    """

    layer_dims: list[int]
    flat: np.ndarray | None = None  # zeros when not given
    a_cap: float = A_CAP
    t_min: float = T_MIN
    t_max: float = T_MAX
    m_eps: float = M_EPS
    amax_net: Network = field(init=False, repr=False)
    beta_net: Network = field(init=False, repr=False)
    ttrans_net: Network = field(init=False, repr=False)
    m_net: Network = field(init=False, repr=False)
    v_net: Network = field(init=False, repr=False)

    NET_NAMES = ("amax_net", "beta_net", "ttrans_net", "m_net", "v_net")
    MU_NET_NAMES = ("amax_net", "beta_net", "ttrans_net")

    def __post_init__(self):
        n = param_count(self.layer_dims)
        if self.flat is None:
            self.flat = np.zeros(len(self.NET_NAMES) * n)
        if self.flat.shape != (len(self.NET_NAMES) * n,):
            raise ContractError(
                f"flat parameters {self.flat.shape} do not fit five nets of "
                f"layer_dims {self.layer_dims}")
        for k, name in enumerate(self.NET_NAMES):
            setattr(self, name, Network(self.layer_dims, self.flat[k * n:(k + 1) * n]))

    def nets(self):
        return {name: getattr(self, name) for name in self.NET_NAMES}

    def span(self, *names) -> slice:
        """The slice of `flat` holding the named nets, which must be adjacent
        in NET_NAMES order."""
        first = self.NET_NAMES.index(names[0])
        if self.NET_NAMES[first:first + len(names)] != names:
            raise ContractError(f"nets {names} are not adjacent in {self.NET_NAMES}")
        n = param_count(self.layer_dims)
        return slice(first * n, (first + len(names)) * n)

    def copy(self) -> "NafParams":
        return replace(self, layer_dims=list(self.layer_dims), flat=self.flat.copy())

    @classmethod
    def init(cls, seed, hidden=DEFAULT_HIDDEN, **constants) -> "NafParams":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        params = cls([STATE_DIM, *hidden, 1], **constants)
        for net in params.nets().values():
            net_init(net.layer_dims, rng, net.flat)
        return params


def _softplus(x):
    return np.logaddexp(0.0, x)


def deviation_features(state: RlState) -> DeviationFeatures:
    """Lateral deviation triple (position, velocity, yaw) from the state.

    The lateral velocity deviation is v*sin(theta) (desired value zero).
    """
    return DeviationFeatures(
        delta_d=state.delta_d_lat,
        delta_v=state.v * np.sin(state.theta),
        delta_phi=state.theta,
    )


class _Heads:
    """Batched evaluation of all five networks with everything the gradient
    chain needs (raw outputs, caches, transformed values, mu)."""

    def __init__(self, params: NafParams, states: np.ndarray):
        S = np.atleast_2d(states)
        self.states = S
        self.o = {}
        self.caches = {}
        for name, net in params.nets().items():
            y, cache = net_forward(net, S)
            self.o[name] = y[:, 0]
            self.caches[name] = cache

        self.a_max = params.a_cap * _sigmoid(self.o["amax_net"])
        self.beta = _softplus(self.o["beta_net"])
        self.t_trns = params.t_min + (params.t_max - params.t_min) * _sigmoid(
            self.o["ttrans_net"]
        )
        for name, vals in (
            ("amax_net", self.a_max),
            ("beta_net", self.beta),
            ("ttrans_net", self.t_trns),
        ):
            if not np.all(np.isfinite(vals)):
                raise NumericalError(f"non-finite head value from {name}")

        self.dd = S[:, 2]
        self.dphi = S[:, 3]
        self.dv = S[:, 0] * np.sin(S[:, 3])
        self.a_tmp = self.dd / self.t_trns**2 + self.dv * self.dphi / self.t_trns
        self.tanh_arg = np.tanh(self.beta * self.a_tmp)
        self.mu = self.a_max * self.tanh_arg
        if not np.all(np.isfinite(self.mu)):
            raise NumericalError("non-finite greedy action")

        self.m = -_softplus(self.o["m_net"]) - params.m_eps
        self.v = self.o["v_net"]


def mu_action(state: RlState, params: NafParams):
    """Greedy head: returns the structured action and its head values."""
    h = _Heads(params, state.as_array())
    action = Action(float(h.mu[0]))
    heads = HeadValues(
        a_max=float(h.a_max[0]),
        beta_sen=float(h.beta[0]),
        t_trns=float(h.t_trns[0]),
        a_tmp=float(h.a_tmp[0]),
    )
    return action, heads


def m_value(state: RlState, params: NafParams) -> float:
    """Strictly negative curvature of the quadratic advantage."""
    h = _Heads(params, state.as_array())
    return float(h.m[0])


def v_value(state: RlState, params: NafParams) -> float:
    """State value: linear output of the value network."""
    y, _ = net_forward(params.v_net, state.as_array())
    return float(y[0])


def q_value(state: RlState, action: Action, params: NafParams) -> float:
    h = _Heads(params, state.as_array())
    diff = h.mu[0] - action.a_yaw
    return float(h.m[0] * diff * diff + h.v[0])


def q_values_batch(states: np.ndarray, actions: np.ndarray, params: NafParams):
    """Vectorized Q over rows of `states` (n, 6) and `actions` (n,)."""
    h = _Heads(params, states)
    diff = h.mu - np.asarray(actions, dtype=float)
    return h.m * diff * diff + h.v, h


def greedy_action(state: RlState, params: NafParams) -> Action:
    """Exact argmax of Q over actions; equals mu because the curvature is negative."""
    return mu_action(state, params)[0]


def explore_action(state: RlState, params: NafParams, sigma: float, rng) -> Action:
    """Greedy action perturbed with clipped Gaussian noise."""
    mu = mu_action(state, params)[0].a_yaw
    a = mu + rng.normal(0.0, sigma)
    return Action(float(np.clip(a, -params.a_cap, params.a_cap)))


def greedy_actions_batch(states: np.ndarray, params: NafParams) -> np.ndarray:
    """mu(s) for every row of `states` (n, 6)."""
    return _Heads(params, states).mu


def greedy_policy(params: NafParams):
    """Batched policy callable for the simulator: greedy action per state."""

    def policy(states: list[RlState]) -> list[Action]:
        S = np.stack([s.as_array() for s in states])
        return [Action(float(a)) for a in greedy_actions_batch(S, params)]

    return policy


def _q_upstreams(h: _Heads, params: NafParams, actions: np.ndarray):
    """Per-item dQ/d(raw head output) for each of the five networks,
    chaining through the quadratic form, the head transforms, tanh, and
    the transition-time dependency of a_tmp
    (d a_tmp / d T = -2*dd/T^3 - dv*dphi/T^2)."""
    diff = h.mu - actions
    q = h.m * diff * diff + h.v

    dq_dmu = 2.0 * h.m * diff
    dq_dm = diff * diff

    sech2 = 1.0 - h.tanh_arg**2
    dmu_damax = h.tanh_arg
    dmu_dbeta = h.a_max * sech2 * h.a_tmp
    dmu_datmp = h.a_max * sech2 * h.beta
    datmp_dt = -2.0 * h.dd / h.t_trns**3 - h.dv * h.dphi / h.t_trns**2

    sig1 = _sigmoid(h.o["amax_net"])
    sig3 = _sigmoid(h.o["ttrans_net"])
    upstream = {
        "amax_net": dq_dmu * dmu_damax * params.a_cap * sig1 * (1.0 - sig1),
        "beta_net": dq_dmu * dmu_dbeta * _sigmoid(h.o["beta_net"]),
        "ttrans_net": dq_dmu
        * dmu_datmp
        * datmp_dt
        * (params.t_max - params.t_min)
        * sig3
        * (1.0 - sig3),
        "m_net": -dq_dm * _sigmoid(h.o["m_net"]),
        "v_net": np.ones_like(q),
    }
    return q, upstream


def _weighted_backward(h: _Heads, params: NafParams, upstream: dict, coeffs):
    grad = np.empty_like(params.flat)
    for name, net in params.nets().items():
        up = (coeffs * upstream[name])[:, None]
        g, _ = net_backward(net, h.caches[name], up, grad[params.span(name)])
        if not np.isfinite(g.sum()):
            raise NumericalError(f"non-finite gradient through {name}")
    return grad


def q_gradients_batch(states, actions, coeffs, params: NafParams):
    """Accumulated gradient of sum_i coeffs_i * Q(s_i, a_i).

    Returns (grad, q_values); grad is laid out like `params.flat`.
    """
    S = np.atleast_2d(np.asarray(states, dtype=float))
    a = np.asarray(actions, dtype=float).reshape(-1)
    w = np.asarray(coeffs, dtype=float).reshape(-1)
    h = _Heads(params, S)
    q, upstream = _q_upstreams(h, params, a)
    return _weighted_backward(h, params, upstream, w), q


def fit_gradients(states, actions, targets, params: NafParams):
    """Loss and gradient of the mean squared TD error in one pass.

    loss = (1/N) sum_i (Q_i - target_i)^2 with the targets held constant;
    head networks are evaluated once and reused for the backward sweep.
    The gradient is laid out like `params.flat`.
    """
    S = np.atleast_2d(np.asarray(states, dtype=float))
    a = np.asarray(actions, dtype=float).reshape(-1)
    t = np.asarray(targets, dtype=float).reshape(-1)
    h = _Heads(params, S)
    q, upstream = _q_upstreams(h, params, a)
    errors = q - t
    loss = float(np.mean(errors**2))
    coeffs = (2.0 / len(a)) * errors
    return loss, _weighted_backward(h, params, upstream, coeffs)
