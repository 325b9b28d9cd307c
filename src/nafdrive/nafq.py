"""Quadratic Q-function with a structured greedy-action head.

Q(s, a) = m(s) * (mu(s) - a)^2 + V(s), with m(s) strictly negative, so the
greedy action is mu(s) in closed form.  mu is built from three small
networks whose outputs are squashed into a driver acceleration cap, a
sensitivity gain, and a transition time, then combined with the lateral
deviation features of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

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

# Below this, exp(-x) overflows a double; the sigmoid there is 1/(1+inf) = 0.
_EXP_OVERFLOW = -709.782712893384


class RlState(NamedTuple):
    """Observation fed to the Q-function; a state is one row of a batch."""

    v: float            # speed, m/s
    a_lng: float        # longitudinal acceleration, m/s^2
    delta_d_lat: float  # lateral deviation from target lane center, m
    theta: float        # yaw angle relative to road tangent, rad
    omega: float        # yaw rate, rad/s
    c: float            # road curvature at current station, 1/m


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
    _spans: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        in NET_NAMES order; memoised, since the training loop asks for the
        same few spans every step."""
        if names not in self._spans:
            first = self.NET_NAMES.index(names[0])
            if self.NET_NAMES[first:first + len(names)] != names:
                raise ContractError(f"nets {names} are not adjacent in {self.NET_NAMES}")
            n = param_count(self.layer_dims)
            self._spans[names] = slice(first * n, (first + len(names)) * n)
        return self._spans[names]

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


def _sigmoid(x):
    """Logistic sigmoid 1 / (1 + exp(-x)) of a 1-D array, element by element
    with the C library's exp, so it equals scipy.special.expit bit for bit.
    numpy's vectorised exp can differ from it in the last bit."""
    return np.array([0.0 if v < _EXP_OVERFLOW else 1.0 / (1.0 + math.exp(-v))
                     for v in x.tolist()])


class Heads:
    """Evaluation of the networks named in `nets` (all five by default) over
    the rows of `states`, a list of states or an (n, 6) array, with
    everything the gradient chain needs: raw outputs, caches, and the
    transformed values of the nets evaluated, one entry per row.  The
    greedy action `mu`, the head values `a_max`, `beta`, `t_trns`, `a_tmp`
    and the deviation features exist when the three head nets are among
    `nets`, the curvature `m` when `m_net` is, the value `v` when `v_net`
    is.  A single state is a one-row batch.
    """

    def __init__(self, params: NafParams, states, nets=NafParams.NET_NAMES):
        S = np.asarray(states, dtype=float)
        self.o = {}
        self.caches = {}
        for name in nets:
            y, cache = net_forward(getattr(params, name), S)
            self.o[name] = y[:, 0]
            self.caches[name] = cache

        if all(name in self.o for name in NafParams.MU_NET_NAMES):
            self._greedy_head(params, S)
        if "m_net" in self.o:
            self.m = -_softplus(self.o["m_net"]) - params.m_eps
        if "v_net" in self.o:
            self.v = self.o["v_net"]

    def _greedy_head(self, params: NafParams, S):
        # the two sigmoids are kept for the gradient chain in _q_upstreams
        self.sig_amax = _sigmoid(self.o["amax_net"])
        self.sig_ttrans = _sigmoid(self.o["ttrans_net"])
        self.a_max = params.a_cap * self.sig_amax
        self.beta = _softplus(self.o["beta_net"])
        self.t_trns = params.t_min + (params.t_max - params.t_min) * self.sig_ttrans
        for name, vals in (
            ("amax_net", self.a_max),
            ("beta_net", self.beta),
            ("ttrans_net", self.t_trns),
        ):
            if not np.isfinite(vals).all():
                raise NumericalError(f"non-finite head value from {name}")

        self.dd = S[:, 2]
        self.dphi = S[:, 3]
        self.dv = S[:, 0] * np.sin(S[:, 3])
        self.a_tmp = self.dd / self.t_trns**2 + self.dv * self.dphi / self.t_trns
        self.tanh_arg = np.tanh(self.beta * self.a_tmp)
        self.mu = self.a_max * self.tanh_arg
        if not np.isfinite(self.mu).all():
            raise NumericalError("non-finite greedy action")


def q_values_batch(states, actions: np.ndarray, params: NafParams):
    """Q over the rows of `states` (n, 6) and `actions` (n,), and the Heads
    it was computed from."""
    h = Heads(params, states)
    diff = h.mu - np.asarray(actions, dtype=float)
    return h.m * diff * diff + h.v, h


def greedy_actions_batch(states, params: NafParams) -> np.ndarray:
    """mu(s) for every row of `states` (n, 6), from the three head nets; the
    exact argmax of Q over actions, because the curvature is negative."""
    return Heads(params, states, NafParams.MU_NET_NAMES).mu


def greedy_policy(params: NafParams):
    """Batched policy callable for the simulator: the greedy yaw
    acceleration of each state."""

    def policy(states: list[RlState]) -> np.ndarray:
        return greedy_actions_batch(states, params)

    return policy


def _q_upstreams(h: Heads, params: NafParams, actions: np.ndarray, nets):
    """Q per item, and per-item dQ/d(raw head output) for each network in
    `nets`, chaining through the quadratic form, the head transforms, tanh,
    and the transition-time dependency of a_tmp
    (d a_tmp / d T = -2*dd/T^3 - dv*dphi/T^2)."""
    diff = h.mu - actions
    q = h.m * diff * diff + h.v

    dq_dm = diff * diff
    upstream = {"m_net": -dq_dm * _sigmoid(h.o["m_net"]), "v_net": np.ones_like(q)}
    if not set(nets).isdisjoint(NafParams.MU_NET_NAMES):
        dq_dmu = 2.0 * h.m * diff
        sech2 = 1.0 - h.tanh_arg**2
        dmu_damax = h.tanh_arg
        dmu_dbeta = h.a_max * sech2 * h.a_tmp
        dmu_datmp = h.a_max * sech2 * h.beta
        datmp_dt = -2.0 * h.dd / h.t_trns**3 - h.dv * h.dphi / h.t_trns**2

        sig1 = h.sig_amax
        sig3 = h.sig_ttrans
        upstream["amax_net"] = dq_dmu * dmu_damax * params.a_cap * sig1 * (1.0 - sig1)
        upstream["beta_net"] = dq_dmu * dmu_dbeta * _sigmoid(h.o["beta_net"])
        upstream["ttrans_net"] = (dq_dmu
                                  * dmu_datmp
                                  * datmp_dt
                                  * (params.t_max - params.t_min)
                                  * sig3
                                  * (1.0 - sig3))
    return q, {name: upstream[name] for name in nets}


def _weighted_backward(h: Heads, params: NafParams, upstream: dict, coeffs):
    """Gradient of sum_i coeffs_i * Q_i through the networks `upstream`
    names, laid out like `params.flat`; the spans of the other nets are
    zero."""
    grad = np.zeros(params.flat.shape)
    for name, up_q in upstream.items():
        up = (coeffs * up_q)[:, None]
        g = net_backward(getattr(params, name), h.caches[name], up,
                         grad[params.span(name)])
        if not np.isfinite(g.sum()):
            raise NumericalError(f"non-finite gradient through {name}")
    return grad


def q_gradients_batch(states, actions, coeffs, params: NafParams):
    """Accumulated gradient of sum_i coeffs_i * Q(s_i, a_i) over all five
    networks.

    Returns (grad, q_values); grad is laid out like `params.flat`.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    w = np.asarray(coeffs, dtype=float).reshape(-1)
    h = Heads(params, states)
    q, upstream = _q_upstreams(h, params, a, NafParams.NET_NAMES)
    return _weighted_backward(h, params, upstream, w), q


def fit_gradients(states, actions, targets, params: NafParams,
                  nets=NafParams.NET_NAMES):
    """Loss and gradient of the mean squared TD error in one pass.

    loss = (1/N) sum_i (Q_i - target_i)^2 with the targets held constant.
    All five networks are evaluated once, since Q needs them all; the
    backward sweep runs only through the networks in `nets`.  The gradient
    is laid out like `params.flat`, with zeros in the spans of the other
    nets.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    t = np.asarray(targets, dtype=float).reshape(-1)
    h = Heads(params, states)
    q, upstream = _q_upstreams(h, params, a, nets)
    errors = q - t
    loss = float(np.mean(errors**2))
    coeffs = (2.0 / len(a)) * errors
    return loss, _weighted_backward(h, params, upstream, coeffs)
