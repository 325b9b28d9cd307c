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
    a stack of one of views into it, and `stack` gives adjacent nets as one
    stack.  Gradients and optimizer moments use the same layout.
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
    _stacks: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        for name in self.NET_NAMES:
            setattr(self, name, self.stack(name))

    def nets(self):
        return {name: getattr(self, name) for name in self.NET_NAMES}

    def span(self, *names) -> slice:
        """The slice of `flat` holding the named nets, which must be adjacent
        in NET_NAMES order; memoised, since the training loop asks for the
        same few spans every step."""
        if names not in self._spans:
            first = self.NET_NAMES.index(names[0]) if names else 0
            if not names or self.NET_NAMES[first:first + len(names)] != names:
                raise ContractError(f"nets {names} are not adjacent in {self.NET_NAMES}")
            n = param_count(self.layer_dims)
            self._spans[names] = slice(first * n, (first + len(names)) * n)
        return self._spans[names]

    def stack(self, *names) -> Network:
        """The named nets, adjacent in NET_NAMES order, as one stack of views
        into `flat`; memoised like `span`, and built afresh for every copy,
        whose dict of stacks starts empty."""
        if names not in self._stacks:
            self._stacks[names] = Network(self.layer_dims, self.flat[self.span(*names)],
                                          len(names))
        return self._stacks[names]

    def copy(self) -> "NafParams":
        return replace(self, layer_dims=list(self.layer_dims), flat=self.flat.copy())

    @classmethod
    def init(cls, seed, hidden=DEFAULT_HIDDEN, **constants) -> "NafParams":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        params = cls([STATE_DIM, *hidden, 1], **constants)
        for net in params.nets().values():
            net_init(net.layer_dims, rng, net.flat)
        return params


def _softplus(x, out=None):
    return np.logaddexp(0.0, x, out=out)


def _sigmoid(x):
    """Logistic sigmoid 1 / (1 + exp(-x)) of a 1-D array, element by element
    with the C library's exp, so it equals scipy.special.expit bit for bit.
    numpy's vectorised exp can differ from it in the last bit."""
    return np.array([0.0 if v < _EXP_OVERFLOW else 1.0 / (1.0 + math.exp(-v))
                     for v in x.tolist()])


def head_law(a_max, beta, t_trns, S):
    """The greedy head's law over the state rows S, (n, 6), at head values
    a_max, beta and T = t_trns: a_tmp = dd/T^2 + dv*dphi/T, and
    mu = a_max*tanh(beta*a_tmp).  Returns a_tmp, tanh(beta*a_tmp) and mu."""
    dd, dphi, dv = S[:, 2], S[:, 3], S[:, 0] * np.sin(S[:, 3])
    a_tmp = dd / t_trns**2 + dv * dphi / t_trns
    tanh_arg = np.tanh(beta * a_tmp)
    return a_tmp, tanh_arg, a_max * tanh_arg


def head_law_partials(a_max, beta, t_trns, S, a_tmp, tanh_arg):
    """head_law's dmu/da_max, dmu/dbeta, and dmu/dT as its two factors
    dmu/da_tmp and da_tmp/dT, given its a_tmp and tanh(beta*a_tmp)."""
    dd, dphi, dv = S[:, 2], S[:, 3], S[:, 0] * np.sin(S[:, 3])
    sech2 = 1.0 - tanh_arg**2
    return (tanh_arg, a_max * sech2 * a_tmp, a_max * sech2 * beta,
            -2.0 * dd / t_trns**3 - dv * dphi / t_trns**2)


# How Heads evaluates the nets: each entry is a tuple of adjacent nets run
# as one stack.  The fit runs all five in one pass, and its backward pass
# runs through the rows of that stack the stage steps; the policy runs the
# greedy head's three nets in one pass.
ALL_NETS = (NafParams.NET_NAMES,)
HEAD_STACK = (NafParams.MU_NET_NAMES,)


class Heads:
    """Evaluation of the nets in `stacks` (all five, as one stack, by
    default) over the rows of `states`, a list of states or an (n, 6) array,
    with everything the gradient chain needs: raw outputs per net, the
    forward cache per stack, and the transformed values of the nets
    evaluated, one entry per row, and the (n, 6) states `S`.  The greedy
    action `mu`, the head values `a_max`, `beta`, `t_trns`, and head_law's
    `a_tmp` and `tanh_arg` exist when the three head nets are evaluated, the
    curvature `m` when `m_net` is, the value `v` when `v_net` is.  A single
    state is a one-row batch.
    """

    def __init__(self, params: NafParams, states, stacks=ALL_NETS):
        self.S = S = np.asarray(states, dtype=float)
        self.o = {}
        self.caches = {}
        for names in stacks:
            y, cache = net_forward(params.stack(*names), S)
            self.o.update(zip(names, y[:, :, 0]))
            self.caches[names] = cache

        if all(name in self.o for name in NafParams.MU_NET_NAMES):
            self._greedy_head(params, S)
        if "m_net" in self.o:
            self.m = -_softplus(self.o["m_net"]) - params.m_eps
        if "v_net" in self.o:
            self.v = self.o["v_net"]

    def _greedy_head(self, params: NafParams, S):
        # the two sigmoids are kept for the gradient chain in _q_backward
        self.sig_amax = _sigmoid(self.o["amax_net"])
        self.sig_ttrans = _sigmoid(self.o["ttrans_net"])
        # the head values are the rows of one array, in MU_NET_NAMES order,
        # so that one check covers all three
        head = np.empty((3, len(S)))
        self.a_max = np.multiply(params.a_cap, self.sig_amax, out=head[0])
        self.beta = _softplus(self.o["beta_net"], out=head[1])
        self.t_trns = np.multiply(params.t_max - params.t_min, self.sig_ttrans, out=head[2])
        self.t_trns += params.t_min
        finite = np.isfinite(head)
        if not finite.all():
            name = NafParams.MU_NET_NAMES[int(np.argmin(finite.all(axis=1)))]
            raise NumericalError(f"non-finite head value from {name}")

        self.a_tmp, self.tanh_arg, self.mu = head_law(self.a_max, self.beta, self.t_trns, S)
        if not np.isfinite(self.mu).all():
            raise NumericalError("non-finite greedy action")


def q_values_batch(states, actions: np.ndarray, params: NafParams):
    """Q over the rows of `states` (n, 6) and `actions` (n,), and the Heads
    it was computed from.  This is the one place Q is evaluated; the
    gradient functions below take Q and the Heads from it."""
    h = Heads(params, states)
    if np.shape(actions) != h.mu.shape:
        raise ContractError(f"actions of shape {np.shape(actions)}, expected {h.mu.shape}")
    diff = h.mu - np.asarray(actions, dtype=float)
    return h.m * diff * diff + h.v, h


def greedy_actions_batch(states, params: NafParams) -> np.ndarray:
    """mu(s) for every row of `states` (n, 6), from the three head nets in
    one stacked pass; the exact argmax of Q over actions, because the
    curvature is negative."""
    return Heads(params, states, HEAD_STACK).mu


def greedy_policy(params: NafParams):
    """Batched policy callable for the simulator: the greedy yaw
    acceleration of each state."""

    def policy(states: list[RlState]) -> np.ndarray:
        return greedy_actions_batch(states, params)

    return policy


def _q_backward(h: Heads, params: NafParams, actions: np.ndarray, coeffs, nets):
    """Gradient of sum_i coeffs_i * Q(s_i, a_i) through the networks in
    `nets`, laid out like `params.flat`; the spans of the other nets are
    zero.  Each net's upstream is coeffs times the per-item dQ/d(raw net
    output), chained through the quadratic form, head_law's partials and
    the head transforms."""
    diff = h.mu - actions
    upstream = {"m_net": -(diff * diff) * _sigmoid(h.o["m_net"]), "v_net": 1.0}
    if not set(nets).isdisjoint(NafParams.MU_NET_NAMES):
        dq_dmu = 2.0 * h.m * diff
        dmu_damax, dmu_dbeta, dmu_datmp, datmp_dt = head_law_partials(
            h.a_max, h.beta, h.t_trns, h.S, h.a_tmp, h.tanh_arg)
        upstream["amax_net"] = (dq_dmu * dmu_damax * params.a_cap
                                * h.sig_amax * (1.0 - h.sig_amax))
        upstream["beta_net"] = dq_dmu * dmu_dbeta * _sigmoid(h.o["beta_net"])
        upstream["ttrans_net"] = (dq_dmu
                                  * dmu_datmp
                                  * datmp_dt
                                  * (params.t_max - params.t_min)
                                  * h.sig_ttrans
                                  * (1.0 - h.sig_ttrans))

    # one pass back through the stack of the nets in `nets`, over their rows
    # of the five-net forward cache; the batch, layer 0's input, is shared
    net = params.stack(*nets)
    first = NafParams.NET_NAMES.index(nets[0])
    up = np.empty((len(nets), len(diff), 1))
    for row, name in zip(up, nets):
        np.multiply(coeffs, upstream[name], out=row[:, 0])
    x, *hidden = h.caches[NafParams.NET_NAMES]
    cache = [x] + [layer[first:first + len(nets)] for layer in hidden]
    grad = np.zeros(params.flat.shape)
    g = net_backward(net, cache, up, grad[params.span(*nets)])
    finite = np.isfinite(g.reshape(len(nets), -1).sum(axis=1))
    if not finite.all():
        raise NumericalError(f"non-finite gradient through {nets[int(np.argmin(finite))]}")
    return grad


def q_gradients_batch(states, actions, coeffs, params: NafParams):
    """Accumulated gradient of sum_i coeffs_i * Q(s_i, a_i) over all five
    networks.

    Returns (grad, q_values); grad is laid out like `params.flat`.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    q, h = q_values_batch(states, a, params)
    w = np.asarray(coeffs, dtype=float).reshape(-1)
    return _q_backward(h, params, a, w, NafParams.NET_NAMES), q


def fit_gradients(states, actions, targets, params: NafParams,
                  nets=NafParams.NET_NAMES):
    """Loss and gradient of the mean squared TD error in one pass.

    loss = (1/N) sum_i (Q_i - target_i)^2 with the targets held constant.
    All five networks are evaluated in one stacked pass, since Q needs them
    all; one backward pass runs through the stack of the networks in `nets`,
    which must be adjacent in NET_NAMES order.  The gradient is laid out
    like `params.flat`, with zeros in the spans of the other nets.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    q, h = q_values_batch(states, a, params)
    errors = q - np.asarray(targets, dtype=float).reshape(-1)
    loss = float(np.mean(errors**2))
    return loss, _q_backward(h, params, a, (2.0 / len(a)) * errors, nets)
