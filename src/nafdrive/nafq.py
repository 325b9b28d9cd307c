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
    vector `flat`, net after net in NET_NAMES order, in two blocks: the
    greedy head's three nets (HEAD) and the curvature and value nets (Q).
    A block is the range of its rows in the five-net stack.  Each net
    attribute is a stack of one of views into it, and `stacks` holds each
    block and all five nets (ALL) as one stack.  Gradients and optimizer
    moments use the same layout.
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
    stacks: dict[range, Network] = field(init=False, repr=False, compare=False)

    NET_NAMES = ("amax_net", "beta_net", "ttrans_net", "m_net", "v_net")
    MU_NET_NAMES = ("amax_net", "beta_net", "ttrans_net")
    HEAD = range(0, 3)
    Q = range(3, 5)
    ALL = range(0, 5)

    def __post_init__(self):
        n = param_count(self.layer_dims)
        if self.flat is None:
            self.flat = np.zeros(len(self.NET_NAMES) * n)
        if self.flat.shape != (len(self.NET_NAMES) * n,):
            raise ContractError(
                f"flat parameters {self.flat.shape} do not fit five nets of "
                f"layer_dims {self.layer_dims}")
        for i, name in enumerate(self.NET_NAMES):
            setattr(self, name, Network(self.layer_dims, self.flat[i * n:(i + 1) * n]))
        # built here, so a copy's stacks are views of the copy's vector
        self.stacks = {block: Network(self.layer_dims, self.flat[self.span(block)],
                                      len(block))
                       for block in (self.HEAD, self.Q, self.ALL)}

    def __reduce__(self):
        # rebuilt from the vector, as in `copy`, so a copy's nets view its vector
        return type(self), (self.layer_dims, self.flat, self.a_cap, self.t_min,
                            self.t_max, self.m_eps)

    def nets(self):
        return {name: getattr(self, name) for name in self.NET_NAMES}

    def span(self, block: range) -> slice:
        """The slice of `flat` holding the nets of `block`."""
        n = self.flat.size // len(self.NET_NAMES)
        return slice(block.start * n, block.stop * n)

    def copy(self) -> "NafParams":
        return replace(self, layer_dims=list(self.layer_dims), flat=self.flat.copy())

    @classmethod
    def init(cls, seed, hidden=DEFAULT_HIDDEN, **constants) -> "NafParams":
        rng = np.random.default_rng(seed)
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


class Heads:
    """Evaluation of the nets of `block`, all five by default or the greedy
    head's three, over the rows of `states`, a list of states or an (n, 6)
    array, with everything the gradient chain needs: the raw output of each
    net, the forward cache of the block's stack, the (n, 6) states `S`, and
    the transformed values, one entry per row.  The greedy action `mu`, the
    head values `a_max`, `beta`, `t_trns`, and head_law's `a_tmp` and
    `tanh_arg` always exist; the curvature `m` and the value `v` when all
    five nets are evaluated.  A single state is a one-row batch.
    """

    def __init__(self, params: NafParams, states, block=NafParams.ALL):
        self.S = S = np.asarray(states, dtype=float)
        y, self.cache = net_forward(params.stacks[block], S)
        self.o = dict(zip(NafParams.NET_NAMES[block.start:block.stop], y[:, :, 0]))
        self._greedy_head(params, S)
        if block == NafParams.ALL:
            self.m = -_softplus(self.o["m_net"]) - params.m_eps
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
    return Heads(params, states, NafParams.HEAD).mu


def greedy_policy(params: NafParams):
    """Batched policy callable for the simulator: the greedy yaw
    acceleration of each state."""

    def policy(states: list[RlState]) -> np.ndarray:
        return greedy_actions_batch(states, params)

    return policy


def _q_backward(h: Heads, params: NafParams, actions: np.ndarray, coeffs, block):
    """Gradient of sum_i coeffs_i * Q(s_i, a_i) through the nets of `block`,
    laid out like `params.flat`, with zeros outside the block.  Each net's
    upstream is coeffs times the per-item dQ/d(raw net output), chained
    through the quadratic form, head_law's partials and the head transforms."""
    diff = h.mu - actions
    # dQ/d(raw output) of each net of the block, in NET_NAMES order: the
    # head nets' when the block holds them, then m_net's and v_net's
    dq_dout = [-(diff * diff) * _sigmoid(h.o["m_net"]), 1.0]
    if block != NafParams.Q:
        dq_dmu = 2.0 * h.m * diff
        dmu_damax, dmu_dbeta, dmu_datmp, datmp_dt = head_law_partials(
            h.a_max, h.beta, h.t_trns, h.S, h.a_tmp, h.tanh_arg)
        dq_dout[:0] = [(dq_dmu * dmu_damax * params.a_cap
                        * h.sig_amax * (1.0 - h.sig_amax)),
                       dq_dmu * dmu_dbeta * _sigmoid(h.o["beta_net"]),
                       (dq_dmu
                        * dmu_datmp
                        * datmp_dt
                        * (params.t_max - params.t_min)
                        * h.sig_ttrans
                        * (1.0 - h.sig_ttrans))]

    # one pass back through the block's stack, over its rows of the forward
    # cache; the batch, layer 0's input, is shared
    net = params.stacks[block]
    up = np.empty((net.count, len(diff), 1))
    for row, dq in zip(up, dq_dout):
        np.multiply(coeffs, dq, out=row[:, 0])
    x, *hidden = h.cache
    cache = [x] + [layer[block.start:block.stop] for layer in hidden]
    grad = np.zeros(params.flat.shape)
    g = net_backward(net, cache, up, grad[params.span(block)])
    finite = np.isfinite(g.reshape(net.count, -1).sum(axis=1))
    if not finite.all():
        name = NafParams.NET_NAMES[block.start + int(np.argmin(finite))]
        raise NumericalError(f"non-finite gradient through {name}")
    return grad


def q_gradients_batch(states, actions, coeffs, params: NafParams):
    """Accumulated gradient of sum_i coeffs_i * Q(s_i, a_i) over all five
    networks.

    Returns (grad, q_values); grad is laid out like `params.flat`.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    q, h = q_values_batch(states, a, params)
    w = np.asarray(coeffs, dtype=float).reshape(-1)
    return _q_backward(h, params, a, w, NafParams.ALL), q


def fit_gradients(states, actions, targets, params: NafParams, block=NafParams.ALL):
    """Loss and gradient of the mean squared TD error in one pass.

    loss = (1/N) sum_i (Q_i - target_i)^2 with the targets held constant.
    All five networks are evaluated in one stacked pass, since Q needs them
    all; one backward pass runs through the stack of `block`, the Q block
    or all five.  The gradient is laid out like `params.flat`, with zeros
    outside the block.
    """
    a = np.asarray(actions, dtype=float).reshape(-1)
    q, h = q_values_batch(states, a, params)
    errors = q - np.asarray(targets, dtype=float).reshape(-1)
    loss = float(np.mean(errors**2))
    return loss, _q_backward(h, params, a, (2.0 / len(a)) * errors, block)
