"""Small dense networks with hand-written reverse-mode gradients.

Every network here is a fixed MLP: affine layers with tanh on the hidden
layers and a linear output.  Forward passes take a batch (n, d), one input
per row; gradients are with respect to the parameters only, accumulated
over the batch.  All math is float64 so the finite-difference checks can
be tight.

A network's parameters are one flat vector, layer by layer: W_0 (row-major,
(fan_out, fan_in)), b_0, W_1, b_1, ...  Gradients use the same layout, so
an optimizer step or a finite-difference sweep is one pass over a vector.
A stack of k nets of the same shape holds their vectors one after another
and runs them in one pass, with numpy's stacked matmul over views of that
vector, so nothing is copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FD_STEP = 1e-4  # the central-difference step of finite_diff_check


def param_count(layer_dims) -> int:
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _layer_views(flat, layer_dims, count):
    """Per-layer weight (count, fan_out, fan_in) and bias (count, fan_out)
    views of `flat`, which holds `count` nets of `layer_dims` one after
    another in the parameter layout."""
    rows = flat.reshape(count, -1)
    weights, biases = [], []
    i = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        j = i + fan_out * fan_in
        weights.append(rows[:, i:j].reshape(count, fan_out, fan_in))
        biases.append(rows[:, j:j + fan_out])
        i = j + fan_out
    return weights, biases


@dataclass
class Network:
    """A stack of `count` nets of the same `layer_dims`, their parameters
    one after another in the flat vector `flat`; a lone net is a stack of
    one.  Weights and biases are per-layer views of `flat` stacked over the
    nets, so writing through a view writes the vector."""

    layer_dims: list[int]
    flat: np.ndarray
    count: int = 1
    weights: list[np.ndarray] = field(init=False, repr=False)  # each (count, fan_out, fan_in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # each (count, fan_out)
    # per layer, the views net_forward applies: the weights transposed,
    # (count, fan_in, fan_out), and the biases as (count, 1, fan_out)
    affine: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims
        if (self.flat.shape != (self.count * param_count(dims),)
                or not self.flat.flags.c_contiguous):
            raise ContractError(f"flat parameters {self.flat.shape} do not fit "
                                f"{self.count} nets of layer_dims {dims}")
        self.weights, self.biases = _layer_views(self.flat, dims, self.count)
        self.affine = [(w.mT, b[:, None]) for w, b in zip(self.weights, self.biases)]


@dataclass
class OptState:
    """Adam moments, shape-congruent with a flat parameter vector.  Blocks
    of the vector that are stepped on different schedules keep separate
    step counts, by block, in `t`."""

    m: np.ndarray
    v: np.ndarray
    t: dict[range, int]


def net_init(layer_dims, seed, flat=None) -> Network:
    """Build a network with uniform fan-scaled weights and zero biases.

    `seed` is what np.random.default_rng takes, which uses a Generator as
    it is, so a caller can initialize several networks from one stream.
    The parameters are written to `flat` when given, else to a new vector.
    """
    dims = list(layer_dims)
    if len(dims) < 2 or any((not isinstance(d, (int, np.integer))) or d < 1 for d in dims):
        raise ConfigurationError(f"invalid layer dims: {layer_dims!r}")
    rng = np.random.default_rng(seed)
    net = Network(dims, np.zeros(param_count(dims)) if flat is None else flat)
    for w, b, fan_in, fan_out in zip(net.weights, net.biases, dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        b[...] = 0.0
    return net


def net_forward(net: Network, x):
    """Forward pass of every net of the stack over the rows of the batch
    x (n, d).  Returns (y, cache) with y of shape (count, n, out), one
    (n, out) output per net.

    The cache is the list of each affine layer's input, which net_backward
    consumes: x, then the tanh output of each hidden layer, (count, n, width).
    The batch broadcasts over the stack, so each net's matmul is the one it
    would make alone.
    """
    h = np.asarray(x, dtype=float)
    if h.ndim != 2 or h.shape[1] != net.layer_dims[0]:
        raise ContractError(
            f"input shape {h.shape} is not a batch of layer_dims {net.layer_dims}"
        )
    last = len(net.affine) - 1
    inputs = []
    for k, (w_t, b) in enumerate(net.affine):
        inputs.append(h)
        h = h @ w_t
        h += b
        if k < last:
            np.tanh(h, out=h)
    return h, inputs


def net_backward(net: Network, cache, upstream, out=None):
    """Exact gradient of sum_i upstream_i . y_i w.r.t. the parameters of
    every net of the stack.

    `upstream` has the forward output's shape (count, n, out).  Batch items
    contribute additively; the gradient is written to the flat vector `out`
    (a new one when not given) in the parameter layout, and returned.
    """
    inputs = cache
    if (len(inputs) != len(net.weights)
            or any(h.shape[-1] != d
                   for h, d in zip(inputs, net.layer_dims[:-1]))):
        raise ContractError("cache does not match network")
    delta = np.asarray(upstream, dtype=float)
    if delta.shape != (net.count, inputs[-1].shape[-2], net.layer_dims[-1]):
        raise ContractError(
            f"upstream shape {delta.shape} incompatible with cached batch"
        )
    if out is None:
        out = np.empty(net.flat.size)
    elif out.shape != net.flat.shape or not out.flags.c_contiguous:
        raise ContractError(
            f"gradient vector {out.shape} does not fit layer_dims {net.layer_dims}")
    grad_w, grad_b = _layer_views(out, net.layer_dims, net.count)
    for k in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.mT, inputs[k], out=grad_w[k])
        delta.sum(axis=1, out=grad_b[k])
        if k > 0:
            d = np.square(inputs[k])  # tanh' = 1 - h^2, in one buffer
            np.subtract(1.0, d, out=d)
            delta = np.multiply(d, delta @ net.weights[k], out=d)
    return out


def finite_diff_check(objective, theta: np.ndarray, analytic) -> float:
    """Max relative error between `analytic` and central differences, of
    step FD_STEP, of the scalar `objective()` with respect to each entry of
    the flat vector `theta`, which is perturbed in place and restored."""
    max_err = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + FD_STEP
        f_plus = objective()
        theta[i] = orig - FD_STEP
        f_minus = objective()
        theta[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
        err = abs(analytic[i] - numeric) / max(abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err


def adaptive_update(theta, grad, m, v, t: int, lr: float) -> int:
    """One Adam step (decay 0.9/0.999, eps 1e-8, bias-corrected) on the flat
    vectors theta, m and v, in place, after `t` earlier steps.

    Returns the new step count t + 1.  Rejects non-finite gradients.
    """
    if lr < 0:
        raise ConfigurationError("learning rate must be non-negative")
    # the sum is non-finite iff some entry is (inf - inf still yields nan)
    if not np.isfinite(grad.sum()):
        raise NumericalError("non-finite gradient; update rejected")
    t += 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    # m = b1*m + (1-b1)*grad, v = b2*v + (1-b2)*grad*grad and
    # theta -= lr*(m/c1) / (sqrt(v/c2) + eps), the same operations in the same
    # order, through two scratch vectors instead of a new one per operation:
    # a fresh vector of this size can cost page faults on every call
    step = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += step
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    v *= ADAM_BETA2
    v += step
    np.divide(m, c1, out=step)
    step *= lr
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    theta -= step
    return t
