"""Small dense networks with hand-written reverse-mode gradients.

Every network here is a fixed MLP: affine layers with tanh on the hidden
layers and a linear output.  Forward passes accept a single input vector
or a batch (n, d); gradients are accumulated over the batch.  All math is
float64 so the finite-difference checks can be tight.

A network's parameters are one flat vector, layer by layer: W_0 (row-major,
(fan_out, fan_in)), b_0, W_1, b_1, ...  Gradients use the same layout, so
an optimizer step or a finite-difference sweep is one pass over a vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def param_count(layer_dims) -> int:
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


@dataclass
class Network:
    """Weights and biases as per-layer views of the flat vector `flat`;
    writing through a view writes the vector."""

    layer_dims: list[int]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)  # each (fan_out, fan_in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # each (fan_out,)

    def __post_init__(self):
        dims = self.layer_dims
        if self.flat.shape != (param_count(dims),) or not self.flat.flags.c_contiguous:
            raise ContractError(
                f"flat parameters {self.flat.shape} do not fit layer_dims {dims}")
        self.weights, self.biases = [], []
        i = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.weights.append(self.flat[i:i + fan_out * fan_in].reshape(fan_out, fan_in))
            i += fan_out * fan_in
            self.biases.append(self.flat[i:i + fan_out])
            i += fan_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Network":
        return Network(list(self.layer_dims), self.flat.copy())

    def param_count(self) -> int:
        return self.flat.size


@dataclass
class OptState:
    """Adam moments, shape-congruent with a flat parameter vector.  Slices
    of the vector that are stepped on different schedules keep separate
    step counts, by name, in `t`."""

    m: np.ndarray
    v: np.ndarray
    t: dict[str, int]


def net_init(layer_dims, seed, flat=None) -> Network:
    """Build a network with uniform fan-scaled weights and zero biases.

    `seed` may be an int or an existing numpy Generator (the latter lets a
    caller initialize several networks from one stream).  The parameters
    are written to `flat` when it is given, else to a new vector.
    """
    dims = list(layer_dims)
    if len(dims) < 2 or any((not isinstance(d, (int, np.integer))) or d < 1 for d in dims):
        raise ConfigurationError(f"invalid layer dims: {layer_dims!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    net = Network(dims, np.zeros(param_count(dims)) if flat is None else flat)
    for w, b, fan_in, fan_out in zip(net.weights, net.biases, dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        b[...] = 0.0
    return net


def net_forward(net: Network, x):
    """Forward pass.  Returns (y, cache) with y matching the input's batch shape.

    x may be (d,) or (n, d).  The cache stores each layer's input and the
    hidden activations, which net_backward consumes.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.ndim != 2 or h.shape[1] != net.layer_dims[0]:
        raise ContractError(
            f"input dim {x.shape} incompatible with layer_dims {net.layer_dims}"
        )
    inputs = []   # input to each affine layer
    acts = []     # tanh output of each hidden layer (None for the last, linear layer)
    for k in range(net.n_layers):
        inputs.append(h)
        z = h @ net.weights[k].T + net.biases[k]
        if k < net.n_layers - 1:
            h = np.tanh(z)
            acts.append(h)
        else:
            h = z
            acts.append(None)
    cache = (net.n_layers, inputs, acts)
    y = h[0] if single else h
    return y, cache


def net_backward(net: Network, cache, upstream, out=None):
    """Exact gradients of sum_i upstream_i . y_i w.r.t. parameters and input.

    `upstream` matches the forward output's shape ((out,) or (n, out)).
    Batch items contribute additively to the parameter gradients, which
    are written to the flat vector `out` (a new one when not given) in the
    parameter layout.  Returns (out, input_grad); the input gradient keeps
    the batch shape.
    """
    n_layers, inputs, acts = cache
    if (n_layers != net.n_layers or len(inputs) != net.n_layers
            or any(h.shape[1] != d
                   for h, d in zip(inputs, net.layer_dims[:-1]))):
        raise ContractError("cache does not match network")
    upstream = np.asarray(upstream, dtype=float)
    single = upstream.ndim == 1
    delta = upstream[None, :] if single else upstream
    if delta.shape != (inputs[-1].shape[0], net.layer_dims[-1]):
        raise ContractError(
            f"upstream shape {upstream.shape} incompatible with cached batch"
        )
    grads = Network(net.layer_dims, np.empty(net.flat.size) if out is None else out)
    for k in range(net.n_layers - 1, -1, -1):
        np.matmul(delta.T, inputs[k], out=grads.weights[k])
        delta.sum(axis=0, out=grads.biases[k])
        dx = delta @ net.weights[k]
        if k > 0:
            dx = dx * (1.0 - acts[k - 1] ** 2)  # tanh'
        delta = dx
    input_grad = delta[0] if single else delta
    return grads.flat, input_grad


def finite_diff_check(objective, theta: np.ndarray, analytic, h: float = 1e-4) -> float:
    """Max relative error between `analytic` and central differences of the
    scalar `objective()` with respect to each entry of the flat vector
    `theta`, which is perturbed in place and restored."""
    if h <= 0:
        raise ConfigurationError("h must be positive")
    max_err = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        f_plus = objective()
        theta[i] = orig - h
        f_minus = objective()
        theta[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
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
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return t
