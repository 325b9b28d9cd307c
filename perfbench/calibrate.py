"""Calibration kernels: fixed pieces of work that use none of the program.

The host this benchmark runs on is shared, and its speed drifts by up to about
1.8x over minutes, as other tenants load it.  Every timed window of a run is
therefore followed by one run of a kernel, and the window's time is divided
by the kernel's time right next to it.  What the program gains or loses moves
the window and not the kernel; what the machine gains or loses moves both.

Kinds of work slow down by different amounts on a busy host, so each workload
is set against the kernel most like its own work:

- SIMULATION, for the simulator-bound workloads: interpreted Python over small
  objects (attribute reads, float arithmetic, sorts, calls) and small numpy
  forward passes of 6-64-64-1 tanh layers, at 64 rows and at one row.
- TRAINING, for the training loop: forward, backward and an Adam step of five
  6-64-64-1 nets at 64 rows, much as a NAF fit does, as numpy calls on small
  arrays.

The kernels are in the benchmark's own files, so no change to the program can
change them.  Normalised times are stated in seconds of a machine on which a
kernel takes its ``reference_s``: about its time between the windows of a run
on a quiet 2-core Xeon VM (Python 3.11, numpy 2.4, OpenBLAS with one thread),
where it runs somewhat slower than in a tight loop because the program has
just used the caches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(12345)
_LAYERS = ((6, 64), (64, 64), (64, 1))
_NETS = [[(_rng.standard_normal((a, b)) / math.sqrt(a), _rng.standard_normal(b) * 0.1)
          for a, b in _LAYERS] for _ in range(5)]
_BATCH = _rng.standard_normal((64, 6))
_ROWS = [_rng.standard_normal((1, 6)) for _ in range(24)]


class _Car:
    __slots__ = ("x", "v", "a")

    def __init__(self, x, v):
        self.x, self.v, self.a = x, v, 0.0


def _accel(v, v_lead, gap):
    s_star = 2.0 + v * 1.5 + v * (v - v_lead) / (2.0 * math.sqrt(1.5 * 2.0))
    return 1.5 * (1.0 - (v / 30.0) ** 4 - (s_star / max(gap, 0.1)) ** 2)


def _car_following():
    cars = [_Car((i * 37.0) % 1000.0, 20.0 + (i * 7) % 11) for i in range(60)]
    for _ in range(150):
        cars.sort(key=lambda c: c.x)
        for lead, car in zip(cars[1:], cars):
            car.a = _accel(car.v, lead.v, lead.x - car.x)
        for car in cars:
            car.v = min(max(car.v + 0.1 * car.a, 0.0), 35.0)
            car.x += 0.1 * car.v


def _forward(net, x):
    """Activations of each layer, the input first."""
    acts = [x]
    for i, (w, b) in enumerate(net):
        x = x @ w + b
        if i < len(net) - 1:
            x = np.tanh(x)
        acts.append(x)
    return acts


def _simulation_work():
    _car_following()
    net = _NETS[0]
    for _ in range(60):
        _forward(net, _BATCH)
    for _ in range(10):
        for row in _ROWS:
            _forward(net, row)


def _training_work():
    # stateless: the Adam step starts from zero moments every time, so the
    # kernel's numbers, and with them its time, never drift
    for _ in range(8):
        for net in _NETS:
            acts = _forward(net, _BATCH)
            g = np.ones_like(acts[-1]) / len(_BATCH)
            for i in range(len(net) - 1, -1, -1):
                w, b = net[i]
                grads = ((w, acts[i].T @ g), (b, g.sum(axis=0)))
                g = g @ w.T
                if i > 0:
                    g = g * (1.0 - acts[i] ** 2)
                for p, gp in grads:
                    m = 0.1 * gp
                    v = 0.001 * gp * gp
                    p - 1e-4 * m / (np.sqrt(v) + 1e-8)


@dataclass(frozen=True)
class Kernel:
    name: str
    work: Callable[[], None]
    reference_s: float

    def seconds(self) -> float:
        """Wall time of one run."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def warm_up(self):
        """One untimed run, so that the first timed run is not the first."""
        self.work()


SIMULATION = Kernel("simulation", _simulation_work, 0.0125)
TRAINING = Kernel("training", _training_work, 0.0052)


class Windows:
    """Wall-time spans of a job, each between two runs of a kernel.

    ``start`` runs the kernel and opens a span, ``cut`` closes the open span
    and opens the next one after another kernel run, and ``stop`` closes the
    last span and runs the kernel once more.  Without a kernel (a traced run,
    whose times are wall times) nothing runs between the spans.
    """

    def __init__(self, kernel: Kernel | None):
        self.kernel = kernel
        self.spans: list[float] = []      # wall seconds of each span
        self.kernel_s: list[float] = []   # kernel seconds before span i, and after the last
        self._t0 = 0.0

    def _run_kernel(self):
        if self.kernel is not None:
            self.kernel_s.append(self.kernel.seconds())

    def start(self):
        self._run_kernel()
        self._t0 = time.perf_counter()

    def cut(self):
        self.spans.append(time.perf_counter() - self._t0)
        self.start()

    def stop(self):
        self.spans.append(time.perf_counter() - self._t0)
        self._run_kernel()

    def normalised(self, i: int) -> float:
        """Span i in seconds of the reference machine: its wall time over the
        mean of the kernel times on either side of it, times the kernel's
        reference time.  Without a kernel, its wall time."""
        if self.kernel is None:
            return self.spans[i]
        pair = self.kernel_s[i] + self.kernel_s[i + 1]
        return self.spans[i] * 2.0 * self.kernel.reference_s / pair
