"""Anatomy of the quadratic Q-function and its structured greedy head.

Shows, for a handful of lateral deviations, how the three head networks
(driver acceleration cap, sensitivity, transition time) combine with the
deviation features into a bounded yaw-acceleration command, and that the
greedy action is the exact argmax of Q.

Run:  python3 demos/q_function_anatomy.py
"""

import numpy as np

from nafdrive.nafq import Heads, NafParams, RlState, q_values_batch


def main():
    params = NafParams.init(seed=0)
    print("greedy head across lateral deviations (fresh random parameters):")
    print(f"  {'dd [m]':>8} {'a_max':>8} {'beta':>8} {'T [s]':>8} "
          f"{'a_tmp':>9} {'mu [rad/s^2]':>13}")
    for dd in (-3.75, -1.875, -0.5, 0.0, 0.5, 1.875, 3.75):
        s = RlState(v=20.0, a_lng=0.0, delta_d_lat=dd, theta=0.0, omega=0.0,
                    c=0.0)
        h = Heads(params, [s], NafParams.HEAD)
        print(f"  {dd:8.3f} {h.a_max[0]:8.4f} {h.beta[0]:8.4f} "
              f"{h.t_trns[0]:8.4f} {h.a_tmp[0]:9.5f} {h.mu[0]:13.6f}")

    s = RlState(v=25.0, a_lng=0.0, delta_d_lat=1.2, theta=0.03, omega=0.01,
                c=0.0)
    h = Heads(params, [s])
    mu = h.mu[0]
    # Q at mu and at two actions past it, as one batch of three rows
    q_mu, *q_off = q_values_batch([s] * 3, [mu, mu + 0.1, mu + 0.3], params)[0]
    print("\nquadratic structure at one state:")
    print(f"  curvature m(s)   = {h.m[0]:+.5f}  (always negative)")
    print(f"  value V(s)       = {h.v[0]:+.5f}")
    print(f"  Q(s, mu(s))      = {q_mu:+.5f}  (equals V)")
    for off, q in zip((0.1, 0.3), q_off):
        print(f"  Q(s, mu + {off:.1f})   = {q:+.5f}")

    grid = np.arange(-0.6, 0.6001, 1e-3)
    qs, _ = q_values_batch([s] * len(grid), grid, params)
    best = grid[int(np.argmax(qs))]
    print(f"\n  grid argmax over [-0.6, 0.6]: {best:+.3f}  "
          f"vs analytic mu: {mu:+.6f}")


if __name__ == "__main__":
    main()
