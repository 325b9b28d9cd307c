"""Anatomy of the quadratic Q-function and its structured greedy head.

Shows, for a handful of lateral deviations, how the three head networks
(driver acceleration cap, sensitivity, transition time) combine with the
deviation features into a bounded yaw-acceleration command, and that the
greedy action is the exact argmax of Q.

Run:  python3 demos/q_function_anatomy.py
"""

import numpy as np

from nafdrive.nafq import (NafParams, RlState, greedy_action, m_value,
                           mu_action, q_value, v_value)


def main():
    params = NafParams.init(seed=0)
    print("greedy head across lateral deviations (fresh random parameters):")
    print(f"  {'dd [m]':>8} {'a_max':>8} {'beta':>8} {'T [s]':>8} "
          f"{'a_tmp':>9} {'mu [rad/s^2]':>13}")
    for dd in (-3.75, -1.875, -0.5, 0.0, 0.5, 1.875, 3.75):
        s = RlState(v=20.0, a_lng=0.0, delta_d_lat=dd, theta=0.0, omega=0.0,
                    c=0.0)
        a, h = mu_action(s, params)
        print(f"  {dd:8.3f} {h.a_max:8.4f} {h.beta_sen:8.4f} "
              f"{h.t_trns:8.4f} {h.a_tmp:9.5f} {a:13.6f}")

    s = RlState(v=25.0, a_lng=0.0, delta_d_lat=1.2, theta=0.03, omega=0.01,
                c=0.0)
    mu = greedy_action(s, params)
    print("\nquadratic structure at one state:")
    print(f"  curvature m(s)   = {m_value(s, params):+.5f}  (always negative)")
    print(f"  value V(s)       = {v_value(s, params):+.5f}")
    print(f"  Q(s, mu(s))      = {q_value(s, mu, params):+.5f}  (equals V)")
    for off in (0.1, 0.3):
        q = q_value(s, mu + off, params)
        print(f"  Q(s, mu + {off:.1f})   = {q:+.5f}")

    grid = np.arange(-0.6, 0.6001, 1e-3)
    qs = [q_value(s, float(a), params) for a in grid]
    best = grid[int(np.argmax(qs))]
    print(f"\n  grid argmax over [-0.6, 0.6]: {best:+.3f}  "
          f"vs analytic mu: {mu:+.6f}")


if __name__ == "__main__":
    main()
