"""A small end-to-end training run.

Trains the lane-change policy for a few thousand interleaved
simulate/train steps (pretrain stage then joint stage), prints the loss
trajectory and episode statistics, and compares the greedy head before
and after.

Run:  python3 demos/small_training_run.py        (about a minute)
"""

import numpy as np

from nafdrive.learner import TrainConfig, make_rngs, run_training
from nafdrive.nafq import Heads, NafParams, RlState
from nafdrive.simworld import WorldConfig


def main():
    cfg = TrainConfig(total_steps=8000, pretrain_steps=2000,
                      target_sync_every=1000, checkpoint_schedule=[8000],
                      seed=0)
    print(f"training: {cfg.total_steps} steps "
          f"({cfg.pretrain_steps} pretrain), dt={cfg.dt}s ...")
    result = run_training(cfg, WorldConfig())

    losses = [(s, l) for s, l in result.loss_rows if l is not None]
    print("\nloss trajectory (every 1000 steps):")
    for step, loss in losses:
        if step % 1000 == 0:
            print(f"  step {step:5d}  loss {loss:.4f}")

    eps = result.episode_rows
    print(f"\nepisodes finished: {len(eps)}")
    if eps:
        by_outcome = {}
        for ep in eps:
            by_outcome.setdefault(ep.outcome, []).append(ep.R)
        for outcome, rs in sorted(by_outcome.items()):
            print(f"  {outcome:10s} n={len(rs):3d}  mean R {np.mean(rs):8.3f}")

    # how far the greedy head moved from its frozen pretrain state
    initial = NafParams.init(make_rngs(cfg.seed)["init"])
    s = RlState(v=20.0, a_lng=0.0, delta_d_lat=-1.875, theta=0.0, omega=0.0,
                c=0.0)
    print("\ngreedy head at a representative state (half-lane deviation):")
    for label, params in (("initial", initial), ("trained", result.params)):
        h = Heads(params, [s], NafParams.HEAD)
        print(f"  {label}: a_max {h.a_max[0]:.4f}  mu {h.mu[0]:+.5f}")


if __name__ == "__main__":
    main()
