"""Continuous-action Q-learning for highway lane changes.

Library layout:

- netcore: dense MLPs with hand-written reverse-mode gradients and Adam
- nafq: the quadratic Q-function with its structured greedy-action head
- learner: replay memory, TD targets, two-stage training loop
- longitudinal: modified IDM car-following accelerations
- gapcheck: gap acceptance and the mid-maneuver abort monitor
- simworld: the interactive highway environment and reward
- cli: train / eval / trace / checkgrad commands, config and checkpoints
"""
