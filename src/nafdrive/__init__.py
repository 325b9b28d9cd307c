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

from .gapcheck import GapAssessment, MonitorDecision, gap_acceptable, required_gap
from .learner import ReplayBuffer, TrainConfig, run_training
from .longitudinal import IdmParams, dual_leader_accel, free_leader_accel, idm_accel
from .nafq import NafParams, RlState, greedy_action, m_value, mu_action, q_value, v_value
from .netcore import Network, adaptive_update, finite_diff_check, net_backward, \
    net_forward, net_init
from .simworld import (EpisodeMetrics, RewardWeights, RoadSpec, TrafficConfig,
                       VehicleState, World, WorldConfig, build_rl_state,
                       immediate_reward, step_kinematics)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
