"""Car-following acceleration: a modified IDM with a free/interaction max.

The acceleration law is

    a = a_m * (1 - max((v/v0)^delta, bracket^2))
    bracket = (s0 + max(0, v*T + v*dv / (2*sqrt(a_m*b)))) / s

clipped to [-b_max, a_m].  Taking the max of the free and interaction
terms (instead of their sum) avoids the overly conservative acceleration
of the default IDM behind distant leaders.  The dynamic part of the
desired gap is floored at zero so a fast-opening gap never demands less
than the minimum spacing (and the response stays monotone in dv).  During a lane change the ego
balances the leaders in both lanes by taking the smaller acceleration.

Clamps are comparisons: `b if b > a else a` is `max(a, b)` (and `<` gives
`min`) in every case, NaN and signed zero included, without the builtin
call, which costs more than the arithmetic on this per-vehicle path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError


@dataclass
class IdmParams:
    s0: float = 5.0      # minimum bumper-to-bumper spacing, m
    T: float = 1.0       # minimum headway, s
    a_m: float = 2.0     # maximum acceleration, m/s^2
    b: float = 1.5       # comfortable braking, m/s^2
    delta: float = 4.0   # free-term exponent
    v0: float = 120.0 / 3.6  # desired free-flow speed, m/s (per vehicle)
    b_max: float = 9.0   # physical deceleration clamp, m/s^2


def idm_accel(v: float, delta_v: float, gap: float, p: IdmParams) -> float:
    """Longitudinal acceleration toward a leader.

    delta_v = v_ego - v_leader; gap is bumper to bumper and must be positive
    (a non-positive gap is a collision state the caller must prevent).
    """
    if gap <= 0:
        raise ContractError(f"non-positive gap {gap}")
    dynamic = v * p.T + v * delta_v / (2.0 * math.sqrt(p.a_m * p.b))
    bracket = (p.s0 + (dynamic if dynamic > 0.0 else 0.0)) / gap
    free = (v / p.v0) ** p.delta
    interaction = bracket * bracket
    a_raw = p.a_m * (1.0 - (interaction if interaction > free else free))
    a = -p.b_max if -p.b_max > a_raw else a_raw
    return p.a_m if p.a_m < a else a


def free_leader_accel(v: float, p: IdmParams) -> float:
    """Free-flow acceleration, used when no leader is within sensing range."""
    a_raw = p.a_m * (1.0 - (v / p.v0) ** p.delta)
    a = -p.b_max if -p.b_max > a_raw else a_raw
    return p.a_m if p.a_m < a else a


def dual_leader_accel(
    v: float,
    p: IdmParams,
    ego_lane_leader: tuple[float, float] | None,
    target_lane_leader: tuple[float, float] | None,
) -> float:
    """Smaller of the IDM accelerations toward each available leader.

    Leaders are (gap, v_leader) tuples; a missing leader contributes the
    free-flow acceleration on its side.
    """
    a_ego = (free_leader_accel(v, p) if ego_lane_leader is None
             else idm_accel(v, v - ego_lane_leader[1], ego_lane_leader[0], p))
    a_target = (free_leader_accel(v, p) if target_lane_leader is None
                else idm_accel(v, v - target_lane_leader[1], target_lane_leader[0], p))
    return a_target if a_target < a_ego else a_ego
