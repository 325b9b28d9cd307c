"""Gap acceptability for lane changes and the in-maneuver abort monitor.

A gap on the target lane is acceptable when both the ego-behind-leader
and follower-behind-ego spacings exceed an IDM-style desired gap that
accommodates the closing speed and keeps the minimum spacing.  During
the maneuver the same test keeps running as a safety guard; if it fails
before the ego's lateral center crosses the lane boundary, the maneuver
is aborted and the vehicle is sent back to the original lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .longitudinal import IdmParams


class MonitorDecision(Enum):
    CONTINUE = "continue"
    ABORT = "abort"


@dataclass
class GapAssessment:
    acceptable: bool


def required_gap(v_rear: float, v_front: float, p: IdmParams) -> float:
    """Speed-dependent safety distance between a rear and a front vehicle."""
    dynamic = v_rear * p.T + v_rear * (v_rear - v_front) / (2.0 * math.sqrt(p.a_m * p.b))
    return p.s0 + (dynamic if dynamic > 0.0 else 0.0)  # max(0.0, dynamic)


def gap_acceptable(
    v_ego: float,
    p: IdmParams,
    target_leader: tuple[float, float] | None,
    target_follower: tuple[float, float] | None,
) -> GapAssessment:
    """Test the target-lane gap around the ego.

    target_leader / target_follower are (gap, speed) tuples; an absent
    neighbor satisfies its side automatically.  A non-positive gap is
    immediately unacceptable, and the first side that fails decides.
    """
    if target_leader is not None:
        lead_gap, v_lead = target_leader
        if not (lead_gap > 0 and lead_gap >= required_gap(v_ego, v_lead, p)):
            return GapAssessment(False)
    if target_follower is not None:
        follow_gap, v_follow = target_follower
        if not (follow_gap > 0 and follow_gap >= required_gap(v_follow, v_ego, p)):
            return GapAssessment(False)
    return GapAssessment(True)


def past_commit_point(d: float, original_lane: int, target_lane: int, lane_width: float) -> bool:
    """True once the ego's lateral center has crossed the boundary between
    the original and target lanes (after which aborting is itself unsafe)."""
    boundary = max(original_lane, target_lane) * lane_width
    if target_lane > original_lane:
        return d >= boundary
    return d <= boundary


def monitor_step(
    d: float,
    original_lane: int,
    target_lane: int,
    lane_width: float,
    assessment: GapAssessment,
) -> MonitorDecision:
    """Per-step safety guard for a vehicle mid-lane-change."""
    if past_commit_point(d, original_lane, target_lane, lane_width):
        return MonitorDecision.CONTINUE
    if not assessment.acceptable:
        return MonitorDecision.ABORT
    return MonitorDecision.CONTINUE
