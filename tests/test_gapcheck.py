"""Gap acceptability and the mid-maneuver abort monitor."""

import math

import numpy as np
import pytest

from nafdrive.gapcheck import (GapAssessment, MonitorDecision, gap_acceptable,
                               monitor_step, past_commit_point, required_gap)
from nafdrive.longitudinal import IdmParams

P = IdmParams()
LANE_W = 3.75


def test_required_gap_standstill():
    assert required_gap(0.0, 0.0, P) == 5.0


def test_required_gap_equal_speeds():
    assert required_gap(20.0, 20.0, P) == pytest.approx(25.0, abs=1e-12)


def test_required_gap_opening_fast_clamps_to_minimum():
    # rear 10 m/s, front 30 m/s: dynamic term 10 - 10*20/(2*sqrt(3)) < 0
    dynamic = 10.0 * 1.0 + 10.0 * (10.0 - 30.0) / (2.0 * math.sqrt(3.0))
    assert dynamic < 0
    assert required_gap(10.0, 30.0, P) == 5.0


def test_required_gap_at_least_minimum_spacing():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        assert required_gap(rng.uniform(0, 40), rng.uniform(0, 40), P) >= P.s0


def test_acceptable_with_no_neighbors():
    assert gap_acceptable(20.0, P, None, None).acceptable


def test_acceptable_leader_gap_sufficient():
    # a leader gap exactly at the required one passes; the next float below fails
    need = required_gap(20.0, 18.0, P)
    assert need > P.s0
    assert gap_acceptable(20.0, P, (need, 18.0), None).acceptable
    assert not gap_acceptable(20.0, P, (math.nextafter(need, 0.0), 18.0), None).acceptable
    assert gap_acceptable(20.0, P, (30.0, 20.0), None).acceptable


def test_unacceptable_leader_gap_short():
    res = gap_acceptable(20.0, P, (20.0, 20.0), None)
    assert not res.acceptable


def test_follower_side_uses_follower_speed():
    # fast follower needs a long gap behind the ego: the follower is the rear car
    need = required_gap(30.0, 20.0, P)
    assert need != required_gap(20.0, 30.0, P)
    assert gap_acceptable(20.0, P, None, (need, 30.0)).acceptable
    assert not gap_acceptable(20.0, P, None, (math.nextafter(need, 0.0), 30.0)).acceptable
    assert not gap_acceptable(20.0, P, None, (20.0, 30.0)).acceptable


def test_nonpositive_gap_always_unacceptable():
    assert not gap_acceptable(20.0, P, (0.0, 20.0), None).acceptable
    assert not gap_acceptable(20.0, P, None, (-1.0, 20.0)).acceptable


def test_monotone_in_gaps():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = rng.uniform(0, 35)
        lead = (rng.uniform(0.1, 80), rng.uniform(0, 35))
        follow = (rng.uniform(0.1, 80), rng.uniform(0, 35))
        if gap_acceptable(v, P, lead, follow).acceptable:
            bigger_lead = (lead[0] + rng.uniform(0, 50), lead[1])
            bigger_follow = (follow[0] + rng.uniform(0, 50), follow[1])
            assert gap_acceptable(v, P, bigger_lead, bigger_follow).acceptable


def test_commit_point_left_change():
    # lane 1 -> 2: boundary at 2 * 3.75 = 7.5 m
    assert not past_commit_point(7.49, 1, 2, LANE_W)
    assert past_commit_point(7.5, 1, 2, LANE_W)
    assert past_commit_point(8.0, 1, 2, LANE_W)


def test_commit_point_right_change():
    # lane 1 -> 0: boundary at 1 * 3.75 = 3.75 m
    assert not past_commit_point(3.76, 1, 0, LANE_W)
    assert past_commit_point(3.75, 1, 0, LANE_W)
    assert past_commit_point(3.0, 1, 0, LANE_W)


def _ok():
    return GapAssessment(True)


def _bad():
    return GapAssessment(False)


def test_monitor_continue_while_acceptable():
    assert monitor_step(5.625, 1, 2, LANE_W, _ok()) is MonitorDecision.CONTINUE


def test_monitor_abort_before_commit_point():
    assert monitor_step(6.0, 1, 2, LANE_W, _bad()) is MonitorDecision.ABORT


def test_monitor_continue_past_commit_point_regardless():
    assert monitor_step(7.6, 1, 2, LANE_W, _bad()) is MonitorDecision.CONTINUE
