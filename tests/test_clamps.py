"""The per-vehicle clamps written as comparisons equal the builtin min/max.

Each reference below is the function as written with the builtin `min` and
`max`, in the original argument order.  Results are compared by `repr`, so a
-0.0 where the builtin gives 0.0, or a NaN where it gives a number (or the
reverse), counts as a difference.  The one exception is the speed floor: a
NaN speed, which `max(0.0, v)` would floor to 0.0, raises NumericalError.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from nafdrive.errors import ContractError, NumericalError
from nafdrive.gapcheck import gap_acceptable, required_gap
from nafdrive.longitudinal import (IdmParams, dual_leader_accel,
                                   free_leader_accel, idm_accel)
from nafdrive.simworld import (VEHICLE_LENGTH, RoadSpec, VehicleState, World,
                               WorldConfig, step_kinematics)

NAN, INF = math.nan, math.inf
EDGES = [NAN, INF, -INF, 0.0, -0.0]
ERRORS = (ContractError, ValueError, ZeroDivisionError, OverflowError)

# the exact clamp points are commented where a parameter set reaches one
PARAMS = [
    IdmParams(),
    IdmParams(a_m=1.0, b_max=3.0),    # v=0, gap=2.5: a_raw = 1 - 2.0**2 == -b_max
    IdmParams(s0=0.0),                # v=0: bracket 0, a_raw == a_m
    IdmParams(s0=-0.0),               # s0 + max(0.0, -0.0) keeps the zero's sign
    IdmParams(v0=20.0, b_max=0.0),    # v=20, gap=inf: a_raw = 0.0 against -b_max = -0.0
    IdmParams(a_m=-0.0),              # above v0: a_raw = 0.0 against a_m = -0.0
    IdmParams(delta=1.0),             # v=-0.0: free term -0.0
    IdmParams(a_m=NAN),
    IdmParams(b_max=NAN),
    IdmParams(v0=NAN),
    IdmParams(v0=INF),
]
SPEEDS = EDGES + [5.0, 20.0, 40.0]


def outcome(fn, *args):
    """repr of the result, or the name of the error raised."""
    try:
        return repr(fn(*args))
    except ERRORS as exc:
        return type(exc).__name__


def _ref_idm_accel(v, delta_v, gap, p):
    if gap <= 0:
        raise ContractError(f"non-positive gap {gap}")
    dynamic = v * p.T + v * delta_v / (2.0 * math.sqrt(p.a_m * p.b))
    bracket = (p.s0 + max(0.0, dynamic)) / gap
    a_raw = p.a_m * (1.0 - max((v / p.v0) ** p.delta, bracket * bracket))
    return min(max(a_raw, -p.b_max), p.a_m)


def _ref_free_leader_accel(v, p):
    a_raw = p.a_m * (1.0 - (v / p.v0) ** p.delta)
    return min(max(a_raw, -p.b_max), p.a_m)


def _ref_dual_leader_accel(v, p, ego_lane_leader, target_lane_leader):
    def one(leader):
        if leader is None:
            return _ref_free_leader_accel(v, p)
        gap, v_lead = leader
        return _ref_idm_accel(v, v - v_lead, gap, p)

    return min(one(ego_lane_leader), one(target_lane_leader))


def _ref_required_gap(v_rear, v_front, p):
    dynamic = v_rear * p.T + v_rear * (v_rear - v_front) / (2.0 * math.sqrt(p.a_m * p.b))
    return p.s0 + max(0.0, dynamic)


def _ref_gap_acceptable(v_ego, p, target_leader, target_follower):
    """Both sides' gaps and required gaps, then one four-way conjunction."""
    big = float("inf")
    if target_leader is None:
        lead_gap, lead_required = big, 0.0
    else:
        lead_gap, v_lead = target_leader
        lead_required = required_gap(v_ego, v_lead, p)
    if target_follower is None:
        follow_gap, follow_required = big, 0.0
    else:
        follow_gap, v_follow = target_follower
        follow_required = required_gap(v_follow, v_ego, p)
    return (lead_gap > 0 and follow_gap > 0 and lead_gap >= lead_required
            and follow_gap >= follow_required)


def _ref_step_kinematics(state, a_lng_cmd, a_yaw_cmd, dt, c):
    omega = state.omega + a_yaw_cmd * dt
    theta = state.theta + omega * dt
    v = state.v + a_lng_cmd * dt
    if math.isnan(v):
        raise NumericalError(f"vehicle {state.id} has speed v={v}")
    v = max(0.0, v)
    state.station += v * math.cos(theta) * dt
    state.d += v * math.sin(theta) * dt
    state.omega = omega
    state.theta = theta - c * v * dt
    state.v = v
    state.a_lng = a_lng_cmd
    return state


def _ref_lane_of(road, d):
    return min(max(int(d // road.lane_width), 0), road.lanes - 1)


def test_idm_accel_equals_builtin_clamps():
    low, top = PARAMS[1], PARAMS[2]
    assert low.a_m * (1.0 - (low.s0 / 2.5) ** 2) == -low.b_max
    assert top.a_m * (1.0 - (top.s0 / 2.5) ** 2) == top.a_m
    cases = 0
    for p in PARAMS:
        for v in SPEEDS:
            for dv in EDGES + [-10.0, 3.0]:
                for gap in EDGES + [2.5, 30.0]:
                    assert (outcome(idm_accel, v, dv, gap, p)
                            == outcome(_ref_idm_accel, v, dv, gap, p)), (v, dv, gap, p)
                    cases += 1
    assert cases == len(PARAMS) * 8 * 7 * 7


def test_free_leader_accel_equals_builtin_clamps():
    for p in PARAMS:
        for v in SPEEDS + [1e300]:
            assert (outcome(free_leader_accel, v, p)
                    == outcome(_ref_free_leader_accel, v, p)), (v, p)


def test_dual_leader_accel_equals_builtin_min():
    leaders = [None, (NAN, 10.0), (30.0, NAN), (2.5, 0.0), (30.0, 20.0),
               (INF, 0.0), (0.0, 5.0), (30.0, -0.0)]
    for p in PARAMS:
        for v in SPEEDS:
            for ego in leaders:
                for target in leaders:
                    assert (outcome(dual_leader_accel, v, p, ego, target)
                            == outcome(_ref_dual_leader_accel, v, p, ego, target)), \
                        (v, p, ego, target)


def test_required_gap_equals_builtin_max():
    # v_rear = 0.0 gives dynamic == 0.0; v_rear = -0.0, v_front = -5.0 gives -0.0
    assert _ref_required_gap(0.0, 5.0, PARAMS[0]) == PARAMS[0].s0
    for p in PARAMS:
        for v_rear in SPEEDS:
            for v_front in SPEEDS + [-5.0]:
                assert (outcome(required_gap, v_rear, v_front, p)
                        == outcome(_ref_required_gap, v_rear, v_front, p)), \
                    (v_rear, v_front, p)


def test_gap_acceptable_equals_four_way_conjunction():
    # gap_acceptable stops at the first side that fails.  Where required_gap
    # raises (a_m * b == 0, which WorldConfig.validate refuses), it then
    # raises only if no earlier test failed, so those sets are left out.
    params = [p for p in PARAMS if not p.a_m * p.b == 0]
    assert len(params) == len(PARAMS) - 1
    # 5.0 is the required gap wherever the dynamic term clamps to zero
    sides = [None] + [(gap, v) for gap in EDGES + [2.5, 5.0, 30.0] for v in SPEEDS]
    accepted = 0
    for p in params:
        for v in SPEEDS:
            for lead in sides:
                for follow in sides:
                    got = gap_acceptable(v, p, lead, follow).acceptable
                    assert got is bool(_ref_gap_acceptable(v, p, lead, follow)), \
                        (v, p, lead, follow)
                    accepted += got
    assert 0 < accepted < len(params) * len(SPEEDS) * len(sides) ** 2


def test_step_kinematics_equals_builtin_speed_floor():
    # v + a*dt is exactly 0.0 at (1.0, -10.0) and -0.0 at (-0.0, -0.0)
    assert 1.0 + -10.0 * 0.1 == 0.0
    assert repr(-0.0 + -0.0 * 0.1) == "-0.0"
    fields = ("station", "d", "v", "a_lng", "theta", "omega")
    refused = 0
    for v in SPEEDS + [1.0]:
        for a in EDGES + [-10.0, 2.0]:
            for a_yaw in (0.0, 0.1, NAN):
                for c in (0.0, 0.001):
                    got = VehicleState(0, 10.0, 5.625, v, 0.0, 0.01, -0.0, 1, 1,
                                       "changing")
                    want = replace(got)
                    try:
                        _ref_step_kinematics(want, a, a_yaw, 0.1, c)
                    except NumericalError as exc:
                        # refused before any field is written
                        with pytest.raises(NumericalError, match=f"^{exc}$"):
                            step_kinematics(got, a, a_yaw, 0.1, c)
                        refused += 1
                    else:
                        assert step_kinematics(got, a, a_yaw, 0.1, c) is got
                    assert ([repr(getattr(got, f)) for f in fields]
                            == [repr(getattr(want, f)) for f in fields]), (v, a, a_yaw, c)
    # a NaN speed (7 accelerations), a NaN acceleration (8 more speeds) and
    # the two infinite speeds against the opposite infinite acceleration
    assert refused == (7 + 8 + 2) * 3 * 2


def keeper_world(accel):
    """A world with no spawns and no lane changes, whose longitudinal
    accelerations are `accel[vehicle id]`, and the list of ids it asks for."""
    world = World(WorldConfig(lane_changes_enabled=False), np.random.default_rng(0),
                  np.random.default_rng(1))
    world._next_depart = [INF] * world.cfg.road.lanes
    calls = []
    world._longitudinal = lambda lane_lists, veh, faults: calls.append(veh.id) or accel[veh.id]
    return world, calls


def test_keeper_update_equals_step_kinematics():
    """World.step moves a keeper without step_kinematics; at every finite
    speed it reaches, the result is step_kinematics' with no yaw and no
    curvature, at an infinite one the keeper exits, and where step_kinematics
    refuses a NaN speed, so does World.step."""
    fields = ("station", "d", "v", "a_lng", "theta", "omega")
    accel = {}
    world, calls = keeper_world(accel)
    want, infinite, refused = {}, [], []
    for v in SPEEDS + [1.0]:
        for a in EDGES + [-10.0, 2.0]:
            k = len(world.vehicles)
            veh = VehicleState(k, 10.0 * k, world.cfg.road.center(k % 3), v, 0.0, 0.0, 0.0,
                               k % 3, k % 3, "keeping", idm=IdmParams())
            try:
                ref = _ref_step_kinematics(replace(veh), a, 0.0, 0.1, 0.0)
            except NumericalError:
                refused.append((v, a))
                continue
            world.vehicles.append(veh)
            accel[k] = a
            if ref.v == INF:
                # an infinite speed (from no config) made the old path's d NaN,
                # which raised NumericalError
                assert math.isnan(ref.d)
                infinite.append(veh)
            else:
                want[k] = ref
    vehicles = list(world.vehicles)
    world.step(lambda states: [], 0.1)
    assert calls == list(accel) and len(infinite) == 11
    # such a keeper now keeps its d and leaves the road as an exit, with no error
    on_road = {veh.id for veh in world.vehicles}
    for veh in infinite:
        assert veh.station == INF and veh.d == world.cfg.road.center(veh.id % 3)
        assert veh.id not in on_road
    for veh in vehicles:
        if veh.id in want:
            assert ([repr(getattr(veh, f)) for f in fields]
                    == [repr(getattr(want[veh.id], f)) for f in fields]), (veh, accel[veh.id])
    # a NaN speed (7 accelerations), a NaN acceleration (8 more speeds) and
    # the two infinite speeds against the opposite infinite acceleration
    assert len(refused) == 7 + 8 + 2
    for v, a in refused:
        world, _ = keeper_world({0: a})
        world.vehicles.append(VehicleState(0, 10.0, world.cfg.road.center(1), v, 0.0,
                                           0.0, 0.0, 1, 1, "keeping", idm=IdmParams()))
        with pytest.raises(NumericalError, match=r"^step 0: vehicle 0 has speed v=nan$"):
            world.step(lambda states: [], 0.1)


def test_lane_of_equals_builtin_clamp():
    for road in (RoadSpec(), RoadSpec(lanes=1), RoadSpec(lanes=4, lane_width=0.5)):
        boundaries = [k * road.lane_width for k in range(road.lanes + 2)]
        below = [math.nextafter(b, -INF) for b in boundaries]
        ds = EDGES + boundaries + below + [-1e-300, -5.0, 1e300]
        for d in ds:
            assert outcome(road.lane_of, d) == outcome(_ref_lane_of, road, d), (road, d)
        assert [road.lane_of(b) for b in boundaries] == \
            [min(k, road.lanes - 1) for k in range(road.lanes + 2)]
        assert road.lane_of(-5.0) == road.lane_of(-0.0) == 0
        assert road.lane_of(1e300) == road.lanes - 1


def _ref_min_gap(lane_lists):
    min_gap = math.inf
    for lst in lane_lists:
        for rear, front in zip(lst[:-1], lst[1:]):
            min_gap = min(min_gap, front.station - rear.station - VEHICLE_LENGTH)
    return min_gap


def test_min_gap_equals_builtin_min():
    rng = np.random.default_rng(5)
    seeds = np.random.SeedSequence(5).spawn(2)
    world = World(WorldConfig(), np.random.default_rng(seeds[0]),
                  np.random.default_rng(seeds[1]))
    post_lists = []
    lane_lists = world._lane_lists
    world._lane_lists = lambda: post_lists.append(lane_lists()) or post_lists[-1]

    def policy(states):
        return rng.normal(0.0, 0.3, size=len(states))

    nan_refused = overlaps = 0
    for tick in range(2000):
        if tick % 400 == 399:
            # a NaN station is refused, in a copy so that the run goes on
            broken = copy.deepcopy(world)
            del broken._lane_lists
            broken.vehicles[0].station = NAN
            with pytest.raises(NumericalError, match=rf"^step {tick}: vehicle "
                               rf"{broken.vehicles[0].id} has station=nan$"):
                broken.step(lambda states: [0.0] * len(states), 0.1)
            nan_refused += 1
        result = world.step(policy, 0.1)
        assert repr(result.min_gap) == repr(_ref_min_gap(post_lists[-1])), tick
        overlaps += result.min_gap <= 0
    assert nan_refused and overlaps
