"""Highway environment: kinematics, rewards, traffic generation, episodes."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from nafdrive.errors import SimulationFault
from nafdrive.longitudinal import free_leader_accel
from nafdrive.nafq import RlState
from nafdrive.simworld import (EpisodeMetrics, RewardWeights, RoadSpec,
                               TrafficConfig, VehicleState, World, WorldConfig,
                               accumulate_metrics, build_rl_state,
                               completion_check, immediate_reward,
                               step_kinematics)

DT = 0.1


def zero_policy(states):
    return [0.0 for _ in states]


def find(world, vid):
    return next(v for v in world.vehicles if v.id == vid)


def make_world(cfg=None, seed=0, no_spawns=False):
    rng = np.random.SeedSequence(seed).spawn(2)
    world = World(cfg or WorldConfig(),
                  np.random.default_rng(rng[0]), np.random.default_rng(rng[1]))
    if no_spawns:
        world._next_depart = [math.inf] * world.cfg.road.lanes
    return world


def make_vehicle(world, *, lane=1, target=None, station=200.0, v=15.0,
                 maneuver="keeping", d=None, theta=0.0, omega=0.0):
    road = world.cfg.road
    veh = VehicleState(
        id=world._next_id, station=station,
        d=road.center(lane) if d is None else d,
        v=v, a_lng=0.0, theta=theta, omega=omega, lane=lane,
        target_lane=lane if target is None else target,
        maneuver=maneuver, v0=30.0, idm=replace(world.cfg.idm, v0=30.0),
    )
    world._next_id += 1
    if maneuver != "keeping":
        veh.original_lane = lane
        veh.episode = EpisodeMetrics(vehicle_id=veh.id,
                                     start_step=world.step_count)
    world.vehicles.append(veh)
    return veh


# -- road geometry


def test_lane_centers_and_lane_of():
    road = RoadSpec()
    assert road.center(0) == 1.875
    assert road.center(1) == 5.625
    assert road.lane_of(4.0) == 1
    assert road.lane_of(1.0) == 0


def test_curvature_profile_piecewise():
    road = RoadSpec(curvature_profile=[(0.0, 0.0), (500.0, 0.001)])
    assert road.curvature_at(100.0) == 0.0
    assert road.curvature_at(600.0) == 0.001


# -- kinematics


def test_kinematics_cruise_only_station_advances():
    veh = VehicleState(0, 10.0, 5.625, 20.0, 0.0, 0.0, 0.0, 1, 1, "keeping", 30.0)
    new = step_kinematics(veh, 0.0, 0.0, DT, 0.0)
    assert new.station == pytest.approx(10.0 + 20.0 * DT, abs=1e-12)
    assert (new.d, new.theta, new.omega) == (5.625, 0.0, 0.0)


def test_kinematics_hand_case():
    veh = VehicleState(0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 0, 0, "changing", 30.0)
    new = step_kinematics(veh, 0.0, 0.1, DT, 0.0)
    assert new.omega == pytest.approx(0.01, abs=1e-15)
    assert new.theta == pytest.approx(0.001, abs=1e-15)
    assert new.d == pytest.approx(20.0 * math.sin(0.001) * DT, abs=1e-15)
    assert new.d == pytest.approx(0.002, abs=1e-6)


def test_kinematics_mirror_symmetry():
    veh = VehicleState(0, 0.0, 1.0, 20.0, 0.0, 0.02, 0.05, 0, 0, "changing", 30.0)
    mirror = VehicleState(0, 0.0, -1.0, 20.0, 0.0, -0.02, -0.05, 0, 0,
                          "changing", 30.0)
    a = step_kinematics(veh, 0.5, 0.1, DT, 0.0)
    b = step_kinematics(mirror, 0.5, -0.1, DT, 0.0)
    assert b.d == pytest.approx(-a.d, abs=1e-15)
    assert b.theta == pytest.approx(-a.theta, abs=1e-15)
    assert b.station == pytest.approx(a.station, abs=1e-15)


def test_kinematics_speed_floor():
    veh = VehicleState(0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0, 0, "keeping", 30.0)
    new = step_kinematics(veh, -9.0, 0.0, DT, 0.0)
    assert new.v == 0.0


def test_kinematics_curvature_correction():
    veh = VehicleState(0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 0, 0, "changing", 30.0)
    new = step_kinematics(veh, 0.0, 0.0, DT, 0.001)
    assert new.theta == pytest.approx(-0.001 * 20.0 * DT, abs=1e-15)


# -- observation and reward


def test_rl_state_on_center():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=1)
    s = build_rl_state(world.cfg.road, veh)
    assert s.delta_d_lat == 0.0 and s.c == 0.0


def test_rl_state_offset_case():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=1, target=0, d=4.0, maneuver="changing")
    s = build_rl_state(world.cfg.road, veh)
    assert s.delta_d_lat == pytest.approx(2.125, abs=1e-12)


def test_reward_zero_case():
    r = immediate_reward(0.0, RlState(20, 0, 0.0, 0.0, 0.0, 0),
                         RewardWeights())
    assert r == (0.0, 0.0, 0.0, 0.0)


def test_reward_composite_case():
    r, r_acce, r_rate, r_dev = immediate_reward(
        0.1, RlState(20, 0, 1.875, 0.0, 0.05, 0), RewardWeights())
    assert r == pytest.approx(-0.275, abs=1e-15)
    assert r_acce == pytest.approx(-0.2) and r_rate == pytest.approx(-0.025)
    assert r_dev == pytest.approx(-0.05)


def test_reward_pure_acceleration_case():
    r, r_acce, _, _ = immediate_reward(
        0.2, RlState(20, 0, 0.0, 0.0, 0.0, 0), RewardWeights())
    assert r == pytest.approx(-0.4, abs=1e-15) and r == r_acce


def test_accumulate_metrics_decomposition():
    ep = EpisodeMetrics(vehicle_id=0, start_step=0)
    accumulate_metrics(ep, -0.2, -0.025, -0.05)
    accumulate_metrics(ep, -0.4, 0.0, 0.0)
    assert ep.R == pytest.approx(-0.675, abs=1e-15)
    assert ep.R == ep.R_acce + ep.R_rate + ep.R_dev  # bit-exact by construction


def test_completion_thresholds():
    world = make_world(no_spawns=True)
    center = world.cfg.road.center(1)
    on = make_vehicle(world, lane=1, d=center, maneuver="changing", target=1)
    assert completion_check(world.cfg.road, on)
    near = make_vehicle(world, lane=1, d=center + 0.04, maneuver="changing",
                        target=1, theta=0.005, omega=0.04)
    assert completion_check(world.cfg.road, near)
    off = make_vehicle(world, lane=1, d=center + 0.2, maneuver="changing",
                       target=1)
    assert not completion_check(world.cfg.road, off)


# -- traffic generation


def test_empty_world_only_time_advances():
    world = make_world(no_spawns=True)
    result = world.step(zero_policy, DT)
    assert world.time == pytest.approx(DT)
    assert not result.transitions and not world.vehicles


def test_spawns_are_deterministic():
    ids_a = []
    world = make_world(seed=42)
    for _ in range(600):
        world.step(zero_policy, DT)
        ids_a.append([(v.id, v.station) for v in world.vehicles])
    world_b = make_world(seed=42)
    for k in range(600):
        world_b.step(zero_policy, DT)
        assert [(v.id, v.station) for v in world_b.vehicles] == ids_a[k]


def test_spawn_deferred_when_entry_zone_occupied():
    world = make_world(no_spawns=True)
    world._next_depart[0] = 0.0
    blocker = make_vehicle(world, lane=0, station=5.0, v=10.0)
    world.step(zero_policy, DT)
    assert len(world.vehicles) == 1  # deferred
    find(world, blocker.id).station = 50.0
    world.step(zero_policy, DT)
    assert len(world.vehicles) == 2  # zone clear, spawn happens


def test_trigger_never_before_station():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=1, station=100.0)
    for _ in range(3):
        world._trigger()
    assert veh.pending_target is None and not veh.trigger_drawn


def test_trigger_never_off_middle_lane():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=0, station=500.0)
    world._trigger()
    assert veh.pending_target is None


def test_trigger_fraction_near_one_third():
    world = make_world(no_spawns=True, seed=7)
    n = 10_000
    for _ in range(n):
        make_vehicle(world, lane=1, station=200.0)
    world._trigger()
    frac = sum(v.pending_target is not None for v in world.vehicles) / n
    assert 0.31 <= frac <= 0.36


def test_keeper_invariance():
    cfg = WorldConfig(lane_changes_enabled=False)
    world = make_world(cfg, seed=3)
    for _ in range(500):
        world.step(zero_policy, DT)
        for veh in world.vehicles:
            assert veh.theta == 0.0 and veh.omega == 0.0
            assert veh.d == world.cfg.road.center(veh.lane)


# -- single-vehicle closed loop


def test_single_free_vehicle_matches_scalar_integration():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=0, station=0.0, v=10.0)
    p = world.cfg.idm.__class__(**{**world.cfg.idm.__dict__, "v0": veh.v0})
    v_ref, s_ref = 10.0, 0.0
    for _ in range(300):
        a = free_leader_accel(v_ref, p)
        v_ref = max(0.0, v_ref + a * DT)
        s_ref += v_ref * DT
        world.step(zero_policy, DT)
        cur = find(world, veh.id)
        assert cur.v == pytest.approx(v_ref, abs=1e-9)
        assert cur.station == pytest.approx(s_ref, abs=1e-9)


# -- lane-change lifecycle


def test_mirrored_episodes_same_rewards():
    seq = [0.05, 0.05, -0.02, 0.0, -0.05] * 40

    def run(target, sign):
        world = make_world(no_spawns=True)
        make_vehicle(world, lane=1, target=target, maneuver="changing", v=15.0)
        rewards = []
        for k in range(len(seq)):
            res = world.step(lambda s: [sign * seq[k]], DT)
            rewards.extend((t.r, t.r_acce, t.r_rate, t.r_dev)
                           for t in res.transitions)
        return rewards

    left, right = run(2, 1.0), run(0, -1.0)
    assert len(left) == len(right) == len(seq)
    for a, b in zip(left, right):
        # identical up to rounding: the lane-center subtraction cancels
        # differently on the two sides of the road
        assert a == pytest.approx(b, abs=1e-12)


def test_capped_episode_retires_vehicle():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=1, target=2, maneuver="changing",
                       station=0.0)
    episodes = []
    for _ in range(world.cfg.episode_cap_steps):
        episodes.extend(world.step(zero_policy, DT).episodes)
    assert len(episodes) == 1
    ep = episodes[0]
    assert ep.outcome == "capped"
    assert ep.R == ep.R_acce + ep.R_rate + ep.R_dev
    assert all(veh.id != v.id for v in world.vehicles)  # retired


def test_completed_episode_snaps_to_keeping():
    world = make_world(no_spawns=True)
    veh = make_vehicle(world, lane=1, target=2, maneuver="changing",
                       d=world.cfg.road.center(2))
    result = world.step(zero_policy, DT)
    assert result.episodes and result.episodes[0].outcome == "completed"
    cur = find(world, veh.id)
    assert cur.maneuver == "keeping" and cur.lane == 2
    assert cur.theta == 0.0 and cur.omega == 0.0


def test_monitor_aborts_on_unsafe_follower():
    world = make_world(no_spawns=True)
    ego = make_vehicle(world, lane=1, target=2, maneuver="changing",
                       station=200.0, v=15.0, d=5.9)
    # fast target-lane follower right behind the ego
    make_vehicle(world, lane=2, station=192.0, v=33.0)
    world.step(zero_policy, DT)
    cur = find(world, ego.id)
    assert cur.maneuver == "aborting"
    assert cur.target_lane == 1  # flipped back to the original lane


def test_strict_mode_raises_on_overlap():
    cfg = WorldConfig(strict=True)
    world = make_world(cfg, no_spawns=True)
    make_vehicle(world, lane=0, station=100.0, v=10.0)
    make_vehicle(world, lane=0, station=102.0, v=10.0)  # gap = -3 m
    with pytest.raises(SimulationFault):
        world.step(zero_policy, DT)


def test_nonstrict_mode_records_fault():
    world = make_world(no_spawns=True)
    make_vehicle(world, lane=0, station=100.0, v=10.0)
    make_vehicle(world, lane=0, station=102.0, v=10.0)
    result = world.step(zero_policy, DT)
    assert result.faults and world.fault_log
    assert result.min_gap <= 0


def test_overlapping_follower_brakes_at_b_max():
    world = make_world(no_spawns=True)
    rear = make_vehicle(world, lane=0, station=100.0, v=10.0)
    make_vehicle(world, lane=0, station=102.0, v=10.0)  # gap = -3 m
    result = world.step(zero_policy, DT)
    assert f"step 0: vehicle {rear.id} gap<=0" in result.faults
    assert find(world, rear.id).a_lng == -world.cfg.idm.b_max


def test_transitions_only_from_maneuvering_vehicles():
    cfg = WorldConfig(lane_changes_enabled=False)
    world = make_world(cfg, seed=5)
    for _ in range(300):
        assert world.step(zero_policy, DT).transitions == []


# -- neighbour lookups


def _scan_leader(world, lane_lists, lane, station, exclude_id):
    """Linear-scan reference for World._leader."""
    best = None
    for veh in lane_lists[lane]:
        if veh.id != exclude_id and veh.station > station:
            best = veh
            break
    if best is None:
        return None
    gap = best.station - station - best.length
    if gap > world.cfg.sensing_range:
        return None
    return (gap, best.v)


def _scan_follower(world, lane_lists, lane, station, exclude_id):
    """Linear-scan reference for World._follower: it stops at the ego."""
    best = None
    for veh in lane_lists[lane]:
        if veh.id != exclude_id and veh.station <= station:
            best = veh
        else:
            break
    if best is None:
        return None
    gap = station - best.station - best.length
    if gap > world.cfg.sensing_range:
        return None
    return (gap, best.v)


def test_neighbour_lookups_match_linear_scan():
    rng = np.random.default_rng(12)
    world = make_world(no_spawns=True)
    lanes = world.cfg.road.lanes
    ties = beyond_range = empty = 0
    for _ in range(200):
        world.vehicles = []
        for lane in range(lanes):
            for _ in range(rng.integers(0, 21) if rng.uniform() > 0.15 else 0):
                # a coarse grid forces exact ties; the uniform draws leave
                # gaps beyond the sensing range on a 1 km road
                station = (rng.integers(0, 40) * 25.0 if rng.uniform() < 0.5
                           else rng.uniform(0.0, 1000.0))
                make_vehicle(world, lane=lane, station=station,
                             v=rng.uniform(5.0, 30.0))
        world.vehicles = [world.vehicles[i]
                          for i in rng.permutation(len(world.vehicles))]
        lane_lists = world._lane_lists()
        empty += sum(not lst for lst in lane_lists)
        for ego in world.vehicles:
            ego_lane = world.cfg.road.lane_of(ego.d)
            ties += sum(v.station == ego.station and v is not ego
                        for v in lane_lists[ego_lane])
            for lane in range(lanes):
                args = (lane_lists, lane, ego.station, ego.id)
                leader = world._leader(lane_lists, lane, ego.station)
                follower = world._follower(*args)
                assert leader == _scan_leader(world, *args)
                assert follower == _scan_follower(world, *args)
                beyond_range += leader is None and any(
                    v.station > ego.station for v in lane_lists[lane])
    assert ties and beyond_range and empty


# -- vehicle-order independence


def test_step_independent_of_vehicle_order():
    specs = [
        dict(lane=0, station=100.0, v=20.0),
        dict(lane=0, station=130.0, v=15.0),
        dict(lane=1, station=120.0, v=18.0, target=2, maneuver="changing", d=6.2),
        dict(lane=1, station=160.0, v=17.0),
        dict(lane=1, station=200.0, v=16.0, target=0, maneuver="changing", d=5.0),
        dict(lane=2, station=110.0, v=22.0),
        dict(lane=2, station=150.0, v=19.0),
        dict(lane=2, station=190.0, v=21.0),
    ]

    def policy(states):
        return [-0.1 * s.delta_d_lat for s in states]

    def run(reverse):
        world = make_world(no_spawns=True)
        for spec in specs:
            make_vehicle(world, **spec)
        for veh in world.vehicles:
            veh.trigger_drawn = True  # no trigger draw depends on order
        if reverse:
            world.vehicles.reverse()
        ticks = []
        for _ in range(20):
            res = world.step(policy, DT)
            ticks.append(({t.vehicle_id: t for t in res.transitions},
                          {ep.vehicle_id: ep for ep in res.episodes},
                          res.min_gap, sorted(res.faults)))
        state = {v.id: (v.station, v.d, v.v, v.a_lng, v.theta, v.omega,
                        v.maneuver, v.target_lane) for v in world.vehicles}
        return state, ticks

    forward, backward = run(False), run(True)
    assert len(forward[0]) == len(specs)
    assert sum(len(tick[0]) for tick in forward[1]) > 20
    assert forward == backward


# -- policy interface


def float_fields(obj):
    return [getattr(obj, f.name) for f in fields(obj) if f.type == "float"]


def test_array_policy_gets_state_rows_and_leaves_plain_floats():
    world = make_world(seed=3)
    calls = []

    def policy(states):
        # called on the pre-step snapshot, before any vehicle moves
        expected = [build_rl_state(world.cfg.road, veh) for veh in world.vehicles
                    if veh.maneuver != "keeping"]
        assert all(type(s) is RlState for s in states)
        assert states == expected
        calls.append(len(states))
        return np.array([-0.1 * s.delta_d_lat - 0.5 * s.omega for s in states])

    transitions, episodes = [], []
    for _ in range(1500):
        res = world.step(policy, DT)
        transitions.extend(res.transitions)
        episodes.extend(res.episodes)
        for veh in world.vehicles:
            assert all(type(x) is float for x in float_fields(veh))

    assert sum(calls) == len(transitions) > 0 and episodes
    assert all(type(x) is float for tr in transitions for x in float_fields(tr))
    assert len(float_fields(transitions[0])) == 5  # a_yaw and the four rewards
    assert all(type(x) is float for ep in episodes for x in float_fields(ep))
