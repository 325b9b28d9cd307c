"""Interactive highway environment in lane-centric coordinates.

One driving direction of a multi-lane highway segment.  Vehicles enter at
station 0 with randomized departure times, initial speeds, and desired
speeds, follow the modified IDM longitudinally, and (middle-lane vehicles
only) may receive lane-change commands once past a trigger station.  A
lane-changing vehicle is steered laterally by the RL policy through its
yaw acceleration; the gap monitor can abort the maneuver back to the
original lane before the commit point.

Conventions: the lateral coordinate d is measured from the right road
edge, lane 0 is the rightmost lane, lane centers sit at (i + 0.5) *
lane_width, and leftward displacement / yaw are positive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .errors import ContractError, SimulationFault
from .gapcheck import MonitorDecision, gap_acceptable, monitor_step
from .longitudinal import IdmParams, dual_leader_accel, free_leader_accel, idm_accel
from .nafq import RlState


@dataclass
class RoadSpec:
    lanes: int = 3
    lane_width: float = 3.75
    length: float = 1000.0
    # piecewise-constant curvature: (start_station, c) segments, sorted by station
    curvature_profile: list[tuple[float, float]] = field(default_factory=list)

    def center(self, lane: int) -> float:
        return (lane + 0.5) * self.lane_width

    def curvature_at(self, station: float) -> float:
        c = 0.0
        for start, value in self.curvature_profile:
            if station >= start:
                c = value
            else:
                break
        return c

    def lane_of(self, d: float) -> int:
        return min(max(int(d // self.lane_width), 0), self.lanes - 1)


@dataclass
class TrafficConfig:
    depart_min: float = 5.0
    depart_max: float = 10.0
    init_speed_min: float = 30.0 / 3.6
    init_speed_max: float = 50.0 / 3.6
    desired_speed_min: float = 80.0 / 3.6
    desired_speed_max: float = 120.0 / 3.6
    trigger_station: float = 150.0
    change_prob_left: float = 1.0 / 6.0
    change_prob_right: float = 1.0 / 6.0
    entry_clear_zone: float = 15.0


@dataclass
class RewardWeights:
    w_acce: float = 2.0
    w_rate: float = 0.5
    w_dev: float = 0.05
    d_avg: float = 1.875  # half a lane width


@dataclass(eq=False)
class VehicleState:
    id: int
    station: float
    d: float
    v: float
    a_lng: float
    theta: float
    omega: float
    lane: int
    target_lane: int
    maneuver: str  # keeping | changing | aborting
    v0: float
    length: float = 5.0
    # simulator bookkeeping
    original_lane: int = -1
    pending_target: int | None = None
    idm: IdmParams | None = None  # the world's IDM params with this v0
    occupancy: int = -1  # lane holding d, as of the last lane index
    trigger_drawn: bool = False
    episode: "EpisodeMetrics | None" = None
    episode_steps: int = 0


@dataclass
class EpisodeMetrics:
    vehicle_id: int
    start_step: int
    end_step: int = -1
    R: float = 0.0
    R_acce: float = 0.0
    R_rate: float = 0.0
    R_dev: float = 0.0
    duration: float = 0.0
    outcome: str = ""  # completed | aborted | capped | exited


@dataclass
class WorldConfig:
    road: RoadSpec = field(default_factory=RoadSpec)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    rewards: RewardWeights = field(default_factory=RewardWeights)
    idm: IdmParams = field(default_factory=IdmParams)
    episode_cap_steps: int = 300
    sensing_range: float = 150.0
    lane_changes_enabled: bool = True
    strict: bool = False


@dataclass
class StepTransition:
    vehicle_id: int
    s: RlState
    a_yaw: float  # the applied yaw acceleration, rad/s^2
    s_next: RlState
    r: float
    r_acce: float
    r_rate: float
    r_dev: float
    terminal: bool


@dataclass
class StepResult:
    transitions: list[StepTransition]
    episodes: list[EpisodeMetrics]
    min_gap: float
    faults: list[str]


def step_kinematics(state: VehicleState, a_lng_cmd: float, a_yaw_cmd: float,
                    dt: float, c: float) -> VehicleState:
    """Semi-implicit kinematic update in a fixed order, in place.

    omega, theta, v, station, d are updated in sequence; on curved
    segments the relative heading is then corrected by -c*v*dt.  The
    fields of `state` are overwritten and `state` itself is returned.
    """
    omega = state.omega + a_yaw_cmd * dt
    theta = state.theta + omega * dt
    v = max(0.0, state.v + a_lng_cmd * dt)
    state.station += v * math.cos(theta) * dt
    state.d += v * math.sin(theta) * dt
    state.omega = omega
    state.theta = theta - c * v * dt
    state.v = v
    state.a_lng = a_lng_cmd
    return state


def build_rl_state(road: RoadSpec, ego: VehicleState) -> RlState:
    """Observation for the lateral policy, relative to the target lane center."""
    return RlState(
        v=ego.v,
        a_lng=ego.a_lng,
        delta_d_lat=ego.d - road.center(ego.target_lane),
        theta=ego.theta,
        omega=ego.omega,
        c=road.curvature_at(ego.station),
    )


def immediate_reward(a_yaw: float, next_state: RlState, w: RewardWeights):
    """Penalty triple evaluated on the post-step state with the applied yaw
    acceleration."""
    r_acce = -w.w_acce * abs(a_yaw)
    r_rate = -w.w_rate * abs(next_state.omega)
    r_dev = -w.w_dev * abs(next_state.delta_d_lat) / w.d_avg
    return r_acce + r_rate + r_dev, r_acce, r_rate, r_dev


def accumulate_metrics(metrics: EpisodeMetrics, r_acce: float, r_rate: float,
                       r_dev: float) -> EpisodeMetrics:
    """Fold one step's reward components in; R stays the exact component sum."""
    metrics.R_acce += r_acce
    metrics.R_rate += r_rate
    metrics.R_dev += r_dev
    metrics.R = metrics.R_acce + metrics.R_rate + metrics.R_dev
    return metrics


# completion thresholds: close enough to the target center that residual
# penalties are negligible, reachable at dt = 0.1
DONE_D = 0.05      # m
DONE_THETA = 0.01  # rad
DONE_OMEGA = 0.05  # rad/s


def completion_check(road: RoadSpec, ego: VehicleState) -> bool:
    """True when the maneuvering ego has settled on the target lane center."""
    return (
        abs(ego.d - road.center(ego.target_lane)) <= DONE_D
        and abs(ego.theta) <= DONE_THETA
        and abs(ego.omega) <= DONE_OMEGA
    )


_STATION = attrgetter("station")


class World:
    """Mutable simulation state plus the synchronous step pipeline."""

    def __init__(self, cfg: WorldConfig, rng_spawn, rng_trigger):
        self.cfg = cfg
        self.rng_spawn = rng_spawn
        self.rng_trigger = rng_trigger
        self.time = 0.0
        self.step_count = 0
        self.vehicles: list[VehicleState] = []
        self._next_id = 0
        self._next_depart = [
            rng_spawn.uniform(cfg.traffic.depart_min, cfg.traffic.depart_max)
            for _ in range(cfg.road.lanes)
        ]
        self.fault_log: list[str] = []

    # -- neighbor queries (occupancy lane = lane containing the lateral center)

    def _lane_lists(self):
        """Vehicles per occupancy lane, each list sorted by station; each
        vehicle's occupancy lane is also recorded in `veh.occupancy`.

        The sort is stable, so vehicles at equal stations keep their order
        in `self.vehicles`.
        """
        road = self.cfg.road
        lanes = [[] for _ in range(road.lanes)]
        for veh in self.vehicles:
            veh.occupancy = lane = road.lane_of(veh.d)
            lanes[lane].append(veh)
        for lst in lanes:
            lst.sort(key=_STATION)
        return lanes

    def _leader(self, lane_lists, lane: int, station: float):
        """(gap, v) of the nearest vehicle strictly ahead in `lane`, or None.

        Contract: `station` is the ego's own station, taken from the same
        world state as `lane_lists`.  The ego then never stands strictly
        ahead of `station`, so the first vehicle past it in the sorted lane
        is the leader.
        """
        lst = lane_lists[lane]
        i = bisect_right(lst, station, key=_STATION)
        if i == len(lst):
            return None
        best = lst[i]
        gap = best.station - station - best.length
        if gap > self.cfg.sensing_range:
            return None
        return (gap, best.v)

    def _follower(self, lane_lists, lane: int, station: float, exclude_id: int):
        """(gap, v) of the nearest vehicle at or behind `station` in `lane`, or None.

        Contract as for `_leader`, and `exclude_id` is the ego's id.  When
        the ego is in `lane`, a vehicle at exactly the ego's station counts
        as behind it only if it sorts before the ego, so the follower is the
        vehicle just before the ego in the sorted lane.
        """
        lst = lane_lists[lane]
        i = bisect_right(lst, station, key=_STATION)
        # the ego, if present, is among the vehicles tied at `station`
        k = i - 1
        while k >= 0 and lst[k].station == station:
            if lst[k].id == exclude_id:
                i = k
                break
            k -= 1
        if i == 0:
            return None
        best = lst[i - 1]
        gap = station - best.station - best.length
        if gap > self.cfg.sensing_range:
            return None
        return (gap, best.v)

    # -- pipeline stages

    def _spawn(self):
        tc = self.cfg.traffic
        for lane in range(self.cfg.road.lanes):
            if self.time < self._next_depart[lane]:
                continue
            zone_clear = all(
                not (veh.station < tc.entry_clear_zone
                     and self.cfg.road.lane_of(veh.d) == lane)
                for veh in self.vehicles
            )
            if not zone_clear:
                continue  # deferred to the next step with a clear zone
            v = self.rng_spawn.uniform(tc.init_speed_min, tc.init_speed_max)
            v0 = self.rng_spawn.uniform(tc.desired_speed_min, tc.desired_speed_max)
            self.vehicles.append(VehicleState(
                id=self._next_id, station=0.0, d=self.cfg.road.center(lane),
                v=v, a_lng=0.0, theta=0.0, omega=0.0, lane=lane,
                target_lane=lane, maneuver="keeping", v0=v0,
                idm=replace(self.cfg.idm, v0=v0),
            ))
            self._next_id += 1
            self._next_depart[lane] = self.time + self.rng_spawn.uniform(
                tc.depart_min, tc.depart_max
            )

    def _trigger(self):
        if not self.cfg.lane_changes_enabled:
            return
        tc = self.cfg.traffic
        middle = self.cfg.road.lanes // 2
        for veh in self.vehicles:
            if (veh.maneuver == "keeping" and veh.lane == middle
                    and not veh.trigger_drawn and veh.station >= tc.trigger_station):
                veh.trigger_drawn = True
                u = self.rng_trigger.uniform()
                if u < tc.change_prob_left and veh.lane + 1 < self.cfg.road.lanes:
                    veh.pending_target = veh.lane + 1
                elif u < tc.change_prob_left + tc.change_prob_right and veh.lane > 0:
                    veh.pending_target = veh.lane - 1

    def _initiate_pending(self, lane_lists):
        for veh in self.vehicles:
            if veh.pending_target is None or veh.maneuver != "keeping":
                continue
            target = veh.pending_target
            assessment = gap_acceptable(
                veh.v,
                veh.idm,
                self._leader(lane_lists, target, veh.station),
                self._follower(lane_lists, target, veh.station, veh.id),
            )
            if assessment.acceptable:
                veh.maneuver = "changing"
                veh.original_lane = veh.lane
                veh.target_lane = target
                veh.pending_target = None
                veh.episode = EpisodeMetrics(vehicle_id=veh.id,
                                             start_step=self.step_count)
                veh.episode_steps = 0

    def _longitudinal(self, lane_lists, veh: VehicleState, faults: list[str]) -> float:
        p = veh.idm
        occ = veh.occupancy  # d has not changed since `lane_lists` was built
        try:
            if veh.maneuver == "keeping":
                leader = self._leader(lane_lists, occ, veh.station)
                if leader is None:
                    return free_leader_accel(veh.v, p)
                return idm_accel(veh.v, veh.v - leader[1], leader[0], p)
            own_leader = self._leader(lane_lists, occ, veh.station)
            target_leader = (self._leader(lane_lists, veh.target_lane, veh.station)
                             if veh.target_lane != occ else None)
            return dual_leader_accel(veh.v, p, own_leader, target_leader)
        except ContractError:
            # non-positive gap: collision state; brake hard, record the fault
            faults.append(f"step {self.step_count}: vehicle {veh.id} gap<=0")
            return -p.b_max

    def step(self, policy, dt: float) -> StepResult:
        """Advance the world one tick.

        `policy` maps a list of RlStates (one per maneuvering vehicle, in
        vehicle order) to as many yaw accelerations, so a network-backed
        policy can evaluate them in one batch.  All accelerations are
        computed from the pre-step snapshot, then all vehicles are
        integrated, then monitors/completions/rewards run on the post-step
        state, so the result is independent of vehicle order.
        """
        cfg = self.cfg
        faults: list[str] = []

        self._spawn()
        self._trigger()
        # occupancy depends only on d, which _initiate_pending leaves alone,
        # so this one index serves both it and the longitudinal decisions
        lane_lists = self._lane_lists()
        self._initiate_pending(lane_lists)

        # pre-step decisions from a shared snapshot, before any vehicle moves
        keepers = []  # (veh, a_lng)
        changers = []  # (veh, a_lng), aligned with rl_states
        rl_states: list[RlState] = []
        for veh in self.vehicles:
            a_lng = self._longitudinal(lane_lists, veh, faults)
            if veh.maneuver == "keeping":
                keepers.append((veh, a_lng))
            else:
                changers.append((veh, a_lng))
                rl_states.append(build_rl_state(cfg.road, veh))
        # converted once here, so every vehicle field, reward and metric
        # stays a plain float whatever array type the policy returns
        a_yaws = [float(a) for a in policy(rl_states)] if rl_states else []

        # synchronous integration: each update reads and writes only its
        # own vehicle
        for veh, a_lng in keepers:
            step_kinematics(veh, a_lng, 0.0, dt, 0.0)
        for (veh, a_lng), a_yaw in zip(changers, a_yaws, strict=True):
            c = cfg.road.curvature_at(veh.station)
            step_kinematics(veh, a_lng, a_yaw, dt, c)

        # monitors, completion, rewards on the post-step world
        post_lists = self._lane_lists()
        transitions: list[StepTransition] = []
        episodes: list[EpisodeMetrics] = []
        retired: list[VehicleState] = []
        for (veh, _a_lng), s, a_yaw in zip(changers, rl_states, a_yaws):
            if veh.maneuver == "changing":
                assessment = gap_acceptable(
                    veh.v,
                    veh.idm,
                    self._leader(post_lists, veh.target_lane, veh.station),
                    self._follower(post_lists, veh.target_lane, veh.station, veh.id),
                )
                decision = monitor_step(veh.d, veh.original_lane, veh.target_lane,
                                        cfg.road.lane_width, assessment)
                if decision is MonitorDecision.ABORT:
                    veh.maneuver = "aborting"
                    veh.target_lane = veh.original_lane

            veh.episode_steps += 1
            done = completion_check(cfg.road, veh)
            capped = not done and veh.episode_steps >= cfg.episode_cap_steps
            exited = not done and veh.station > cfg.road.length
            closed = done or capped or exited

            s_next = build_rl_state(cfg.road, veh)
            r, r_acce, r_rate, r_dev = immediate_reward(a_yaw, s_next, cfg.rewards)
            accumulate_metrics(veh.episode, r_acce, r_rate, r_dev)
            # The replay terminal flag means "no future return", which is
            # only true of genuine completion; the step cap and the road
            # exit are truncations, so the learner bootstraps through them.
            transitions.append(StepTransition(veh.id, s, a_yaw, s_next,
                                              r, r_acce, r_rate, r_dev, done))
            if closed:
                ep = veh.episode
                ep.end_step = self.step_count + 1
                ep.duration = veh.episode_steps * dt
                if capped:
                    ep.outcome = "capped"
                elif exited:
                    ep.outcome = "exited"  # left the test track mid-maneuver
                elif veh.maneuver == "aborting":
                    ep.outcome = "aborted"
                else:
                    ep.outcome = "completed"
                episodes.append(ep)
                veh.episode = None
                veh.episode_steps = 0
                if capped:
                    retired.append(veh)
                else:
                    veh.maneuver = "keeping"
                    veh.lane = veh.target_lane
                    veh.theta = 0.0
                    veh.omega = 0.0

        # collision scan per occupancy lane
        min_gap = math.inf
        for lst in post_lists:
            for rear, front in zip(lst[:-1], lst[1:]):
                gap = front.station - rear.station - front.length
                min_gap = min(min_gap, gap)
                if gap <= 0:
                    faults.append(
                        f"step {self.step_count}: overlap between "
                        f"{rear.id} and {front.id} (gap {gap:.3f})"
                    )

        self.vehicles = [
            veh for veh in self.vehicles
            if veh.station <= cfg.road.length and veh not in retired
        ]

        self.time += dt
        self.step_count += 1
        self.fault_log.extend(faults)
        if faults and cfg.strict:
            raise SimulationFault("; ".join(faults))
        return StepResult(transitions, episodes, min_gap, faults)
