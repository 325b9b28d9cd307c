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

from .errors import ConfigurationError, ContractError, NumericalError
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
        # min(max(lane, 0), top) without the builtin calls (hot path)
        lane = int(d // self.lane_width)
        lane = 0 if 0 > lane else lane
        top = self.lanes - 1
        return top if top < lane else lane


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
    # simulator bookkeeping
    pending_target: int | None = None
    idm: IdmParams | None = None  # the world's IDM params with this vehicle's v0
    occupancy: int = -1  # lane holding d, as of the last lane index
    occupancy_d: float = math.nan  # the d `occupancy` was computed from
    # nearest vehicle strictly ahead in `occupancy`, as of the pre-step index
    lead: "VehicleState | None" = field(default=None, repr=False)
    trigger_drawn: bool = False
    episode: "EpisodeMetrics | None" = None


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

    def validate(self):
        # at zero or below, each fails a run midway (a division or a square
        # root), leaves no road or closes every episode in its first tick
        tc = self.traffic
        for name, value in (("road.lanes", self.road.lanes),
                            ("road.lane_width", self.road.lane_width),
                            ("idm.a_m", self.idm.a_m), ("idm.b", self.idm.b),
                            ("reward.d_avg", self.rewards.d_avg),
                            ("traffic.desired_speed_min", tc.desired_speed_min),
                            ("sim.episode_cap_steps", self.episode_cap_steps)):
            if value <= 0:
                raise ConfigurationError(f"config field {name} must be positive, "
                                         f"not {value!r}")
        # no car reaches a station past the road's end, so none would change lanes
        if self.lane_changes_enabled and tc.trigger_station > self.road.length:
            raise ConfigurationError(
                "config field traffic.trigger_station must not exceed road.length "
                f"while sim.lane_changes_enabled, not {tc.trigger_station!r} > "
                f"{self.road.length!r}")
        # a reversed range fails the first draw from it, midway through a run
        for name in ("depart", "init_speed", "desired_speed"):
            low, high = getattr(tc, f"{name}_min"), getattr(tc, f"{name}_max")
            if low > high:
                raise ConfigurationError(f"config field traffic.{name}_min must not exceed "
                                         f"traffic.{name}_max, not {low!r} > {high!r}")
        return self


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
    terminal: bool  # no future return, so the learner does not bootstrap; see CLOSES


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
    fields of `state` are overwritten and `state` itself is returned.  A
    negative speed is floored to 0.0, and a NaN one raises NumericalError
    before any field is written.
    `World.step` moves only maneuvering vehicles with it.
    """
    omega = state.omega + a_yaw_cmd * dt
    theta = state.theta + omega * dt
    v = state.v + a_lng_cmd * dt
    if not v > 0.0:  # max(0.0, v) for a number; a NaN is refused, not parked
        if v != v:
            raise NumericalError(f"vehicle {state.id} has speed v={v}")
        v = 0.0
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


# How each outcome closes an episode: (terminal, retired).  A retired car
# leaves the road at once, an exited one with the end-of-tick filter.
CLOSES = {
    "completed": (True, False),
    "aborted": (True, False),
    "capped": (False, True),
    "exited": (False, False),
}

VEHICLE_LENGTH = 5.0  # m, of every vehicle; a gap is a station difference less one length
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

        A lane is recomputed only when `veh.d` differs from the `d` it was
        last computed from, since it depends on nothing else.  A NaN `d`
        never equals itself, so it always reaches `lane_of`.  The sort is
        stable, so vehicles at equal stations keep their order in
        `self.vehicles`.
        """
        road = self.cfg.road
        lane_of = road.lane_of
        lanes = [[] for _ in range(road.lanes)]
        for veh in self.vehicles:
            d = veh.d
            if d != veh.occupancy_d:
                try:
                    veh.occupancy = lane_of(d)
                except (ValueError, OverflowError):
                    raise NumericalError(f"step {self.step_count}: vehicle "
                                         f"{veh.id} has lateral position d={d}") from None
                veh.occupancy_d = d
            lanes[veh.occupancy].append(veh)
        for lst in lanes:
            lst.sort(key=_STATION)
        return lanes

    @staticmethod
    def _lanes_ordered(lane_lists) -> bool:
        """Whether each lane is still strictly increasing in station, so that
        sorting it again would give the same order."""
        for lst in lane_lists:
            prev = -math.inf
            for veh in lst:
                station = veh.station
                if not prev < station:  # a tie, a pass or a NaN
                    return False
                prev = station
        return True

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
        gap = best.station - station - VEHICLE_LENGTH
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
        gap = station - best.station - VEHICLE_LENGTH
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
                target_lane=lane, maneuver="keeping", idm=replace(self.cfg.idm, v0=v0),
            ))
            self._next_id += 1
            self._next_depart[lane] = self.time + self.rng_spawn.uniform(
                tc.depart_min, tc.depart_max
            )

    def _gap_test(self, lane_lists, veh: VehicleState, lane: int):
        """The gap assessment of `veh` moving into `lane`."""
        return gap_acceptable(veh.v, veh.idm, self._leader(lane_lists, lane, veh.station),
                              self._follower(lane_lists, lane, veh.station, veh.id))

    def _longitudinal(self, lane_lists, veh: VehicleState, faults: list[str]) -> float:
        p = veh.idm
        lead = veh.lead  # as `_leader(lane_lists, veh.occupancy, veh.station)` finds it
        own_leader = None
        if lead is not None:
            gap = lead.station - veh.station - VEHICLE_LENGTH
            own_leader = None if gap > self.cfg.sensing_range else (gap, lead.v)
        try:
            if veh.maneuver == "keeping":
                if own_leader is None:
                    return free_leader_accel(veh.v, p)
                return idm_accel(veh.v, veh.v - own_leader[1], own_leader[0], p)
            target_leader = (self._leader(lane_lists, veh.target_lane, veh.station)
                             if veh.target_lane != veh.occupancy else None)
            return dual_leader_accel(veh.v, p, own_leader, target_leader)
        except ContractError:
            # non-positive gap: collision state; brake hard, record the fault
            faults.append(f"step {self.step_count}: vehicle {veh.id} gap<=0")
            return -p.b_max

    def step(self, policy, dt: float) -> StepResult:
        """Advance the world one tick.

        `policy` maps a list of RlStates (one per maneuvering vehicle, in
        vehicle order) to as many yaw accelerations, so a network-backed
        policy can evaluate them in one batch.  One pass over the vehicles
        makes every pre-step decision from the pre-step snapshot: a keeper's
        trigger draw, the start of its lane change and each vehicle's
        longitudinal acceleration.  Then all vehicles are integrated, then
        monitors/completions/rewards run on the post-step state, so the
        result is independent of vehicle order.
        """
        cfg = self.cfg
        faults: list[str] = []

        self._spawn()
        # occupancy depends only on d, which no pre-step decision changes,
        # so this one index serves the gap tests and the longitudinal ones
        lane_lists = self._lane_lists()
        # one walk from each lane's front gives every vehicle its leader;
        # vehicles tied at a station share the one past them, as in `_leader`
        for lst in lane_lists:
            lead = ahead = None
            for veh in reversed(lst):
                if ahead is not None and ahead.station > veh.station:
                    lead = ahead
                veh.lead = lead
                ahead = veh

        # pre-step decisions from a shared snapshot, before any vehicle moves:
        # a draw or a start reads only its own vehicle, the trigger stream and
        # stations, speeds and ids, which no decision changes
        changes = cfg.lane_changes_enabled  # no draws, so no pending targets
        tc = cfg.traffic
        middle = cfg.road.lanes // 2
        keepers = []  # (veh, a_lng)
        changers = []  # (veh, a_lng), aligned with rl_states
        rl_states: list[RlState] = []
        for veh in self.vehicles:
            if changes and veh.maneuver == "keeping":
                if (veh.lane == middle and not veh.trigger_drawn
                        and veh.station >= tc.trigger_station):
                    veh.trigger_drawn = True
                    u = self.rng_trigger.uniform()
                    if u < tc.change_prob_left and veh.lane + 1 < cfg.road.lanes:
                        veh.pending_target = veh.lane + 1
                    elif u < tc.change_prob_left + tc.change_prob_right and veh.lane > 0:
                        veh.pending_target = veh.lane - 1
                if (veh.pending_target is not None
                        and self._gap_test(lane_lists, veh, veh.pending_target).acceptable):
                    veh.maneuver = "changing"
                    veh.target_lane = veh.pending_target
                    veh.pending_target = None
                    veh.episode = EpisodeMetrics(vehicle_id=veh.id,
                                                 start_step=self.step_count)
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
        # own vehicle.  A keeper's theta and omega are 0.0 (set at spawn and
        # at every close), so this is step_kinematics' straight-line case.
        for veh, a_lng in keepers:
            v = veh.v + a_lng * dt
            if not v > 0.0:  # as in step_kinematics
                if v != v:
                    raise NumericalError(f"step {self.step_count}: vehicle "
                                         f"{veh.id} has speed v={v}")
                v = 0.0
            veh.station += v * dt
            veh.v = v
            veh.a_lng = a_lng
        try:
            for (veh, a_lng), s, a_yaw in zip(changers, rl_states, a_yaws, strict=True):
                step_kinematics(veh, a_lng, a_yaw, dt, s.c)  # c at the pre-step station
        except NumericalError as exc:
            raise NumericalError(f"step {self.step_count}: {exc}") from None

        # monitors, completion, rewards on the post-step world; `veh.lane`
        # is the lane a maneuver started from until its episode closes
        # with no changers no d moved and the policy, which may edit
        # `self.vehicles`, was not called, so only the order can be stale
        post_lists = (lane_lists if not changers and self._lanes_ordered(lane_lists)
                      else self._lane_lists())
        transitions: list[StepTransition] = []
        episodes: list[EpisodeMetrics] = []
        for (veh, _a_lng), s, a_yaw in zip(changers, rl_states, a_yaws):
            if veh.maneuver == "changing":
                assessment = self._gap_test(post_lists, veh, veh.target_lane)
                decision = monitor_step(veh.d, veh.lane, veh.target_lane,
                                        cfg.road.lane_width, assessment)
                if decision is MonitorDecision.ABORT:
                    veh.maneuver = "aborting"
                    veh.target_lane = veh.lane

            ep = veh.episode
            steps = self.step_count + 1 - ep.start_step  # ticks in the episode
            if completion_check(cfg.road, veh):
                outcome = "aborted" if veh.maneuver == "aborting" else "completed"
            elif steps >= cfg.episode_cap_steps:
                outcome = "capped"
            elif veh.station > cfg.road.length:
                outcome = "exited"  # left the test track mid-maneuver
            else:
                outcome = None
            terminal, retired = CLOSES[outcome] if outcome else (False, False)

            s_next = build_rl_state(cfg.road, veh)
            r, r_acce, r_rate, r_dev = immediate_reward(a_yaw, s_next, cfg.rewards)
            accumulate_metrics(ep, r_acce, r_rate, r_dev)
            transitions.append(StepTransition(veh.id, s, a_yaw, s_next,
                                              r, r_acce, r_rate, r_dev, terminal))
            if outcome:
                ep.end_step = self.step_count + 1
                ep.duration = steps * dt
                ep.outcome = outcome
                episodes.append(ep)
                veh.episode = None
                if retired:
                    self.vehicles.remove(veh)
                else:
                    veh.maneuver = "keeping"
                    veh.lane = veh.target_lane
                    veh.theta = 0.0
                    veh.omega = 0.0

        # collision scan per occupancy lane
        min_gap = math.inf
        for lst in post_lists:
            for rear, front in zip(lst, lst[1:]):
                gap = front.station - rear.station - VEHICLE_LENGTH
                if gap < min_gap:  # min(min_gap, gap)
                    min_gap = gap
                if gap <= 0:
                    faults.append(
                        f"step {self.step_count}: overlap between "
                        f"{rear.id} and {front.id} (gap {gap:.3f})"
                    )

        on_road = [veh for veh in self.vehicles if veh.station <= cfg.road.length]
        if len(on_road) < len(self.vehicles):  # exits, or a NaN station to refuse
            for veh in self.vehicles:
                if veh.station != veh.station:
                    raise NumericalError(f"step {self.step_count}: vehicle "
                                         f"{veh.id} has station={veh.station}")
        self.vehicles = on_road

        self.time += dt
        self.step_count += 1
        self.fault_log.extend(faults)
        return StepResult(transitions, episodes, min_gap, faults)
