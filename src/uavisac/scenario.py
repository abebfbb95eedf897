"""World construction, random trajectories, and base-station association.

A scenario bundles the static world (base stations, target, area, channel and
array constants, power limits).  Its JSON file is the Scenario dataclass laid
out by the codec module, under unit-suffixed names; noise is held in dBm, as
written, so a file saves back byte for byte.  Trajectories are forward-cone
random walks between the fixed endpoints, flown level at the endpoints'
common height: every step has the full slot displacement, headings are drawn
inside a cone toward the goal, and the final slot snaps exactly onto the end
point, so the speed bound and endpoint constraints hold by construction.
Each point yaws along its step as flown, the end point along its inbound
step, with no pitch or roll.

link_toward derives a destination's Link (distance, direction, array-frame
unit and angles, element gain, path gain), and point_geometry one Link per
destination under one rotation; every per-point stage reads its PointGeometry
record, synthesize_point's lenient null drop too, while training and
predict_association, which read only the target, call link_toward.  The
beampattern entry points take world quantities rather than a record (the CLI's
synthesize command, the tests and the benchmark call them without one), so each
derives its units once, under one rotation (_frame_units): synthesize for its
null check, its cut tables and its null phasors relative to the pointing,
apply_nulls for its null check and null basis.

Each association policy has one name, the one --policy takes.  Max-SINR
association (sinr) and the optimal association label are one rule: the
station with the smallest required EIRP, lowest index on ties (see associate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .channel import ChannelParams, _link_phasor, radar_path_gain, station_path_gain
from .codec import INLINE, decode, encode
from .geometry import (
    ArrayConfig,
    DirectionAngles,
    Pose,
    RotationAngles,
    array_frame_unit,
    as_vec3,
    element_gain,
    offset_direction,
    rotation_matrix,
    steering,
)
from .units import from_db, to_db

CONE_HALF_ANGLE_RAD = math.radians(30.0)
TURN_LIMIT_RAD = math.radians(10.0)

POLICY_CLOSEST = "closest"
POLICY_MIN_TARGET_ANGLE = "angle"
POLICY_MAX_SINR = "sinr"
POLICY_NN = "nn"
POLICIES = (POLICY_CLOSEST, POLICY_MIN_TARGET_ANGLE, POLICY_MAX_SINR, POLICY_NN)

# default ground-station layout; positions are not published, so they live in
# the scenario file to keep experiments reproducible
_DEFAULT_GBS_XY = ((200.0, 200.0), (1200.0, 200.0), (700.0, 750.0), (200.0, 1300.0), (1200.0, 1300.0))


@dataclass
class Scenario:
    """Static world plus simulation constants.

    Values no run can use fail at construction, not mid-command: speed, slot
    length, power budget and SLL minima must be finite and positive, as must
    a walk's step, speed times slot length, which can underflow; the EIRP
    cap, SINR threshold and station positions finite, every dB setting's
    linear value positive and finite, as the noise power's, and `array` is built
    from num_elements and the carrier once, so an array size no panel can
    take fails here too, as does a panel side under the taper's two
    elements.  The beam search has one setting of its own, its candidate
    budget, and it is not a scenario value: it is beampattern.COUNTER_MAX.
    """

    area_m: tuple[float, float] = (1500.0, 1500.0)
    gbs_m: NDArray[np.float64] = field(
        default_factory=lambda: np.array([(x, y, 2.0) for x, y in _DEFAULT_GBS_XY])
    )
    target_m: NDArray[np.float64] = field(default_factory=lambda: np.array([350.0, 400.0, 0.0]))
    start_m: NDArray[np.float64] = field(default_factory=lambda: np.array([0.0, 0.0, 100.0]))
    end_m: NDArray[np.float64] = field(default_factory=lambda: np.array([700.0, 800.0, 100.0]))
    v_max_mps: float = 10.0
    slot_s: float = 1.0
    channel: ChannelParams = field(default_factory=ChannelParams, metadata=INLINE)
    num_elements: int = 100
    p_max_mw: float = 1000.0
    gamma_sinr_db: float = 0.3
    eirp_max_dbm: float = 37.0
    sll_min_az_db: float = 20.0
    sll_min_el_db: float = 20.0
    num_trajectories: int = 100
    array: ArrayConfig = field(init=False, repr=False, compare=False)

    FORMAT_VERSION = 3
    SHAPES = {"area_m": (2,), "gbs_m": (None, 3), "target_m": (3,), "start_m": (3,), "end_m": (3,)}

    def __post_init__(self) -> None:
        for name in ("v_max_mps", "slot_s", "p_max_mw", "sll_min_az_db", "sll_min_el_db"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.v_max_mps * self.slot_s == 0.0:
            raise ValueError("v_max_mps * slot_s, a walk's step, underflows to zero")
        # NaN and infinite dB values fail this too
        for name in ("eirp_max_dbm", "gamma_sinr_db", "sll_min_az_db", "sll_min_el_db"):
            if not 0.0 < from_db(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must have a positive, finite linear value")
        self.area_m = tuple(self.area_m)
        if len(self.area_m) != 2 or not all(0.0 < v < math.inf for v in self.area_m):
            raise ValueError("area_m must hold two finite and positive values")
        if self.num_trajectories < 1:
            raise ValueError("num_trajectories must be at least 1")
        self.gbs_m = np.atleast_2d(np.asarray(self.gbs_m, dtype=np.float64))
        if not np.isfinite(self.gbs_m).all():
            raise ValueError("gbs_m entries must be finite")
        self.target_m = as_vec3(self.target_m)
        self.start_m = as_vec3(self.start_m)
        self.end_m = as_vec3(self.end_m)
        if self.gbs_m.shape[0] < 1 or self.gbs_m.shape[1] != 3:
            raise ValueError("gbs_m must hold at least one (x, y, z) row")
        top = float(np.max(self.gbs_m[:, 2]))
        # a walk flies level at the start height and lands on the end point
        for name, point in (("start", self.start_m), ("end", self.end_m)):
            if not (0.0 <= point[0] <= self.area_m[0] and 0.0 <= point[1] <= self.area_m[1]):
                raise ValueError(f"{name} point lies outside the area")
            if point[2] <= top:
                raise ValueError(f"{name} point must lie above every base station")
        if self.end_m[2] != self.start_m[2]:
            raise ValueError("end point must lie at the start height: a walk flies level")
        if np.array_equal(self.end_m, self.start_m):
            raise ValueError("start and end points coincide: a walk needs a heading")
        self.array = ArrayConfig(num_elements=self.num_elements, carrier_hz=self.channel.carrier_hz)
        if self.array.side < 2:
            raise ValueError(
                f"num_elements must give a panel side of at least 2, got {self.num_elements}"
            )

    @property
    def num_gbs(self) -> int:
        return int(self.gbs_m.shape[0])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(encode(self), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return decode(cls, json.load(fh), "scenario")


@dataclass(frozen=True)
class TrajectoryPoint:
    slot: int
    position: NDArray[np.float64]
    orientation: RotationAngles

    @property
    def pose(self) -> Pose:
        return Pose(position=self.position, angles=self.orientation)


@dataclass(frozen=True)
class Trajectory:
    id: int
    points: tuple[TrajectoryPoint, ...]

    def __len__(self) -> int:
        return len(self.points)


def _walk(scenario: Scenario, rng: np.random.Generator) -> tuple[TrajectoryPoint, ...]:
    # every heading lies within 30 degrees of the goal, so each step taken more than
    # a step out closes at least 0.48 of one, and Scenario keeps the step positive
    step = scenario.v_max_mps * scenario.slot_s
    x, y, z = scenario.start_m.tolist()
    end_x, end_y, _ = scenario.end_m.tolist()
    w, h = scenario.area_m
    path = [(x, y)]
    heading = math.atan2(end_y - y, end_x - x)
    while math.hypot(end_x - x, end_y - y) > step:
        base = math.atan2(end_y - y, end_x - x)
        for _ in range(20):
            # forward cone toward the goal, with a per-slot turn-rate limit
            desired = base + rng.uniform(-CONE_HALF_ANGLE_RAD, CONE_HALF_ANGLE_RAD)
            turn = _wrap_angle(desired - heading)
            cand_heading = heading + max(-TURN_LIMIT_RAD, min(TURN_LIMIT_RAD, turn))
            off_base = _wrap_angle(cand_heading - base)
            cand_heading = base + max(-CONE_HALF_ANGLE_RAD, min(CONE_HALF_ANGLE_RAD, off_base))
            cand_x = x + step * math.cos(cand_heading)
            cand_y = y + step * math.sin(cand_heading)
            if 0.0 <= cand_x <= w and 0.0 <= cand_y <= h:
                break
        else:
            # straight step toward the goal stays inside the convex area
            cand_heading = base
            cand_x = x + step * math.cos(base)
            cand_y = y + step * math.sin(base)
        heading, x, y = cand_heading, cand_x, cand_y
        path.append((x, y))
    path.append((end_x, end_y))
    # yaw along each step as flown, not the drawn heading, which differs by roundoff;
    # the end point keeps the inbound yaw
    yaws = [math.atan2(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(path, path[1:])]
    yaws.append(yaws[-1])
    return tuple(
        TrajectoryPoint(slot, np.array([px, py, z]), RotationAngles(yaw, 0.0, 0.0))
        for slot, ((px, py), yaw) in enumerate(zip(path, yaws))
    )


def generate_trajectories(scenario: Scenario, count: int, seed: int) -> list[Trajectory]:
    """Seeded forward-cone walks from the start point to the end point."""
    if count < 1:
        raise ValueError("count must be at least 1")
    seeds = np.random.SeedSequence(seed).spawn(count)
    return [
        Trajectory(id=idx, points=_walk(scenario, np.random.default_rng(s)))
        for idx, s in enumerate(seeds)
    ]


def _wrap_angle(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


class Link(NamedTuple):
    """One destination as a trajectory point sees it: distance (m), world direction,
    array-frame unit and its angles, element gain, and channel path gain
    (radar_path_gain for the target, station_path_gain for a station)."""

    distance_m: float
    direction: DirectionAngles
    unit: NDArray[np.float64]
    frame: DirectionAngles
    gain: float
    path_gain: float


def link_toward(channel: ChannelParams, position, rot, dest, *, radar: bool = False) -> Link:
    """The Link from position (a length-3 array), under the pose rotation rot, toward
    dest: the radar target's with radar=True, else a ground station's."""
    distance, direction = offset_direction(position - dest)
    unit = array_frame_unit(rot, direction)
    ux, uy, uz = unit.tolist()
    frame = DirectionAngles(math.acos(min(1.0, max(-1.0, uz))), math.atan2(uy, ux))
    path_gain = (radar_path_gain(channel, distance) if radar
                 else station_path_gain(channel, position, dest, distance))
    return Link(distance, direction, unit, frame, element_gain(unit), path_gain)


@dataclass(frozen=True)
class PointGeometry:
    """One trajectory point's Link toward the target and toward each station (by
    index), the target's steering vector and radar channel (the echo's
    channel_vector under radar_path_gain), and the stations nearest first, ties
    by lowest index.

    Network features carry each Link's array-frame angles: the synthesized
    weights depend on the beam direction relative to the aperture.
    """

    point: TrajectoryPoint
    target: Link
    gbs: tuple[Link, ...]
    target_steering: NDArray[np.complex128]
    target_channel: NDArray[np.complex128]
    gbs_by_distance: tuple[int, ...]


def point_geometry(scenario: Scenario, point: TrajectoryPoint) -> PointGeometry:
    """The PointGeometry of one trajectory point: one rotation, one Link per destination."""
    position = as_vec3(point.position)
    rot = rotation_matrix(point.orientation)
    ch = scenario.channel
    target = link_toward(ch, position, rot, scenario.target_m, radar=True)
    gbs = tuple(link_toward(ch, position, rot, t) for t in scenario.gbs_m)
    target_steering = steering(scenario.array, target.unit)
    return PointGeometry(
        point=point,
        target=target,
        gbs=gbs,
        target_steering=target_steering,
        target_channel=_link_phasor(ch, target.distance_m, target.path_gain) * target_steering,
        gbs_by_distance=tuple(sorted(range(len(gbs)), key=lambda k: gbs[k].distance_m)),
    )


def associate(scenario: Scenario, geo: PointGeometry, policy: str) -> int:
    """Pick the serving ground station for one trajectory point by a fixed rule.

    closest: smallest 3D distance.  angle: azimuth closest to the target
    azimuth.  sinr: the label_optimal_association station.  Ties go to the
    lowest index.  The nn policy is no rule of the geometry:
    evaluate_trajectory asks the trained association network for its station.

    sinr is the label's own rule.  Probe station k with a matched
    full-aperture beam at the EIRP cap: with element gain g_k > 0 toward k it
    delivers |h_k^H w_k|^2 = PL_k * EIRP_cap / g_k, while the matched sensing
    beam's interference |h_s^H w_s|^2 is the same for every station.  So the
    highest probe SINR is the smallest gamma * (N + I) * g_k / PL_k, the
    min_required_eirp_dbm argmin, for any interference I.  The rules part
    only at g_k == 0 exactly (a station straight behind the aperture): no
    matched beam reaches the cap there, while the closed form gives -inf dBm
    and picks that station.
    """
    if policy == POLICY_CLOSEST:
        return geo.gbs_by_distance[0]
    if policy == POLICY_MIN_TARGET_ANGLE:
        phi_target = geo.target.direction.phi
        gaps = [abs(_wrap_angle(g.direction.phi - phi_target)) for g in geo.gbs]
        return int(np.argmin(gaps))
    if policy == POLICY_MAX_SINR:
        return label_optimal_association(scenario, geo)
    if policy == POLICY_NN:
        raise ValueError("the nn policy is the association network's choice, not a rule of "
                         "the geometry: evaluate_trajectory takes it with a trained bundle")
    raise ValueError(f"unknown association policy {policy!r}")


def min_required_eirp_dbm(
    scenario: Scenario,
    geo: PointGeometry,
    gbs_index: int,
    interference: float = 0.0,
) -> float:
    """Minimum EIRP (dBm, uncapped) meeting the SINR threshold at one station.

    For a beam pointed at the station the pattern gain cancels between the
    radiated EIRP and the received power, leaving
    EIRP_min = gamma * (noise + interference) * g_e / PL, with the
    interference in mW; g_e and PL are the station Link's gain and path_gain.
    """
    required_mw = (
        from_db(scenario.gamma_sinr_db)
        * (scenario.channel.noise_mw + interference)
        * geo.gbs[gbs_index].gain
        / geo.gbs[gbs_index].path_gain
    )
    return to_db(required_mw)


def label_optimal_association(scenario: Scenario, geo: PointGeometry) -> int:
    """The station with the smallest required EIRP, lowest index on ties.

    Every station feasible under the EIRP cap reaches the SINR threshold
    exactly at its minimum EIRP, so feasible stations tie in rate and the
    smallest requirement wins.  An infeasible station transmits at the cap
    and its SINR falls as its requirement rises, so when no station is
    feasible the smallest requirement is still the highest-rate station.
    Interference scales every station's requirement by the same factor, so
    the label is computed without it; whether the station is feasible is
    min_required_eirp_dbm at the returned index against the cap.
    """
    required = [min_required_eirp_dbm(scenario, geo, idx) for idx in range(scenario.num_gbs)]
    return int(np.argmin(required))
