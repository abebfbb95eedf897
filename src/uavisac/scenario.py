"""World construction, random trajectories, and base-station association.

A scenario bundles the static world (base stations, target, area, channel and
array constants, power limits) and serializes to JSON with explicitly
suffixed unit names.  Trajectories are forward-cone random walks between the
fixed endpoints, flown level at the endpoints' common height: every step has
the full slot displacement, headings are drawn inside a cone toward the goal,
and the final slot snaps exactly onto the end point, so the speed bound and
endpoint constraints hold by construction.

point_geometry builds a point's rotation once and derives each destination's
distance, direction, array-frame unit, element gain and path gain once; every
per-point stage reads its PointGeometry record, synthesize_point's lenient null
drop too.  The beampattern entry points take world quantities rather than a
record (the CLI's synthesize command, the tests and the benchmark call them
without one), so each derives its units once, under one rotation
(_frame_units): synthesize for its null check, cut tables and axis factors,
apply_nulls for its null check and null basis.

Max-SINR association and the optimal association label are one rule: the
station with the smallest required EIRP, lowest index on ties (see
associate).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .channel import (
    EXPECTED,
    RADAR_LOS,
    ChannelParams,
    _link_phasor,
    _path_gain,
)
from .geometry import (
    ArrayConfig,
    DirectionAngles,
    GeometryError,
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

SCENARIO_FORMAT_VERSION = 3

CONE_HALF_ANGLE_RAD = math.radians(30.0)
TURN_LIMIT_RAD = math.radians(10.0)

POLICY_CLOSEST = "closest"
POLICY_MIN_TARGET_ANGLE = "min_target_angle"
POLICY_MAX_SINR = "max_sinr"
POLICY_OPTIMAL = "optimal"
POLICY_NN = "nn_model"

# default ground-station layout; positions are not published, so they live in
# the scenario file to keep experiments reproducible
_DEFAULT_GBS_XY = ((200.0, 200.0), (1200.0, 200.0), (700.0, 750.0), (200.0, 1300.0), (1200.0, 1300.0))


def check_format_version(data: dict, expected: int, what: str) -> None:
    """Reject a loaded record written in any format version but `expected`."""
    version = data.get("format_version")
    if version != expected:
        raise ValueError(f"{what} format_version {version!r} is not supported (expected {expected})")


class InfeasibleTrajectoryError(RuntimeError):
    """Endpoints cannot be connected within the step budget."""


@dataclass
class Scenario:
    """Static world plus simulation constants.

    Values no run can use fail at construction, not mid-command: speed, slot
    length, power budget and SLL minima must be finite and positive, the EIRP
    cap, SINR threshold and station positions finite, and `array` is built
    from num_elements and the carrier once, so an array size no panel can
    take fails here too.  The beam search has one setting of its own, its
    candidate budget, and it is not a scenario value: it is
    beampattern.COUNTER_MAX.
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
    channel: ChannelParams = field(default_factory=ChannelParams)
    num_elements: int = 100
    p_max_mw: float = 1000.0
    gamma_sinr_db: float = 0.3
    eirp_max_dbm: float = 37.0
    sll_min_az_db: float = 20.0
    sll_min_el_db: float = 20.0
    num_trajectories: int = 100
    array: ArrayConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("v_max_mps", "slot_s", "p_max_mw", "sll_min_az_db", "sll_min_el_db"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("eirp_max_dbm", "gamma_sinr_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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

    @property
    def num_gbs(self) -> int:
        return int(self.gbs_m.shape[0])

    @property
    def gamma_sinr_linear(self) -> float:
        return from_db(self.gamma_sinr_db)

    def to_json_dict(self) -> dict:
        ch = self.channel
        return {
            "format_version": SCENARIO_FORMAT_VERSION,
            "area_m": [float(v) for v in self.area_m],
            "gbs_m": [[float(v) for v in row] for row in self.gbs_m],
            "target_m": [float(v) for v in self.target_m],
            "start_m": [float(v) for v in self.start_m],
            "end_m": [float(v) for v in self.end_m],
            "v_max_mps": float(self.v_max_mps),
            "slot_s": float(self.slot_s),
            "carrier_hz": float(ch.carrier_hz),
            "bandwidth_hz": float(ch.bandwidth_hz),
            "noise_power_dbm": to_db(ch.noise_mw),
            "kappa1": float(ch.kappa1),
            "kappa2": float(ch.kappa2),
            "kappa3": float(ch.kappa3),
            "absorption_per_m": float(ch.absorption_per_m),
            "nlos_attenuation": float(ch.nlos_attenuation),
            "radar_cross_section_m2": float(ch.radar_cross_section_m2),
            "num_elements": int(self.num_elements),
            "p_max_mw": float(self.p_max_mw),
            "gamma_sinr_db": float(self.gamma_sinr_db),
            "eirp_max_dbm": float(self.eirp_max_dbm),
            "sll_min_az_db": float(self.sll_min_az_db),
            "sll_min_el_db": float(self.sll_min_el_db),
            "num_trajectories": int(self.num_trajectories),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        check_format_version(data, SCENARIO_FORMAT_VERSION, "scenario")
        channel = ChannelParams(
            kappa1=data["kappa1"],
            kappa2=data["kappa2"],
            kappa3=data["kappa3"],
            absorption_per_m=data["absorption_per_m"],
            nlos_attenuation=data["nlos_attenuation"],
            radar_cross_section_m2=data["radar_cross_section_m2"],
            noise_mw=from_db(data["noise_power_dbm"]),
            bandwidth_hz=data["bandwidth_hz"],
            carrier_hz=data["carrier_hz"],
        )
        return cls(
            area_m=tuple(data["area_m"]),
            gbs_m=np.asarray(data["gbs_m"], dtype=np.float64),
            target_m=np.asarray(data["target_m"], dtype=np.float64),
            start_m=np.asarray(data["start_m"], dtype=np.float64),
            end_m=np.asarray(data["end_m"], dtype=np.float64),
            v_max_mps=data["v_max_mps"],
            slot_s=data["slot_s"],
            channel=channel,
            num_elements=data["num_elements"],
            p_max_mw=data["p_max_mw"],
            gamma_sinr_db=data["gamma_sinr_db"],
            eirp_max_dbm=data["eirp_max_dbm"],
            sll_min_az_db=data["sll_min_az_db"],
            sll_min_el_db=data["sll_min_el_db"],
            num_trajectories=data["num_trajectories"],
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


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


def orientation_from_motion(prev, nxt) -> RotationAngles:
    """Heading-from-motion orientation: yaw toward the step, pitch from climb.

    The third angle stays zero (no roll).  Zero displacement is degenerate;
    the caller keeps the previous orientation in that case.
    """
    p = as_vec3(prev)
    n = as_vec3(nxt)
    delta = n - p
    if float(np.linalg.norm(delta)) == 0.0:
        raise GeometryError("zero displacement has no heading")
    yaw = math.atan2(delta[1], delta[0])
    pitch = math.atan2(delta[2], math.hypot(delta[0], delta[1]))
    return RotationAngles(alpha=yaw, beta=pitch, gamma=0.0)


def _walk_positions(scenario: Scenario, rng: np.random.Generator) -> list[NDArray[np.float64]]:
    step = scenario.v_max_mps * scenario.slot_s
    if step <= 0.0:
        raise InfeasibleTrajectoryError("non-positive step budget")
    start = scenario.start_m.copy()
    end = scenario.end_m.copy()
    positions = [start.copy()]
    pos = start.copy()
    total = float(np.linalg.norm(end - start))
    max_slots = 100 * max(1, math.ceil(total / step)) + 100
    w, h = scenario.area_m
    heading = math.atan2(end[1] - start[1], end[0] - start[0])
    while float(np.linalg.norm(end - pos)) > step:
        if len(positions) > max_slots:
            raise InfeasibleTrajectoryError("endpoints too far apart for the step budget")
        base = math.atan2(end[1] - pos[1], end[0] - pos[0])
        nxt = None
        for _ in range(20):
            # forward cone toward the goal, with a per-slot turn-rate limit
            desired = base + rng.uniform(-CONE_HALF_ANGLE_RAD, CONE_HALF_ANGLE_RAD)
            turn = _wrap_angle(desired - heading)
            cand_heading = heading + max(-TURN_LIMIT_RAD, min(TURN_LIMIT_RAD, turn))
            off_base = _wrap_angle(cand_heading - base)
            cand_heading = base + max(
                -CONE_HALF_ANGLE_RAD, min(CONE_HALF_ANGLE_RAD, off_base)
            )
            cand = pos + step * np.array(
                [math.cos(cand_heading), math.sin(cand_heading), 0.0]
            )
            if 0.0 <= cand[0] <= w and 0.0 <= cand[1] <= h:
                nxt = cand
                heading = cand_heading
                break
        if nxt is None:
            # straight step toward the goal stays inside the convex area
            nxt = pos + step * np.array([math.cos(base), math.sin(base), 0.0])
            heading = base
        positions.append(nxt.copy())
        pos = nxt
    positions.append(end.copy())
    return positions


def generate_trajectories(scenario: Scenario, count: int, seed: int) -> list[Trajectory]:
    """Seeded forward-cone walks from the start point to the end point."""
    if count < 1:
        raise ValueError("count must be at least 1")
    seeds = np.random.SeedSequence(seed).spawn(count)
    trajectories = []
    for idx in range(count):
        rng = np.random.default_rng(seeds[idx])
        positions = _walk_positions(scenario, rng)
        points = []
        orientation = RotationAngles(0.0, 0.0, 0.0)
        for slot, pos in enumerate(positions):
            if slot + 1 < len(positions):
                orientation = orientation_from_motion(pos, positions[slot + 1])
            # the final point keeps the inbound heading
            points.append(TrajectoryPoint(slot=slot, position=pos, orientation=orientation))
        trajectories.append(Trajectory(id=idx, points=tuple(points)))
    return trajectories


def _wrap_angle(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


@dataclass(frozen=True)
class PointGeometry:
    """One trajectory point's global direction, array-frame unit and angles,
    and element gain toward the target and each station (by index), each
    station's distance and EXPECTED path gain (read by min_required_eirp_dbm
    and evaluation's serving channel), and the steering vector and radar
    channel toward the target (the channel is channel_vector's, built on that
    steering vector).

    Network features carry the array-frame angles: the synthesized weights
    depend on the beam direction relative to the aperture.  gbs_by_distance
    lists the stations nearest first, ties by lowest index.
    """

    point: TrajectoryPoint
    target_dir: DirectionAngles
    target_unit: NDArray[np.float64]
    target_frame: DirectionAngles
    target_gain: float
    target_steering: NDArray[np.complex128]
    target_channel: NDArray[np.complex128]
    gbs_dir: tuple[DirectionAngles, ...]
    gbs_unit: tuple[NDArray[np.float64], ...]
    gbs_frame: tuple[DirectionAngles, ...]
    gbs_gain: tuple[float, ...]
    gbs_distance_m: tuple[float, ...]
    gbs_path_gain: tuple[float, ...]
    gbs_by_distance: tuple[int, ...]


def _toward(position, rot, dest):
    """Distance, direction, array-frame unit and its angles, and element gain toward dest."""
    distance, direction = offset_direction(position - dest)
    unit = array_frame_unit(rot, direction)
    frame = DirectionAngles(math.acos(min(1.0, max(-1.0, unit[2]))), math.atan2(unit[1], unit[0]))
    return distance, direction, unit, frame, element_gain(unit)


def point_geometry(scenario: Scenario, point: TrajectoryPoint) -> PointGeometry:
    """The PointGeometry of one trajectory point: one rotation, one pass per destination."""
    position = as_vec3(point.position)
    rot = rotation_matrix(point.orientation)
    rows = [_toward(position, rot, dest) for dest in (scenario.target_m, *scenario.gbs_m)]
    distances, dirs, units, frames, gains = zip(*rows)
    ch, gbs_distances = scenario.channel, distances[1:]
    radar_gain = _path_gain(ch, RADAR_LOS, position, scenario.target_m, distances[0])
    target_steering = steering(scenario.array, units[0])
    return PointGeometry(
        point=point,
        target_dir=dirs[0],
        target_unit=units[0],
        target_frame=frames[0],
        target_gain=gains[0],
        target_steering=target_steering,
        target_channel=_link_phasor(ch, distances[0], radar_gain) * target_steering,
        gbs_dir=dirs[1:],
        gbs_unit=units[1:],
        gbs_frame=frames[1:],
        gbs_gain=gains[1:],
        gbs_distance_m=gbs_distances,
        gbs_path_gain=tuple(
            _path_gain(ch, EXPECTED, position, t, d) for t, d in zip(scenario.gbs_m, gbs_distances)
        ),
        gbs_by_distance=tuple(int(i) for i in np.argsort(gbs_distances, kind="stable")),
    )


def associate(scenario: Scenario, geo: PointGeometry, policy: str) -> int:
    """Pick the serving ground station for one trajectory point by a fixed rule.

    closest: smallest 3D distance.  min_target_angle: azimuth closest to the
    target azimuth.  max_sinr and optimal: the label_optimal_association
    station.  Ties go to the lowest index.  The nn_model policy is no rule of
    the geometry: evaluate_trajectory asks the trained association network
    for its station.

    max_sinr is the same rule as optimal.  Probe station k with a matched
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
        phi_target = geo.target_dir.phi
        gaps = [abs(_wrap_angle(d.phi - phi_target)) for d in geo.gbs_dir]
        return int(np.argmin(gaps))
    if policy in (POLICY_MAX_SINR, POLICY_OPTIMAL):
        return label_optimal_association(scenario, geo)
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
    interference in mW; g_e and PL are the record's gbs_gain and gbs_path_gain.
    """
    required_mw = (
        scenario.gamma_sinr_linear
        * (scenario.channel.noise_mw + interference)
        * geo.gbs_gain[gbs_index]
        / geo.gbs_path_gain[gbs_index]
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
