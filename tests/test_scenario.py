import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from uavisac.beampattern import BeamWeights
from uavisac.channel import (
    ChannelParams,
    channel_vector,
    radar_path_gain,
    sinr,
    station_path_gain,
)
from uavisac.codec import decode, encode
from uavisac.geometry import (
    SPEED_OF_LIGHT,
    ConfigError,
    DirectionAngles,
    array_frame_unit,
    direction_angles,
    element_gain,
    rotation_matrix,
    steering,
    steering_vector,
)
from uavisac.scenario import (
    POLICY_CLOSEST,
    POLICY_MAX_SINR,
    POLICY_MIN_TARGET_ANGLE,
    Scenario,
    TrajectoryPoint,
    associate,
    generate_trajectories,
    label_optimal_association,
    min_required_eirp_dbm,
    point_geometry,
)
from uavisac.geometry import RotationAngles
from uavisac.units import from_db


def small_scenario(**kwargs):
    defaults = dict(
        area_m=(600.0, 600.0),
        gbs_m=np.array([[100.0, 100.0, 2.0], [400.0, 150.0, 2.0], [250.0, 450.0, 2.0]]),
        target_m=np.array([300.0, 300.0, 0.0]),
        start_m=np.array([50.0, 50.0, 100.0]),
        end_m=np.array([450.0, 500.0, 100.0]),
        num_elements=64,
        num_trajectories=2,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def level_point(x, y, yaw=0.0, altitude=100.0):
    return TrajectoryPoint(
        slot=0,
        position=np.array([x, y, altitude]),
        orientation=RotationAngles(yaw, 0.0, 0.0),
    )


def test_default_scenario_matches_table_values():
    scn = Scenario()
    assert scn.area_m == (1500.0, 1500.0)
    assert scn.num_gbs == 5
    assert scn.v_max_mps == 10.0
    assert scn.slot_s == 1.0
    assert scn.channel.carrier_hz == pytest.approx(0.3e12)
    assert scn.channel.bandwidth_hz == pytest.approx(100e6)
    assert scn.channel.noise_mw == 1e-11
    assert scn.gamma_sinr_db == pytest.approx(0.3)
    assert scn.eirp_max_dbm == pytest.approx(37.0)
    assert scn.num_trajectories == 100
    assert np.allclose(scn.start_m, [0.0, 0.0, 100.0])
    assert np.allclose(scn.end_m, [700.0, 800.0, 100.0])
    assert np.allclose(scn.target_m, [350.0, 400.0, 0.0])


def test_scenario_json_roundtrip(tmp_path):
    scn = small_scenario()
    path = tmp_path / "scenario.json"
    scn.save(path)
    data = json.loads(path.read_text())
    assert data["gamma_sinr_db"] == pytest.approx(0.3)
    assert data["eirp_max_dbm"] == pytest.approx(37.0)
    assert data["noise_power_dbm"] == pytest.approx(-110.0)
    loaded = Scenario.load(path)
    assert encode(loaded) == encode(scn)
    assert np.allclose(loaded.gbs_m, scn.gbs_m)


@pytest.mark.parametrize("noise_dbm", [-60.1, -103.83, -106.24])
def test_scenario_file_saves_back_byte_for_byte(tmp_path, noise_dbm):
    # the channel holds the noise in dBm as written: no mW round trip moves it
    data = encode(Scenario())
    data["noise_power_dbm"] = noise_dbm
    path, again = tmp_path / "scenario.json", tmp_path / "again.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    Scenario.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()


def test_default_scenario_file_is_pinned():
    # key order and values of the scenario file format (version 3)
    text = json.dumps(encode(Scenario()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "12d18a714ba2b4ae6f2e50a18c2ce947719c22fda52a970cb6874167f50a7fd6"
    )


def test_scenario_load_names_unknown_and_missing_keys():
    data = encode(Scenario())
    data["num_gbs"] = 3
    data["sll_min_az"] = data.pop("sll_min_az_db")
    del data["kappa2"]
    with pytest.raises(ValueError) as err:
        decode(Scenario, data, "scenario")
    message = str(err.value)
    for key in ("num_gbs", "sll_min_az", "sll_min_az_db", "kappa2"):
        assert repr(key) in message


@pytest.mark.parametrize(
    "name, value",
    [("num_trajectories", 2.9), ("num_elements", "100"), ("num_elements", True)],
    ids=["float", "string", "bool"],
)
def test_scenario_load_names_an_integer_field_of_another_type(name, value):
    # 2.9 would load as 2 and save back as 2; "100" failed as a bare TypeError
    data = encode(Scenario())
    data[name] = value
    with pytest.raises(ValueError, match=f"^scenario {name} must be a JSON integer, got {value!r}$"):
        decode(Scenario, data, "scenario")


@pytest.mark.parametrize(
    "name, value, kind",
    [
        ("v_max_mps", "x", "a JSON number"),
        ("p_max_mw", None, "a JSON number"),
        ("kappa1", "1", "a JSON number"),
        ("v_max_mps", True, "a JSON number"),
        ("area_m", "ab", "a list of 2 JSON numbers"),
        ("target_m", [350.0, "400", 0.0], "a list of 3 JSON numbers"),
        ("gbs_m", [[200.0, 200.0, False]], "a list of rows of 3 JSON numbers"),
        ("gbs_m", [[1.0, 2.0, 3.0], [1.0, 2.0]], "a list of rows of 3 JSON numbers"),
        ("gbs_m", [700.0, 750.0, 2.0], "a list of rows of 3 JSON numbers"),
    ],
    ids=["string", "null", "channel_string", "bool", "area_string", "array_string", "array_bool",
         "ragged_rows", "flat_row"],
)
def test_scenario_load_names_a_number_field_of_another_type(name, value, kind):
    # each failed as a bare TypeError or an unnamed error, or loaded as another value: the
    # ragged rows as numpy's "inhomogeneous shape", the flat row as one station saved back
    # as [[700.0, 750.0, 2.0]]
    data = encode(Scenario())
    data[name] = value
    with pytest.raises(ValueError) as err:
        decode(Scenario, data, "scenario")
    assert str(err.value) == f"scenario {name} must be {kind}, got {value!r}"


@pytest.mark.parametrize(
    "name, value",
    [("v_max_mps", 10**400), ("noise_power_dbm", 10**400), ("gbs_m", [[10**400, 200.0, 2.0]]),
     ("area_m", [1500.0, 10**400])],
    ids=["speed", "noise", "station_entry", "area_entry"],
)
def test_scenario_load_names_an_integer_past_the_float_range(name, value):
    # a 401-digit JSON integer raised "OverflowError: int too large to convert to float"
    data = encode(Scenario())
    data[name] = value
    with pytest.raises(ValueError, match=f"^scenario {name} must be a (JSON number|list of)"):
        decode(Scenario, data, "scenario")


def test_scenario_load_takes_json_integers_in_number_fields():
    data = encode(Scenario())
    data.update(v_max_mps=10, kappa1=1, area_m=[1500, 1500], target_m=[350, 400, 0])
    expected = Scenario(channel=ChannelParams(kappa1=1.0))
    assert encode(decode(Scenario, data, "scenario")) == encode(expected)


def test_noise_power_must_give_positive_mw():
    with pytest.raises(ValueError, match="noise_power_dbm"):
        ChannelParams(noise_power_dbm=-4000.0)


def test_noise_power_whose_mw_overflows_fails_at_construction():
    # 4000 dBm is 1e400 mW, past the float range
    assert from_db(4000.0) == math.inf
    with pytest.raises(ValueError, match="^noise_power_dbm must give a positive, finite noise"):
        ChannelParams(noise_power_dbm=4000.0)


@pytest.mark.parametrize("name", ["sll_min_az_db", "sll_min_el_db", "eirp_max_dbm", "gamma_sinr_db"])
def test_db_setting_whose_linear_value_overflows_fails_at_construction(name):
    # it would otherwise raise OverflowError mid-command, at its first linear read
    with pytest.raises(ValueError, match=f"^{name} must have a positive, finite linear value$"):
        Scenario(**{name: 4000.0})


# 3.0 loaded: the version was compared with ==
@pytest.mark.parametrize("version", [0, 1, 2, "3", None, 3.0])
def test_scenario_load_rejects_other_format_versions(version):
    data = encode(small_scenario())
    data["format_version"] = version
    if version is None:
        del data["format_version"]
    with pytest.raises(ValueError, match="scenario format_version"):
        decode(Scenario, data, "scenario")


def test_scenario_rejects_a_panel_side_under_two():
    # a one-element panel would load, then fail mid-command on the Chebyshev
    # taper, which needs two elements a side
    with pytest.raises(ValueError, match="^num_elements must give a panel side of at least 2"):
        Scenario(num_elements=1)
    assert Scenario(num_elements=4).array.side == 2


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(start_m=np.array([-5.0, 0.0, 100.0]))
    # a walk flies at the start height and ends on the end point, so both
    # must clear the 2 m stations
    for start_z, end_z in ((1.0, 1.0), (1.0, 100.0), (100.0, 2.0)):
        with pytest.raises(ValueError, match="above every base station"):
            Scenario(start_m=[0.0, 0.0, start_z], end_m=[700.0, 800.0, end_z])
    # and flies level, so the end point lies at the start height
    for end_z in (109.0, 150.0):
        with pytest.raises(ValueError, match="start height"):
            Scenario(end_m=[700.0, 800.0, end_z])
    # a walk needs a heading, so the endpoints differ
    with pytest.raises(ValueError, match="coincide"):
        Scenario(end_m=Scenario().start_m)
    # an array no square panel can hold fails at construction, not mid-command
    with pytest.raises(ConfigError, match="perfect square"):
        Scenario(num_elements=50)
    # so does a value no run can use, which would otherwise fail mid-command
    # or write NaN weights
    unusable = {
        "v_max_mps": 0.0,
        "slot_s": -1.0,
        "p_max_mw": math.nan,
        "sll_min_az_db": 0.0,
        "sll_min_el_db": math.inf,
        "eirp_max_dbm": math.nan,
        "gamma_sinr_db": math.inf,
    }
    for name, value in unusable.items():
        with pytest.raises(ValueError, match=name):
            Scenario(**{name: value})
    # the area is two finite, positive sides, and a scenario flies at least
    # one walk
    for area in ((1500.0,), (math.inf, math.inf), (1500.0, 0.0), (math.nan, 1500.0)):
        with pytest.raises(ValueError, match="area_m"):
            Scenario(area_m=area)
    with pytest.raises(ValueError, match="num_trajectories"):
        Scenario(num_trajectories=0)
    gbs = Scenario().gbs_m.copy()
    gbs[1, 0] = math.nan
    with pytest.raises(ValueError, match="gbs_m"):
        Scenario(gbs_m=gbs)
    # a NaN channel constant passed the sign checks; nlos_attenuation's
    # (0, 1] range check already rejects it
    for f in dataclasses.fields(ChannelParams):
        if f.name != "nlos_attenuation":
            with pytest.raises(ValueError, match=f.name):
                Scenario(channel=ChannelParams(**{f.name: math.nan}))


def test_trajectories_deterministic_and_constrained():
    scn = Scenario()
    runs = [generate_trajectories(scn, 3, seed=42) for _ in range(2)]
    for t1, t2 in zip(*runs):
        assert len(t1) == len(t2)
        for p1, p2 in zip(t1.points, t2.points):
            assert np.array_equal(p1.position, p2.position)
            assert p1.orientation == p2.orientation

    step = scn.v_max_mps * scn.slot_s
    min_slots = math.ceil(np.linalg.norm(scn.end_m - scn.start_m) / step)
    for traj in runs[0]:
        points = traj.points
        assert np.array_equal(points[0].position, scn.start_m)
        assert np.array_equal(points[-1].position, scn.end_m)
        assert len(points) >= min_slots
        for a, b in zip(points, points[1:]):
            assert np.linalg.norm(b.position - a.position) <= step + 1e-9
            assert b.position[2] == scn.start_m[2]
            assert 0.0 <= b.position[0] <= scn.area_m[0]
            assert 0.0 <= b.position[1] <= scn.area_m[1]


def test_trajectory_min_slot_count_matches_distance():
    # 1063 m endpoint distance at 10 m steps needs at least 107 slots
    scn = Scenario()
    assert math.ceil(np.linalg.norm(scn.end_m - scn.start_m) / 10.0) == 107
    traj = generate_trajectories(scn, 1, seed=0)[0]
    assert len(traj) >= 107


# sha256 of each point's position and orientation bytes, over
# generate_trajectories(scenario, 2, seed); "edge" walks along the area's
# y = 0 edge, where a step outside the area falls back to the straight step
TRAJECTORY_PINS = {
    ("default", 11): "02b1cfb9e8a25cd53c393028e7b939a0c591ad072e3dae6fe839c1aecc444e5e",
    ("default", 23): "b73fdca4674493667caa4abec25fa709366d5d95dc7f3542b437289abc17c1b8",
    ("default", 1011): "173086f471576e31b8a4c3664636ec482e34a874fe3bed7f55584527781fe12a",
    ("edge", 11): "7b1cb2a1763a9e978673b704c6ec7aed1e4037ba1632492ec4b262f25234fd1c",
    ("edge", 23): "fa40f61f4f488b3125f76b0dd4b7a574495fd923a61680ba666c7b933f2c6868",
    ("edge", 1011): "2dcc6d46e18cee6c183364d40002a0111d6af2ae7c9e3e698412d733eff20064",
}


def walk_scenario(name):
    return Scenario() if name == "default" else Scenario(end_m=[1500.0, 0.0, 100.0])


@pytest.mark.parametrize("name, seed", list(TRAJECTORY_PINS))
def test_trajectory_bytes_are_pinned(name, seed):
    digest = hashlib.sha256()
    for traj in generate_trajectories(walk_scenario(name), 2, seed):
        for point in traj.points:
            digest.update(point.position.tobytes())
            digest.update(np.array(point.orientation).tobytes())
    assert digest.hexdigest() == TRAJECTORY_PINS[name, seed]


def test_scenario_whose_step_underflows_fails_at_construction():
    # each value is finite and positive, but their product, a walk's step, is 0.0
    with pytest.raises(ValueError, match="v_max_mps \\* slot_s"):
        Scenario(v_max_mps=1e-200, slot_s=1e-200)


@pytest.mark.parametrize("seed", [11, 23, 1011])
@pytest.mark.parametrize("name", ["default", "edge"])
def test_each_point_yaws_along_its_flown_step(name, seed):
    # level flight: yaw from the step as flown, no pitch or roll; the end point
    # keeps the inbound yaw
    for traj in generate_trajectories(walk_scenario(name), 2, seed):
        points = traj.points
        for a, b in zip(points, points[1:]):
            (x0, y0, _), (x1, y1, _) = a.position.tolist(), b.position.tolist()
            assert a.orientation == RotationAngles(math.atan2(y1 - y0, x1 - x0), 0.0, 0.0)
        assert points[-1].orientation == points[-2].orientation


@pytest.mark.parametrize(
    "end_xy, yaw", [((5.0, 0.0), 0.0), ((0.0, 5.0), math.pi / 2)], ids=["east", "north"]
)
def test_one_step_walk_yaws_toward_the_end_point(end_xy, yaw):
    scn = Scenario(start_m=[0.0, 0.0, 100.0], end_m=[*end_xy, 100.0])
    (traj,) = generate_trajectories(scn, 1, seed=0)
    assert [point.position.tolist() for point in traj.points] == [
        [0.0, 0.0, 100.0], [*end_xy, 100.0]
    ]
    assert [point.orientation for point in traj.points] == [RotationAngles(yaw, 0.0, 0.0)] * 2


def test_associate_closest():
    scn = small_scenario(gbs_m=np.array([[100.0, 0.0, 2.0], [500.0, 500.0, 2.0]]))
    geo = point_geometry(scn, level_point(0.0, 0.0))
    assert associate(scn, geo, POLICY_CLOSEST) == 0


def test_associate_closest_scale_invariant():
    gbs = np.array([[100.0, 50.0, 2.0], [400.0, 300.0, 2.0], [50.0, 500.0, 2.0]])
    scn = small_scenario(gbs_m=gbs)
    big = small_scenario(
        area_m=(6000.0, 6000.0),
        gbs_m=gbs * 10.0,
        target_m=np.array([3000.0, 3000.0, 0.0]),
        start_m=np.array([500.0, 500.0, 1000.0]),
        end_m=np.array([4500.0, 5000.0, 1000.0]),
    )
    for x, y in ((10.0, 20.0), (300.0, 200.0), (120.0, 400.0)):
        a = associate(scn, point_geometry(scn, level_point(x, y)), POLICY_CLOSEST)
        far = level_point(10 * x, 10 * y, altitude=1000.0)
        b = associate(big, point_geometry(big, far), POLICY_CLOSEST)
        assert a == b


def test_associate_min_target_angle():
    # target due east; stations east and north of the UAV
    scn = small_scenario(
        gbs_m=np.array([[500.0, 300.0, 2.0], [300.0, 500.0, 2.0]]),
        target_m=np.array([550.0, 300.0, 0.0]),
    )
    geo = point_geometry(scn, level_point(300.0, 300.0))
    assert associate(scn, geo, POLICY_MIN_TARGET_ANGLE) == 0


def test_associate_tie_break_lowest_index():
    scn = small_scenario(
        gbs_m=np.array([[200.0, 100.0, 2.0], [400.0, 100.0, 2.0]]),
        target_m=np.array([300.0, 500.0, 0.0]),
    )
    geo = point_geometry(scn, level_point(300.0, 100.0))  # equidistant, symmetric channels
    assert associate(scn, geo, POLICY_CLOSEST) == 0
    assert associate(scn, geo, POLICY_MAX_SINR) == 0


def test_associate_max_sinr_prefers_better_station():
    scn = small_scenario(gbs_m=np.array([[260.0, 240.0, 2.0], [560.0, 560.0, 2.0]]))
    geo = point_geometry(scn, level_point(250.0, 250.0, yaw=0.3))
    assert associate(scn, geo, POLICY_MAX_SINR) == 0


def test_label_optimal_single_station():
    scn = small_scenario(gbs_m=np.array([[250.0, 280.0, 2.0]]))
    geo = point_geometry(scn, level_point(240.0, 260.0))
    assert label_optimal_association(scn, geo) == 0
    assert min_required_eirp_dbm(scn, geo, 0) <= scn.eirp_max_dbm


def test_label_optimal_prefers_unblocked_station():
    # one station is close, the other far enough that absorption dominates
    scn = small_scenario(
        gbs_m=np.array([[260.0, 240.0, 2.0], [550.0, 550.0, 2.0]]),
    )
    geo = point_geometry(scn, level_point(250.0, 250.0))
    label = label_optimal_association(scn, geo)
    # oracle: smaller required EIRP wins when both are feasible
    required = [min_required_eirp_dbm(scn, geo, k, 0.0) for k in range(2)]
    assert label == int(np.argmin(required))


def test_label_optimal_vacuous_threshold_reduces_to_best_station():
    scn = small_scenario(gamma_sinr_db=-1000.0)
    geo = point_geometry(scn, level_point(120.0, 300.0, yaw=1.0))
    label = label_optimal_association(scn, geo)
    required = [min_required_eirp_dbm(scn, geo, k, 0.0) for k in range(scn.num_gbs)]
    assert required[label] <= scn.eirp_max_dbm
    assert label == int(np.argmin(required))


def test_label_optimal_never_exceeds_cap_when_feasible_exists():
    scn = small_scenario()
    rng = np.random.default_rng(17)
    for _ in range(25):
        geo = point_geometry(scn, level_point(
            rng.uniform(60, 540), rng.uniform(60, 540), yaw=rng.uniform(-math.pi, math.pi)
        ))
        label = label_optimal_association(scn, geo)
        required = [min_required_eirp_dbm(scn, geo, k, 0.0) for k in range(scn.num_gbs)]
        if any(r <= scn.eirp_max_dbm for r in required):
            assert min_required_eirp_dbm(scn, geo, label) <= scn.eirp_max_dbm + 1e-9


def test_associate_optimal_is_the_label_station():
    scn = small_scenario()
    rng = np.random.default_rng(23)
    picked = set()
    for _ in range(25):
        geo = point_geometry(scn, level_point(
            rng.uniform(60, 540), rng.uniform(60, 540), yaw=rng.uniform(-math.pi, math.pi)
        ))
        k = associate(scn, geo, POLICY_MAX_SINR)
        assert k == label_optimal_association(scn, geo)
        picked.add(k)
    assert len(picked) > 1


def matched_probe_station(scn, geo):
    """Max-SINR by probing: each station gets a phase-matched full-aperture
    beam at the EIRP cap, against the matched sensing beam at the cap; the
    highest SINR wins, lowest index on ties."""

    def matched(unit, ge):
        gain = scn.num_elements**2 * ge
        ppe = from_db(scn.eirp_max_dbm) / gain if gain > 0.0 else 1e-12
        return BeamWeights(entries=steering(scn.array, unit), power_per_element_mw=ppe)

    w_sense = matched(geo.target_unit, geo.target_gain)
    best_idx, best_sinr = 0, -math.inf
    for idx, gbs in enumerate(scn.gbs_m):
        distance = float(np.linalg.norm(geo.point.position - gbs))
        h_comm = channel_vector(
            scn.channel, scn.array, distance,
            station_path_gain(scn.channel, geo.point.position, gbs, distance),
            unit=geo.gbs_unit[idx],
        )
        w_comm = matched(geo.gbs_unit[idx], geo.gbs_gain[idx])
        value = sinr(
            h_comm, geo.target_channel, w_comm.vector, w_sense.vector, scn.channel.noise_mw
        )
        if value > best_sinr:
            best_idx, best_sinr = idx, value
    return best_idx


def rate_ranked_label(scn, geo, interference_mw):
    """Optimal label by rate: feasible first, then highest rate, then the
    smallest (capped) EIRP, then the lowest index."""
    gamma = from_db(scn.gamma_sinr_db)
    best = None
    for idx in range(scn.num_gbs):
        required_dbm = min_required_eirp_dbm(scn, geo, idx, interference_mw)
        feasible = required_dbm <= scn.eirp_max_dbm
        if feasible:
            value, eirp_dbm = gamma, required_dbm
        else:
            # SINR actually reached when transmitting at the cap
            value = gamma * from_db(scn.eirp_max_dbm - required_dbm)
            eirp_dbm = scn.eirp_max_dbm
        rate = scn.channel.bandwidth_hz * math.log2(1.0 + value)
        key = (not feasible, -rate, eirp_dbm, idx)
        if best is None or key < best[0]:
            best = (key, (idx, eirp_dbm, feasible))
    return best[1]


def oracle_cases():
    """The seed-77 default trajectory, the equidistant tie, and 300 random
    5-station small scenarios with random pose and EIRP cap."""
    scn = Scenario()
    cases = [(scn, p) for p in generate_trajectories(scn, 1, seed=77)[0].points]
    tie = small_scenario(
        gbs_m=np.array([[200.0, 100.0, 2.0], [400.0, 100.0, 2.0]]),
        target_m=np.array([300.0, 500.0, 0.0]),
    )
    cases.append((tie, level_point(300.0, 100.0)))
    rng = np.random.default_rng(41)
    for _ in range(300):
        gbs = np.column_stack([rng.uniform(0, 600, (5, 2)), np.full(5, 2.0)])
        scn = small_scenario(
            gbs_m=gbs,
            target_m=np.append(rng.uniform(0, 600, 2), 0.0),
            eirp_max_dbm=float(rng.choice([37.0, 10.0, -20.0])),
        )
        point = TrajectoryPoint(
            slot=0,
            position=np.append(rng.uniform(0, 600, 2), 100.0),
            orientation=RotationAngles(*rng.uniform(-math.pi, math.pi, 3)),
        )
        cases.append((scn, point))
    return cases


def test_associate_max_sinr_equals_the_matched_probe():
    picked = set()
    for scn, point in oracle_cases():
        geo = point_geometry(scn, point)
        k = associate(scn, geo, POLICY_MAX_SINR)
        assert k == matched_probe_station(scn, geo)
        picked.add(k)
    assert picked == set(range(5))


def test_label_optimal_equals_the_rate_ranking():
    rng = np.random.default_rng(43)
    regimes = {"feasible": 0, "all infeasible": 0}
    for scn, point in oracle_cases():
        geo = point_geometry(scn, point)
        # no interference, then noise-scale to far-above-noise interference
        # interference scales every requirement alike, so one label ranks
        # first with none and with noise-scale to far-above-noise interference
        label = label_optimal_association(scn, geo)
        for interference in (0.0, scn.channel.noise_mw * 10.0 ** rng.uniform(-2.0, 4.0)):
            index, _, feasible = rate_ranked_label(scn, geo, interference)
            assert label == index
            regimes["feasible" if feasible else "all infeasible"] += 1
    assert all(count > 100 for count in regimes.values()), regimes


def test_point_geometry_fields_equal_the_per_call_derivations():
    # the equidistant pair of test_associate_tie_break_lowest_index first
    tie = small_scenario(
        gbs_m=np.array([[200.0, 100.0, 2.0], [400.0, 100.0, 2.0]]),
        target_m=np.array([300.0, 500.0, 0.0]),
    )
    cases = [(tie, level_point(300.0, 100.0))]
    rng = np.random.default_rng(29)
    for _ in range(200):
        gbs = np.column_stack([rng.uniform(0, 600, (4, 2)), np.full(4, 2.0)])
        scn = small_scenario(gbs_m=gbs, target_m=np.append(rng.uniform(0, 600, 2), 0.0))
        point = TrajectoryPoint(
            slot=0,
            position=np.append(rng.uniform(0, 600, 2), 100.0),
            orientation=RotationAngles(*rng.uniform(-math.pi, math.pi, 3)),
        )
        cases.append((scn, point))
    for scn, point in cases:
        geo = point_geometry(scn, point)
        assert geo.point is point
        distances = np.linalg.norm(scn.gbs_m - point.position, axis=1)
        assert geo.gbs_by_distance == tuple(np.argsort(distances, kind="stable"))
        fields = [
            (scn.target_m, geo.target_dir, geo.target_unit, geo.target_frame, geo.target_gain)
        ]
        fields += zip(scn.gbs_m, geo.gbs_dir, geo.gbs_unit, geo.gbs_frame, geo.gbs_gain)
        for dest, direction, unit, frame, gain in fields:
            old_dir = direction_angles(point.position, dest)
            old_unit = array_frame_unit(rotation_matrix(point.orientation), old_dir)
            assert direction == old_dir
            assert np.array_equal(unit, old_unit)
            assert frame == DirectionAngles(
                theta=math.acos(min(1.0, max(-1.0, old_unit[2]))),
                phi=math.atan2(old_unit[1], old_unit[0]),
            )
            assert gain == element_gain(old_unit)
        for k, gbs in enumerate(scn.gbs_m):
            distance = float(np.linalg.norm(point.position - gbs))
            assert geo.gbs_distance_m[k] == distance
            assert geo.gbs_path_gain[k] == station_path_gain(
                scn.channel, point.position, gbs, distance
            )
        d = float(np.linalg.norm(scn.target_m - point.position))
        radar_gain = radar_path_gain(scn.channel, d)
        phase = np.exp(2j * math.pi * scn.channel.carrier_hz * d / SPEED_OF_LIGHT)
        a = steering_vector(scn.array, point.position, point.orientation, scn.target_m)
        assert np.array_equal(geo.target_channel, math.sqrt(radar_gain) * phase * a)
        assert np.array_equal(
            geo.target_channel,
            channel_vector(scn.channel, scn.array, d, radar_gain, unit=geo.target_unit),
        )
    tie, tie_point = cases[0]
    tie_distances = np.linalg.norm(tie.gbs_m - tie_point.position, axis=1)
    assert tie_distances[0] == tie_distances[1]
    tie_geo = point_geometry(tie, tie_point)
    assert tie_geo.gbs_by_distance == (0, 1)


# Per-slot stations of the default scenario's seed-77 trajectory (111 slots),
# one digit per slot.
ASSOCIATION_PINS = {
    POLICY_CLOSEST: "0" * 67 + "2" * 44,
    POLICY_MIN_TARGET_ANGLE: "4" * 36 + "2" * 14 + "1" * 7 + "0" * 54,
    POLICY_MAX_SINR: "0" * 61 + "33330033333333333322222232333322233333333333333222",
}


def test_association_per_slot_is_pinned():
    scn = Scenario()
    traj = generate_trajectories(scn, 1, seed=77)[0]
    geos = [point_geometry(scn, point) for point in traj.points]
    for policy, expected in ASSOCIATION_PINS.items():
        assert "".join(str(associate(scn, geo, policy)) for geo in geos) == expected
