import dataclasses
import hashlib
import json
import logging
import math

import numpy as np
import pytest

from uavisac import pipeline
from uavisac.beampattern import NullConflictError, array_gain
from uavisac.channel import EXPECTED, RADAR_LOS, _path_gain, channel_vector, sinr
from uavisac.geometry import (
    DirectionAngles,
    RotationAngles,
    array_frame_unit,
    direction_angles,
    element_gain,
    rotation_matrix,
    steering,
    steering_vector,
)
from uavisac.neuralnet import TrainConfig
from uavisac.pipeline import (
    EvalRecord,
    ModelBundle,
    comm_feature_vector,
    decode_complex,
    eirp_stats,
    encode_complex,
    evaluate_trajectory,
    generate_dataset,
    predict_association,
    read_dataset_jsonl,
    read_records_csv,
    sensing_feature_vector,
    synthesize_point,
    train_models,
    write_dataset_jsonl,
    write_records_csv,
    write_stats_csv,
)
from uavisac.scenario import Scenario, TrajectoryPoint, generate_trajectories, point_geometry
from uavisac.units import to_db


def world_channel(scenario, point, dest, mode):
    """channel_vector toward dest, its distance, path gain and unit derived from world positions."""
    unit = array_frame_unit(
        rotation_matrix(point.orientation), direction_angles(point.position, dest)
    )
    distance = float(np.linalg.norm(point.position - dest))
    return channel_vector(
        scenario.channel, scenario.array, distance,
        _path_gain(scenario.channel, mode, point.position, dest, distance), unit=unit,
    )


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(
        area_m=(600.0, 600.0),
        gbs_m=np.array([[150.0, 120.0, 2.0], [450.0, 200.0, 2.0], [250.0, 480.0, 2.0]]),
        target_m=np.array([300.0, 300.0, 0.0]),
        start_m=np.array([50.0, 50.0, 100.0]),
        end_m=np.array([420.0, 480.0, 100.0]),
        num_elements=64,
        num_trajectories=2,
    )


@pytest.fixture(scope="module")
def small_dataset(small_scenario):
    return generate_dataset(small_scenario, 2, "closest", seed=21)


@pytest.fixture(scope="module")
def small_bundle(small_scenario, small_dataset):
    config = TrainConfig(epochs=40, batch_size=64, learning_rate=5e-3, seed=2)
    return train_models(small_dataset, small_scenario, config)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    arr = encode_complex(vec)
    assert arr.shape == (32,)
    assert arr[0] == vec[0].real and arr[1] == vec[0].imag
    assert np.allclose(decode_complex(arr), vec)


def test_feature_vectors_layout():
    gbs_dir = DirectionAngles(theta=1.0, phi=0.5)
    nulls = (DirectionAngles(theta=1.1, phi=-0.2), DirectionAngles(theta=0.9, phi=2.0))
    feat = comm_feature_vector(gbs_dir, nulls, 21.5)
    assert np.allclose(feat, [0.5, 1.0, -0.2, 1.1, 2.0, 0.9, 21.5])
    sens = sensing_feature_vector(DirectionAngles(theta=0.8, phi=-1.5), 30.0)
    assert np.allclose(sens, [-1.5, 0.8, 30.0, 0.0, 0.0, 0.0, 0.0])
    single = comm_feature_vector(gbs_dir, nulls[:1], 10.0)
    assert np.allclose(single[4:6], 0.0)


def test_generate_dataset_counts_and_nulls(small_scenario, small_dataset):
    trajs = generate_trajectories(small_scenario, 2, seed=21)
    total_points = sum(len(t) for t in trajs)
    assert 0 < len(small_dataset) <= total_points
    for sample in small_dataset:
        assert sample.comm_features.shape == (7,)
        assert sample.sensing_features.shape == (7,)
        assert sample.comm_weights.shape == (2 * small_scenario.num_elements,)
        assert sample.sensing_weights.shape == (2 * small_scenario.num_elements,)
        # K=3 leaves exactly two stations to null
        assert sample.comm_features[3] != 0.0 and sample.comm_features[5] != 0.0
        assert 0 <= sample.optimal_gbs < small_scenario.num_gbs


def test_generate_dataset_is_deterministic(small_scenario, small_dataset, tmp_path):
    again = generate_dataset(small_scenario, 2, "closest", seed=21)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset_jsonl(p1, small_dataset, small_scenario, "closest", 21)
    write_dataset_jsonl(p2, again, small_scenario, "closest", 21)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_jsonl_roundtrip(small_scenario, small_dataset, tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset, small_scenario, "closest", 21)
    first_line = path.read_text().splitlines()[0]
    assert "meta" in json.loads(first_line)
    samples, scenario, meta = read_dataset_jsonl(path)
    assert meta["policy"] == "closest"
    assert meta["seed"] == 21
    assert scenario.content_hash() == small_scenario.content_hash()
    assert len(samples) == len(small_dataset)
    assert np.allclose(samples[0].comm_weights, small_dataset[0].comm_weights)


def test_dataset_read_rejects_other_format_versions(small_scenario, small_dataset, tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, *rows = path.read_text().splitlines()
    meta = json.loads(header)
    meta["meta"]["format_version"] = 2
    path.write_text("\n".join([json.dumps(meta), *rows]) + "\n")
    with pytest.raises(ValueError, match="dataset format_version 2"):
        read_dataset_jsonl(path)


def test_emitted_matrices_respect_power_and_eirp_limits(small_scenario, small_dataset):
    pmax = small_scenario.p_max_mw
    for sample in small_dataset:
        wc = decode_complex(sample.comm_weights)
        ws = decode_complex(sample.sensing_weights)
        total = float(np.sum(np.abs(wc) ** 2) + np.sum(np.abs(ws) ** 2))
        assert total <= pmax * (1 + 1e-9)
        for vec, feat in ((ws, sample.sensing_features), (wc, sample.comm_features)):
            pointing = DirectionAngles(theta=feat[1], phi=feat[0])
            gain = array_gain(
                vec, small_scenario.array, np.zeros(3), RotationAngles(0, 0, 0), pointing
            )
            if gain > 0:
                assert 10 * math.log10(gain) <= small_scenario.eirp_max_dbm + 1e-6


def test_dataset_geometry_outputs_are_pinned(small_dataset):
    # slot, station and the features that come from geometry alone; the comm
    # EIRP feature and the weights depend on the synthesized beams
    digest = hashlib.sha256()
    for sample in small_dataset:
        digest.update(np.array([sample.slot, sample.gbs_index], dtype=np.int64).tobytes())
        digest.update(sample.sensing_features.tobytes())
        digest.update(sample.comm_features[:6].tobytes())
    assert len(small_dataset) == 77
    assert digest.hexdigest() == "30a5d7f920eb9ca5054f310e4debc7e5e451e3c8801283eea269142b2f5d0a9d"


def test_synthesize_point_delivers_threshold_sinr(small_scenario):
    trajs = generate_trajectories(small_scenario, 1, seed=3)
    point = trajs[0].points[len(trajs[0]) // 2]
    ps = synthesize_point(small_scenario, point_geometry(small_scenario, point), 0, lenient=True)
    if ps.comm_eirp_dbm < small_scenario.eirp_max_dbm - 1e-6:
        h_comm = world_channel(small_scenario, point, small_scenario.gbs_m[0], EXPECTED)
        h_sense = world_channel(small_scenario, point, small_scenario.target_m, RADAR_LOS)
        value = sinr(
            h_comm, h_sense, ps.matrix.comm.vector, ps.matrix.sensing.vector,
            small_scenario.channel.noise_mw,
        )
        assert 10 * math.log10(value) == pytest.approx(small_scenario.gamma_sinr_db, abs=1e-6)


def test_synthesize_point_lenient_drops_only_the_conflicting_null(small_scenario, caplog):
    # station 1 sits 1.4 m from the serving station 0, inside the null-conflict cone
    gbs = np.array([[150.0, 120.0, 2.0], [151.0, 121.0, 2.0], [250.0, 480.0, 2.0]])
    scn = dataclasses.replace(small_scenario, gbs_m=gbs)
    point = TrajectoryPoint(
        slot=4, position=np.array([200.0, 250.0, 100.0]), orientation=RotationAngles(0.5, 0, 0)
    )
    geo = point_geometry(scn, point)
    with pytest.raises(NullConflictError):
        synthesize_point(scn, geo, 0)
    with caplog.at_level(logging.WARNING, logger="uavisac.pipeline"):
        ps = synthesize_point(scn, geo, 0, lenient=True)
    assert ps.null_gbs == (2,)
    assert "dropping null conflicting with pointing at slot 4" in caplog.text


def test_every_failing_comm_call_nulls_near_a_pointing_alias(monkeypatch):
    # ROADMAP item 16's census: each comm beam that fails to converge nulls a
    # station within 0.25 of the pointing in (u_x, u_z) taken modulo the
    # grating period, that is near the pointing's grating alias (38 calls,
    # the largest such offset 0.159).  The bound is necessary here, not
    # sufficient: 50 of the 290 converged comm calls have such a null too.
    calls, synthesize = [], pipeline.synthesize

    def recording(request, config, pose):
        result = synthesize(request, config, pose)
        calls.append((request, config, pose, result))
        return result

    monkeypatch.setattr(pipeline, "synthesize", recording)
    generate_dataset(Scenario(), 3, "closest", 11)
    # every comm request nulls the two nearest other stations; no sensing call fails
    failing = [c for c in calls if not c[3].converged]
    assert failing and all(len(request.nulls) == 2 for request, *_ in failing)
    for request, config, pose, _ in failing:
        rot = rotation_matrix(pose.angles)
        point = array_frame_unit(rot, request.pointing)
        period = config.wavelength_m / config.spacing_m
        offsets = [
            math.hypot(math.remainder(ux, period), math.remainder(uz, period))
            for ux, _, uz in (array_frame_unit(rot, null) - point for null in request.nulls)
        ]
        assert min(offsets) < 0.25


def test_train_models_split_and_reports(small_scenario, small_dataset, small_bundle):
    n = len(small_dataset)
    report = small_bundle.beamformer_report
    assert len(report.train_loss) == 40
    assert len(report.val_loss) == 40
    assert len(report.val_metric) == 40
    assert small_bundle.association_report.val_metric is None
    assert small_bundle.beamformer.layer_sizes == (7, 50, 2 * small_scenario.num_elements)
    assert small_bundle.association.layer_sizes == (4, 64, 32, 1)
    assert small_bundle.scenario_hash == small_scenario.content_hash()
    expected_train = int(round(0.7 * n))
    assert abs(expected_train - 0.7 * n) <= 1


def test_train_models_rejects_tiny_dataset(small_scenario, small_dataset):
    with pytest.raises(ValueError):
        train_models(small_dataset[:5], small_scenario, TrainConfig(epochs=1))


def test_bundle_roundtrip(tmp_path, small_scenario, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    loaded = ModelBundle.load(path)
    assert loaded.scenario_hash == small_bundle.scenario_hash
    assert loaded.num_gbs == small_bundle.num_gbs
    point = TrajectoryPoint(
        slot=0, position=np.array([100.0, 120.0, 100.0]), orientation=RotationAngles(0.2, 0, 0)
    )
    assert predict_association(loaded, small_scenario, point) == predict_association(
        small_bundle, small_scenario, point
    )
    data = json.loads(path.read_text())
    assert data["format_version"] == 2
    assert "val_beampattern_error" in data["reports"]["beamformer"]


def test_bundle_load_rejects_other_format_versions(tmp_path, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    data["format_version"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="bundle format_version 1"):
        ModelBundle.load(path)


def test_bundle_load_rejects_a_network_missing_its_last_layer(tmp_path, small_bundle):
    """A bundle whose association network lost its output layer fails to load.

    Loaded, the net would return its 32 hidden values, and the first would be
    taken as the station.
    """
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    for key in ("weights", "biases"):
        data["association"][key].pop()
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="weights: 2 arrays for 3 layers"):
        ModelBundle.load(path)


def test_predict_association_recovers_exact_index(small_scenario, small_bundle):
    # a head that outputs exactly k/(K-1) must decode to station k
    from uavisac.neuralnet import Network, NetworkConfig

    k = small_scenario.num_gbs
    point = TrajectoryPoint(
        slot=0, position=np.array([200.0, 200.0, 100.0]), orientation=RotationAngles(0, 0, 0)
    )
    for target in range(k):
        constant = Network(NetworkConfig(layer_sizes=(4, 2, 1), seed=0))
        for i in range(len(constant.weights)):
            constant.weights[i][:] = 0.0
            constant.biases[i][:] = 0.0
        constant.biases[-1][:] = target / (k - 1)
        bundle = ModelBundle(
            beamformer=small_bundle.beamformer,
            association=constant,
            scenario_hash=small_bundle.scenario_hash,
            num_gbs=k,
            num_elements=small_scenario.num_elements,
            created=small_bundle.created,
            beamformer_report=small_bundle.beamformer_report,
            association_report=small_bundle.association_report,
        )
        assert predict_association(bundle, small_scenario, point) == target


def test_train_models_memorizes_constant_dataset(small_scenario, small_dataset):
    # duplicating one sample makes the mapping constant; losses collapse
    clones = [small_dataset[0]] * 20
    bundle = train_models(
        clones, small_scenario, TrainConfig(epochs=60, batch_size=16, learning_rate=1e-2, seed=0)
    )
    assert bundle.beamformer_report.val_loss[-1] < 1e-3
    assert bundle.association_report.val_loss[-1] < 1e-6


def test_predict_association_clamps(small_scenario, small_bundle):
    single = Scenario(
        area_m=small_scenario.area_m,
        gbs_m=small_scenario.gbs_m[:1],
        target_m=small_scenario.target_m,
        start_m=small_scenario.start_m,
        end_m=small_scenario.end_m,
        num_elements=small_scenario.num_elements,
    )
    point = TrajectoryPoint(
        slot=0, position=np.array([90.0, 90.0, 100.0]), orientation=RotationAngles(0, 0, 0)
    )
    assert predict_association(small_bundle, single, point) == 0
    k = predict_association(small_bundle, small_scenario, point)
    assert 0 <= k < small_scenario.num_gbs


def test_nn_beam_zero_unscaled_and_capped_branches(small_scenario):
    """The three branches of the builder that turns a weight-network output into a beam."""
    unit = np.array([0.3, 0.8, 0.52]) / math.sqrt(0.3**2 + 0.8**2 + 0.52**2)
    a, gain = steering(small_scenario.array, unit), element_gain(unit)
    m, cap = small_scenario.num_elements, small_scenario.eirp_max_dbm

    def eirp_dbm(beam):
        return to_db(beam.power_per_element_mw * abs(np.vdot(a, beam.entries)) ** 2 * gain)

    zero = pipeline._nn_beam(np.zeros(2 * m), small_scenario, a, gain)
    assert np.array_equal(zero.entries, np.zeros(m, dtype=complex))
    assert zero.power_per_element_mw == 1e-12

    # matched beams under the cap are max-normalized, a peak under 1 not at all,
    # and not scaled down; the one of peak 1.05 lands just under the cap
    for peak, scale in ((0.5, 1.0), (1.05, 1.05)):
        vec = 0.99 * peak * a
        vec[0] = peak
        under = pipeline._nn_beam(encode_complex(vec), small_scenario, a, gain)
        assert np.array_equal(under.entries, vec / scale)
        assert under.power_per_element_mw == scale**2
        assert cap - 10.0 < eirp_dbm(under) < cap
    assert eirp_dbm(under) > cap - 3.0

    # a matched beam at peak 5 radiates far over the cap: only its PPE drops, onto the cap
    vec = 5.0 * a
    peak = float(np.max(np.abs(vec)))
    over = pipeline._nn_beam(encode_complex(vec), small_scenario, a, gain)
    assert np.array_equal(over.entries, vec / peak)
    assert to_db(peak**2 * m**2 * gain) > cap + 10.0
    assert over.power_per_element_mw < peak**2
    assert abs(eirp_dbm(over) - cap) <= 1e-9


def test_evaluate_trajectory_schema_and_slot_order(small_scenario, small_bundle):
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    mats = []
    records = evaluate_trajectory(
        small_scenario, traj, "closest", "optimizer", matrices_out=mats
    )
    assert len(records) == len(traj)
    assert len(mats) == len(traj)
    assert [r.slot for r in records] == [p.slot for p in traj.points]
    nn_mats = []
    nn_records = evaluate_trajectory(
        small_scenario, traj, "nn", "nn", bundle=small_bundle, matrices_out=nn_mats
    )
    assert len(nn_records) == len(records)
    assert {type(r) for r in nn_records} == {EvalRecord}
    for r in records + nn_records:
        assert r.rate_bps >= 0.0
        assert 0 <= r.gbs_index < small_scenario.num_gbs
    # predicted matrices come out capped and within the power budget
    from uavisac.beampattern import eirp
    from uavisac.geometry import direction_angles as dir_angles

    for record, matrix, point in zip(nn_records, nn_mats, traj.points):
        assert matrix.satisfies_budget(small_scenario.p_max_mw)
        gbs_dir = dir_angles(point.position, small_scenario.gbs_m[record.gbs_index])
        target_dir = dir_angles(point.position, small_scenario.target_m)
        for beam, pointing in ((matrix.comm, gbs_dir), (matrix.sensing, target_dir)):
            assert eirp(beam, small_scenario.array, point.pose, pointing) <= (
                small_scenario.eirp_max_dbm + 1e-6
            )


def test_evaluate_trajectory_policy_aliases(small_scenario):
    from uavisac.scenario import Trajectory

    full = generate_trajectories(small_scenario, 1, seed=5)[0]
    short = Trajectory(id=0, points=full.points[10:13])
    for policy, canonical in (("angle", "min_target_angle"), ("sinr", "max_sinr"),
                              ("optimal", "optimal")):
        records = evaluate_trajectory(small_scenario, short, policy, "optimizer")
        assert len(records) == 3
        assert all(r.policy == canonical for r in records)


def test_evaluate_trajectory_audited_slot_matches_hand_composition(small_scenario):
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    mats = []
    records = evaluate_trajectory(small_scenario, traj, "closest", "optimizer", matrices_out=mats)
    idx = len(records) // 2
    record, matrix, point = records[idx], mats[idx], traj.points[idx]
    gbs = small_scenario.gbs_m[record.gbs_index]
    h_comm = world_channel(small_scenario, point, gbs, EXPECTED)
    h_sense = world_channel(small_scenario, point, small_scenario.target_m, RADAR_LOS)
    num = abs(np.vdot(h_comm, matrix.comm.vector)) ** 2
    den = small_scenario.channel.noise_mw + abs(np.vdot(h_sense, matrix.sensing.vector)) ** 2
    assert record.sinr_db == pytest.approx(10 * math.log10(num / den), abs=1e-9)
    assert record.rate_bps == pytest.approx(
        small_scenario.channel.bandwidth_hz * math.log2(1 + num / den), rel=1e-9
    )
    # the target steering built from world positions, sensing summed first
    a = steering_vector(
        small_scenario.array, point.position, point.orientation, small_scenario.target_m
    )
    gain = 0.0
    for beam in (matrix.sensing, matrix.comm):
        gain += abs(np.vdot(a, beam.vector)) ** 2
    assert record.beampattern_gain == gain


def test_evaluation_csv_is_pinned(tmp_path, small_scenario, small_bundle):
    # slots 19-22 of seed 5, where max-SINR with the optimizer switches from
    # station 0 to 2, then the same slots from the networks; the digest covers
    # every repr'd float, so any change in the link arithmetic shows
    from uavisac.scenario import Trajectory

    full = generate_trajectories(small_scenario, 1, seed=5)[0]
    short = Trajectory(id=0, points=full.points[19:23])
    records = evaluate_trajectory(small_scenario, short, "sinr", "optimizer")
    assert [r.gbs_index for r in records] == [0, 0, 2, 2]
    records += evaluate_trajectory(small_scenario, short, "nn", "nn", bundle=small_bundle)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "978efa9982fd8d4a6ceb3d4c1cc778aafccce74fbb21e338ab90dc712112845a"
    )


def test_evaluate_requires_bundle_for_nn(small_scenario):
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    with pytest.raises(ValueError):
        evaluate_trajectory(small_scenario, traj, "nn", "optimizer", bundle=None)
    with pytest.raises(ValueError):
        evaluate_trajectory(small_scenario, traj, "closest", "nn", bundle=None)


def test_evaluate_rejects_a_bundle_trained_for_another_scenario(small_scenario, small_bundle):
    # with one station the association head's output would silently rescale
    # onto index 0; with another array size the weight head's output is the
    # wrong length
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    single = dataclasses.replace(small_scenario, gbs_m=small_scenario.gbs_m[:1])
    larger = dataclasses.replace(small_scenario, num_elements=100)
    for scenario, policy, source in ((single, "nn", "nn"), (larger, "closest", "optimizer")):
        with pytest.raises(ValueError, match="bundle trained for 64 elements and 3 stations"):
            evaluate_trajectory(scenario, traj, policy, source, bundle=small_bundle)


def test_eirp_stats_properties():
    records = [
        EvalRecord(slot=i, policy="closest", gbs_index=0, eirp_dbm=v, sinr_db=0.0,
                   rate_bps=1e8, beampattern_gain=1.0)
        for i, v in enumerate([12.0, 18.0, 25.0, 18.0])
    ]
    stats = eirp_stats(records, [10.0, 15.0, 30.0])
    assert np.all(np.diff(stats.ecdf_fractions) >= 0)
    assert stats.ecdf_fractions[0] > 0 and stats.ecdf_fractions[-1] == pytest.approx(1.0)
    assert stats.outage[10.0] == 1.0
    assert stats.outage[15.0] == pytest.approx(0.75)
    assert stats.outage[30.0] == 0.0
    assert stats.mean_rate_bps == pytest.approx(1e8)

    constant = [
        EvalRecord(slot=i, policy="x", gbs_index=0, eirp_dbm=20.0, sinr_db=0.0,
                   rate_bps=5e7, beampattern_gain=1.0)
        for i in range(3)
    ]
    stats = eirp_stats(constant, [19.0, 21.0])
    assert stats.outage[19.0] == 1.0
    assert stats.outage[21.0] == 0.0
    assert np.allclose(stats.ecdf_values, 20.0)

    with pytest.raises(ValueError):
        eirp_stats([], [10.0])


def test_records_csv_roundtrip_and_determinism(tmp_path, small_scenario):
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    records = evaluate_trajectory(small_scenario, traj, "closest", "optimizer")
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_records_csv(p1, records)
    write_records_csv(p2, evaluate_trajectory(small_scenario, traj, "closest", "optimizer"))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == (
        "slot,policy,gbs_index,eirp_dbm,sinr_db,rate_bps,beampattern_gain"
    )
    loaded = read_records_csv(p1)
    assert loaded == records

    stats = eirp_stats(records, [10.0, 15.0])
    spath = tmp_path / "stats.csv"
    write_stats_csv(spath, stats)
    lines = spath.read_text().splitlines()
    assert lines[0] == "kind,key,value"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"ecdf", "outage", "mean_rate_bps"}
