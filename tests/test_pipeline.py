import csv
import dataclasses
import hashlib
import json
import logging
import math
import reprlib

import numpy as np
import pytest

from uavisac import pipeline
from uavisac.beampattern import NullConflictError, array_gain
from uavisac.channel import channel_vector, radar_path_gain, sinr, station_path_gain
from uavisac.codec import encode
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
from uavisac.neuralnet import Network, NetworkConfig, TrainConfig
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


def world_channel(scenario, point, dest, path_gain):
    """channel_vector toward dest, its distance and unit derived from world positions and
    its path gain path_gain(distance)."""
    unit = array_frame_unit(
        rotation_matrix(point.orientation), direction_angles(point.position, dest)
    )
    distance = float(np.linalg.norm(point.position - dest))
    return channel_vector(
        scenario.channel, scenario.array, distance, path_gain(distance), unit=unit
    )


def station_channel(scenario, point, gbs):
    """world_channel toward station gbs under station_path_gain."""
    return world_channel(
        scenario, point, gbs,
        lambda d: station_path_gain(scenario.channel, point.position, gbs, d),
    )


def echo_channel(scenario, point):
    """world_channel toward the target under radar_path_gain."""
    return world_channel(
        scenario, point, scenario.target_m, lambda d: radar_path_gain(scenario.channel, d)
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
    samples, header = read_dataset_jsonl(path)
    assert header.policy == "closest"
    assert header.seed == 21
    assert encode(header.scenario) == encode(small_scenario)
    assert len(samples) == len(small_dataset)
    # each field comes back with its declared type and its written length
    for loaded, written in zip(samples, small_dataset):
        for field in dataclasses.fields(loaded):
            value, expected = getattr(loaded, field.name), getattr(written, field.name)
            if isinstance(expected, np.ndarray):
                assert type(value) is np.ndarray and value.dtype == np.float64
                assert value.shape == expected.shape and np.array_equal(value, expected)
            else:
                assert type(value) is type(expected) and value == expected


def test_dataset_read_rejects_other_format_versions(small_scenario, small_dataset, tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, *rows = path.read_text().splitlines()
    meta = json.loads(header)
    meta["meta"]["format_version"] = 2
    path.write_text("\n".join([json.dumps(meta), *rows]) + "\n")
    with pytest.raises(ValueError, match="dataset header format_version 2"):
        read_dataset_jsonl(path)


def test_dataset_read_rejects_a_format_version_that_is_no_integer(
    small_scenario, small_dataset, tmp_path
):
    # true loaded as version 1: the version was compared with ==
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    first = json.loads(header)
    first["meta"]["format_version"] = True
    path.write_text(f"{json.dumps(first)}\n{row}\n")
    with pytest.raises(ValueError) as err:
        read_dataset_jsonl(path)
    assert str(err.value) == "dataset header format_version True is not supported (expected 1)"


@pytest.mark.parametrize("key, value", [("optimal_gbs", 99), ("gbs_index", -3)],
                         ids=["label_past_the_stations", "negative_station"])
def test_dataset_read_rejects_a_station_index_out_of_range(
    small_scenario, small_dataset, tmp_path, key, value
):
    # each loaded, and `uavisac train` fitted the association net to label 99 / 4
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    sample = json.loads(row)
    sample[key] = value
    path.write_text(f"{header}\n{json.dumps(sample)}\n")
    with pytest.raises(ValueError) as err:
        read_dataset_jsonl(path)
    num_gbs = small_scenario.num_gbs
    assert str(err.value) == (
        f"dataset sample {key} must be a station index below {num_gbs}, got {value}"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row.update(extra=1),
         r"^dataset sample keys: unknown \['extra'\], missing \[\]$"),
        (lambda row: row.pop("slot"), r"^dataset sample keys: unknown \[\], missing \['slot'\]$"),
    ],
    ids=["stray_key", "slot_missing"],
)
def test_dataset_read_names_unknown_and_missing_sample_keys(
    small_scenario, small_dataset, tmp_path, edit, message
):
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    sample = json.loads(row)
    edit(sample)
    path.write_text(f"{header}\n{json.dumps(sample)}\n")
    with pytest.raises(ValueError, match=message):
        read_dataset_jsonl(path)


@pytest.mark.parametrize("key, value", [("slot", 1.9), ("gbs_index", True)], ids=["float", "bool"])
def test_dataset_read_names_an_integer_field_of_another_type(
    small_scenario, small_dataset, tmp_path, key, value
):
    # each loaded as 1
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    sample = json.loads(row)
    sample[key] = value
    path.write_text(f"{header}\n{json.dumps(sample)}\n")
    with pytest.raises(ValueError) as err:
        read_dataset_jsonl(path)
    assert str(err.value) == f"dataset sample {key} must be a JSON integer, got {value!r}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("position", [1.0, 2.0], "position must be a list of 3 JSON numbers, got [1.0, 2.0]"),
        ("position", 5.0, "position must be a list of 3 JSON numbers, got 5.0"),
        ("position", [True, 1.0, 2.0],
         "position must be a list of 3 JSON numbers, got [True, 1.0, 2.0]"),
        ("orientation", [0.0, 0.0], "orientation must be a list of 3 JSON numbers, got [0.0, 0.0]"),
        ("comm_features", [0.0] * 5,
         "comm_features must be a list of 7 JSON numbers, got [0.0, 0.0, 0.0, 0.0, 0.0]"),
        ("sensing_weights", ["a"] * 200,
         "sensing_weights must be a list of 128 JSON numbers, got "
         "['a', 'a', 'a', 'a', 'a', 'a', ...]"),
        ("comm_weights", [0.0] * 126,
         "comm_weights must be a list of 128 JSON numbers, got "
         "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]"),
        ("comm_features", [10**400] + [0.0] * 6,
         "comm_features must be a list of 7 JSON numbers, got "
         + reprlib.repr([10**400] + [0.0] * 6)),
    ],
    ids=["short", "scalar", "bool_entry", "short_orientation", "short_features", "strings",
         "short_weights", "huge_feature"],
)
def test_dataset_read_names_an_array_field_of_the_wrong_size_or_type(
    small_scenario, small_dataset, tmp_path, key, value, message
):
    # the first three and the short features and weights loaded; the orientation
    # failed as a bare TypeError, the strings as an unnamed ValueError and the
    # 401-digit integer as an OverflowError.  A 64-element array has 128 weight
    # entries
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    sample = json.loads(row)
    sample[key] = value
    path.write_text(f"{header}\n{json.dumps(sample)}\n")
    with pytest.raises(ValueError) as err:
        read_dataset_jsonl(path)
    assert str(err.value) == f"dataset sample {message}"


def test_dataset_read_rejects_a_non_finite_entry(small_scenario, small_dataset, tmp_path):
    # it loaded, and `uavisac train` then wrote a bundle that failed to load
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    sample = json.loads(row)
    sample["comm_features"][0] = math.nan
    path.write_text(f"{header}\n{json.dumps(sample)}\n")
    with pytest.raises(ValueError, match="^dataset sample comm_features has non-finite entries$"):
        read_dataset_jsonl(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda first: first["meta"].pop("scenario"),
         r"^dataset header keys: unknown \[\], missing \['scenario'\]$"),
        (lambda first: first["meta"].update(note="x"),
         r"^dataset header keys: unknown \['note'\], missing \[\]$"),
        (lambda first: first["meta"].update(seed="1"),
         r"^dataset header seed must be a JSON integer, got '1'$"),
        (lambda first: first["meta"].update(policy=3),
         r"^dataset header policy must be a JSON string, got 3$"),
        (lambda first: first.update(note="x"),
         r"^dataset first line keys: unknown \['note'\], missing \[\]$"),
        (lambda first: first.update(meta=5), r"^dataset header must be a JSON object, got int$"),
        (lambda first: first["meta"]["scenario"].update(v_max_mps=10**400),
         r"^dataset header scenario v_max_mps must be a JSON number, got 1000"),
    ],
    ids=["scenario_missing", "stray_key", "string_seed", "number_policy", "stray_line_key",
         "number_meta", "huge_scenario_speed"],
)
def test_dataset_read_checks_the_header_like_every_record(
    small_scenario, small_dataset, tmp_path, edit, message
):
    # a missing scenario raised a bare KeyError; the others loaded or failed unnamed
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    first = json.loads(header)
    edit(first)
    path.write_text(f"{json.dumps(first)}\n{row}\n")
    with pytest.raises(ValueError, match=message):
        read_dataset_jsonl(path)


def test_dataset_read_rejects_a_first_line_that_is_no_object(
    small_scenario, small_dataset, tmp_path
):
    # it raised "TypeError: argument of type 'int' is not iterable"
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(path, small_dataset[:1], small_scenario, "closest", 21)
    header, row = path.read_text().splitlines()
    path.write_text(f"5\n{row}\n")
    with pytest.raises(ValueError, match="^dataset first line must be a JSON object, got int$"):
        read_dataset_jsonl(path)


def test_empty_dataset_logs_then_reports_its_skip_counts(caplog):
    # a 2x2 panel meets no 20 dB SLL minimum; the counts were lost with the raise
    counts = "field of view: 2, null conflict: 0, not converged: 109"
    with caplog.at_level(logging.INFO, logger="uavisac.pipeline"):
        with pytest.raises(RuntimeError) as err:
            generate_dataset(Scenario(num_elements=4), 1, "closest", 1)
    assert str(err.value) == f"dataset is empty: no trajectory point converged ({counts})"
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert infos == [f"dataset generation skipped 111 points ({counts})"]


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
        h_comm = station_channel(small_scenario, point, small_scenario.gbs_m[0])
        h_sense = echo_channel(small_scenario, point)
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
    expected_train = int(round(0.7 * n))
    assert abs(expected_train - 0.7 * n) <= 1


def test_train_models_rejects_tiny_dataset(small_scenario, small_dataset):
    with pytest.raises(ValueError):
        train_models(small_dataset[:5], small_scenario, TrainConfig(epochs=1))


def test_bundle_roundtrip(tmp_path, small_scenario, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    loaded = ModelBundle.load(path)
    assert loaded.num_gbs == small_bundle.num_gbs
    point = TrajectoryPoint(
        slot=0, position=np.array([100.0, 120.0, 100.0]), orientation=RotationAngles(0.2, 0, 0)
    )
    assert predict_association(loaded, small_scenario, point) == predict_association(
        small_bundle, small_scenario, point
    )
    data = json.loads(path.read_text())
    assert data["format_version"] == 6
    assert data["beamformer_report"]["val_metric"] == small_bundle.beamformer_report.val_metric
    # a network is its layers: the z-score of its inputs is folded into the first
    for name in ("beamformer", "association"):
        assert list(data[name]) == ["layer_sizes", "seed", "weights", "biases"]


def test_bundle_load_rejects_other_format_versions(tmp_path, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    data["format_version"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="bundle format_version 1"):
        ModelBundle.load(path)


def test_bundle_load_rejects_a_network_missing_its_last_layer(tmp_path, small_bundle):
    """A bundle whose network lost its output layer fails to load, naming the network.

    Loaded, the association net would return its 32 hidden values, and the
    first would be taken as the station.
    """
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    saved = json.loads(path.read_text())
    for name, message in (("association", "weights: 2 arrays for 3 layers"),
                          ("beamformer", "weights: 1 arrays for 2 layers")):
        data = json.loads(json.dumps(saved))
        for key in ("weights", "biases"):
            data[name][key].pop()
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as err:
            ModelBundle.load(path)
        assert str(err.value) == f"bundle {name}: {message}"


def test_bundle_load_names_the_network_with_a_stray_key(tmp_path, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    data["association"]["layers"] = data["association"]["layer_sizes"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == "bundle association: network keys: unknown ['layers'], missing []"


def test_bundle_file_states_each_field_once_and_saves_back_byte_for_byte(tmp_path, small_bundle):
    path, again = tmp_path / "bundle.json", tmp_path / "again.json"
    small_bundle.save(path)
    ModelBundle.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()
    data = json.loads(path.read_text())
    assert list(data) == [
        "format_version", "beamformer", "association", "num_gbs", "beamformer_report",
        "association_report",
    ]
    for name in ("beamformer_report", "association_report"):
        assert list(data[name]) == ["train_loss", "val_loss", "val_metric"]
    assert data["association_report"]["val_metric"] is None


def test_loaded_bundle_predicts_the_in_memory_bytes(tmp_path, small_scenario, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    loaded = ModelBundle.load(path)
    points = generate_trajectories(small_scenario, 1, seed=77)[0].points
    for point in points[::10]:
        k = predict_association(small_bundle, small_scenario, point)
        assert predict_association(loaded, small_scenario, point) == k
        geo = point_geometry(small_scenario, point)
        expected, expected_eirp = pipeline.predict_matrix(small_bundle, small_scenario, geo, k)
        got, eirp = pipeline.predict_matrix(loaded, small_scenario, geo, k)
        assert eirp == expected_eirp
        for beam in ("sensing", "comm"):
            want, have = getattr(expected, beam), getattr(got, beam)
            assert have.entries.tobytes() == want.entries.tobytes()
            assert have.power_per_element_mw == want.power_per_element_mw


def test_bundle_load_names_unknown_and_missing_keys(tmp_path, small_bundle):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    saved = json.loads(path.read_text())
    data = dict(saved, reports={"beamformer": {}})
    del data["num_gbs"], data["beamformer_report"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == (
        "bundle keys: unknown ['reports'], missing ['num_gbs', 'beamformer_report']"
    )
    report = saved["beamformer_report"]
    report["val_beampattern_error"] = report.pop("val_metric")
    path.write_text(json.dumps(saved))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == (
        "bundle beamformer_report keys: unknown ['val_beampattern_error'], missing ['val_metric']"
    )
    saved["beamformer_report"] = None
    path.write_text(json.dumps(saved))
    with pytest.raises(ValueError, match="^bundle beamformer_report must be a JSON object, got"):
        ModelBundle.load(path)


@pytest.mark.parametrize(
    "network, key, value, message",
    [
        ("association", "layer_sizes", 3,
         "bundle association: network layer_sizes must be a list of JSON integers, got 3"),
        ("beamformer", "weights", None,
         "bundle beamformer: network weights must be a list of arrays, got None"),
        (None, "num_gbs", "x", "bundle num_gbs must be a JSON integer, got 'x'"),
        (None, "num_gbs", 5.9, "bundle num_gbs must be a JSON integer, got 5.9"),
        ("association", "seed", None, "bundle association: network seed must be a JSON integer, got None"),
        ("beamformer_report", "train_loss", 3,
         "bundle beamformer_report train_loss must be a list of JSON numbers, got 3"),
    ],
    ids=["layer_sizes_int", "weights_null", "num_gbs_string", "num_gbs_float", "seed_null",
         "train_loss_int"],
)
def test_bundle_load_names_a_value_of_the_wrong_type(tmp_path, small_bundle, network, key, value,
                                                     message):
    # each one failed as a bare TypeError, failed unnamed, or loaded as another value
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    (data[network] if network else data)[key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == message


def test_format_2_bundle_fails_on_its_version(tmp_path, small_bundle):
    # format 2 kept both reports in one block and renamed val_metric
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    beamformer, association = data.pop("beamformer_report"), data.pop("association_report")
    beamformer["val_beampattern_error"] = beamformer.pop("val_metric")
    del association["val_metric"]
    data.update(format_version=2, reports={"beamformer": beamformer, "association": association})
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == "bundle format_version 2 is not supported (expected 6)"


def test_format_3_bundle_fails_on_its_version(tmp_path, small_bundle):
    # format 3 networks carried the z-score stats of their inputs
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    for name, width in (("beamformer", 7), ("association", 4)):
        data[name].update(norm_mean=[0.0] * width, norm_std=[1.0] * width)
    data["format_version"] = 3
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == "bundle format_version 3 is not supported (expected 6)"


def test_format_4_bundle_fails_on_its_version(tmp_path, small_bundle):
    # format 4 stated the array size beside the beamformer's width and stamped
    # a creation time
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    reports = {name: data.pop(name) for name in ("beamformer_report", "association_report")}
    data.update(format_version=4, num_elements=64, created="2026-10-20T00:00:00+00:00", **reports)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == "bundle format_version 4 is not supported (expected 6)"


def test_format_5_bundle_fails_on_its_version(tmp_path, small_bundle):
    # format 5 carried a hash of the training scenario that no code read
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    data = json.loads(path.read_text())
    data.update(format_version=5, scenario_hash="0" * 64)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value) == "bundle format_version 5 is not supported (expected 6)"


def test_train_models_writes_byte_identical_bundles(tmp_path, small_scenario, small_dataset):
    config = TrainConfig(epochs=3, batch_size=64, learning_rate=5e-3, seed=2)
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        train_models(small_dataset, small_scenario, config).save(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_predict_association_recovers_exact_index(small_scenario, small_bundle):
    # a head that outputs exactly k/(K-1) must decode to station k
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
            num_gbs=k,
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


def test_evaluate_trajectory_policy_aliases(small_scenario, small_bundle):
    # each policy has one name, the one --policy takes, and its records carry
    # that name; no other spelling is taken
    from uavisac.scenario import Trajectory

    full = generate_trajectories(small_scenario, 1, seed=5)[0]
    short = Trajectory(id=0, points=full.points[10:13])
    for policy in ("closest", "angle", "sinr", "nn"):
        records = evaluate_trajectory(small_scenario, short, policy, "optimizer",
                                      bundle=small_bundle)
        assert [r.policy for r in records] == [policy] * 3
    for policy in ("max_sinr", "min_target_angle", "nn_model", "optimal"):
        with pytest.raises(ValueError, match=f"^unknown association policy '{policy}'$"):
            evaluate_trajectory(small_scenario, short, policy, "optimizer")


def test_the_nn_policy_is_no_rule_of_the_geometry(small_scenario):
    # nn is one of scenario.POLICIES, but only the association network picks its station
    from uavisac.scenario import POLICIES, associate

    assert "nn" in POLICIES
    message = ("^the nn policy is the association network's choice, not a rule of the "
               "geometry: evaluate_trajectory takes it with a trained bundle$")
    point = generate_trajectories(small_scenario, 1, seed=5)[0].points[0]
    with pytest.raises(ValueError, match=message):
        associate(small_scenario, point_geometry(small_scenario, point), "nn")
    with pytest.raises(ValueError, match=message):
        generate_dataset(small_scenario, 1, "nn", 5)


def test_evaluate_trajectory_audited_slot_matches_hand_composition(small_scenario):
    traj = generate_trajectories(small_scenario, 1, seed=5)[0]
    mats = []
    records = evaluate_trajectory(small_scenario, traj, "closest", "optimizer", matrices_out=mats)
    idx = len(records) // 2
    record, matrix, point = records[idx], mats[idx], traj.points[idx]
    gbs = small_scenario.gbs_m[record.gbs_index]
    h_comm = station_channel(small_scenario, point, gbs)
    h_sense = echo_channel(small_scenario, point)
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
    # the network rows (gbs_index, eirp_dbm, sinr_db, rate_bps, beampattern_gain)
    # as recorded when forward() still z-scored its input: folding the z-score
    # into the first layer moves the floats by roundoff and no station
    unfolded = [
        (1, 32.12190095385287, -20.991348588564236, 1143713.0674311088, 4069.2411727356493),
        (1, 31.610815409176265, -13.572593920521909, 6202209.725838097, 3641.045202354763),
        (1, 30.716431025128095, -5.716724244741862, 34269012.31782426, 3175.755746486152),
        (1, 29.756232905469375, -3.2076878043421213, 56343500.28898039, 2549.6159477824267),
    ]
    nn_rows = records[4:]
    assert [r.gbs_index for r in nn_rows] == [row[0] for row in unfolded]
    np.testing.assert_allclose(
        [(r.eirp_dbm, r.sinr_db, r.rate_bps, r.beampattern_gain) for r in nn_rows],
        [row[1:] for row in unfolded], rtol=1e-12, atol=0.0,
    )
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "84dd4747c820649288e75c2ef2d7e7e72433d5101dfd16f79e1ddd7f9efe929d"
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
    # the array size a bundle was trained for is its beamformer's output width / 2
    wide = dataclasses.replace(
        small_bundle, beamformer=Network(NetworkConfig(layer_sizes=(7, 50, 200), seed=0))
    )
    with pytest.raises(ValueError) as err:
        evaluate_trajectory(small_scenario, traj, "nn", "nn", bundle=wide)
    assert str(err.value) == (
        "bundle trained for 100 elements and 3 stations, scenario has 64 and 3"
    )


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
    # to_db(0) is -inf, the EIRP a record can carry; it survives the round trip
    with_inf = records + [dataclasses.replace(records[0], eirp_dbm=to_db(0.0))]
    write_records_csv(p2, with_inf)
    assert read_records_csv(p2) == with_inf

    stats = eirp_stats(records, [10.0, 15.0])
    spath = tmp_path / "stats.csv"
    write_stats_csv(spath, stats)
    lines = spath.read_text().splitlines()
    assert lines[0] == "kind,key,value"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"ecdf", "outage", "mean_rate_bps"}


def _add_extra_column(rows):
    for row, cell in zip(rows, ("extra", "1")):
        row.append(cell)


def _drop_rate_column(rows):
    column = rows[0].index("rate_bps")
    for row in rows:
        del row[column]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_add_extra_column, r"^records row keys: unknown \['extra'\], missing \[\]$"),
        (_drop_rate_column, r"^records row keys: unknown \[\], missing \['rate_bps'\]$"),
    ],
    ids=["extra_column", "rate_bps_missing"],
)
def test_records_read_names_unknown_and_missing_columns(tmp_path, edit, message):
    _edit_records_and_read(tmp_path, edit, message)


def _drop_a_cell(rows):
    rows[1].pop()


def _add_a_cell(rows):
    rows[1].append("9.0")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_a_cell, r"^records line 2: fewer cells than the header$"),
        (_add_a_cell, r"^records line 2: more cells than the header$"),
    ],
    ids=["short_row", "long_row"],
)
def test_records_read_rejects_a_row_of_the_wrong_width(tmp_path, edit, message):
    _edit_records_and_read(tmp_path, edit, message)


def _set_cell(name, text):
    def edit(rows):
        rows[1][rows[0].index(name)] = text
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_cell("slot", "x"), r"^records row slot must be an integer, got 'x'$"),
        (_set_cell("eirp_dbm", "abc"), r"^records row eirp_dbm must be a number, got 'abc'$"),
        (_set_cell("gbs_index", "1.5"), r"^records row gbs_index must be an integer, got '1.5'$"),
    ],
    ids=["slot_text", "eirp_text", "gbs_index_fraction"],
)
def test_records_read_names_a_cell_its_type_cannot_parse(tmp_path, edit, message):
    # each failed with int()'s or float()'s own message, which names no field
    _edit_records_and_read(tmp_path, edit, message)


def _edit_records_and_read(tmp_path, edit, message):
    """Write one record, apply edit to its CSV rows, and expect message from the read."""
    path = tmp_path / "records.csv"
    record = EvalRecord(slot=3, policy="closest", gbs_index=1, eirp_dbm=20.0, sinr_db=1.5,
                        rate_bps=2e6, beampattern_gain=40.0)
    write_records_csv(path, [record])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match=message):
        read_records_csv(path)
