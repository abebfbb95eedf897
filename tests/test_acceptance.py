"""Acceptance suite: one test per release criterion.

The expensive artifacts (10-trajectory dataset, 200-epoch training, policy
evaluations) are built once in a session fixture and shared.  Every test
prints a PASS line with its headline numbers once its assertions hold.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from uavisac.beampattern import chebyshev_taper, eirp
from uavisac.cli import main
from uavisac.geometry import (
    ArrayConfig,
    DirectionAngles,
    RotationAngles,
    direction_angles,
    rotation_matrix,
    steering_vector,
)
from uavisac.neuralnet import Network, NetworkConfig, TrainConfig
from uavisac.pipeline import (
    _sample_point,
    decode_complex,
    eirp_stats,
    evaluate_trajectory,
    generate_dataset,
    predict_association,
    predict_matrix,
    synthesize_point,
    train_models,
)
from uavisac.scenario import Scenario, generate_trajectories, point_geometry

DATASET_SEED = 11
TRAIN_SEED = 5
EVAL_SEED = 77
DATASET_TRAJECTORIES = 10
EVAL_TRAJECTORIES = 2
BASELINE_POLICIES = ("closest", "angle", "sinr")


def announce(capsys, number, message):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS - {message}")


@pytest.fixture(scope="session")
def paper_run():
    scenario = Scenario()
    t0 = time.perf_counter()
    samples = generate_dataset(scenario, DATASET_TRAJECTORIES, "closest", seed=DATASET_SEED)
    dataset_seconds = time.perf_counter() - t0

    # constant 1e-3 undertrains badly within the 200-epoch budget; 2.5e-2 is
    # the slowest rate that converges in time (see decisions ledger)
    config = TrainConfig(epochs=200, batch_size=128, learning_rate=2.5e-2, seed=TRAIN_SEED)
    t0 = time.perf_counter()
    bundle = train_models(samples, scenario, config)
    train_seconds = time.perf_counter() - t0

    trajectories = generate_trajectories(scenario, EVAL_TRAJECTORIES, seed=EVAL_SEED)
    eval_records = {}
    eval_matrices = {}
    for policy in BASELINE_POLICIES + ("nn",):
        records, matrices = [], []
        for traj in trajectories:
            records += evaluate_trajectory(
                scenario, traj, policy, "optimizer", bundle=bundle, matrices_out=matrices
            )
        eval_records[policy] = records
        eval_matrices[policy] = matrices

    return {
        "scenario": scenario,
        "samples": samples,
        "train_config": config,
        "bundle": bundle,
        "trajectories": trajectories,
        "eval_records": eval_records,
        "eval_matrices": eval_matrices,
        "dataset_seconds": dataset_seconds,
        "train_seconds": train_seconds,
    }


def _run_synthesize_cli(tmp_path, capsys, name, az, el, sll, eirp_dbm, nulls):
    scenario_path = tmp_path / "default_scenario.json"
    if not scenario_path.exists():
        Scenario().save(scenario_path)
    args = [
        "synthesize",
        "--scenario", str(scenario_path),
        "--az", str(az),
        "--el", str(el),
        "--sll-az", str(sll),
        "--sll-el", str(sll),
        "--eirp", str(eirp_dbm),
        "--out-cuts", str(tmp_path / f"{name}.csv"),
    ]
    for n_az, n_el in nulls:
        args.append(f"--null={n_az},{n_el}")
    t0 = time.perf_counter()
    assert main(args) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    values = dict(re.findall(r"(\w+)=([-\w.+]+)", out))
    return {
        "sll_az": float(values["achieved_sll_az_db"]),
        "sll_el": float(values["achieved_sll_el_db"]),
        "eirp": float(values["achieved_eirp_dbm"]),
        "active": int(values["active_elements"]),
        "seconds": elapsed,
    }


def test_criterion_01_optimizer_reproduces_synthesis_tables(tmp_path, capsys):
    runs = [
        ("point1", 43.6, 16.2, 15.0, 15.38, ((12.61, 42.63), (76.64, 42.4))),
        ("point2", -58.4, 8.4, 23.0, 18.0, ((57.09, 25.47), (33.85, 27.30))),
    ]
    results = []
    for name, az, el, sll, target, nulls in runs:
        r = _run_synthesize_cli(tmp_path, capsys, name, az, el, sll, target, nulls)
        assert abs(r["eirp"] - target) <= 0.5
        assert r["sll_az"] >= sll and r["sll_el"] >= sll
        assert r["active"] == 100
        assert r["seconds"] < 60.0
        results.append(r)
    announce(
        capsys, 1,
        "EIRP {:.4f}/{:.4f} dBm, SLL ({:.1f},{:.1f})/({:.1f},{:.1f}) dB, "
        "100 active elements, {:.1f}s/{:.1f}s".format(
            results[0]["eirp"], results[1]["eirp"],
            results[0]["sll_az"], results[0]["sll_el"],
            results[1]["sll_az"], results[1]["sll_el"],
            results[0]["seconds"], results[1]["seconds"],
        ),
    )


def test_criterion_02_chebyshev_taper_oracle(capsys):
    t0 = time.perf_counter()
    assert np.allclose(chebyshev_taper(2, 30.0), [1.0, 1.0])
    taper = chebyshev_taper(8, 30.0)
    # brute-force 0.05 degree scan of the half-wavelength line pattern
    psi = np.radians(np.arange(-90.0, 90.0001, 0.05))
    u = np.sin(psi)
    af = np.abs(np.exp(1j * np.pi * np.outer(u, np.arange(8))) @ taper) ** 2
    af_db = 10 * np.log10(af / af.max())
    peaks = [
        af_db[i]
        for i in range(1, len(af_db) - 1)
        if af_db[i] > af_db[i - 1] and af_db[i] > af_db[i + 1] and af_db[i] < -3.0
    ]
    assert max(peaks) <= -30.0 + 0.5
    assert min(peaks) >= -30.0 - 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(capsys, 2, f"sidelobe peaks within [-30.5, -29.5] dB, {elapsed*1000:.0f} ms")


def test_criterion_03_null_steering_invariants(capsys):
    from uavisac.beampattern import apply_nulls, array_gain
    from uavisac.geometry import centered_grid_offsets, direction_unit

    from tests.helpers import random_null_scene

    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    offsets = centered_grid_offsets(config)
    rng = np.random.default_rng(3)
    worst_product, worst_loss = 0.0, -math.inf
    t0 = time.perf_counter()
    for _ in range(100):
        pose, pointing, nulls = random_null_scene(rng, min_sep_deg=10.0)
        a_point = np.exp(
            1j
            * config.wavenumber
            * ((offsets @ rotation_matrix(pose.angles).T) @ direction_unit(pointing))
        )
        taper = chebyshev_taper(config.side, 25.0)
        amp = np.repeat(taper, config.side) * np.tile(taper, config.side)
        from uavisac.beampattern import BeamWeights

        weights = BeamWeights(entries=amp * a_point, power_per_element_mw=1.0)
        before = array_gain(weights, config, pose.position, pose.angles, pointing)
        out = apply_nulls(weights, config, pose, nulls, pointing)
        after = array_gain(out, config, pose.position, pose.angles, pointing)
        loss_db = 10 * math.log10(before / max(after * out.power_per_element_mw, 1e-300))
        worst_loss = max(worst_loss, loss_db)
        norm = np.linalg.norm(out.vector) * math.sqrt(config.num_elements)
        for null in nulls:
            a_null = np.exp(
                1j
                * config.wavenumber
                * ((offsets @ rotation_matrix(pose.angles).T) @ direction_unit(null))
            )
            product = abs(np.vdot(a_null, out.vector))
            worst_product = max(worst_product, product / norm)
            assert product <= 1e-10 * norm
        assert loss_db < 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(
        capsys, 3,
        f"100 scenes: worst null residual {worst_product:.1e} of bound scale, "
        f"worst main-lobe loss {worst_loss:.2f} dB, {elapsed:.1f}s",
    )


def test_criterion_04_geometry_invariants(capsys):
    rng = np.random.default_rng(4)
    worst_orth, worst_det = 0.0, 0.0
    for _ in range(1000):
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
        r = rotation_matrix(angles)
        worst_orth = max(worst_orth, float(np.max(np.abs(r.T @ r - np.eye(3)))))
        worst_det = max(worst_det, abs(np.linalg.det(r) - 1.0))
    assert worst_orth < 1e-12 and worst_det < 1e-12

    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    worst_match = 0.0
    for _ in range(100):
        pos = np.append(rng.uniform(0, 1000, 2), 100.0)
        dest = np.append(rng.uniform(0, 1000, 2), 0.0)
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
        a = steering_vector(config, pos, angles, dest)
        worst_match = max(worst_match, abs(np.vdot(a, a) - 100.0))
    assert worst_match < 1e-12 * 100.0

    from uavisac.beampattern import array_gain
    from uavisac.geometry import centered_grid_offsets, direction_unit

    worst_gain = 0.0
    for _ in range(100):
        angles = RotationAngles(rng.uniform(-math.pi, math.pi), 0.0, 0.0)
        direction = DirectionAngles(
            theta=rng.uniform(0.2, math.pi - 0.2), phi=rng.uniform(-math.pi, math.pi)
        )
        unit_arr = rotation_matrix(angles).T @ direction_unit(direction)
        a = np.exp(1j * config.wavenumber * (centered_grid_offsets(config) @ unit_arr))
        ge = ((1.0 + unit_arr[1]) / 2.0) ** 2
        gain = array_gain(a, config, np.zeros(3), angles, direction)
        expected = config.num_elements**2 * ge
        if expected > 0:
            worst_gain = max(worst_gain, abs(gain - expected) / expected)
    assert worst_gain < 1e-9
    announce(
        capsys, 4,
        f"orthonormality {worst_orth:.1e}, matched product {worst_match:.1e}, "
        f"coherent gain rel err {worst_gain:.1e}",
    )


def test_criterion_05_gradient_correctness(capsys):
    from tests.helpers import relative_gradient_error

    rng = np.random.default_rng(500)
    worst = 0.0
    for layer_sizes in ((7, 50, 200), (4, 64, 32, 1)):
        for draw in range(10):
            net = Network(NetworkConfig(layer_sizes=layer_sizes, seed=1000 + draw))
            x = rng.normal(size=(4, layer_sizes[0]))
            y = rng.normal(size=(4, layer_sizes[-1]))
            err = relative_gradient_error(net, x, y, rng)
            worst = max(worst, err)
    assert worst < 1e-4
    announce(capsys, 5, f"worst relative gradient error {worst:.2e} over both architectures")


def test_criterion_06_desk_scale_learning(paper_run, capsys):
    samples = paper_run["samples"]
    assert len(samples) >= 600, "dataset unexpectedly small"
    bundle = paper_run["bundle"]
    assert bundle.beamformer.layer_sizes == (7, 50, 200)
    assert bundle.association.layer_sizes == (4, 64, 32, 1)
    curve = bundle.beamformer_report.val_metric
    assert len(curve) == 200
    initial, final = curve[0], curve[-1]
    assert final < 0.25 * initial
    ma = np.convolve(curve, np.ones(10) / 10, mode="valid")
    # non-increasing up to optimizer ripple: each step may rise by at most
    # 1 percent of the initial error
    assert np.all(np.diff(ma) <= 1e-2 * initial)
    total = paper_run["dataset_seconds"] + paper_run["train_seconds"]
    assert total < 600.0
    announce(
        capsys, 6,
        f"{len(samples)} samples, error {initial:.3f} -> {final:.3f} "
        f"({final/initial:.1%} of initial), {total:.0f}s",
    )


def test_criterion_07_inference_speedup(paper_run, capsys):
    scenario = paper_run["scenario"]
    bundle = paper_run["bundle"]
    trajectory = paper_run["trajectories"][0]
    points = [trajectory.points[i] for i in range(10, len(trajectory) - 10, len(trajectory) // 6)]

    # each timed call includes the point's geometry pass
    predict_matrix(bundle, scenario, point_geometry(scenario, points[0]), 0)  # warm both code paths
    synthesize_point(scenario, point_geometry(scenario, points[0]), 0, lenient=True)

    t0 = time.perf_counter()
    for point in points:
        synthesize_point(scenario, point_geometry(scenario, point), 0, lenient=True)
    optimizer_seconds = (time.perf_counter() - t0) / len(points)

    repeats = 10
    t0 = time.perf_counter()
    for _ in range(repeats):
        for point in points:
            predict_matrix(bundle, scenario, point_geometry(scenario, point), 0)
    nn_seconds = (time.perf_counter() - t0) / (repeats * len(points))

    speedup = optimizer_seconds / nn_seconds
    assert speedup >= 10.0
    announce(
        capsys, 7,
        f"optimizer {optimizer_seconds*1000:.0f} ms vs NN {nn_seconds*1000:.2f} ms per point "
        f"({speedup:.0f}x over {len(points)} points)",
    )


def test_criterion_08_association_quality(paper_run, capsys):
    scenario = paper_run["scenario"]
    samples = paper_run["samples"]
    bundle = paper_run["bundle"]
    config = paper_run["train_config"]

    n = len(samples)
    perm = np.random.default_rng(config.seed).permutation(n)
    n_train = int(round(config.train_fraction * n))
    train_idx, val_idx = np.sort(perm[:n_train]), np.sort(perm[n_train:])
    train_labels = np.array([samples[i].optimal_gbs for i in train_idx])
    val_labels = np.array([samples[i].optimal_gbs for i in val_idx])
    majority_class = int(np.argmax(np.bincount(train_labels, minlength=scenario.num_gbs)))
    baseline = float(np.mean(val_labels == majority_class))
    preds = np.array(
        [predict_association(bundle, scenario, _sample_point(samples[i])) for i in val_idx]
    )
    accuracy = float(np.mean(preds == val_labels))
    assert accuracy > baseline

    stats = {
        policy: eirp_stats(records, [10.0, 15.0])
        for policy, records in paper_run["eval_records"].items()
    }
    nn = stats["nn"]
    disjunction_notes = []
    for threshold in (10.0, 15.0):
        min_outage = min(stats[p].outage[threshold] for p in BASELINE_POLICIES)
        first = nn.outage[threshold] <= min_outage + 1e-12
        equal_outage_rates = [
            stats[p].mean_rate_bps
            for p in BASELINE_POLICIES
            if abs(stats[p].outage[threshold] - nn.outage[threshold]) < 1e-12
        ]
        second = bool(equal_outage_rates) and nn.mean_rate_bps >= max(equal_outage_rates)
        assert first or second
        disjunction_notes.append(
            f"@{threshold:g}dBm nn={nn.outage[threshold]:.3f} min={min_outage:.3f}"
        )
    announce(
        capsys, 8,
        f"accuracy {accuracy:.3f} > baseline {baseline:.3f}; outage {'; '.join(disjunction_notes)}",
    )


def test_criterion_09_constraint_compliance(paper_run, capsys):
    scenario = paper_run["scenario"]
    checked = 0

    # every dataset matrix: power budget and per-beam EIRP cap
    for sample in paper_run["samples"]:
        wc = decode_complex(sample.comm_weights)
        ws = decode_complex(sample.sensing_weights)
        total = float(np.sum(np.abs(wc) ** 2) + np.sum(np.abs(ws) ** 2))
        assert total <= scenario.p_max_mw * (1 + 1e-9)
        for vec, feat in ((ws, sample.sensing_features), (wc, sample.comm_features)):
            pointing = DirectionAngles(theta=feat[1], phi=feat[0])
            from uavisac.beampattern import array_gain

            gain = array_gain(vec, scenario.array, np.zeros(3), RotationAngles(0, 0, 0), pointing)
            if gain > 0:
                assert 10 * math.log10(gain) <= scenario.eirp_max_dbm + 1e-6
        checked += 1

    # every evaluation matrix, re-deriving each beam's pointing from the record
    for policy, matrices in paper_run["eval_matrices"].items():
        records = paper_run["eval_records"][policy]
        points = [p for traj in paper_run["trajectories"] for p in traj.points]
        for record, matrix, point in zip(records, matrices, points):
            assert matrix.satisfies_budget(scenario.p_max_mw)
            gbs_dir = direction_angles(point.position, scenario.gbs_m[record.gbs_index])
            target_dir = direction_angles(point.position, scenario.target_m)
            for beam, pointing in ((matrix.comm, gbs_dir), (matrix.sensing, target_dir)):
                value = eirp(beam, scenario.array, point.pose, pointing)
                assert value <= scenario.eirp_max_dbm + 1e-6
            checked += 1

    step = scenario.v_max_mps * scenario.slot_s
    all_trajectories = paper_run["trajectories"] + generate_trajectories(
        scenario, DATASET_TRAJECTORIES, seed=DATASET_SEED
    )
    for traj in all_trajectories:
        assert np.array_equal(traj.points[0].position, scenario.start_m)
        assert np.array_equal(traj.points[-1].position, scenario.end_m)
        for a, b in zip(traj.points, traj.points[1:]):
            assert np.linalg.norm(b.position - a.position) <= step + 1e-9
    announce(
        capsys, 9,
        f"{checked} matrices within budget and EIRP cap; "
        f"{len(all_trajectories)} trajectories meet endpoint/speed constraints",
    )


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    scenario = Scenario(
        area_m=(500.0, 500.0),
        gbs_m=np.array([[120.0, 100.0, 2.0], [380.0, 150.0, 2.0], [220.0, 400.0, 2.0]]),
        target_m=np.array([250.0, 250.0, 0.0]),
        start_m=np.array([60.0, 60.0, 100.0]),
        end_m=np.array([340.0, 390.0, 100.0]),
        num_elements=64,
        num_trajectories=2,
    )
    scenario_path = tmp_path / "scenario.json"
    scenario.save(scenario_path)

    def run(tag):
        data = tmp_path / f"{tag}.jsonl"
        bundle = tmp_path / f"{tag}_bundle.json"
        records = tmp_path / f"{tag}_records.csv"
        assert main([
            "dataset", "generate", "--scenario", str(scenario_path),
            "--trajectories", "2", "--policy", "closest", "--seed", "13",
            "--out", str(data),
        ]) == 0
        assert main([
            "train", "--data", str(data), "--epochs", "8", "--batch", "64",
            "--lr", "1e-3", "--split", "0.7", "--seed", "13", "--out", str(bundle),
        ]) == 0
        assert main([
            "eval", "trajectory", "--scenario", str(scenario_path),
            "--bundle", str(bundle), "--policy", "nn", "--source", "nn",
            "--seed", "13", "--out", str(records),
        ]) == 0
        report = tmp_path / f"{tag}_bundle_report.csv"
        return (data.read_bytes(), records.read_bytes(), report.read_bytes())

    first = run("run_a")
    second = run("run_b")
    assert first == second
    announce(capsys, 10, "dataset JSONL, eval CSV and report CSV byte-identical across reruns")
