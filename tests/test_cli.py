import json

import numpy as np
import pytest

from uavisac.cli import main
from uavisac.pipeline import write_dataset_jsonl
from uavisac.scenario import Scenario


@pytest.fixture()
def tiny_scenario_path(tmp_path):
    scenario = Scenario(
        area_m=(500.0, 500.0),
        gbs_m=np.array([[120.0, 100.0, 2.0], [380.0, 150.0, 2.0], [220.0, 400.0, 2.0]]),
        target_m=np.array([250.0, 250.0, 0.0]),
        start_m=np.array([60.0, 60.0, 100.0]),
        end_m=np.array([340.0, 390.0, 100.0]),
        num_elements=64,
        num_trajectories=2,
    )
    path = tmp_path / "scenario.json"
    scenario.save(path)
    return str(path)


def test_scenario_init_writes_defaults(tmp_path, capsys):
    out = tmp_path / "scenario.json"
    assert main(["scenario", "init", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["area_m"] == [1500.0, 1500.0]
    assert len(data["gbs_m"]) == 5
    assert data["v_max_mps"] == 10.0
    assert data["slot_s"] == 1.0
    assert data["carrier_hz"] == 0.3e12
    assert data["bandwidth_hz"] == 100e6
    assert data["noise_power_dbm"] == -110.0
    assert data["gamma_sinr_db"] == 0.3
    assert data["eirp_max_dbm"] == 37.0
    assert data["num_trajectories"] == 100
    assert "wrote" in capsys.readouterr().out


def test_synthesize_command(tmp_path, tiny_scenario_path, capsys):
    cuts = tmp_path / "cuts.csv"
    code = main(
        [
            "synthesize",
            "--scenario", tiny_scenario_path,
            "--az", "20.0",
            "--el", "25.0",
            "--sll-az", "18",
            "--sll-el", "18",
            "--eirp", "20.0",
            "--null=-15,30",
            "--out-cuts", str(cuts),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "achieved_sll_az_db" in out and "active_elements" in out
    az_csv = tmp_path / "cuts_az.csv"
    el_csv = tmp_path / "cuts_el.csv"
    assert az_csv.exists() and el_csv.exists()
    assert az_csv.read_text().splitlines()[0] == "angle_deg,gain_db"


def test_synthesize_rejects_eirp_above_cap(tmp_path, tiny_scenario_path, capsys):
    code = main(
        [
            "synthesize",
            "--scenario", tiny_scenario_path,
            "--az", "0", "--el", "30",
            "--sll-az", "15", "--sll-el", "15",
            "--eirp", "50.0",
            "--out-cuts", str(tmp_path / "c.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload


def test_missing_scenario_file_fails_cleanly(tmp_path, capsys):
    code = main(
        [
            "dataset", "generate",
            "--scenario", str(tmp_path / "nope.json"),
            "--trajectories", "1",
            "--policy", "closest",
            "--seed", "1",
            "--out", str(tmp_path / "d.jsonl"),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "FileNotFoundError"


def test_unsupported_format_version_fails_cleanly(tmp_path, tiny_scenario_path, capsys):
    # 1 is the format before the flight altitude left the file, 3 a future one
    for version in (1, 3):
        data = Scenario.load(tiny_scenario_path).to_json_dict()
        data["format_version"] = version
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "d.jsonl"
        code = main(
            [
                "dataset", "generate",
                "--scenario", str(path),
                "--trajectories", "1",
                "--policy", "closest",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert f"format_version {version}" in payload["message"]
        assert not out.exists()


def test_dataset_generate_refuses_the_nn_policy(tmp_path, tiny_scenario_path, capsys):
    # the dataset labels the networks' training data, so no network picks its stations
    out = tmp_path / "d.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "dataset", "generate",
                "--scenario", tiny_scenario_path,
                "--trajectories", "1",
                "--policy", "nn",
                "--seed", "1",
                "--out", str(out),
            ]
        )
    assert exit_info.value.code == 2
    assert "invalid choice: 'nn'" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_zero_epochs(tmp_path, tiny_scenario_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset_jsonl(data, [], Scenario.load(tiny_scenario_path), "closest", 1)
    bundle = tmp_path / "bundle.json"
    code = main(
        [
            "train", "--data", str(data), "--epochs", "0",
            "--seed", "1", "--out", str(bundle),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ValueError", "message": "epochs must be at least 1"}
    assert not bundle.exists()


def test_full_cli_flow_and_seed_determinism(tmp_path, tiny_scenario_path):
    def run_all(tag):
        data = tmp_path / f"data_{tag}.jsonl"
        bundle = tmp_path / f"bundle_{tag}.json"
        records = tmp_path / f"records_{tag}.csv"
        stats = tmp_path / f"stats_{tag}.csv"
        assert main([
            "dataset", "generate", "--scenario", tiny_scenario_path,
            "--trajectories", "2", "--policy", "closest", "--seed", "7",
            "--out", str(data),
        ]) == 0
        assert main([
            "train", "--data", str(data), "--epochs", "5", "--batch", "64",
            "--lr", "1e-3", "--split", "0.7", "--seed", "7", "--out", str(bundle),
        ]) == 0
        assert main([
            "eval", "trajectory", "--scenario", tiny_scenario_path,
            "--bundle", str(bundle), "--policy", "nn", "--source", "nn",
            "--seed", "7", "--out", str(records),
        ]) == 0
        assert main([
            "eval", "eirp", "--records", str(records), "--thresholds", "10,15",
            "--out", str(stats),
        ]) == 0
        report = tmp_path / f"bundle_{tag}_report.csv"
        assert report.exists()
        header = report.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_beampattern_error"
        return tuple(p.read_bytes() for p in (data, records, stats, report))

    assert run_all("a") == run_all("b")
