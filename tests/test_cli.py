import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from uavisac.cli import main
from uavisac.scenario import Scenario

# argv of each command on the good inputs; {out} is the folder its output goes to
GENERATE = ("dataset generate --scenario {scenario} --trajectories 1 --policy closest --seed 1"
            " --out {out}/data.jsonl")
TRAIN = "train --data {data} --epochs 2 --seed 1 --out {out}/bundle.json"
EVAL = ("eval trajectory --scenario {scenario} --bundle {bundle} --policy nn --source nn --seed 2"
        " --out {out}/records.csv")
EIRP = "eval eirp --records {records} --thresholds 10,15 --out {out}/stats.csv"
SYNTH = ("synthesize --scenario {scenario} --az 43.6 --el 16.2 --sll-az 15 --sll-el 15"
         " --eirp 15.38 --out-cuts {out}/cuts.csv")


@pytest.fixture(scope="module")
def tiny_scenario_path(tmp_path_factory):
    scenario = Scenario(
        area_m=(500.0, 500.0),
        gbs_m=np.array([[120.0, 100.0, 2.0], [380.0, 150.0, 2.0], [220.0, 400.0, 2.0]]),
        target_m=np.array([250.0, 250.0, 0.0]),
        start_m=np.array([60.0, 60.0, 100.0]),
        end_m=np.array([340.0, 390.0, 100.0]),
        num_elements=64,
        num_trajectories=2,
    )
    path = tmp_path_factory.mktemp("good") / "scenario.json"
    scenario.save(path)
    return str(path)


@pytest.fixture(scope="module")
def good_inputs(tiny_scenario_path):
    """The tiny scenario and the one-trajectory dataset, 2-epoch bundle and nn/nn records CSV
    that the CLI makes from it, beside it."""
    folder = Path(tiny_scenario_path).parent
    paths = {"scenario": tiny_scenario_path, "data": f"{folder}/data.jsonl",
             "bundle": f"{folder}/bundle.json", "records": f"{folder}/records.csv"}
    for command in (GENERATE, TRAIN, EVAL):
        assert main([arg.format(**paths, out=folder) for arg in command.split()]) == 0
    return paths


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


@pytest.mark.parametrize("flags", ["--el -95", "--az 1e15"])
def test_synthesize_takes_pointings_outside_the_polar_ranges(tmp_path, tiny_scenario_path, flags):
    # --el -95 puts theta at 185 degrees and --az 1e15 phi far outside (-pi, pi]:
    # the cuts are those of the pointing's direction
    argv = SYNTH.format(scenario=tiny_scenario_path, out=tmp_path) + " " + flags
    assert main(argv.split()) == 0
    for suffix in ("_az.csv", "_el.csv"):
        angles = np.loadtxt(tmp_path / f"cuts{suffix}", delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.diff(angles) > 0.0)


def test_dataset_generate_refuses_the_nn_policy(tmp_path, tiny_scenario_path, capsys):
    # the dataset labels the networks' training data, so no network picks its stations
    out = tmp_path / "d.jsonl"
    assert main(
        [
            "dataset", "generate",
            "--scenario", tiny_scenario_path,
            "--trajectories", "1",
            "--policy", "nn",
            "--seed", "1",
            "--out", str(out),
        ]
    ) == 1
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"error": "ValueError", "message": "argument --policy: invalid choice: 'nn' "
                                           "(choose from 'closest', 'angle', 'sinr')"}
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["dataset", "generate", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: uavisac") and err == ""


def test_dataset_generate_defaults_to_the_scenario_trajectory_count(tmp_path, tiny_scenario_path):
    assert Scenario.load(tiny_scenario_path).num_trajectories == 2
    outputs = []
    for flags in ([], ["--trajectories", "2"]):
        out = tmp_path / f"d{len(flags)}.jsonl"
        assert main([
            "dataset", "generate", "--scenario", tiny_scenario_path, *flags,
            "--policy", "closest", "--seed", "5", "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


def _json(change):
    """An edit that applies `change` to the JSON value of a file's text."""
    def edit(text):
        value = json.loads(text)
        change(value)
        return json.dumps(value)
    return edit


def _line(index, edit):
    """An edit that applies `edit` to one line, counted from 0, of a file's text."""
    def edit_line(text):
        lines = text.splitlines()
        lines[index] = edit(lines[index])
        return "\n".join(lines) + "\n"
    return edit_line


def _sample(change):
    """An edit that applies `change` to a dataset file's first sample."""
    return _line(1, _json(change))


def _association(change):
    """An edit that applies `change` to a bundle file's association network."""
    return _json(lambda bundle: change(bundle["association"]))


# (input, edit of a copy of its good text or None for no file, argv, error, message): the copy
# stands in for the input in argv, and message is formatted with the same paths. A repeated
# option replaces the earlier one, so a row appends what it changes to a command's argv.
BAD_INPUTS = [
    pytest.param("scenario", None, GENERATE, "FileNotFoundError",
                 "[Errno 2] No such file or directory: '{scenario}'", id="scenario-missing"),
    pytest.param("scenario", _json(lambda s: s.update(p_max_mw=math.nan)), GENERATE,
                 "ValueError", "p_max_mw must be finite and positive", id="scenario-p_max_mw-nan"),
    pytest.param("scenario", _json(lambda s: s.update(num_trajectories=2.9)), GENERATE,
                 "ValueError", "scenario num_trajectories must be a JSON integer, got 2.9",
                 id="scenario-num_trajectories-float"),
    pytest.param("scenario", _json(lambda s: s.update(v_max_mps="fast")), GENERATE,
                 "ValueError", "scenario v_max_mps must be a JSON number, got 'fast'",
                 id="scenario-v_max_mps-string"),
    pytest.param("scenario", _json(lambda s: s["gbs_m"][-1].pop()), GENERATE, "ValueError",
                 "scenario gbs_m must be a list of rows of 3 JSON numbers, got "
                 "[[120.0, 100.0, 2.0], [380.0, 150.0, 2.0], [220.0, 400.0]]",
                 id="scenario-gbs_m-ragged"),
    pytest.param("scenario", _json(lambda s: s.update(v_max_mps=10**400)), GENERATE,
                 "ValueError", "scenario v_max_mps must be a JSON number, got "
                 "100000000000000000...0000000000000000000", id="scenario-v_max_mps-401-digits"),
    pytest.param("scenario", _json(lambda s: s.update(gamma_sinr_db=4000.0)), GENERATE,
                 "ValueError", "gamma_sinr_db must have a positive, finite linear value",
                 id="scenario-gamma_sinr_db-overflows"),
    # 2 is the format before the search settings left the file, 4 a future one
    *(pytest.param("scenario", _json(lambda s, v=version: s.update(format_version=v)), GENERATE,
                   "ValueError", f"scenario format_version {version} is not supported (expected 3)",
                   id=f"scenario-format_version-{version}") for version in (2, 3.0, 4)),
    pytest.param("data", lambda text: "", TRAIN, "ValueError", "dataset has no header line",
                 id="dataset-empty"),
    pytest.param("data", _line(0, _json(lambda h: h["meta"].pop("scenario"))), TRAIN,
                 "ValueError", "dataset header keys: unknown [], missing ['scenario']",
                 id="dataset-header-without-scenario"),
    pytest.param("data", _sample(lambda s: operator.setitem(s["comm_features"], 0, math.nan)),
                 TRAIN, "ValueError", "dataset sample comm_features has non-finite entries",
                 id="dataset-comm_features-nan"),
    pytest.param("data", _sample(lambda s: s.update(optimal_gbs=99)), TRAIN, "ValueError",
                 "dataset sample optimal_gbs must be a station index below 3, got 99",
                 id="dataset-optimal_gbs-99"),
    pytest.param("data", _line(2, lambda line: "{"), TRAIN, "ValueError",
                 "dataset line 3 is not JSON: Expecting property name enclosed in double quotes",
                 id="dataset-line-not-json"),
    pytest.param(None, None, TRAIN + " --epochs 0", "ValueError", "epochs must be at least 1",
                 id="train-epochs-0"),
    *(pytest.param(None, None, f"{TRAIN} --lr {lr}", "ValueError",
                   "learning_rate must be finite and positive", id=f"train-lr-{lr}")
      for lr in ("0", "-1", "nan", "inf")),
    pytest.param("bundle", _association(lambda a: (a["weights"].pop(), a["biases"].pop())), EVAL,
                 "ValueError", "bundle association: weights: 2 arrays for 3 layers",
                 id="bundle-association-output-layer-lost"),
    pytest.param("bundle", _association(lambda a: a.update(layers=a["layer_sizes"])), EVAL,
                 "ValueError", "bundle association: network keys: unknown ['layers'], missing []",
                 id="bundle-association-stray-key"),
    pytest.param("records", _line(1, lambda row: "x" + row[row.index(","):]), EIRP, "ValueError",
                 "records row slot must be an integer, got 'x'", id="records-slot-x"),
    pytest.param(None, None, EIRP + " --thresholds nan", "ValueError",
                 "outage thresholds must be finite dBm values, got [nan]",
                 id="eirp-thresholds-nan"),
    pytest.param(None, None, EIRP + " --thresholds 10,abc", "ValueError",
                 "--thresholds takes numbers, got 'abc'", id="eirp-thresholds-abc"),
    pytest.param(None, None, SYNTH + " --az nan", "ValueError", "--az must be finite, got 'nan'",
                 id="synthesize-az-nan"),
    pytest.param(None, None, SYNTH + " --az east", "ValueError", "--az takes numbers, got 'east'",
                 id="synthesize-az-not-a-number"),
    pytest.param(None, None, SYNTH + " --el inf", "ValueError", "--el must be finite, got 'inf'",
                 id="synthesize-el-inf"),
    pytest.param(None, None, SYNTH + " --eirp nan", "ValueError",
                 "eirp_target_dbm must be finite, got nan", id="synthesize-eirp-nan"),
    pytest.param(None, None, SYNTH + " --az 0 --el 30 --eirp 50.0", "ValueError",
                 "EIRP target 50.0 dBm exceeds the scenario cap 37.0 dBm",
                 id="synthesize-eirp-above-cap"),
    pytest.param(None, None, SYNTH + " --sll-az 7000", "ValueError",
                 "sll_min_az_db must be positive dB with a finite linear value, got 7000.0",
                 id="synthesize-sll-az-overflows"),
    pytest.param(None, None, SYNTH + " --null=nan,42.63", "ValueError",
                 "--null must be finite, got 'nan'", id="synthesize-null-nan"),
    pytest.param(None, None, SYNTH + " --null=a,1", "ValueError", "--null takes numbers, got 'a'",
                 id="synthesize-null-not-a-number"),
    # a command line argparse rejects fails as every other bad input does
    pytest.param(None, None, "frobnicate", "ValueError",
                 "argument command: invalid choice: 'frobnicate' (choose from 'scenario', "
                 "'dataset', 'train', 'synthesize', 'eval')", id="command-unknown"),
    pytest.param(None, None, GENERATE.split(" --out")[0], "ValueError",
                 "the following arguments are required: --out", id="generate-out-missing"),
    pytest.param(None, None, GENERATE + " --trajectories x", "ValueError",
                 "argument --trajectories: invalid int value: 'x'", id="generate-trajectories-x"),
    pytest.param(None, None, GENERATE + " --trajectories 0", "ValueError",
                 "argument --trajectories: must be at least 1, got 0", id="generate-trajectories-0"),
    *(pytest.param(None, None, command + " --seed -1", "ValueError",
                   "argument --seed: must be at least 0, got -1", id=f"{name}-seed-negative")
      for name, command in (("generate", GENERATE), ("train", TRAIN), ("eval", EVAL))),
    pytest.param(None, None, GENERATE + " --policy optimal", "ValueError",
                 "argument --policy: invalid choice: 'optimal' (choose from 'closest', 'angle', "
                 "'sinr')", id="generate-policy-optimal"),
    pytest.param(None, None, EVAL + " --policy max_sinr", "ValueError",
                 "argument --policy: invalid choice: 'max_sinr' (choose from 'closest', 'angle', "
                 "'sinr', 'nn')", id="eval-policy-max_sinr"),
    pytest.param(None, None, SYNTH + " --sll-az abc", "ValueError",
                 "argument --sll-az: invalid float value: 'abc'", id="synthesize-sll-az-abc"),
    # at lambda/2 spacing the endfire pointing's grating alias has the pointing's steering vector
    pytest.param(None, None, SYNTH + " --az 0 --el 90 --null=0,-90", "NullConflictError",
                 "null direction conflicts with the pointing direction",
                 id="synthesize-null-on-endfire-alias"),
]


@pytest.mark.parametrize("file, edit, argv, error, message", BAD_INPUTS)
def test_bad_input_fails_before_any_output(
    good_inputs, tmp_path, capsys, file, edit, argv, error, message
):
    paths = dict(good_inputs, out=tmp_path)
    inputs = []
    if file:
        copy = tmp_path / Path(good_inputs[file]).name
        paths[file] = str(copy)
        if edit:
            copy.write_text(edit(Path(good_inputs[file]).read_text()))
            inputs.append(copy.name)
    assert main([arg.format(**paths) for arg in argv.split()]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": error, "message": message.format(**paths)}
    ]
    assert [p.name for p in tmp_path.iterdir()] == inputs
