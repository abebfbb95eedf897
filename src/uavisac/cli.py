"""Command-line front end.

Subcommands: `scenario init`, `dataset generate`, `train`, `synthesize`,
`eval trajectory`, `eval eirp`.  All randomness flows from --seed; failures,
a bad command line among them, print one machine-readable JSON error line on
stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .beampattern import SynthesisRequest, export_cut_csv, pattern_cut, synthesize
from .geometry import DirectionAngles, Pose, RotationAngles
from .neuralnet import TrainConfig
from .pipeline import (
    NN_SOURCE,
    OPTIMIZER_SOURCE,
    ModelBundle,
    eirp_stats,
    evaluate_trajectory,
    generate_dataset,
    read_dataset_jsonl,
    read_records_csv,
    train_models,
    write_dataset_jsonl,
    write_records_csv,
    write_stats_csv,
)
from .scenario import POLICIES, POLICY_NN, Scenario, generate_trajectories


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so main reports it as it reports any failure.

    argparse itself would print usage and exit 2.
    """

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    defaults = TrainConfig()
    parser = _Parser(prog="uavisac")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_cmd = sub.add_parser("scenario", help="scenario file management")
    scenario_sub = scenario_cmd.add_subparsers(dest="scenario_command", required=True)
    init_cmd = scenario_sub.add_parser("init", help="write the default scenario JSON")
    init_cmd.add_argument("--out", required=True)
    init_cmd.set_defaults(run=_run_scenario_init)

    dataset_cmd = sub.add_parser("dataset", help="dataset generation")
    dataset_sub = dataset_cmd.add_subparsers(dest="dataset_command", required=True)
    gen_cmd = dataset_sub.add_parser("generate", help="synthesize an optimizer-labeled dataset")
    gen_cmd.add_argument("--scenario", required=True)
    gen_cmd.add_argument(
        "--trajectories", type=int, default=None,
        help="number of trajectories; defaults to the scenario's num_trajectories",
    )
    # the dataset is labelled with the optimizer, before any network exists
    gen_cmd.add_argument("--policy", choices=[p for p in POLICIES if p != POLICY_NN], required=True)
    gen_cmd.add_argument("--seed", type=int, required=True)
    gen_cmd.add_argument("--out", required=True)
    gen_cmd.set_defaults(run=_run_dataset_generate)

    train_cmd = sub.add_parser("train", help="train both networks on a dataset")
    train_cmd.add_argument("--data", required=True)
    train_cmd.add_argument("--epochs", type=int, default=defaults.epochs)
    train_cmd.add_argument("--batch", type=int, default=defaults.batch_size)
    train_cmd.add_argument("--lr", type=float, default=defaults.learning_rate)
    train_cmd.add_argument("--split", type=float, default=defaults.train_fraction)
    train_cmd.add_argument("--seed", type=int, required=True)
    train_cmd.add_argument("--out", required=True)
    train_cmd.set_defaults(run=_run_train)

    synth_cmd = sub.add_parser("synthesize", help="single-point beam synthesis")
    synth_cmd.add_argument("--scenario", required=True)
    synth_cmd.add_argument(
        "--az", required=True,
        help="pointing azimuth from the array broadside axis, degrees",
    )
    synth_cmd.add_argument(
        "--el", required=True,
        help="pointing elevation above the array plane, degrees",
    )
    synth_cmd.add_argument("--sll-az", type=float, required=True, help="minimum azimuth-cut SLL, dB")
    synth_cmd.add_argument("--sll-el", type=float, required=True, help="minimum elevation-cut SLL, dB")
    synth_cmd.add_argument("--eirp", type=float, required=True, help="EIRP target, dBm")
    synth_cmd.add_argument(
        "--null", action="append", default=[], metavar="AZ,EL",
        help="null direction in broadside-relative degrees, repeatable",
    )
    synth_cmd.add_argument("--out-cuts", required=True,
                           help="CSV path stem; writes <stem>_az.csv and <stem>_el.csv")
    synth_cmd.set_defaults(run=_run_synthesize)

    eval_cmd = sub.add_parser("eval", help="evaluation commands")
    eval_sub = eval_cmd.add_subparsers(dest="eval_command", required=True)
    traj_cmd = eval_sub.add_parser("trajectory", help="evaluate one seeded trajectory")
    traj_cmd.add_argument("--scenario", required=True)
    traj_cmd.add_argument("--bundle", default=None)
    traj_cmd.add_argument("--policy", choices=POLICIES, required=True)
    traj_cmd.add_argument("--source", choices=[OPTIMIZER_SOURCE, NN_SOURCE], required=True)
    traj_cmd.add_argument("--seed", type=int, required=True)
    traj_cmd.add_argument("--out", required=True)
    traj_cmd.set_defaults(run=_run_eval_trajectory)
    eirp_cmd = eval_sub.add_parser("eirp", help="ECDF, outage and mean rate from records")
    eirp_cmd.add_argument("--records", required=True)
    eirp_cmd.add_argument("--thresholds", required=True, help="comma-separated dBm values")
    eirp_cmd.add_argument("--out", required=True)
    eirp_cmd.set_defaults(run=_run_eval_eirp)

    return parser


def _broadside_direction(az_deg: float, el_deg: float) -> DirectionAngles:
    """Map broadside-relative azimuth/elevation onto polar direction angles.

    Azimuth is measured from the broadside axis (+y of the unrotated array),
    elevation above the array plane: theta = 90 - el, phi = 90 - az.
    """
    return DirectionAngles(
        theta=math.radians(90.0 - el_deg), phi=math.radians(90.0 - az_deg)
    )


def _number(option: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{option} takes numbers, got {text!r}") from None


def _degrees(option: str, text: str) -> float:
    value = _number(option, text)
    if not math.isfinite(value):
        raise ValueError(f"{option} must be finite, got {text!r}")
    return value


def _parse_null(text: str) -> DirectionAngles:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"null must be 'az,el' in degrees, got {text!r}")
    az, el = (_degrees("--null", p) for p in parts)
    return _broadside_direction(az, el)


def _run_scenario_init(args) -> None:
    Scenario().save(args.out)
    print(f"wrote default scenario to {args.out}")


def _run_dataset_generate(args) -> None:
    scenario = Scenario.load(args.scenario)
    count = scenario.num_trajectories if args.trajectories is None else args.trajectories
    samples = generate_dataset(scenario, count, args.policy, args.seed)
    write_dataset_jsonl(args.out, samples, scenario, args.policy, args.seed)
    print(f"wrote {len(samples)} samples to {args.out}")


def _run_train(args) -> None:
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        train_fraction=args.split,
        seed=args.seed,
    )
    samples, header = read_dataset_jsonl(args.data)
    bundle = train_models(samples, header.scenario, config)
    bundle.save(args.out)
    report_path = args.out.removesuffix(".json") + "_report.csv"
    report = bundle.beamformer_report
    with open(report_path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss,val_beampattern_error\n")
        for epoch, (tl, vl, vm) in enumerate(
            zip(report.train_loss, report.val_loss, report.val_metric), start=1
        ):
            fh.write(f"{epoch},{tl!r},{vl!r},{vm!r}\n")
    print(f"wrote bundle to {args.out} and report to {report_path}")


def _run_synthesize(args) -> None:
    scenario = Scenario.load(args.scenario)
    request = SynthesisRequest(
        pointing=_broadside_direction(_degrees("--az", args.az), _degrees("--el", args.el)),
        sll_min_az_db=args.sll_az,
        sll_min_el_db=args.sll_el,
        eirp_target_dbm=args.eirp,
        nulls=tuple(_parse_null(n) for n in args.null),
    )
    if args.eirp > scenario.eirp_max_dbm:
        raise ValueError(
            f"EIRP target {args.eirp} dBm exceeds the scenario cap {scenario.eirp_max_dbm} dBm"
        )
    pose = Pose(position=scenario.start_m, angles=RotationAngles(0.0, 0.0, 0.0))
    result = synthesize(request, scenario.array, pose)
    stem = args.out_cuts.removesuffix(".csv")
    for plane, suffix in (("azimuth", "_az.csv"), ("elevation", "_el.csv")):
        cut = pattern_cut(result.weights, scenario.array, pose, plane, request.pointing)
        export_cut_csv(cut, stem + suffix)
    print(
        "achieved_sll_az_db={:.4g} achieved_sll_el_db={:.4g} achieved_eirp_dbm={:.6g} "
        "active_elements={} iterations={} cost={:.6g} converged={}".format(
            result.achieved_sll_az_db,
            result.achieved_sll_el_db,
            result.achieved_eirp_dbm,
            result.active_elements,
            result.iterations,
            result.cost,
            result.converged,
        )
    )


def _run_eval_trajectory(args) -> None:
    scenario = Scenario.load(args.scenario)
    bundle = ModelBundle.load(args.bundle) if args.bundle else None
    trajectory = generate_trajectories(scenario, 1, args.seed)[0]
    records = evaluate_trajectory(
        scenario, trajectory, args.policy, weight_source=args.source, bundle=bundle
    )
    write_records_csv(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")


def _run_eval_eirp(args) -> None:
    records = read_records_csv(args.records)
    thresholds = [_number("--thresholds", t) for t in args.thresholds.split(",") if t.strip()]
    stats = eirp_stats(records, thresholds)
    write_stats_csv(args.out, stats)
    outage_text = " ".join(f"outage@{t:g}dBm={v:.4f}" for t, v in stats.outage.items())
    print(f"mean_rate_bps={stats.mean_rate_bps!r} {outage_text}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.run(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
