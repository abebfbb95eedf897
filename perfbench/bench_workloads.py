"""The benchmark's two workloads: set-up, measured chunks, output checks.

A workload's measured work is a list of chunks fixed by the seed and by
--seconds (see `units`), never by a timer, so two commits measured with the
same seed process identical inputs and the traced run's counts repeat exactly.
An untraced run splits the chunks between its set-up interpreters, which
spreads the timed work over the whole run: this machine's speed wanders by
tens of percent within seconds, and one short burst of timing would catch
whatever speed the CPU had at that moment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uavisac import pipeline
from uavisac.beampattern import (
    SynthesisRequest,
    array_gain,
    eirp,
    extract_sll,
    pattern_cut,
    synthesize,
)
from uavisac.geometry import DirectionAngles, Pose, RotationAngles, direction_angles
from uavisac.neuralnet import TrainConfig
from uavisac.scenario import Scenario, Trajectory, generate_trajectories

from bench_trace import SkipLog, SlotProbe, SynthesisCounter

# Seed n evaluates trajectories of seed n + 66, so the default seed 11 gives
# the acceptance suite's dataset seed 11 and evaluation seed 77.
EVAL_SEED_OFFSET = 66
# Dataset trajectory j of seed n is generate_dataset(..., 1, ..., n + 1000 j):
# the first is the acceptance suite's, and different seeds share none.
DATASET_SEED_STEP = 1000
# The acceptance suite's training settings.
TRAIN_CONFIG = dict(epochs=200, batch_size=128, learning_rate=2.5e-2, seed=5)
# Work units per run at --seconds BASE_SECONDS, scaled linearly for other
# values: 4 dataset trajectories and 4 composite trajectories evaluated with
# the optimizer.  On a 2-CPU x86 VM at the baseline each takes 35-40 s (2 s of
# the dataset's in training and flying the networks).
BASE_SECONDS = 40
BASE_UNITS = {"dataset": 4, "eval-opt": 4}
# Chunks of consecutive slots per composite trajectory in eval-opt.
EVAL_CHUNKS = 5
# A composite trajectory takes slot s from walk s mod STRIDE of its group, so
# it covers every slot index once while drawing the heading noise, which sets
# how hard a slot is, from STRIDE independent walks.
STRIDE = 5
EIRP_TOL_DB = 1e-6
REMEASURE_TOL_DB = 1e-6


def units(workload: str, seconds: int) -> int:
    return max(1, round(BASE_UNITS[workload] * seconds / BASE_SECONDS))


def warm_up(scenario: Scenario) -> None:
    """One synthesis, which also pays the cold scipy.signal import."""
    position = np.array([100.0, 100.0, 100.0])
    request = SynthesisRequest(
        pointing=direction_angles(position, scenario.target_m),
        sll_min_az_db=scenario.sll_min_az_db,
        sll_min_el_db=scenario.sll_min_el_db,
        eirp_target_dbm=20.0,
    )
    synthesize(request, scenario.array, Pose(position, RotationAngles(0.8, 0.0, 0.0)))


def composite_chunks(scenario: Scenario, count: int, pieces: int, seed: int) -> list[list[Trajectory]]:
    """`count` composite trajectories of one-point trajectories, each cut into `pieces` chunks."""
    walks = generate_trajectories(scenario, STRIDE * count, seed + EVAL_SEED_OFFSET)
    chunks = []
    for c in range(count):
        group = walks[c * STRIDE:(c + 1) * STRIDE]
        length = min(len(walk) for walk in group)
        slots = [Trajectory(id=group[s % STRIDE].id, points=(group[s % STRIDE].points[s],))
                 for s in range(length)]
        for piece in np.array_split(np.arange(length), pieces):
            chunks.append([slots[i] for i in piece])
    return chunks


@dataclass
class Pass:
    """What one measured pass over some chunks did: timings and outcomes."""

    slot_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # spent on the slots in slot_s
    busy_s: float = 0.0  # the whole pass
    points: int = 0  # trajectory points labelled by generate_dataset
    train_s: list[float] = field(default_factory=list)
    nn_slot_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    skips: dict[str, int] = field(default_factory=dict)
    null_dropped: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def timings(self) -> dict:
        keys = ("slot_s", "wall_s", "points", "train_s", "nn_slot_s", "attempted", "failed", "skips")
        return {key: getattr(self, key) for key in keys}


def _violations(scenario: Scenario, point, gbs_index: int, matrix) -> list[str]:
    """Power budget and per-beam EIRP cap of one emitted matrix (criterion 9)."""
    out = []
    if not matrix.satisfies_budget(scenario.p_max_mw):
        out.append(f"slot {point.slot}: {matrix.total_power_mw:.6g} mW exceeds the budget")
    for beam, dest in ((matrix.comm, scenario.gbs_m[gbs_index]), (matrix.sensing, scenario.target_m)):
        value = eirp(beam, scenario.array, point.pose, direction_angles(point.position, dest))
        if value > scenario.eirp_max_dbm + EIRP_TOL_DB:
            out.append(f"slot {point.slot}: EIRP {value:.6g} dBm exceeds the cap")
    return out


def _remeasure(sample: list[tuple]) -> list[str]:
    """Re-derive SLL and EIRP of kept synthesis results through public calls."""
    out = []
    for request, config, pose, result in sample:
        pairs = [
            (extract_sll(pattern_cut(result.weights, config, pose, plane, request.pointing)), achieved)
            for plane, achieved in (("azimuth", result.achieved_sll_az_db),
                                    ("elevation", result.achieved_sll_el_db))
        ]
        pairs.append((eirp(result.weights, config, pose, request.pointing), result.achieved_eirp_dbm))
        for measured, achieved in pairs:
            if not (measured == achieved or abs(measured - achieved) <= REMEASURE_TOL_DB):
                out.append(f"re-measured {measured!r} dB differs from achieved {achieved!r} dB")
    return out


def _check_digest(samples, scenario: Scenario, seed: int, out_dir: Path, src: str) -> tuple[str, list[str]]:
    """Every run of one source tree that labels one seed must write the same JSONL bytes.

    The store outlives a run, so it is keyed by the digest of the library
    sources as well: a change that alters the output legitimately starts its
    own entry, while a nondeterministic one still differs from itself.
    """
    tmp = out_dir / f"dataset-{os.getpid()}.jsonl"
    try:
        pipeline.write_dataset_jsonl(tmp, samples, scenario, "closest", seed)
        digest = hashlib.sha256(tmp.read_bytes()).hexdigest()
    finally:
        tmp.unlink(missing_ok=True)
    key = f"src={src},seed={seed}"
    store = out_dir / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != digest:
            return digest, [f"dataset digest {digest} differs from an earlier run's {known[key]}"]
        return digest, []
    known[key] = digest
    partial = store.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(partial, store)
    return digest, []


class _SlotEval:
    """One-point trajectories fed to evaluate_trajectory and timed from outside."""

    def _slot(self, one: Trajectory, policy: str, source: str, bundle, run: Pass, emitted: list,
              syn: SynthesisCounter | None) -> float | None:
        """Seconds the slot took, or None when it raised (counted as failed)."""
        before = syn.nonconverged if syn is not None else 0
        matrices: list = []
        start = time.perf_counter()
        try:
            records = pipeline.evaluate_trajectory(
                self.scenario, one, policy, source, bundle=bundle, matrices_out=matrices
            )
        except Exception as exc:  # a failed slot is counted, and the run goes on
            run.failed += 1
            run.errors.append(f"slot {one.points[0].slot}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        nonconverged = syn is not None and syn.nonconverged > before
        run.failed += nonconverged
        emitted.append((one.points[0], records[0].gbs_index, matrices[0], nonconverged))
        return elapsed

    def _check_matrices(self, run: Pass) -> list[str]:
        failures = []
        for point, gbs_index, matrix, already_failed in run.outputs["emitted"]:
            bad = _violations(self.scenario, point, gbs_index, matrix)
            run.failed += bool(bad) and not already_failed
            failures += bad
        return failures


class Dataset(_SlotEval):
    """Label trajectories with the optimizer, then train and fly the networks.

    Chunk j labels trajectory j with generate_dataset(Scenario(), 1,
    "closest", s): the path users wait on, and the only part the end-to-end
    metrics time.  It then trains both networks on those samples and flies
    the j-th piece of a composite trajectory with them, slot by slot, so the
    traced run also covers the network layers.
    """

    name = "dataset"

    def __init__(self, seed: int, seconds: int) -> None:
        self.scenario = Scenario()
        warm_up(self.scenario)
        self.seeds = [seed + DATASET_SEED_STEP * j for j in range(units(self.name, seconds))]
        self.lengths = [len(generate_trajectories(self.scenario, 1, s)[0]) for s in self.seeds]
        self.config = TrainConfig(**TRAIN_CONFIG)
        self.flights = composite_chunks(self.scenario, 1, len(self.seeds), seed)
        self.chunk_count = len(self.seeds)

    def run(self, chunk_ids) -> Pass:
        run = Pass()
        begin = time.perf_counter()
        datasets, emitted, reports = {}, [], []
        with SkipLog() as log, SynthesisCounter(pipeline) as syn:
            for j in chunk_ids:
                with SlotProbe(pipeline) as probe:
                    start = time.perf_counter()
                    samples = pipeline.generate_dataset(self.scenario, 1, "closest", self.seeds[j])
                    end = time.perf_counter()
                stamps = probe.stamps + [end]
                run.slot_s += [b - a for a, b in zip(stamps, stamps[1:])]
                run.wall_s += end - start
                run.points += self.lengths[j]
                run.attempted += self.lengths[j] + 1 + len(self.flights[j])
                run.failed += self.lengths[j] - len(samples)
                datasets[self.seeds[j]] = samples
                if len(probe.stamps) != self.lengths[j]:
                    run.errors.append(f"slot probe saw {len(probe.stamps)} associations "
                                      f"for {self.lengths[j]} points")
                start = time.perf_counter()
                try:
                    bundle = pipeline.train_models(samples, self.scenario, self.config)
                except Exception as exc:  # counted as a failed operation
                    run.failed += 1 + len(self.flights[j])
                    run.errors.append(f"train_models: {exc!r}")
                    continue
                run.train_s.append(time.perf_counter() - start)
                reports.append((bundle.beamformer_report.train_loss, bundle.association_report.train_loss))
                for one in self.flights[j]:
                    elapsed = self._slot(one, "nn", "nn", bundle, run, emitted, None)
                    if elapsed is not None:
                        run.nn_slot_s.append(elapsed)
        run.busy_s = time.perf_counter() - begin
        run.skips = log.skips()
        run.outputs = {"datasets": datasets, "synthesis": syn, "warnings": dict(log.counts),
                       "emitted": emitted, "reports": reports}
        return run

    def check(self, run: Pass, out_dir: Path, src: str) -> tuple[list[str], dict]:
        sc = self.scenario
        failures = list(run.errors)
        warnings = run.outputs["warnings"]
        if sum(run.skips.values()) + sum(len(s) for s in run.outputs["datasets"].values()) != run.points \
                or warnings.get("other"):
            failures.append(f"skip records {warnings} do not account for every skipped point")
        digests = {}
        for seed, samples in run.outputs["datasets"].items():
            for sample in samples:
                wc = pipeline.decode_complex(sample.comm_weights)
                ws = pipeline.decode_complex(sample.sensing_weights)
                total = float(np.sum(np.abs(wc) ** 2) + np.sum(np.abs(ws) ** 2))
                if total > sc.p_max_mw * (1 + 1e-9):
                    failures.append(f"sample slot {sample.slot}: {total:.6g} mW exceeds the budget")
                for vec, feat in ((ws, sample.sensing_features), (wc, sample.comm_features)):
                    pointing = DirectionAngles(theta=feat[1], phi=feat[0])
                    gain = array_gain(vec, sc.array, np.zeros(3), RotationAngles(0, 0, 0), pointing)
                    if gain > 0 and 10 * math.log10(gain) > sc.eirp_max_dbm + EIRP_TOL_DB:
                        failures.append(f"sample slot {sample.slot}: EIRP above the cap")
            digests[seed], bad = _check_digest(samples, sc, seed, out_dir, src)
            failures += bad
        failures += _remeasure(run.outputs["synthesis"].sample)
        failures += self._check_matrices(run)
        for losses in run.outputs["reports"]:
            for loss in losses:
                if not (math.isfinite(loss[-1]) and loss[-1] < loss[0]):
                    failures.append(f"training loss {loss[0]!r} -> {loss[-1]!r} did not fall")
        return failures, {"dataset_sha256": digests}


class EvalOpt(_SlotEval):
    """Optimizer-sourced evaluation with max-SINR association, slot by slot."""

    name = "eval-opt"

    def __init__(self, seed: int, seconds: int) -> None:
        self.scenario = Scenario()
        warm_up(self.scenario)
        self.chunks = composite_chunks(self.scenario, units(self.name, seconds), EVAL_CHUNKS, seed)
        self.chunk_count = len(self.chunks)

    def run(self, chunk_ids) -> Pass:
        run = Pass()
        begin = time.perf_counter()
        emitted: list = []
        with SkipLog() as log, SynthesisCounter(pipeline) as syn:
            for j in chunk_ids:
                run.attempted += len(self.chunks[j])
                for one in self.chunks[j]:
                    elapsed = self._slot(one, "sinr", "optimizer", None, run, emitted, syn)
                    if elapsed is not None:
                        run.slot_s.append(elapsed)
                        run.wall_s += elapsed
        run.busy_s = time.perf_counter() - begin
        run.null_dropped = log.counts.get("null_dropped", 0)
        run.outputs = {"emitted": emitted, "synthesis": syn}
        return run

    def check(self, run: Pass, out_dir: Path, src: str) -> tuple[list[str], dict]:
        failures = run.errors + self._check_matrices(run) + _remeasure(run.outputs["synthesis"].sample)
        return failures, {"nonconverged_beams": run.outputs["synthesis"].nonconverged}


WORKLOADS = {cls.name: cls for cls in (Dataset, EvalOpt)}
