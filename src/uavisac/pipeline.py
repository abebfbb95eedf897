"""End-to-end orchestration: dataset synthesis, dual-network training, evaluation.

Dataset generation walks seeded trajectories, associates a ground station per
slot, synthesizes the sensing and communication beams with the optimizer, and
stores features, encoded weight targets and the optimal association label.
Training fits the beamforming-weight network on pooled comm/sensing rows and
the association network on the optimal labels, splitting at the trajectory
point level so each point's beam pair stays on one side of the split.  All
stages are deterministic under a fixed master seed.

Every per-point stage reads its geometry, station path gains and radar
channel from one scenario.PointGeometry record built once per point; only
synthesize re-derives its units, and training and predict_association derive
only the target's Link (scenario.link_toward; see the scenario docstring).

The codec module lays out its files from their dataclasses: a dataset JSONL
(DatasetHeader, then Samples), a ModelBundle and a records CSV (EvalRecords).
A policy is one of scenario.POLICIES, and a header or record holds it as given.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .beampattern import (
    BeamformingMatrix,
    BeamWeights,
    NullConflictError,
    SynthesisRequest,
    SynthesisResult,
    beampattern_gain,
    chebyshev_taper,
    null_conflicts,
    steered_gain,
    synthesize,
)
from .channel import achievable_rate, channel_vector, sinr
from .codec import check_keys, decode, encode
from .geometry import DirectionAngles, RotationAngles, rotation_matrix, steering
from .neuralnet import Network, NetworkConfig, TrainConfig, TrainReport, forward, train
from .scenario import (
    POLICY_NN,
    Link,
    PointGeometry,
    Scenario,
    Trajectory,
    TrajectoryPoint,
    associate,
    generate_trajectories,
    label_optimal_association,
    link_toward,
    min_required_eirp_dbm,
    point_geometry,
)
from .units import from_db, to_db

logger = logging.getLogger(__name__)

OPTIMIZER_SOURCE = "optimizer"
NN_SOURCE = "nn"

# length of each network feature vector, comm and sensing alike
FEATURE_SIZE = 7

# beams steered behind the aperture plane (element gain under 0.02, roughly
# 136 degrees off broadside) are unserviceable for a front-facing patch panel
MIN_ELEMENT_GAIN = 0.02


@dataclass(frozen=True)
class Sample:
    """One trajectory point: features and optimizer weight targets.

    Field declaration order is the key order of a dataset JSONL line: adding,
    removing or reordering a field changes the format, so it bumps
    DatasetHeader.FORMAT_VERSION.  Every array entry is finite.
    """

    trajectory_id: int
    slot: int
    position: NDArray[np.float64]
    orientation: RotationAngles
    gbs_index: int
    comm_features: NDArray[np.float64]
    sensing_features: NDArray[np.float64]
    comm_weights: NDArray[np.float64]
    sensing_weights: NDArray[np.float64]
    optimal_gbs: int

    # the weights hold 2 entries per array element, a size read_dataset_jsonl adds
    SHAPES = {"position": (3,), "orientation": (3,), "comm_features": (FEATURE_SIZE,),
              "sensing_features": (FEATURE_SIZE,)}

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int) and not np.isfinite(value).all():
                raise ValueError(f"dataset sample {name} has non-finite entries")


@dataclass(frozen=True)
class DatasetHeader:
    """A dataset JSONL's first line, under its "meta" key."""

    policy: str
    seed: int
    scenario: Scenario

    FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    """Both trained networks, the station count they fit and their reports, each value
    a function of the training inputs.  Field declaration order is the bundle file's
    key order after format_version, so a field change bumps FORMAT_VERSION.  The
    array size is the beamformer's output width / 2."""

    beamformer: Network
    association: Network
    num_gbs: int
    beamformer_report: TrainReport
    association_report: TrainReport

    FORMAT_VERSION = 6

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(encode(self), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelBundle":
        with open(path) as fh:
            return decode(cls, json.load(fh), "bundle")


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated slot.  Field declaration order is the records CSV column
    order: adding, removing or reordering a field changes that format."""

    slot: int
    policy: str
    gbs_index: int
    eirp_dbm: float
    sinr_db: float
    rate_bps: float
    beampattern_gain: float


class EirpStats(NamedTuple):
    ecdf_values: NDArray[np.float64]
    ecdf_fractions: NDArray[np.float64]
    outage: dict[float, float]
    mean_rate_bps: float


def encode_complex(vec: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Interleave (Re, Im) per element into a 2M real vector."""
    out = np.empty(2 * vec.size)
    out[0::2] = vec.real
    out[1::2] = vec.imag
    return out


def decode_complex(arr: NDArray[np.float64]) -> NDArray[np.complex128]:
    arr = np.asarray(arr, dtype=np.float64)
    return arr[..., 0::2] + 1j * arr[..., 1::2]


# The comm beam nulls this many of the nearest other stations, and its
# feature vector has one (phi, theta) slot per null.
NULL_STATIONS = 2


def nearest_other_gbs(geo: PointGeometry, exclude: int) -> tuple[int, ...]:
    """Indices of the NULL_STATIONS nearest stations other than the serving one."""
    return tuple(i for i in geo.gbs_by_distance if i != exclude)[:NULL_STATIONS]


def comm_feature_vector(gbs_dir: DirectionAngles, nulls: Sequence[DirectionAngles],
                        eirp_dbm: float) -> NDArray[np.float64]:
    """(phi_gbs, theta_gbs, phi_n1, theta_n1, phi_n2, theta_n2, eirp_dbm)."""
    out = np.zeros(FEATURE_SIZE)
    out[0], out[1] = gbs_dir.phi, gbs_dir.theta
    for i, null in enumerate(nulls):
        out[2 + 2 * i] = null.phi
        out[3 + 2 * i] = null.theta
    out[6] = eirp_dbm
    return out


def sensing_feature_vector(target_dir: DirectionAngles, eirp_dbm: float) -> NDArray[np.float64]:
    """(phi_target, theta_target, eirp_dbm, 0, 0, 0, 0)."""
    out = np.zeros(FEATURE_SIZE)
    out[0], out[1], out[2] = target_dir.phi, target_dir.theta, eirp_dbm
    return out


def association_features(scenario: Scenario, position, target_dir) -> NDArray[np.float64]:
    """Normalized planar position plus target direction angles."""
    return np.array(
        [
            position[0] / scenario.area_m[0],
            position[1] / scenario.area_m[1],
            target_dir.phi / math.pi,
            target_dir.theta / math.pi,
        ]
    )


def _synthesis_request(scenario: Scenario, pointing: DirectionAngles, eirp_dbm: float,
                       nulls: Sequence[DirectionAngles]) -> SynthesisRequest:
    return SynthesisRequest(
        pointing=pointing,
        sll_min_az_db=scenario.sll_min_az_db,
        sll_min_el_db=scenario.sll_min_el_db,
        eirp_target_dbm=eirp_dbm,
        nulls=tuple(nulls),
    )


def sensing_eirp_target_dbm(scenario: Scenario, geo: PointGeometry) -> float:
    """EIRP target for the sensing beam: half the power budget, EIRP-capped.

    The sensing beam spends the available transmit power on the target, so
    its per-element power is sized from half the slot budget; the equivalent
    EIRP follows from the nominal full-aperture taper sums and the element
    gain toward the target, clamped to the scenario EIRP cap.
    """
    sum_amp, sum_sq = _taper_sums(scenario.array.side, scenario.sll_min_az_db,
                                  scenario.sll_min_el_db)
    eirp_mw = 0.5 * scenario.p_max_mw * sum_amp**2 * geo.target.gain / sum_sq
    return min(scenario.eirp_max_dbm, to_db(eirp_mw))


@functools.lru_cache(maxsize=16)
def _taper_sums(side: int, sll_az_db: float, sll_el_db: float) -> tuple[float, float]:
    """Amplitude and power sums sum(tx) sum(tz), sum(tx^2) sum(tz^2) of the full-aperture tapers."""
    tx = chebyshev_taper(side, sll_az_db)
    tz = chebyshev_taper(side, sll_el_db)
    return float(tx.sum() * tz.sum()), float((tx**2).sum() * (tz**2).sum())


def _comm_eirp_dbm(scenario: Scenario, geo: PointGeometry, gbs_index: int,
                   sensing: BeamWeights) -> float:
    """The comm EIRP (dBm, capped) the sensing beam's interference calls for.

    The comm beam gets the minimum EIRP that meets the SINR threshold at the
    serving station given the interference of the sensing beam.
    """
    interference = float(abs(np.vdot(geo.target_channel, sensing.vector)) ** 2)
    required = min_required_eirp_dbm(scenario, geo, gbs_index, interference)
    return min(required, scenario.eirp_max_dbm)


def _enforce_power_budget(matrix: BeamformingMatrix, p_max_mw: float) -> BeamformingMatrix:
    """Scale both beams down proportionally when the slot exceeds the budget."""
    total = matrix.total_power_mw
    if total <= p_max_mw:
        return matrix
    ratio = p_max_mw / total
    return BeamformingMatrix(
        sensing=BeamWeights(matrix.sensing.entries,
                            matrix.sensing.power_per_element_mw * ratio),
        comm=BeamWeights(matrix.comm.entries,
                         matrix.comm.power_per_element_mw * ratio),
    )


@dataclass(frozen=True)
class PointSynthesis:
    """Both optimizer beams for one trajectory point plus bookkeeping."""

    sensing: SynthesisResult
    comm: SynthesisResult
    matrix: BeamformingMatrix
    null_gbs: tuple[int, ...]
    comm_eirp_dbm: float
    sensing_eirp_dbm: float

    @property
    def converged(self) -> bool:
        return self.sensing.converged and self.comm.converged


def synthesize_point(
    scenario: Scenario,
    geo: PointGeometry,
    gbs_index: int,
    lenient: bool = False,
) -> PointSynthesis:
    """Run the optimizer for both beams of one trajectory point, one call each.

    The sensing beam takes half the power budget toward the target (EIRP
    capped); the communication beam gets the minimum EIRP meeting the SINR
    constraint at the serving station given the sensing interference, capped
    at the scenario maximum, and nulls the nearest other stations.  A null
    conflicting with the comm pointing raises NullConflictError from the comm
    synthesis; with lenient=True such nulls are dropped, with one WARNING,
    before that call instead.
    """
    pose = geo.point.pose
    config = scenario.array
    prelim_dbm = sensing_eirp_target_dbm(scenario, geo)
    sensing_res = synthesize(
        _synthesis_request(scenario, geo.target.direction, prelim_dbm, ()), config, pose
    )
    comm_eirp = _comm_eirp_dbm(scenario, geo, gbs_index, sensing_res.weights)
    serving = geo.gbs[gbs_index]
    null_gbs = nearest_other_gbs(geo, gbs_index)
    if lenient:
        kept = tuple(i for i in null_gbs
                     if not null_conflicts(geo.gbs[i].unit, serving.unit, config))
        if kept != null_gbs:
            logger.warning("dropping null conflicting with pointing at slot %d", geo.point.slot)
            null_gbs = kept
    nulls = [geo.gbs[i].direction for i in null_gbs]
    comm_res = synthesize(_synthesis_request(scenario, serving.direction, comm_eirp, nulls),
                          config, pose)
    matrix = _enforce_power_budget(
        BeamformingMatrix(sensing=sensing_res.weights, comm=comm_res.weights),
        scenario.p_max_mw,
    )
    return PointSynthesis(
        sensing=sensing_res,
        comm=comm_res,
        matrix=matrix,
        null_gbs=null_gbs,
        comm_eirp_dbm=comm_eirp,
        sensing_eirp_dbm=prelim_dbm,
    )


# each reason generate_dataset skips a point for, with its WARNING line; the
# benchmark's SkipLog matches these templates by substring
SKIP_WARNINGS = {
    "field of view": "trajectory %d slot %d: beam outside the serviceable field of view, skipping",
    "null conflict": "trajectory %d slot %d: null conflict, skipping",
    "not converged": "trajectory %d slot %d: optimizer did not converge, skipping",
}


def _synthesis_or_skip(scenario: Scenario, geo: PointGeometry, k: int) -> PointSynthesis | str:
    """Both optimizer beams of a dataset point toward station k, or why it is skipped."""
    if geo.target.gain < MIN_ELEMENT_GAIN or geo.gbs[k].gain < MIN_ELEMENT_GAIN:
        return "field of view"
    try:
        ps = synthesize_point(scenario, geo, k)
    except NullConflictError:
        return "null conflict"
    return ps if ps.converged else "not converged"


def generate_dataset(
    scenario: Scenario, num_trajectories: int, policy: str, seed: int
) -> list[Sample]:
    """Optimizer-labeled dataset over seeded trajectories.

    A point is skipped, with one WARNING each, when a beam lies outside the
    serviceable field of view, a null conflicts with the comm pointing, or
    either beam synthesis fails to converge; the closing INFO line counts the
    skips by reason.  An entirely empty dataset raises, after that line, with
    the same counts.
    """
    trajectories = generate_trajectories(scenario, num_trajectories, seed)
    samples: list[Sample] = []
    skipped = dict.fromkeys(SKIP_WARNINGS, 0)
    for traj in trajectories:
        for point in traj.points:
            geo = point_geometry(scenario, point)
            k = associate(scenario, geo, policy)
            ps = _synthesis_or_skip(scenario, geo, k)
            if isinstance(ps, str):
                skipped[ps] += 1
                logger.warning(SKIP_WARNINGS[ps], traj.id, point.slot)
                continue
            null_frames = [geo.gbs[i].frame for i in ps.null_gbs]
            samples.append(
                Sample(
                    trajectory_id=traj.id,
                    slot=point.slot,
                    position=point.position,
                    orientation=point.orientation,
                    gbs_index=k,
                    comm_features=comm_feature_vector(
                        geo.gbs[k].frame, null_frames, ps.comm_eirp_dbm
                    ),
                    sensing_features=sensing_feature_vector(
                        geo.target.frame, ps.sensing_eirp_dbm
                    ),
                    comm_weights=encode_complex(ps.matrix.comm.vector),
                    sensing_weights=encode_complex(ps.matrix.sensing.vector),
                    optimal_gbs=label_optimal_association(scenario, geo),
                )
            )
    counts = ", ".join(f"{reason}: {n}" for reason, n in skipped.items())
    if any(skipped.values()):
        logger.info("dataset generation skipped %d points (%s)", sum(skipped.values()), counts)
    if not samples:
        raise RuntimeError(f"dataset is empty: no trajectory point converged ({counts})")
    return samples


def write_dataset_jsonl(path, samples: Sequence[Sample], scenario: Scenario,
                        policy: str, seed: int) -> None:
    """First line carries the DatasetHeader under "meta"; then one Sample per line."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": encode(DatasetHeader(policy, seed, scenario))}) + "\n")
        for sample in samples:
            fh.write(json.dumps(encode(sample)) + "\n")


def read_dataset_jsonl(path) -> tuple[list[Sample], DatasetHeader]:
    """A dataset JSONL's samples, each station index below num_gbs, and its header."""
    def parse(line: str, number: int):
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"line {number} is not JSON: {exc.msg}" if line else "has no header line"
            raise ValueError(f"dataset {problem}") from None

    with open(path) as fh:
        first = parse(fh.readline(), 1)
        check_keys(first, ("meta",), "dataset first line")
        header = decode(DatasetHeader, first["meta"], "dataset header")
        weights = (2 * header.scenario.num_elements,)
        shapes = {"comm_weights": weights, "sensing_weights": weights}
        samples = [
            decode(Sample, parse(line, number), "dataset sample", shapes)
            for number, line in enumerate(fh, start=2)
            if line.strip()
        ]
    k = header.scenario.num_gbs
    for name, index in ((n, getattr(s, n)) for s in samples for n in ("gbs_index", "optimal_gbs")):
        if not 0 <= index < k:
            raise ValueError(f"dataset sample {name} must be a station index below {k}, got {index}")
    return samples, header


def train_models(samples: Sequence[Sample], scenario: Scenario,
                 config: TrainConfig) -> ModelBundle:
    """Train the beamformer and association networks on one dataset.

    The seeded train_fraction split is taken over trajectory points, with at
    least one point on each side; the beamformer sees two rows per point
    (comm then sensing) and is scored each epoch by the normalized
    beampattern-gain mismatch at the target over the validation points.
    """
    n = len(samples)
    if n < 10:
        raise ValueError("dataset too small to train on")
    m = scenario.num_elements
    perm = np.random.default_rng(config.seed).permutation(n)
    n_train = max(1, min(n - 1, int(round(config.train_fraction * n))))
    train_points = np.sort(perm[:n_train])
    val_points = np.sort(perm[n_train:])

    x_rows = np.zeros((2 * n, FEATURE_SIZE))
    y_rows = np.zeros((2 * n, 2 * m))
    for i, sample in enumerate(samples):
        x_rows[2 * i] = sample.comm_features
        x_rows[2 * i + 1] = sample.sensing_features
        y_rows[2 * i] = sample.comm_weights
        y_rows[2 * i + 1] = sample.sensing_weights
    train_rows = np.sort(np.concatenate([2 * train_points, 2 * train_points + 1]))
    val_rows = np.sort(np.concatenate([2 * val_points, 2 * val_points + 1]))

    # each target Link as point_geometry derives it; training reads its direction and unit
    xa = np.zeros((n, 4))
    target_units = np.zeros((n, 3))
    for i, sample in enumerate(samples):
        target = _target_link(scenario, sample.position, sample.orientation)
        xa[i] = association_features(scenario, sample.position, target.direction)
        target_units[i] = target.unit
    # conjugated target steering of the validation points, (n_val, M, 1)
    target = np.conj(steering(scenario.array, target_units[val_points]))[:, :, None]

    def target_gains(val_weights) -> NDArray[np.float64]:
        """Target gain of each validation point from its encoded rows, in val_rows order."""
        w = decode_complex(np.reshape(val_weights, (val_points.size, 2, 2 * m)))
        return np.sum(np.abs(np.matmul(w, target)[..., 0]) ** 2, axis=1)

    b_star = target_gains(y_rows[val_rows])
    b_star_sq_mean = float(np.mean(b_star**2))

    def beampattern_metric(pred) -> float:
        errors = (b_star - target_gains(pred)) ** 2
        return float(np.mean(errors) / max(b_star_sq_mean, 1e-300))

    beamformer = Network(NetworkConfig(layer_sizes=(FEATURE_SIZE, 50, 2 * m), seed=config.seed))
    beamformer, bf_report = train(
        beamformer, x_rows, y_rows, config, (train_rows, val_rows), beampattern_metric
    )

    k = scenario.num_gbs
    denom = float(max(k - 1, 1))
    ya = np.array([[s.optimal_gbs / denom] for s in samples])
    association = Network(NetworkConfig(layer_sizes=(4, 64, 32, 1), seed=config.seed + 1))
    association, assoc_report = train(association, xa, ya, config, (train_points, val_points))

    return ModelBundle(
        beamformer=beamformer,
        association=association,
        num_gbs=k,
        beamformer_report=bf_report,
        association_report=assoc_report,
    )


def _sample_point(sample: Sample) -> TrajectoryPoint:
    return TrajectoryPoint(sample.slot, sample.position, sample.orientation)


def _target_link(scenario: Scenario, position, orientation: RotationAngles) -> Link:
    rot = rotation_matrix(orientation)
    return link_toward(scenario.channel, position, rot, scenario.target_m, radar=True)


def predict_association(bundle: ModelBundle, scenario: Scenario,
                        point: TrajectoryPoint) -> int:
    """Forward pass, de-normalize and clamp to a valid station index."""
    target = _target_link(scenario, point.position, point.orientation)
    return _predicted_gbs(bundle, scenario, point.position, target)


def _predicted_gbs(bundle: ModelBundle, scenario: Scenario, position, target: Link) -> int:
    features = association_features(scenario, position, target.direction)
    raw = float(forward(bundle.association, features)[0])
    k = scenario.num_gbs
    index = int(round(raw * max(k - 1, 1)))
    return min(max(index, 0), k - 1)


def predict_matrix(
    bundle: ModelBundle,
    scenario: Scenario,
    geo: PointGeometry,
    gbs_index: int,
) -> tuple[BeamformingMatrix, float]:
    """Beamforming matrix from the weight network for one point.

    Returns the matrix and the commanded EIRP (dBm).  Predicted beams are
    rescaled if they exceed the EIRP cap or the power budget.
    """
    prelim_dbm = sensing_eirp_target_dbm(scenario, geo)
    sens_feat = sensing_feature_vector(geo.target.frame, prelim_dbm)
    sensing = _nn_beam(forward(bundle.beamformer, sens_feat), scenario,
                       geo.target_steering, geo.target.gain)
    comm_eirp = _comm_eirp_dbm(scenario, geo, gbs_index, sensing)
    null_frames = [geo.gbs[i].frame for i in nearest_other_gbs(geo, gbs_index)]
    comm_feat = comm_feature_vector(geo.gbs[gbs_index].frame, null_frames, comm_eirp)
    comm = _nn_beam(forward(bundle.beamformer, comm_feat), scenario,
                    steering(scenario.array, geo.gbs[gbs_index].unit), geo.gbs[gbs_index].gain)
    return (
        _enforce_power_budget(
            BeamformingMatrix(sensing=sensing, comm=comm), scenario.p_max_mw
        ),
        comm_eirp,
    )


def _nn_beam(output: NDArray[np.float64], scenario: Scenario, a: NDArray[np.complex128],
             gain: float) -> BeamWeights:
    """One network output as max-normalized BeamWeights, its EIRP toward a capped at the limit."""
    vec = decode_complex(output)
    peak = float(np.max(np.abs(vec)))
    if peak <= 0.0:
        return BeamWeights(entries=np.zeros_like(vec), power_per_element_mw=1e-12)
    scale = max(1.0, peak)
    entries, ppe = vec / scale, scale**2
    achieved = to_db(ppe * steered_gain(entries, a, gain))
    if achieved > scenario.eirp_max_dbm and not math.isinf(achieved):
        ppe *= from_db(scenario.eirp_max_dbm - achieved)
    return BeamWeights(entries=entries, power_per_element_mw=ppe)


def evaluate_trajectory(
    scenario: Scenario,
    trajectory: Trajectory,
    policy: str,
    weight_source: str = OPTIMIZER_SOURCE,
    bundle: ModelBundle | None = None,
    matrices_out: list | None = None,
) -> list[EvalRecord]:
    """Per-slot association, beamforming and link metrics along one trajectory.

    The nn policy takes the association network's station, every other policy
    the scenario.associate rule.  The recorded EIRP is the minimum required by
    the chosen station (capped); SINR, rate, and beampattern gain come from
    the actually emitted matrix.
    A bundle must have been trained for the scenario's array size and
    station count.
    """
    if weight_source not in (OPTIMIZER_SOURCE, NN_SOURCE):
        raise ValueError(f"unknown weight source {weight_source!r}")
    if (weight_source == NN_SOURCE or policy == POLICY_NN) and bundle is None:
        raise ValueError("a trained bundle is required for NN evaluation")
    if bundle is not None:
        sizes = (bundle.beamformer.layer_sizes[-1] // 2, bundle.num_gbs)
        if sizes != (scenario.num_elements, scenario.num_gbs):
            raise ValueError(
                f"bundle trained for {sizes[0]} elements and {sizes[1]} stations, "
                f"scenario has {scenario.num_elements} and {scenario.num_gbs}"
            )
    records = []
    for point in trajectory.points:
        geo = point_geometry(scenario, point)
        if policy == POLICY_NN:
            k = _predicted_gbs(bundle, scenario, point.position, geo.target)
        else:
            k = associate(scenario, geo, policy)
        if weight_source == OPTIMIZER_SOURCE:
            ps = synthesize_point(scenario, geo, k, lenient=True)
            matrix = ps.matrix
            required_dbm = ps.comm_eirp_dbm
        else:
            matrix, required_dbm = predict_matrix(bundle, scenario, geo, k)
        if matrices_out is not None:
            matrices_out.append(matrix)
        h_comm = channel_vector(scenario.channel, scenario.array, geo.gbs[k].distance_m,
                                geo.gbs[k].path_gain, unit=geo.gbs[k].unit)
        value = sinr(
            h_comm, geo.target_channel, matrix.comm.vector, matrix.sensing.vector,
            scenario.channel.noise_mw,
        )
        rate = achievable_rate(value, scenario.channel.bandwidth_hz)
        bgain = beampattern_gain(matrix, scenario.array, geo.target.unit)
        records.append(
            EvalRecord(
                slot=point.slot,
                policy=policy,
                gbs_index=k,
                eirp_dbm=required_dbm,
                sinr_db=to_db(value),
                rate_bps=rate,
                beampattern_gain=bgain,
            )
        )
    return records


def eirp_stats(records: Sequence[EvalRecord], thresholds: Sequence[float]) -> EirpStats:
    """ECDF of per-slot EIRP, outage per threshold, and the mean rate."""
    if not records:
        raise ValueError("no records to summarize")
    if not all(map(math.isfinite, thresholds)):
        raise ValueError(f"outage thresholds must be finite dBm values, got {list(thresholds)}")
    eirps = np.array([r.eirp_dbm for r in records], dtype=np.float64)
    order = np.sort(eirps)
    fractions = np.arange(1, eirps.size + 1) / eirps.size
    outage = {float(t): float(np.mean(eirps > t)) for t in thresholds}
    mean_rate = float(np.mean([r.rate_bps for r in records]))
    return EirpStats(
        ecdf_values=order, ecdf_fractions=fractions, outage=outage, mean_rate_bps=mean_rate
    )


def write_records_csv(path, records: Sequence[EvalRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(EvalRecord))
        writer.writerows(encode(r).values() for r in records)


def read_records_csv(path) -> list[EvalRecord]:
    """The records of a records CSV; a row whose cell count is not the header's fails on its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            # DictReader keys surplus cells under None and fills missing ones with None
            if None in row or None in row.values():
                more = "more" if None in row else "fewer"
                raise ValueError(f"records line {reader.line_num}: {more} cells than the header")
            records.append(decode(EvalRecord, row, "records row", cells=True))
    return records


def write_stats_csv(path, stats: EirpStats) -> None:
    """`kind,key,value` rows: ecdf points, outage fractions, mean rate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "key", "value"])
        for value, fraction in zip(stats.ecdf_values, stats.ecdf_fractions):
            writer.writerow(["ecdf", repr(float(value)), repr(float(fraction))])
        for threshold, fraction in stats.outage.items():
            writer.writerow(["outage", repr(threshold), repr(fraction)])
        writer.writerow(["mean_rate_bps", "", repr(stats.mean_rate_bps)])
