"""Dual-function radar/communication UAV simulation toolkit.

Beam synthesis under sidelobe/EIRP/nulling constraints along UAV
trajectories, a sub-THz air-to-ground channel, and two small feedforward
networks that learn the optimizer's beam weights and the station association.
"""

from .beampattern import (
    BeamformingMatrix,
    BeamWeights,
    PatternCut,
    SynthesisRequest,
    SynthesisResult,
    apply_nulls,
    array_gain,
    beampattern_gain,
    chebyshev_taper,
    eirp,
    extract_sll,
    pattern_cut,
    synthesize,
)
from .channel import ChannelParams, achievable_rate, channel_vector, sinr
from .geometry import (
    ArrayConfig,
    DirectionAngles,
    Pose,
    RotationAngles,
    direction_angles,
    element_gain,
    rotation_matrix,
    steering_vector,
)
from .neuralnet import Network, NetworkConfig, TrainConfig, TrainReport, forward, gradients, train
from .pipeline import (
    EvalRecord,
    ModelBundle,
    Sample,
    eirp_stats,
    evaluate_trajectory,
    generate_dataset,
    predict_association,
    train_models,
)
from .scenario import (
    PointGeometry,
    Scenario,
    Trajectory,
    TrajectoryPoint,
    associate,
    generate_trajectories,
    label_optimal_association,
    orientation_from_motion,
    point_geometry,
)

__version__ = "0.1.0"
