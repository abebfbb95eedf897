import math

import numpy as np
import pytest

from uavisac.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    ConfigError,
    GeometryError,
    RotationAngles,
    array_frame_unit,
    centered_grid_offsets,
    direction_angles,
    direction_unit,
    element_amplitude,
    element_gain,
    rotation_matrix,
    steering,
    steering_vector,
)
from uavisac.scenario import Scenario, TrajectoryPoint, point_geometry


def random_poses(rng, count):
    """(position, angles, destination) triples with the array above the destination."""
    for _ in range(count):
        pos = rng.uniform(0, 1000, 3) + [0, 0, 100]
        dest = rng.uniform(0, 1000, 3)
        yield pos, RotationAngles(*rng.uniform(-math.pi, math.pi, 3)), dest


def test_rotation_matrix_identity():
    r = rotation_matrix(RotationAngles(0.0, 0.0, 0.0))
    assert np.allclose(r, np.eye(3), atol=0.0)


def test_rotation_matrix_quarter_turn_moves_x_to_y():
    r = rotation_matrix(RotationAngles(math.pi / 2, 0.0, 0.0))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_matrix_orthonormal_properties():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
        r = rotation_matrix(angles)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_element_positions_m4_layout():
    # wavelength 1 mm so the half-wavelength grid step is 0.5 mm; the indexed
    # layout (0.5..1.0 mm on x and z) is referenced to its centroid
    config = ArrayConfig(num_elements=4, carrier_hz=SPEED_OF_LIGHT / 1e-3)
    pos = centered_grid_offsets(config)
    expected = np.array(
        [
            [0.5e-3, 0.0, 0.5e-3],
            [0.5e-3, 0.0, 1.0e-3],
            [1.0e-3, 0.0, 0.5e-3],
            [1.0e-3, 0.0, 1.0e-3],
        ]
    )
    assert np.allclose(pos, expected - expected.mean(axis=0), atol=1e-18)


def test_array_config_rejects_non_square():
    with pytest.raises(ConfigError):
        ArrayConfig(num_elements=5, carrier_hz=3e11)


def test_direction_angles_vertical():
    d = direction_angles([0.0, 0.0, 100.0], [0.0, 0.0, 2.0])
    assert d.theta == 0.0
    assert d.phi == 0.0


def test_direction_angles_horizontal():
    d = direction_angles([0.0, 0.0, 100.0], [100.0, 0.0, 100.0])
    assert abs(d.theta - math.pi / 2) < 1e-15
    assert abs(d.phi - math.pi) < 1e-15


def test_direction_angles_random_pairs_stay_in_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-1000, 1000, 3)
        b = rng.uniform(-1000, 1000, 3)
        if np.allclose(a, b):
            continue
        d = direction_angles(a, b)
        assert 0.0 <= d.theta <= math.pi
        assert -math.pi < d.phi <= math.pi
        # swapping the arguments flips the unit vector
        assert np.allclose(
            direction_unit(d), -direction_unit(direction_angles(b, a)), atol=1e-12
        )


def test_direction_angles_coincident_raises():
    with pytest.raises(GeometryError):
        direction_angles([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_steering_vector_unit_modulus_and_matched_product():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    rng = np.random.default_rng(5)
    for _ in range(20):
        pos = rng.uniform(0, 1000, 3) + [0, 0, 100]
        dest = rng.uniform(0, 1000, 3)
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
        a = steering_vector(config, pos, angles, dest)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12
        assert abs(np.vdot(a, a) - config.num_elements) < 1e-12 * config.num_elements


def test_steering_vector_broadside_is_coherent():
    # destination along the unrotated +y axis: all element projections vanish
    config = ArrayConfig(num_elements=4, carrier_hz=SPEED_OF_LIGHT / 1e-3)
    pos = np.array([0.0, 0.0, 100.0])
    dest = np.array([0.0, -500.0, 100.0])  # unit vector from dest to array is +y
    a = steering_vector(config, pos, RotationAngles(0.0, 0.0, 0.0), dest)
    assert np.allclose(a, 1.0 + 0.0j, atol=1e-12)


@pytest.mark.parametrize("num_elements", [4, 16, 100])
def test_steering_vector_matches_delay_oracle(num_elements):
    # per-element delays tau_m = (R p_m) . u / c of the rotated offsets
    config = ArrayConfig(num_elements=num_elements, carrier_hz=3e11)
    rng = np.random.default_rng(num_elements)
    for pos, angles, dest in random_poses(rng, 50):
        rotated = centered_grid_offsets(config) @ rotation_matrix(angles).T
        tau = rotated @ direction_unit(direction_angles(pos, dest)) / SPEED_OF_LIGHT
        expected = np.exp(2j * math.pi * config.carrier_hz * tau)
        a = steering_vector(config, pos, angles, dest)
        assert np.max(np.abs(a - expected)) <= 1e-12


def test_steering_rows_of_a_stack_equal_single_calls():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    rng = np.random.default_rng(2)
    for n in (1, 2, 7):
        units = rng.normal(size=(n, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        stacked = steering(config, units)
        assert stacked.shape == (n, config.num_elements)
        for row, unit in zip(stacked, units):
            assert np.array_equal(row, steering(config, unit))


def test_element_gain_of_array_frame_unit_matches_angle_form():
    rng = np.random.default_rng(9)
    for pos, angles, dest in random_poses(rng, 500):
        unit = array_frame_unit(rotation_matrix(angles), direction_angles(pos, dest))
        geo = point_geometry(Scenario(target_m=dest), TrajectoryPoint(0, pos, angles))
        frame = geo.target.frame
        cos_off = math.sin(frame.phi) * math.sin(frame.theta)
        assert abs(element_gain(unit) - ((1.0 + cos_off) / 2.0) ** 2) <= 1e-15


def test_element_amplitude_is_the_root_of_element_gain_bit_for_bit():
    """The cut tables carry the amplitude, while link budgets take the gain."""
    rng = np.random.default_rng(4)
    units = rng.normal(size=(20000, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    units = np.vstack([units, np.eye(3), -np.eye(3)])
    amplitude = element_amplitude(units)
    assert np.array_equal(amplitude, np.sqrt(element_gain(units)))
    assert np.array_equal(amplitude**2, element_gain(units))
