import math

import numpy as np
import pytest

from uavisac.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    ConfigError,
    DirectionAngles,
    GeometryError,
    RotationAngles,
    angular_separation,
    direction_angles,
    direction_unit,
    element_positions,
    rotation_matrix,
    steering_vector,
)


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
    # wavelength 1 mm so the half-wavelength grid step is 0.5 mm
    config = ArrayConfig(num_elements=4, carrier_hz=SPEED_OF_LIGHT / 1e-3)
    pos = element_positions(config, np.zeros(3), RotationAngles(0.0, 0.0, 0.0))
    expected = np.array(
        [
            [0.5e-3, 0.0, 0.5e-3],
            [0.5e-3, 0.0, 1.0e-3],
            [1.0e-3, 0.0, 0.5e-3],
            [1.0e-3, 0.0, 1.0e-3],
        ]
    )
    assert np.allclose(pos, expected, atol=1e-18)


def test_element_positions_translation():
    config = ArrayConfig(num_elements=4, carrier_hz=SPEED_OF_LIGHT / 1e-3)
    base = element_positions(config, np.zeros(3), RotationAngles(0.0, 0.0, 0.0))
    moved = element_positions(config, np.array([10.0, 0.0, 0.0]), RotationAngles(0.0, 0.0, 0.0))
    assert np.allclose(moved - base, [10.0, 0.0, 0.0])


def test_element_positions_rotation_is_isometry():
    config = ArrayConfig(num_elements=9, carrier_hz=3e11)
    rng = np.random.default_rng(3)
    ref = element_positions(config, np.zeros(3), RotationAngles(0.0, 0.0, 0.0))
    dist_ref = np.linalg.norm(ref[:, None, :] - ref[None, :, :], axis=-1)
    for _ in range(20):
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
        rot = element_positions(config, np.zeros(3), angles)
        dist = np.linalg.norm(rot[:, None, :] - rot[None, :, :], axis=-1)
        assert np.max(np.abs(dist - dist_ref)) < 1e-12


def test_element_positions_rejects_non_square():
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


def test_angular_separation():
    a = DirectionAngles(theta=math.pi / 2, phi=0.0)
    b = DirectionAngles(theta=math.pi / 2, phi=math.pi / 2)
    assert abs(angular_separation(a, b) - math.pi / 2) < 1e-12
