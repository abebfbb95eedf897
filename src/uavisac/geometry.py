"""Spatial math for a rotated half-wavelength planar array on a moving platform.

Positions are plain length-3 float arrays in meters.  Direction angles use the
polar convention theta = acos((z_from - z_to) / distance) with azimuth
phi = atan2(y_from - y_to, x_from - x_to), so the unit vector of a direction
points from the destination back toward the array center.  A direction's unit
u is taken into the array frame as R^T u, and the steering vector toward it is
a_m = exp(+j k p_m . R^T u) over the centroid-referenced element offsets p_m
(k = 2 pi / wavelength); the radiated amplitude toward a direction is the
conjugated inner product a(dir)^H w, and phase-matched weights are w = a.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

SPEED_OF_LIGHT = 299792458.0


class GeometryError(ValueError):
    """Degenerate geometry: coincident points or a non-positive height gap."""


class ConfigError(ValueError):
    """Invalid array configuration."""


class RotationAngles(NamedTuple):
    """Orientation angle triple, radians, each in (-pi, pi]."""

    alpha: float
    beta: float
    gamma: float


class DirectionAngles(NamedTuple):
    """Polar angle theta in [0, pi] and azimuth phi in (-pi, pi], radians."""

    theta: float
    phi: float


@dataclass(frozen=True)
class ArrayConfig:
    """Square planar array on a half-wavelength grid in the local XZ plane."""

    num_elements: int
    carrier_hz: float

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ConfigError("num_elements must be positive")
        side = math.isqrt(self.num_elements)
        if side * side != self.num_elements:
            raise ConfigError(
                f"num_elements must be a perfect square, got {self.num_elements}"
            )
        if self.carrier_hz <= 0.0:
            raise ConfigError("carrier_hz must be positive")

    @property
    def side(self) -> int:
        return math.isqrt(self.num_elements)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def spacing_m(self) -> float:
        return self.wavelength_m / 2.0

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m


@dataclass(frozen=True)
class Pose:
    """Array center position plus platform orientation."""

    position: NDArray[np.float64]
    angles: RotationAngles


def as_vec3(value) -> NDArray[np.float64]:
    """Coerce to a finite length-3 float vector."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != (3,):
        raise GeometryError(f"expected a length-3 vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError("vector components must be finite")
    return v


def rotation_matrix(angles: RotationAngles) -> NDArray[np.float64]:
    """3D rotation matrix with the explicit yaw-pitch-roll entry layout.

    Orthonormal with determinant +1 for any angle triple.
    """
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    return np.array(
        [
            [ca * cb, ca * sb * sg - sa * cg, ca * sb * cg + sa * sg],
            [sa * cb, sa * sb * sg + ca * cg, sa * sb * cg - ca * sg],
            [-sb, cb * sg, cb * cg],
        ]
    )


@functools.lru_cache(maxsize=64)
def centered_grid_offsets(config: ArrayConfig) -> NDArray[np.float64]:
    """Unrotated element offsets relative to the aperture centroid, (M, 3).

    The array is centered on the platform position, so propagation delays are
    referenced to the aperture centroid; the grid itself stays on the indexed
    half-wavelength layout, element m at (m_x d, 0, m_z d) with integer
    indices m_x = 1 + floor(m / sqrt(M)) and m_z = 1 + (m mod sqrt(M)).  The
    returned array is shared between calls with the same configuration and
    read-only.
    """
    m = np.arange(config.num_elements)
    grid = np.zeros((config.num_elements, 3))
    grid[:, 0] = (1 + m // config.side) * config.spacing_m
    grid[:, 2] = (1 + m % config.side) * config.spacing_m
    offsets = grid - grid.mean(axis=0)
    offsets.setflags(write=False)
    return offsets


def direction_angles(from_pos, to_pos) -> DirectionAngles:
    """Direction angle pair from one position toward another.

    theta = acos((z_from - z_to) / distance), clamped against roundoff;
    phi = atan2(dy, dx), which resolves the quadrant and returns 0 for the
    vertical case.
    """
    return offset_direction(as_vec3(from_pos) - as_vec3(to_pos))[1]


def offset_direction(delta) -> tuple[float, DirectionAngles]:
    """Length sqrt(delta . delta) (np.linalg.norm's formula) and direction of delta = from - to."""
    dist = math.sqrt(delta.dot(delta))
    if dist == 0.0:
        raise GeometryError("coincident points have no direction")
    cos_theta = min(1.0, max(-1.0, delta[2] / dist))
    return dist, DirectionAngles(theta=math.acos(cos_theta), phi=math.atan2(delta[1], delta[0]))


def direction_unit(direction: DirectionAngles) -> NDArray[np.float64]:
    """Unit vector (cos phi sin theta, sin phi sin theta, cos theta)."""
    st = math.sin(direction.theta)
    return np.array(
        [
            math.cos(direction.phi) * st,
            math.sin(direction.phi) * st,
            math.cos(direction.theta),
        ]
    )


def array_frame_unit(rot, direction: DirectionAngles) -> NDArray[np.float64]:
    """Unit vector of a direction in the array frame, R^T u; rot is the pose's rotation_matrix."""
    return rot.T @ direction_unit(direction)


def steering(config: ArrayConfig, unit) -> NDArray[np.complex128]:
    """Steering phasors exp(j k p_m . unit) toward array-frame unit vectors.

    A (3,) unit gives an (M,) vector; an (n, 3) stack gives (n, M) rows.
    """
    phases = centered_grid_offsets(config) @ np.transpose(unit)
    return np.exp(1j * config.wavenumber * phases).T


def element_amplitude(unit) -> NDArray[np.float64]:
    """Cardioid element field amplitude (1 + cos off-broadside) / 2, the root of element_gain.

    Takes array-frame unit vectors, (3,) or (n, 3); the cosine of the
    off-broadside angle is their y component.
    """
    return (1.0 + unit[..., 1]) / 2.0


def element_gain(unit) -> NDArray[np.float64]:
    """Cardioid element power pattern about the unrotated broadside (+y), element_amplitude squared."""
    return element_amplitude(unit) ** 2


def steering_vector(
    config: ArrayConfig, uav_pos, angles: RotationAngles, dest
) -> NDArray[np.complex128]:
    """Unit-modulus steering vector toward dest."""
    rot = rotation_matrix(angles)
    return steering(config, array_frame_unit(rot, direction_angles(uav_pos, dest)))
