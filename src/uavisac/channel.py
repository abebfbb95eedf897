"""Sub-THz air-to-ground propagation over the two links the scenario models.

radar_path_gain is the target echo's two-way radar range equation and
station_path_gain a ground station's free-space loss, blended between LoS and
NLoS by _nlos_probability's elevation-dependent occurrence probability.  Each
returns a linear channel power gain of the distance scenario.point_geometry
derives, so spreading, molecular absorption and the NLoS penalty all sit in
the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    GeometryError,
    steering,
)
from .units import from_db


@dataclass
class ChannelParams:
    """Propagation constants, declared in the order a scenario file lists them.

    Noise is held in dBm, as the file writes it; noise_mw derives the mW.
    kappa1..kappa3 shape the NLoS-probability curve; absorption_per_m is the
    molecular absorption coefficient K_fc (1/m); nlos_attenuation is the
    NLoS amplitude factor K_N in (0, 1].  Defaults for kappa, K_fc and K_N
    are configurable stand-ins, not published values.
    """

    carrier_hz: float = 0.3e12
    bandwidth_hz: float = 100e6
    noise_power_dbm: float = -110.0
    kappa1: float = 0.9
    kappa2: float = 3.5
    kappa3: float = 0.9
    absorption_per_m: float = 0.0033
    nlos_attenuation: float = 0.1
    radar_cross_section_m2: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.absorption_per_m < 0.0:
            raise ValueError("absorption_per_m must be >= 0")
        if not 0.0 < self.nlos_attenuation <= 1.0:
            raise ValueError("nlos_attenuation must be in (0, 1]")
        if not 0.0 < self.noise_mw < math.inf:
            raise ValueError("noise_power_dbm must give a positive, finite noise power in mW")
        if self.radar_cross_section_m2 <= 0.0:
            raise ValueError("radar_cross_section_m2 must be positive")

    @property
    def noise_mw(self) -> float:
        return from_db(self.noise_power_dbm)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


def _nlos_probability(params: ChannelParams, u, d) -> float:
    """NLoS probability from u (UAV) to d in [0, 1]; dz/horizontal is (z - z_i) / (d sin theta)."""
    dz = u[2] - d[2]
    if dz <= 0.0:
        raise GeometryError("UAV must be above the destination")
    horizontal = math.hypot(u[0] - d[0], u[1] - d[1])
    elevation = math.atan2(dz, horizontal)
    raw = -params.kappa1 * math.exp(-params.kappa2 * elevation) + params.kappa3
    return min(1.0, max(0.0, raw))


def radar_path_gain(params: ChannelParams, d: float) -> float:
    """Linear power gain of the target echo: the radar range equation, the target d away."""
    if d <= 0.0:
        raise GeometryError("zero distance between UAV and destination")
    return (
        params.wavelength_m**2
        * params.radar_cross_section_m2
        / ((4.0 * math.pi) ** 3 * d**4 * math.exp(4.0 * params.absorption_per_m * d))
    )


def station_path_gain(params: ChannelParams, u, t, d: float) -> float:
    """Expected linear power gain from u (UAV) to station t at distance d = |u - t|: the
    free-space LoS gain and its NLoS attenuation weighed by the NLoS probability."""
    if d <= 0.0:
        raise GeometryError("zero distance between UAV and destination")
    k_abs = params.absorption_per_m
    gain_los = params.wavelength_m**2 / ((4.0 * math.pi * d) ** 2 * math.exp(2.0 * k_abs * d))
    p_nlos = _nlos_probability(params, u, t)
    return (1.0 - p_nlos) * gain_los + p_nlos * gain_los * params.nlos_attenuation**2


def channel_vector(
    params: ChannelParams, config: ArrayConfig, distance_m: float, path_gain: float, *, unit
) -> NDArray[np.complex128]:
    """Complex channel entries sqrt(PL) exp(j 2 pi f d / c) a(unit) toward one destination.

    d, PL (radar_path_gain or station_path_gain) and the array-frame unit are the values
    scenario.point_geometry derives once per destination and its record holds.
    """
    return _link_phasor(params, distance_m, path_gain) * steering(config, unit)


def _link_phasor(params: ChannelParams, distance_m: float, path_gain: float) -> complex:
    """sqrt(PL) exp(j 2 pi f d / c), the scalar of channel_vector that scales a(unit)."""
    phase = np.exp(2j * math.pi * params.carrier_hz * distance_m / SPEED_OF_LIGHT)
    return math.sqrt(path_gain) * phase


def sinr(h_comm, h_sense, w_comm, w_sense, noise_mw: float) -> float:
    """Linear SINR |h_c^H w_c|^2 / (noise + |h_s^H w_s|^2).

    Channels are complex entry arrays as channel_vector returns them, and
    weights are complex arrays of the same shape, amplitude-scaled as
    BeamWeights.vector returns them.
    """
    if np.shape(w_comm) != np.shape(h_comm) or np.shape(w_sense) != np.shape(h_sense):
        raise ValueError("weight and channel dimensions do not match")
    signal = abs(np.vdot(h_comm, w_comm)) ** 2
    interference = abs(np.vdot(h_sense, w_sense)) ** 2
    return signal / (noise_mw + interference)


def achievable_rate(sinr_linear: float, bandwidth_hz: float) -> float:
    """Shannon rate B log2(1 + SINR), bit/s."""
    if sinr_linear < 0.0:
        raise ValueError("sinr must be non-negative")
    return bandwidth_hz * math.log2(1.0 + sinr_linear)
