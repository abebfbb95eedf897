import math

import numpy as np
import pytest

from uavisac.channel import (
    ChannelParams,
    _nlos_probability,
    achievable_rate,
    channel_vector,
    radar_path_gain,
    sinr,
    station_path_gain,
)
from uavisac.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    GeometryError,
    RotationAngles,
    array_frame_unit,
    direction_angles,
    rotation_matrix,
)

UAV = np.array([0.0, 0.0, 100.0])
ZERO = RotationAngles(0.0, 0.0, 0.0)
# with kappa1 = 0 the NLoS probability is kappa3 at every elevation, so these
# make a station link exactly line-of-sight or exactly NLoS
LOS = dict(kappa1=0.0, kappa3=0.0)
NLOS = dict(kappa1=0.0, kappa3=1.0)


def frame_unit(uav, angles, dest):
    return array_frame_unit(rotation_matrix(angles), direction_angles(uav, dest))


def station_gain(p, uav, dest):
    """station_path_gain between world positions, at the distance |uav - dest| computed here."""
    u, t = np.asarray(uav, dtype=float), np.asarray(dest, dtype=float)
    return station_path_gain(p, u, t, float(np.linalg.norm(u - t)))


def radar_gain(p, uav, dest):
    """radar_path_gain at the distance |uav - dest| computed here."""
    return radar_path_gain(p, float(np.linalg.norm(np.subtract(uav, dest))))


def link(p, config, gain, uav, dest, angles=ZERO):
    """channel_vector toward dest, fed the distance, path gain (station_gain or radar_gain)
    and unit of world positions."""
    distance = float(np.linalg.norm(np.subtract(uav, dest)))
    return channel_vector(
        p, config, distance, gain(p, uav, dest), unit=frame_unit(uav, angles, dest)
    )


def params_1mm(**kwargs):
    defaults = dict(carrier_hz=SPEED_OF_LIGHT / 1e-3, absorption_per_m=0.0)
    defaults.update(kwargs)
    return ChannelParams(**defaults)


def test_nlos_probability_constant_when_kappa1_zero():
    p = params_1mm(kappa1=0.0, kappa3=0.4)
    for dest in ([50.0, 0.0, 2.0], [500.0, 100.0, 2.0]):
        assert _nlos_probability(p, UAV, dest) == pytest.approx(0.4)
        # exactly, at the limits the other tests use for pure LoS and NLoS
        assert _nlos_probability(params_1mm(**LOS), UAV, dest) == 0.0
        assert _nlos_probability(params_1mm(**NLOS), UAV, dest) == 1.0


def test_nlos_probability_vertical_limit():
    # straight overhead the elevation term saturates at pi/2
    p = params_1mm(kappa1=0.9, kappa2=3.5, kappa3=0.9)
    value = _nlos_probability(p, UAV, [0.0, 0.0, 2.0])
    assert value == pytest.approx(0.9 * (1.0 - math.exp(-3.5 * math.pi / 2)))


def test_nlos_probability_frozen_oracle_values():
    # independently evaluated -k1 exp(-k2 atan(98/dh)) + k3 at three ranges
    p = params_1mm(kappa1=0.9, kappa2=3.5, kappa3=0.9)
    expected = {
        50.0: 0.8807823542071583,
        200.0: 0.7173192713303671,
        500.0: 0.4428634518199317,
    }
    for dh, value in expected.items():
        assert _nlos_probability(p, UAV, [dh, 0.0, 2.0]) == pytest.approx(value, rel=1e-12)


def test_nlos_probability_requires_height_gap():
    with pytest.raises(GeometryError):
        _nlos_probability(params_1mm(), [0.0, 0.0, 2.0], UAV)


def test_pathloss_comm_los_frozen_value():
    p = params_1mm(**LOS)
    gain = station_gain(p, [0.0, 0.0, 100.0], [0.0, 0.0, 0.0])
    assert gain == pytest.approx(6.33257397764611e-13, rel=1e-12)
    assert 10 * math.log10(gain) == pytest.approx(-121.98, abs=0.01)


def test_pathloss_radar_los_frozen_value():
    p = params_1mm(radar_cross_section_m2=1.0)
    gain = radar_gain(p, [0.0, 0.0, 100.0], [0.0, 0.0, 0.0])
    assert gain == pytest.approx(5.0393022551874206e-18, rel=1e-12)
    assert 10 * math.log10(gain) == pytest.approx(-172.98, abs=0.01)


def test_pathloss_nlos_equals_los_for_unit_attenuation():
    dest = [200.0, 0.0, 2.0]
    nlos = station_gain(params_1mm(nlos_attenuation=1.0, **NLOS), UAV, dest)
    assert nlos == pytest.approx(station_gain(params_1mm(**LOS), UAV, dest))
    # at any other attenuation the NLoS limit is the LoS gain times its square
    nlos = station_gain(params_1mm(nlos_attenuation=0.3, **NLOS), UAV, dest)
    assert nlos == pytest.approx(0.09 * station_gain(params_1mm(**LOS), UAV, dest), rel=1e-12)


def test_pathloss_decreases_with_distance():
    links = [
        (radar_gain, {}),
        (station_gain, {}),
        (station_gain, LOS),
        (station_gain, NLOS),
    ]
    for gain, kappas in links:
        p = params_1mm(absorption_per_m=0.003, **kappas)
        gains = [gain(p, UAV, [d, 0.0, 2.0]) for d in (50, 100, 200, 400, 800)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


def test_expected_pathloss_is_convex_combination():
    channel = dict(absorption_per_m=0.002, nlos_attenuation=0.2)
    p = params_1mm(**channel)
    rng = np.random.default_rng(2)
    for _ in range(50):
        dest = [rng.uniform(10, 1000), rng.uniform(-500, 500), 2.0]
        lo = station_gain(params_1mm(**channel, **NLOS), UAV, dest)
        hi = station_gain(params_1mm(**channel, **LOS), UAV, dest)
        mid = station_gain(p, UAV, dest)
        assert lo <= mid <= hi


def test_channel_vector_norm_invariant():
    p = params_1mm(absorption_per_m=0.001)
    config = ArrayConfig(num_elements=16, carrier_hz=p.carrier_hz)
    rng = np.random.default_rng(4)
    for _ in range(20):
        dest = np.array([rng.uniform(50, 800), rng.uniform(-400, 400), 2.0])
        h = link(p, config, station_gain, UAV, dest)
        norm_sq = float(np.sum(np.abs(h) ** 2))
        gain = station_gain(p, UAV, dest)
        assert norm_sq == pytest.approx(config.num_elements * gain, rel=1e-12)


def test_channel_vector_single_element_zero_phase():
    # one element, unit path gain, distance a whole number of wavelengths
    p = params_1mm(**LOS)
    config = ArrayConfig(num_elements=1, carrier_hz=p.carrier_hz)
    d = 1000.0 * config.wavelength_m
    uav = np.array([0.0, 0.0, d])
    origin = np.zeros(3)
    h = link(p, config, station_gain, uav, origin)
    expected_gain = station_gain(p, uav, np.zeros(3))
    assert h.shape == (1,)
    assert h[0] == pytest.approx(math.sqrt(expected_gain), rel=1e-9)
    # phase is a whole number of turns up to float rounding of 2*pi*1000
    assert abs(h[0].imag) < 1e-9 * abs(h[0])


def test_channel_vector_inverse_square():
    p = params_1mm(**LOS)
    config = ArrayConfig(num_elements=4, carrier_hz=p.carrier_hz)
    origin, high = [0.0, 0.0, 0.0], [0.0, 0.0, 200.0]
    h1 = link(p, config, station_gain, UAV, origin)
    h2 = link(p, config, station_gain, high, origin)
    ratio = np.sum(np.abs(h1) ** 2) / np.sum(np.abs(h2) ** 2)
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_channel_vector_rejects_an_orientation_in_place_of_the_unit():
    p = params_1mm()
    config = ArrayConfig(num_elements=4, carrier_hz=p.carrier_hz)
    dest = [100.0, 0.0, 2.0]
    distance = float(np.linalg.norm(np.subtract(UAV, dest)))
    gain = station_gain(p, UAV, dest)
    with pytest.raises(TypeError):
        channel_vector(p, config, distance, gain, ZERO)
    with pytest.raises(TypeError):
        channel_vector(p, config, distance, gain, frame_unit(UAV, ZERO, dest))
    # nor does the former world-coordinate form, positions and a mode
    with pytest.raises(TypeError):
        channel_vector(p, config, UAV, dest, "comm_los", unit=frame_unit(UAV, ZERO, dest))


def _unit_channel(m=1):
    return np.ones(m, dtype=complex)


def test_sinr_scalar_cases():
    h = _unit_channel()
    power = 2.5
    assert sinr(h, h, np.array([math.sqrt(power)]), np.array([0.0]), 1.0) == pytest.approx(power)
    assert sinr(h, h, np.array([0.0]), np.array([1.0]), 1.0) == 0.0


def test_sinr_matched_weights_against_dot_product_oracle():
    p = params_1mm(absorption_per_m=0.0, **LOS)
    config = ArrayConfig(num_elements=25, carrier_hz=p.carrier_hz)
    rng = np.random.default_rng(9)
    for _ in range(10):
        dest = np.array([rng.uniform(100, 600), rng.uniform(-300, 300), 2.0])
        target = np.array([rng.uniform(100, 600), rng.uniform(-300, 300), 0.0])
        angles = RotationAngles(rng.uniform(-math.pi, math.pi), 0.0, 0.0)
        h_c = link(p, config, station_gain, UAV, dest, angles)
        h_s = link(p, config, radar_gain, UAV, target, angles)
        w_c = rng.normal(size=25) + 1j * rng.normal(size=25)
        w_s = rng.normal(size=25) + 1j * rng.normal(size=25)
        noise = 1e-11
        # brute-force complex dot products
        num = abs(sum(np.conjugate(h_c[i]) * w_c[i] for i in range(25))) ** 2
        den = noise + abs(sum(np.conjugate(h_s[i]) * w_s[i] for i in range(25))) ** 2
        assert sinr(h_c, h_s, w_c, w_s, noise) == pytest.approx(num / den, rel=1e-10)


def test_sinr_invariant_to_common_phase_and_linear_in_power():
    h = _unit_channel(4)
    rng = np.random.default_rng(1)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    zero = np.zeros(4)
    base = sinr(h, h, w, zero, 1e-3)
    assert sinr(h, h, w * np.exp(1j * 0.7), zero, 1e-3) == pytest.approx(base, rel=1e-12)
    assert sinr(h, h, 2.0 * w, zero, 1e-3) == pytest.approx(4.0 * base, rel=1e-12)


def test_achievable_rate():
    assert achievable_rate(0.0, 100e6) == 0.0
    assert achievable_rate(1.0, 100e6) == pytest.approx(1.0e8)
    assert achievable_rate(3.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        achievable_rate(-0.1, 1.0)
