import math

import numpy as np
import pytest

from uavisac.beampattern import (
    BeamformingMatrix,
    BeamWeights,
    NullConflictError,
    SynthesisRequest,
    apply_nulls,
    array_gain,
    beampattern_error,
    beampattern_gain,
    check_nulls,
    chebyshev_taper,
    eirp,
    extract_sll,
    pattern_cut,
    synthesize,
)
from uavisac.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    DirectionAngles,
    Pose,
    RotationAngles,
    centered_grid_offsets,
    direction_angles,
    direction_unit,
    element_gain,
    rotation_matrix,
    steering_vector,
)

ZERO = RotationAngles(0.0, 0.0, 0.0)
BROADSIDE = DirectionAngles(theta=math.pi / 2, phi=math.pi / 2)


def zero_pose():
    return Pose(position=np.array([0.0, 0.0, 100.0]), angles=ZERO)


def matched_weights(config, pointing, ppe=1.0):
    offsets = centered_grid_offsets(config)
    a = np.exp(1j * config.wavenumber * (offsets @ direction_unit(pointing)))
    return BeamWeights(entries=a, power_per_element_mw=ppe)


def test_element_gain_cardioid_values():
    assert element_gain(direction_unit(BROADSIDE)) == pytest.approx(1.0)
    back = DirectionAngles(theta=math.pi / 2, phi=-math.pi / 2)
    assert element_gain(direction_unit(back)) == pytest.approx(0.0)
    assert element_gain(direction_unit(DirectionAngles(theta=0.0, phi=0.0))) == pytest.approx(0.25)


def test_array_gain_matched_is_m_squared():
    config = ArrayConfig(num_elements=64, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE)
    gain = array_gain(w, config, np.zeros(3), ZERO, BROADSIDE)
    assert gain == pytest.approx(config.num_elements**2, rel=1e-12)


def test_array_gain_zero_weights():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    w = np.zeros(16, dtype=complex)
    assert array_gain(w, config, np.zeros(3), ZERO, BROADSIDE) == 0.0


def test_array_gain_matches_brute_force_sum():
    config = ArrayConfig(num_elements=4, carrier_hz=SPEED_OF_LIGHT / 1e-3)
    rng = np.random.default_rng(8)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    angles = RotationAngles(0.4, -0.2, 0.1)
    direction = DirectionAngles(theta=1.1, phi=0.7)
    # independent summation oracle
    offsets = centered_grid_offsets(config) @ rotation_matrix(angles).T
    unit = direction_unit(direction)
    acc = 0.0 + 0.0j
    for m in range(4):
        tau = float(offsets[m] @ unit) / SPEED_OF_LIGHT
        acc += np.conjugate(np.exp(2j * math.pi * config.carrier_hz * tau)) * w[m]
    unit_arr = rotation_matrix(angles).T @ unit
    expected = abs(acc) ** 2 * ((1.0 + unit_arr[1]) / 2.0) ** 2
    assert array_gain(w, config, np.zeros(3), angles, direction) == pytest.approx(expected, rel=1e-10)


def test_pattern_cut_peak_at_pointing_and_zero_db():
    config = ArrayConfig(num_elements=64, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE)
    for plane in ("azimuth", "elevation"):
        cut = pattern_cut(w, config, zero_pose(), plane, BROADSIDE)
        assert cut.gains_db.max() == pytest.approx(0.0, abs=1e-12)
        peak_angle = cut.angles_rad[int(np.argmax(cut.gains_db))]
        pointing_angle = BROADSIDE.phi if plane == "azimuth" else BROADSIDE.theta
        assert abs(peak_angle - pointing_angle) <= math.radians(0.051)
        assert np.all(np.diff(cut.angles_rad) > 0)


def test_pattern_cut_uniform_first_sidelobe():
    # 8x8 uniform array: the azimuth cut reduces to the 8-element line pattern
    config = ArrayConfig(num_elements=64, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE)
    cut = pattern_cut(w, config, zero_pose(), "azimuth", BROADSIDE)
    gains = cut.gains_db
    peaks = [
        gains[i]
        for i in range(1, len(gains) - 1)
        if gains[i] > gains[i - 1] and gains[i] > gains[i + 1] and gains[i] < -1.0
    ]
    first_sidelobe = max(peaks)
    # classical -12.8 dB, pulled down slightly by the element pattern
    assert first_sidelobe == pytest.approx(-12.8, abs=0.4)

    # brute-force scan oracle of the same quantity on a fresh grid
    offsets = centered_grid_offsets(config)
    phis = np.radians(np.arange(0.025, 180.0, 0.05))
    best = -np.inf
    units = np.column_stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)])
    emat = np.exp(1j * config.wavenumber * (units @ offsets.T))
    power = np.abs(emat @ np.conjugate(w.entries)) ** 2 * ((1.0 + units[:, 1]) / 2.0) ** 2
    power_db = 10 * np.log10(power / power.max())
    oracle_peaks = [
        power_db[i]
        for i in range(1, len(power_db) - 1)
        if power_db[i] > power_db[i - 1] and power_db[i] > power_db[i + 1] and power_db[i] < -1.0
    ]
    assert first_sidelobe == pytest.approx(max(oracle_peaks), abs=0.05)


def _taper_weights(config, tx, tz, pointing):
    side = config.side
    amp = np.zeros(config.num_elements)
    idx = np.arange(config.num_elements)
    amp = tx[idx // side] * tz[idx % side]
    offsets = centered_grid_offsets(config)
    a = np.exp(1j * config.wavenumber * (offsets @ direction_unit(pointing)))
    return BeamWeights(entries=amp * a, power_per_element_mw=1.0)


def test_extract_sll_uniform_and_chebyshev():
    config = ArrayConfig(num_elements=64, carrier_hz=3e11)
    uniform = _taper_weights(config, np.ones(8), np.ones(8), BROADSIDE)
    cut = pattern_cut(uniform, config, zero_pose(), "azimuth", BROADSIDE)
    assert extract_sll(cut) == pytest.approx(12.8, abs=0.4)

    cheb = chebyshev_taper(8, 30.0)
    tapered = _taper_weights(config, cheb, np.ones(8), BROADSIDE)
    cut = pattern_cut(tapered, config, zero_pose(), "azimuth", BROADSIDE)
    assert extract_sll(cut) == pytest.approx(30.0, abs=0.5)


def test_extract_sll_single_lobe_sentinel():
    config = ArrayConfig(num_elements=1, carrier_hz=3e11)
    w = BeamWeights(entries=np.ones(1, dtype=complex), power_per_element_mw=1.0)
    cut = pattern_cut(w, config, zero_pose(), "azimuth", BROADSIDE)
    assert math.isinf(extract_sll(cut))


def test_eirp_basic_scaling():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE, ppe=1.0)
    value = eirp(w, config, zero_pose(), BROADSIDE)
    assert value == pytest.approx(40.0, abs=1e-9)  # 10 log10(1 mW * 100^2)
    half = BeamWeights(entries=w.entries, power_per_element_mw=0.5)
    assert eirp(half, config, zero_pose(), BROADSIDE) == pytest.approx(value - 3.0103, abs=1e-3)


def test_chebyshev_taper_two_elements_uniform():
    assert np.allclose(chebyshev_taper(2, 20.0), [1.0, 1.0])
    assert np.allclose(chebyshev_taper(2, 60.0), [1.0, 1.0])


def test_chebyshev_taper_symmetric_and_scanned_sidelobes():
    taper = chebyshev_taper(8, 30.0)
    assert np.max(np.abs(taper - taper[::-1])) < 1e-12
    assert taper.max() == pytest.approx(1.0)
    # brute-force line scan: equiripple at -30 dB
    u = np.arange(-1.0, 1.0, 0.0005)
    af = np.abs(np.exp(1j * np.pi * np.outer(u, np.arange(8))) @ taper) ** 2
    af_db = 10 * np.log10(af / af.max())
    peaks = [
        af_db[i]
        for i in range(1, len(af_db) - 1)
        if af_db[i] > af_db[i - 1] and af_db[i] > af_db[i + 1] and af_db[i] < -3.0
    ]
    assert max(peaks) == pytest.approx(-30.0, abs=0.5)
    assert min(peaks) > -31.0


def test_chebyshev_taper_monotone_concentration():
    ratios = []
    for sll in (20.0, 40.0, 60.0, 80.0, 100.0):
        taper = chebyshev_taper(8, sll)
        ratios.append(taper[3] / taper[0])
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_chebyshev_taper_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chebyshev_taper(1, 30.0)
    with pytest.raises(ValueError):
        chebyshev_taper(8, 0.0)


def test_apply_nulls_empty_is_identity():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE)
    assert apply_nulls(w, config, zero_pose(), ()) is w


def test_apply_nulls_zeroes_inner_products():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    pose = zero_pose()
    pointing = BROADSIDE
    null = DirectionAngles(theta=math.pi / 2, phi=math.pi / 2 + math.radians(25.0))
    w = matched_weights(config, pointing)
    out = apply_nulls(w, config, pose, (null,), pointing)
    a_null = np.exp(
        1j * config.wavenumber * (centered_grid_offsets(config) @ direction_unit(null))
    )
    product = abs(np.vdot(a_null, out.vector))
    assert product <= 1e-10 * np.linalg.norm(out.vector) * math.sqrt(config.num_elements)


def test_apply_nulls_two_null_scenes_keep_main_lobe():
    from tests.helpers import random_null_scene
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    rng = np.random.default_rng(12)
    for _ in range(20):
        pose, pointing, nulls = random_null_scene(rng)
        w = matched_weights(config, pointing)
        before = array_gain(w, config, pose.position, pose.angles, pointing)
        out = apply_nulls(w, config, pose, nulls, pointing)
        after = array_gain(out, config, pose.position, pose.angles, pointing)
        loss_db = 10 * math.log10(before / max(after * out.power_per_element_mw, 1e-300))
        assert loss_db < 3.0
        for null in nulls:
            a_null = np.exp(
                1j
                * config.wavenumber
                * (
                    (centered_grid_offsets(config) @ rotation_matrix(pose.angles).T)
                    @ direction_unit(null)
                )
            )
            assert abs(np.vdot(a_null, out.vector)) <= 1e-10 * np.linalg.norm(
                out.vector
            ) * math.sqrt(config.num_elements)


def test_apply_nulls_conflict_detection():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    w = matched_weights(config, BROADSIDE)
    near = DirectionAngles(theta=BROADSIDE.theta, phi=BROADSIDE.phi + math.radians(0.5))
    with pytest.raises(NullConflictError):
        apply_nulls(w, config, zero_pose(), (near,), BROADSIDE)


def test_check_nulls_shares_one_conflict_threshold():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    beside = DirectionAngles(theta=BROADSIDE.theta, phi=BROADSIDE.phi + math.radians(1.01))
    check_nulls(config, (beside,), BROADSIDE)
    near = DirectionAngles(theta=BROADSIDE.theta, phi=BROADSIDE.phi + math.radians(0.99))
    with pytest.raises(NullConflictError):
        check_nulls(config, (beside, near), BROADSIDE)
    request = SynthesisRequest(
        pointing=BROADSIDE, sll_min_az_db=15.0, sll_min_el_db=15.0,
        eirp_target_dbm=20.0, nulls=(near,),
    )
    with pytest.raises(NullConflictError):
        synthesize(request, config, zero_pose())
    with pytest.raises(ValueError):
        check_nulls(config, (beside,) * 16)


def test_synthesize_immediate_accept_with_loose_threshold():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    request = SynthesisRequest(
        pointing=BROADSIDE,
        sll_min_az_db=15.0,
        sll_min_el_db=15.0,
        eirp_target_dbm=20.0,
        threshold=1000.0,
    )
    result = synthesize(request, config, zero_pose())
    assert result.iterations == 1
    assert result.converged
    assert result.active_elements == 100


def test_synthesize_meets_constraints_and_is_rederivable():
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    pose = zero_pose()
    request = SynthesisRequest(
        pointing=DirectionAngles(theta=math.radians(70.0), phi=math.radians(60.0)),
        sll_min_az_db=20.0,
        sll_min_el_db=20.0,
        eirp_target_dbm=25.0,
        nulls=(DirectionAngles(theta=math.radians(50.0), phi=math.radians(20.0)),),
    )
    result = synthesize(request, config, pose)
    assert result.converged
    assert result.achieved_sll_az_db >= 20.0
    assert result.achieved_sll_el_db >= 20.0
    assert result.achieved_eirp_dbm == pytest.approx(25.0, abs=1e-9)
    # achieved values re-derive from the weights through the public ops
    assert eirp(result.weights, config, pose, request.pointing) == pytest.approx(
        result.achieved_eirp_dbm, abs=1e-9
    )
    cut_az = pattern_cut(result.weights, config, pose, "azimuth", request.pointing)
    cut_el = pattern_cut(result.weights, config, pose, "elevation", request.pointing)
    assert extract_sll(cut_az) == pytest.approx(result.achieved_sll_az_db, abs=1e-9)
    assert extract_sll(cut_el) == pytest.approx(result.achieved_sll_el_db, abs=1e-9)
    assert np.max(np.abs(result.weights.entries)) <= 1.0 + 1e-9


def test_beampattern_gain_matched_and_zero():
    config = ArrayConfig(num_elements=25, carrier_hz=3e11)
    pose = zero_pose()
    target = np.array([0.0, -300.0, 100.0])  # broadside of the unrotated array
    pointing = direction_angles(pose.position, target)
    sensing = matched_weights(config, pointing, ppe=1.0)
    silent = BeamWeights(entries=np.zeros(25, dtype=complex), power_per_element_mw=1e-12)
    matrix = BeamformingMatrix(sensing=sensing, comm=silent)
    gain = beampattern_gain(matrix, config, pose, target)
    assert gain == pytest.approx(25.0**2, rel=1e-9)
    both_zero = BeamformingMatrix(sensing=silent, comm=silent)
    assert beampattern_gain(both_zero, config, pose, target) == pytest.approx(0.0, abs=1e-12)


def test_beampattern_gain_random_quadratic_form_oracle():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    pose = Pose(position=np.array([5.0, -3.0, 100.0]), angles=RotationAngles(0.3, 0.1, -0.2))
    target = np.array([200.0, 150.0, 0.0])
    rng = np.random.default_rng(21)
    w0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    wk = rng.normal(size=16) + 1j * rng.normal(size=16)
    w0 /= np.max(np.abs(w0))
    wk /= np.max(np.abs(wk))
    matrix = BeamformingMatrix(
        sensing=BeamWeights(entries=w0, power_per_element_mw=2.0),
        comm=BeamWeights(entries=wk, power_per_element_mw=0.5),
    )
    a = steering_vector(config, pose.position, pose.angles, target)
    # dense quadratic form a^H (w0 w0^H + wk wk^H) a with scaled vectors
    v0 = math.sqrt(2.0) * w0
    vk = math.sqrt(0.5) * wk
    cov = np.outer(v0, np.conjugate(v0)) + np.outer(vk, np.conjugate(vk))
    expected = float(np.real(np.conjugate(a) @ cov @ a))
    assert beampattern_gain(matrix, config, pose, target) == pytest.approx(expected, rel=1e-10)


def test_beampattern_gain_phase_invariance():
    config = ArrayConfig(num_elements=9, carrier_hz=3e11)
    pose = zero_pose()
    target = np.array([100.0, 200.0, 0.0])
    rng = np.random.default_rng(2)
    w = rng.normal(size=9) + 1j * rng.normal(size=9)
    w /= np.max(np.abs(w))
    base = BeamformingMatrix(
        sensing=BeamWeights(entries=w, power_per_element_mw=1.0),
        comm=BeamWeights(entries=w[::-1], power_per_element_mw=1.0),
    )
    rotated = BeamformingMatrix(
        sensing=BeamWeights(entries=w * np.exp(1j * 1.3), power_per_element_mw=1.0),
        comm=BeamWeights(entries=w[::-1] * np.exp(-1j * 0.4), power_per_element_mw=1.0),
    )
    b1 = beampattern_gain(base, config, pose, target)
    b2 = beampattern_gain(rotated, config, pose, target)
    assert b1 == pytest.approx(b2, rel=1e-12)


def test_beampattern_error_cases():
    config = ArrayConfig(num_elements=9, carrier_hz=3e11)
    target = np.array([100.0, 200.0, 0.0])
    poses = [
        Pose(position=np.array([0.0, 0.0, 100.0]), angles=ZERO),
        Pose(position=np.array([50.0, 10.0, 100.0]), angles=RotationAngles(0.5, 0.0, 0.0)),
    ]
    rng = np.random.default_rng(6)
    matrices = []
    for _ in poses:
        w = rng.normal(size=9) + 1j * rng.normal(size=9)
        w /= np.max(np.abs(w))
        matrices.append(
            BeamformingMatrix(
                sensing=BeamWeights(entries=w, power_per_element_mw=1.0),
                comm=BeamWeights(entries=np.roll(w, 1), power_per_element_mw=0.5),
            )
        )
    assert beampattern_error(poses, matrices, matrices, config, target) == 0.0

    other = [matrices[1], matrices[0]]
    # direct arithmetic oracle for the two-slot case
    expected = sum(
        (
            beampattern_gain(ref, config, pose, target)
            - beampattern_gain(pred, config, pose, target)
        )
        ** 2
        for pose, pred, ref in zip(poses, other, matrices)
    )
    assert beampattern_error(poses, other, matrices, config, target) == pytest.approx(expected)

    with pytest.raises(ValueError):
        beampattern_error(poses, matrices[:1], matrices, config, target)


def test_pattern_cut_export_csv(tmp_path):
    from uavisac.beampattern import export_cut_csv

    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    cut = pattern_cut(matched_weights(config, BROADSIDE), config, zero_pose(), "azimuth", BROADSIDE)
    path = tmp_path / "cut.csv"
    export_cut_csv(cut, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "angle_deg,gain_db"
    assert len(lines) == len(cut.angles_rad) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(math.degrees(cut.angles_rad[0]))

