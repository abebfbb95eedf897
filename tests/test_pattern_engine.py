"""Oracles for the factored cut engine and the vectorized cut helpers.

The synthesizer's cut patterns come from per-axis steering factors, built by a
phase recurrence, contracted with weights in factored form W = X Z^T; here
they are checked against the dense steering matrix of `_kernels` and against
one complex exponential per element.  The loop versions of `_sll_from_gains`
and `_cut_arc` are kept below as references for the vectorized ones.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uavisac import _kernels
from uavisac.beampattern import (
    MAIN_LOBE_MIN_DEPTH_DB,
    SynthesisRequest,
    _axis_factors,
    _cut_arc,
    _cut_grid,
    _null_basis,
    _project_out,
    _sll_from_gains,
    _Synthesizer,
    chebyshev_taper,
    null_conflicts,
    pattern_cut,
)
from uavisac.geometry import (
    ArrayConfig,
    DirectionAngles,
    Pose,
    RotationAngles,
    centered_grid_offsets,
    direction_unit,
    grid_axis_offsets,
    rotation_matrix,
)

# derandomized and without an example database, so every run draws the same cases
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

angle = st.floats(-math.pi, math.pi, allow_nan=False)
polar = st.floats(0.0, math.pi, allow_nan=False)


def _sll_reference(gains_db):
    gains = np.asarray(gains_db, dtype=np.float64)
    n = gains.size
    peak = int(np.argmax(gains))
    thresh = gains[peak] - MAIN_LOBE_MIN_DEPTH_DB
    left = peak
    while left > 0 and not (gains[left - 1] > gains[left] and gains[left] <= thresh):
        left -= 1
    right = peak
    while right < n - 1 and not (gains[right + 1] > gains[right] and gains[right] <= thresh):
        right += 1
    outside = np.concatenate([gains[:left], gains[right + 1 :]])
    if outside.size == 0:
        return math.inf
    return float(gains[peak] - outside.max())


def _cut_arc_reference(angles, units_arr, point_index, circular):
    n = angles.size
    side = 1.0 if units_arr[point_index, 1] >= 0.0 else -1.0
    keep = side * units_arr[:, 1] >= -1e-12
    delta = angles - angles[point_index]
    if circular:
        delta = np.arctan2(np.sin(delta), np.cos(delta))
    keep &= np.abs(delta) <= math.pi / 2 + 1e-12
    if keep.all():
        return angles, np.arange(n)
    if not circular:
        lo = point_index
        while lo > 0 and keep[lo - 1]:
            lo -= 1
        hi = point_index
        while hi < n - 1 and keep[hi + 1]:
            hi += 1
        idx = np.arange(lo, hi + 1)
        return angles[idx], idx
    lo = point_index
    while keep[(lo - 1) % n] and (point_index - lo) < n - 1:
        lo -= 1
    hi = point_index
    while keep[(hi + 1) % n] and (hi - lo) < n - 1:
        hi += 1
    idx = np.arange(lo, hi + 1) % n
    arc_angles = angles[idx].copy()
    wrapped = np.nonzero(np.diff(arc_angles) < 0)[0]
    if wrapped.size:
        arc_angles[wrapped[0] + 1 :] += 2.0 * math.pi
    return arc_angles, idx


def _dense_cut_power(weights, config, pose, plane, pointing, angles):
    """Cut power and element gain from the full steering matrix of the cut directions."""
    if plane == "azimuth":
        sin_t = math.sin(pointing.theta)
        cos_t = np.full_like(angles, math.cos(pointing.theta))
        units = np.column_stack([np.cos(angles) * sin_t, np.sin(angles) * sin_t, cos_t])
    else:
        units = np.column_stack(
            [
                math.cos(pointing.phi) * np.sin(angles),
                math.sin(pointing.phi) * np.sin(angles),
                np.cos(angles),
            ]
        )
    units_arr = units @ rotation_matrix(pose.angles)
    emat = _kernels.steering_matrix(units_arr, centered_grid_offsets(config), config.wavenumber)
    ge = ((1.0 + units_arr[:, 1]) / 2.0) ** 2
    return _kernels.cut_power(emat, weights) * ge, ge


@st.composite
def weight_scenes(draw):
    """Array, pose, pointing and a weight vector on a (possibly shrunk) active block.

    Half of the draws use a phase-steered Chebyshev taper, as the synthesizer
    does; the rest use random complex weights.  Nulls are projected out inside
    the active block.
    """
    m = draw(st.sampled_from([4, 16, 64, 100]))
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    side = config.side
    pose = Pose(
        position=np.array([0.0, 0.0, 100.0]),
        angles=RotationAngles(draw(angle), draw(angle), draw(angle)),
    )
    pointing = DirectionAngles(draw(polar), draw(angle))
    nulls = tuple(
        DirectionAngles(draw(polar), draw(angle)) for _ in range(draw(st.integers(0, 2)))
    )
    rows = draw(st.integers(1, side))
    cols = draw(st.integers(1, side))
    assume(rows * cols > len(nulls))
    mi = np.arange(m)
    active = (mi // side < rows) & (mi % side < cols)
    if draw(st.booleans()):
        tx = chebyshev_taper(rows, draw(st.floats(5.0, 40.0))) if rows > 1 else np.ones(1)
        tz = chebyshev_taper(cols, draw(st.floats(5.0, 40.0))) if cols > 1 else np.ones(1)
        amp = np.zeros(m)
        amp[active] = tx[mi[active] // side] * tz[mi[active] % side]
        unit = rotation_matrix(pose.angles).T @ direction_unit(pointing)
        w = amp * np.exp(1j * config.wavenumber * (centered_grid_offsets(config) @ unit))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = np.where(active, rng.normal(size=m) + 1j * rng.normal(size=m), 0.0)
    if nulls:
        w, _ = _project_out(w, _null_basis(config, pose, nulls), active)
    assume(np.max(np.abs(w)) > 1e-6)
    return config, pose, pointing, w


def test_grid_axis_offsets_match_element_layout():
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    x, z = grid_axis_offsets(config)
    grid = centered_grid_offsets(config)
    m = np.arange(config.num_elements)
    assert np.array_equal(grid[:, 0], x[m // config.side])
    assert np.array_equal(grid[:, 2], z[m % config.side])
    assert np.all(grid[:, 1] == 0.0)


@SETTINGS
@given(scene=weight_scenes(), plane=st.sampled_from(["azimuth", "elevation"]))
def test_factored_cut_matches_dense_kernel(scene, plane):
    config, pose, pointing, w = scene
    cut = pattern_cut(w, config, pose, plane, pointing, step_deg=0.1)
    dense, ge = _dense_cut_power(w, config, pose, plane, pointing, cut.angles_rad)
    factored = 10.0 ** (cut.gains_db / 10.0) * dense.max()
    # Relative to the coherent-sum bound (sum |w_m|)^2 max g_e, the scale of
    # either evaluation's phase roundoff: on a cut lying wholly in a deep null
    # the dense reference itself is that far from an extended-precision sum,
    # so the cut's own peak is no fair scale.
    bound = np.abs(w).sum() ** 2 * ge.max()
    assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


@st.composite
def candidate_scenes(draw):
    """Synthesis request, pose and one candidate's block and tapers."""
    m = draw(st.sampled_from([4, 16, 64, 100]))
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    pose = Pose(
        position=np.array([0.0, 0.0, 100.0]),
        angles=RotationAngles(draw(angle), draw(angle), draw(angle)),
    )
    pointing = DirectionAngles(draw(polar), draw(angle))
    nulls = tuple(
        DirectionAngles(draw(polar), draw(angle)) for _ in range(draw(st.integers(0, 2)))
    )
    assume(not any(null_conflicts(null, pointing) for null in nulls))
    rows = draw(st.integers(1, config.side))
    cols = draw(st.integers(1, config.side))
    assume(rows * cols > len(nulls))
    request = SynthesisRequest(
        pointing=pointing, sll_min_az_db=20.0, sll_min_el_db=20.0,
        eirp_target_dbm=25.0, nulls=nulls,
    )
    tapers = (draw(st.floats(5.0, 40.0)), draw(st.floats(5.0, 40.0)))
    return config, pose, request, (rows, cols, *tapers)


@SETTINGS
@given(scene=candidate_scenes())
def test_factored_candidate_cut_matches_dense_kernel(scene):
    config, pose, request, candidate = scene
    synth = _Synthesizer(request, config, pose)
    entries, x, z = synth._build_entries(*candidate)
    assume(np.max(np.abs(entries)) > 1e-6)
    for plane in ("azimuth", "elevation"):
        angles, gains_db = synth.evaluator.cut_gains_db(plane, x, z)
        dense, ge = _dense_cut_power(entries, config, pose, plane, request.pointing, angles)
        factored = 10.0 ** (gains_db / 10.0) * dense.max()
        bound = np.abs(entries).sum() ** 2 * ge.max()  # see the factored-cut test above
        assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


@SETTINGS
@given(
    m=st.sampled_from([4, 16, 64, 100]),
    units=st.lists(st.tuples(polar, angle), min_size=1, max_size=20).map(
        lambda dirs: np.array([direction_unit(DirectionAngles(*d)) for d in dirs])
    ),
)
def test_axis_factor_recurrence_matches_direct_exponentials(m, units):
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    # the axis extremes carry the largest phases, k x_r u_x with |u_x| = 1
    units = np.vstack([units, np.eye(3), -np.eye(3)])
    x_rows, z_cols = grid_axis_offsets(config)
    jk = 1j * config.wavenumber
    ex, ez = _axis_factors(config, units)
    assert np.max(np.abs(ex - np.exp(jk * np.outer(x_rows, units[:, 0])))) <= 1e-12
    assert np.max(np.abs(ez - np.exp(jk * np.outer(z_cols, units[:, 2])))) <= 1e-12


@settings(SETTINGS, max_examples=300)
@given(
    # integer dB values and a few levels around the threshold make flat runs,
    # repeated peaks and threshold ties common
    gains=st.one_of(
        st.lists(st.floats(-400.0, 10.0, allow_nan=False), min_size=1, max_size=300),
        st.lists(st.integers(-40, 0), min_size=1, max_size=300),
        st.lists(st.sampled_from([-30.0, -7.0, -6.0, 0.0]), min_size=1, max_size=60),
    ).map(lambda values: np.asarray(values, dtype=np.float64))
)
@example(gains=np.array([0.0]))
@example(gains=np.array([-6.0, 0.0, -6.0, -6.0, -3.0]))
@example(gains=np.array([-10.0, -20.0, -10.0, 0.0, 0.0, -20.0, -10.0]))
def test_sll_matches_loop_reference(gains):
    expected = _sll_reference(gains)
    got = _sll_from_gains(gains)
    assert got == expected or (math.isinf(got) and math.isinf(expected))


def test_sll_matches_loop_reference_on_synthesis_cuts():
    rng = np.random.default_rng(7)
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    for _ in range(20):
        pose = Pose(np.zeros(3), RotationAngles(*rng.uniform(-math.pi, math.pi, 3)))
        pointing = DirectionAngles(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        w = rng.normal(size=100) + 1j * rng.normal(size=100)
        for plane in ("azimuth", "elevation"):
            gains = pattern_cut(w, config, pose, plane, pointing).gains_db
            assert _sll_from_gains(gains) == _sll_reference(gains)


def _assert_same_arc(angles, units_arr, point_index, circular):
    got_angles, got_idx = _cut_arc(angles, units_arr, point_index, circular)
    ref_angles, ref_idx = _cut_arc_reference(angles, units_arr, point_index, circular)
    assert np.array_equal(got_idx, ref_idx)
    assert np.array_equal(got_angles, ref_angles)


@settings(SETTINGS, max_examples=300)
@given(n=st.integers(2, 80), circular=st.booleans(), data=st.data())
def test_cut_arc_matches_loop_reference(n, circular, data):
    if circular:
        angles = np.linspace(-math.pi, math.pi, n, endpoint=False)
    else:
        angles = np.linspace(0.0, math.pi, n)
    y = data.draw(
        st.lists(st.sampled_from([-1.0, -1e-13, 0.0, 0.3, 1.0]), min_size=n, max_size=n)
    )
    units_arr = np.zeros((n, 3))
    units_arr[:, 1] = y
    point_index = data.draw(st.integers(0, n - 1))
    _assert_same_arc(angles, units_arr, point_index, circular)


def test_cut_arc_wrapping_and_single_gap_cases():
    n = 12
    angles = np.linspace(-math.pi, math.pi, n, endpoint=False)
    units_arr = np.zeros((n, 3))
    units_arr[:, 1] = 1.0
    for point_index in (0, 1, n - 2, n - 1):  # arcs crossing the +-pi seam
        _assert_same_arc(angles, units_arr, point_index, True)
    # one dropped sample: the arc wraps round the rest of the circle
    flat = np.zeros(n)
    units_arr[5, 1] = -1.0
    for point_index in (0, 4, 6, n - 1):
        _assert_same_arc(flat, units_arr, point_index, True)


def test_cut_arc_matches_loop_reference_on_cut_grids():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rot = rotation_matrix(RotationAngles(*rng.uniform(-math.pi, math.pi, 3)))
        pointing = DirectionAngles(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        for plane in ("azimuth", "elevation"):
            angles, units = _cut_grid(plane, pointing, 0.5)
            point_index = int(rng.integers(angles.size))
            _assert_same_arc(angles, units @ rot, point_index, plane == "azimuth")
