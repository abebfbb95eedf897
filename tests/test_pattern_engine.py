"""Oracles for the factored cut engine and the vectorized cut helpers.

Cut patterns come from real per-axis tables relative to the pointing, cos
and sin of q alpha built by a rotation recurrence, both cuts side by side:
`pattern_cut` expands them into full complex rows and contracts a whole
weight matrix, and the synthesizer scores each candidate through its
factored record (null solve, null responses, one product per axis for both
cuts).  Here they are checked against the dense steering matrix of
`_kernels` (on even and odd sides, with and without nulls), against the
dense least-squares null solve of `tests.helpers` (a candidate's weights
built from full steering vectors) and their pointing response, which is
also solved in extended precision to hold it relative to itself, and against
one direct cosine and sine per entry; a synthesizer's cached axis responses
are checked bit for bit against a fresh one's.  The tables are built in
uninitialised memory, so the entry-by-entry check also shows any entry read
before it is written.  The loop version of
`_sll_from_gains` is kept below as the reference for the vectorized one,
and the dB path is the reference for the SLL the synthesizer finds on
linear power.  The windowed arc build `_cut_arc` is checked for exact
equality against the full-circle chain it replaced, kept here: the whole
cut grid, its array-frame units, and the vectorized arc selection, itself
checked against a loop walk.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uavisac import _kernels, beampattern
from uavisac.beampattern import (
    GRID_STEP_DEG,
    MAIN_LOBE_MIN_DEPTH_DB,
    NullConflictError,
    SynthesisRequest,
    _axis_factors,
    _axis_tables,
    _cut_arc,
    _gains_db,
    _PLANES,
    _sll_from_gains,
    _sll_from_power,
    _Synthesizer,
    chebyshev_taper,
    eirp,
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
    element_gain,
    rotation_matrix,
    steering,
)

# Derandomized and without an example database.  A derandomized test is
# seeded from its own source text, but hypothesis also draws literals that it
# collects from the non-test modules loaded at the time (src/uavisac/*.py,
# and perfbench's modules once a test has imported them).  So the same test
# source draws the same cases only with the same library source and the same
# modules loaded: an edit to src/ alone, or running a test alone rather than
# in the full suite, can redraw them.
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _frame_units(pose, directions):
    """Array-frame units of the directions under a pose, (n, 3).

    beampattern._frame_units takes the pose's rotation matrix; this pose form
    keeps the calling test's source, and so its drawn cases, as they were.
    """
    return beampattern._frame_units(rotation_matrix(pose.angles), directions)


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


def _full_circle_grid(plane, pointing, step_deg=GRID_STEP_DEG):
    """Angle samples and global-frame unit vectors of the whole cut."""
    step = math.radians(step_deg)
    if plane == "azimuth":
        angles = np.arange(-math.pi, math.pi, step)
        theta = pointing.theta
        units = np.column_stack(
            [
                np.cos(angles) * math.sin(theta),
                np.sin(angles) * math.sin(theta),
                np.full_like(angles, math.cos(theta)),
            ]
        )
    else:
        angles = np.arange(0.0, math.pi + step / 2, step)
        phi = pointing.phi
        units = np.column_stack(
            [
                math.cos(phi) * np.sin(angles),
                math.sin(phi) * np.sin(angles),
                np.cos(angles),
            ]
        )
    return angles, units


def _full_circle_select(angles, units_arr, point_index, circular):
    """Vectorized arc selection over the whole cut: (angles, row indices)."""
    n = angles.size
    side = 1.0 if units_arr[point_index, 1] >= 0.0 else -1.0
    keep = side * units_arr[:, 1] >= -1e-12
    delta = angles - angles[point_index]
    if circular:
        delta = np.arctan2(np.sin(delta), np.cos(delta))
    keep &= np.abs(delta) <= math.pi / 2 + 1e-12
    if keep.all():
        return angles, np.arange(n)
    dropped = np.flatnonzero(~keep)
    if not circular:
        before = dropped[dropped < point_index]
        after = dropped[dropped > point_index]
        lo = int(before[-1]) + 1 if before.size else 0
        hi = int(after[0]) - 1 if after.size else n - 1
        idx = np.arange(lo, hi + 1)
        return angles[idx], idx
    # walk outwards around the circle to the first dropped sample on each side;
    # the pointing sample is always kept, so the arc never closes on itself
    lo = point_index - int(((point_index - dropped - 1) % n).min())
    hi = point_index + int(((dropped - point_index - 1) % n).min())
    idx = np.arange(lo, hi + 1) % n
    arc_angles = angles[idx].copy()
    wrapped = np.nonzero(np.diff(arc_angles) < 0)[0]
    if wrapped.size:
        arc_angles[wrapped[0] + 1 :] += 2.0 * math.pi
    return arc_angles, idx


def _full_circle_arc(plane, pointing, rot):
    """The arc build before windowing: every sample's units, then the arc."""
    angles, units = _full_circle_grid(plane, pointing)
    units_arr = units @ rot  # row i is R^T u_i
    if plane == "azimuth":
        point_angle = math.atan2(math.sin(pointing.phi), math.cos(pointing.phi))
        point_index = int(np.argmin(np.abs(angles - point_angle)))
    else:
        point_index = int(np.argmin(np.abs(angles - pointing.theta)))
    arc_angles, idx = _full_circle_select(angles, units_arr, point_index, plane == "azimuth")
    return arc_angles, units_arr[idx]


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
    """Array, pose, pointing and a weight vector, zero outside a rows-by-cols corner block.

    Half of the draws use a phase-steered Chebyshev taper, as the synthesizer
    does; the rest use random complex weights.  Nulls are projected out inside
    the block.
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
        from tests.helpers import dense_null_projection

        w = dense_null_projection(w, config, pose, nulls, active)
    assume(np.max(np.abs(w)) > 1e-6)
    return config, pose, pointing, w


def grid_axis_offsets(config):
    """Centroid-referenced row x coordinates and column z coordinates, (side,) each.

    The layout oracle of the per-axis factors: element m = r * side + c sits
    at (x[r], 0, z[c]) in the centered grid.
    """
    grid = centered_grid_offsets(config).reshape(config.side, config.side, 3)
    return grid[:, 0, 0], grid[0, :, 2]


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
    cut = pattern_cut(w, config, pose, plane, pointing)
    dense, ge = _dense_cut_power(w, config, pose, plane, pointing, cut.angles_rad)
    factored = 10.0 ** (cut.gains_db / 10.0) * dense.max()
    # Relative to the coherent-sum bound (sum |w_m|)^2 max g_e, the scale of
    # either evaluation's phase roundoff: on a cut lying wholly in a deep null
    # the dense reference itself is that far from an extended-precision sum,
    # so the cut's own peak is no fair scale.
    bound = np.abs(w).sum() ** 2 * ge.max()
    assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


@st.composite
def candidate_scenes(draw, sizes=(4, 16, 64, 100)):
    """Synthesis request, pose and one candidate's tapers on an array of one of `sizes` elements."""
    m = draw(st.sampled_from(sizes))
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    pose = Pose(
        position=np.array([0.0, 0.0, 100.0]),
        angles=RotationAngles(draw(angle), draw(angle), draw(angle)),
    )
    pointing = DirectionAngles(draw(polar), draw(angle))
    nulls = tuple(
        DirectionAngles(draw(polar), draw(angle)) for _ in range(draw(st.integers(0, 2)))
    )
    units = _frame_units(pose, (pointing, *nulls))
    assume(not any(null_conflicts(u, units[0], config) for u in units[1:]))
    request = SynthesisRequest(
        pointing=pointing, sll_min_az_db=20.0, sll_min_el_db=20.0,
        eirp_target_dbm=25.0, nulls=nulls,
    )
    tapers = (draw(st.floats(5.0, 40.0)), draw(st.floats(5.0, 40.0)))
    return config, pose, request, tapers


def _candidate(scene):
    """A fresh synthesizer of the scene's request, and the candidate's dense weights."""
    from tests.helpers import dense_candidate_weights

    config, pose, request, (s_az, s_el) = scene
    w = dense_candidate_weights(config, pose, request, s_az, s_el)
    assume(np.max(np.abs(w)) > 1e-6)
    return _Synthesizer(request, config, pose), w


@SETTINGS
@given(scene=candidate_scenes())
def test_factored_candidate_cut_matches_dense_kernel(scene):
    config, pose, request, (s_az, s_el) = scene
    synth, w = _candidate(scene)
    _, terms = synth.score(s_az, s_el)
    for plane in _PLANES:
        angles = synth.evaluator.cuts[plane][0]
        dense, ge = _dense_cut_power(w, config, pose, plane, request.pointing, angles)
        factored = synth.cut_power(terms, plane)
        bound = np.abs(w).sum() ** 2 * ge.max()  # see the factored-cut test above
        assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


def _near_null_scene(phi):
    """A 2x2 array pointed at theta = 1, phi, with one null at theta = 1, phi = 0.5."""
    config = ArrayConfig(num_elements=4, carrier_hz=3e11)
    pose = Pose(position=np.array([0.0, 0.0, 100.0]), angles=RotationAngles(0.0, 0.0, 0.0))
    request = SynthesisRequest(
        pointing=DirectionAngles(1.0, phi), sll_min_az_db=20.0, sll_min_el_db=20.0,
        eirp_target_dbm=25.0, nulls=(DirectionAngles(1.0, 0.5),),
    )
    return config, pose, request, (5.0, 5.0)


@pytest.mark.parametrize("phi", [0.46875, 0.4765625])
def test_nulls_near_the_pointing_in_direction_cosines_conflict(phi):
    # nulls 1.5 and 1.1 degrees off the pointing, but 0.012 and 0.009 from it
    # in array-frame (u_x, u_z), the only part of a direction the aperture
    # sees; they leave 4e-4 and 2e-4 of the unprojected response, which
    # sum(tx) sum(tz) - c . (1^T d_n) missed for the first by 1.1e-12 of
    # itself, and a float64 dense solve for the second by 1.2e-12
    config, pose, request, _ = _near_null_scene(phi)
    with pytest.raises(NullConflictError):
        _Synthesizer(request, config, pose)


@SETTINGS
@given(scene=candidate_scenes())
# the nearest of these scenes that the conflict rule admits: a null 2.1
# degrees off the pointing, 0.018 from it in (u_x, u_z), leaving 8e-4 of
# the unprojected response
@example(scene=_near_null_scene(0.453125))
def test_factored_pointing_response_matches_projected_weights(scene):
    """The pointing response to 1e-12 of itself, against the dense solve in extended precision.

    A null near the pointing leaves a response far below the terms it is the
    difference of, so the float64 dense weights are held to 1e-12 of the
    coherent-sum bound only, as in the odd-side test below.
    """
    from tests.helpers import dense_pointing_response

    config, pose, request, (s_az, s_el) = scene
    synth, w = _candidate(scene)
    af_point, _ = synth.score(s_az, s_el)
    want = dense_pointing_response(config, pose, request, s_az, s_el)
    assert abs(af_point - want) <= 1e-12 * abs(want)
    dense = np.vdot(steering(config, _frame_units(pose, [request.pointing])[0]), w)
    assert abs(af_point - dense) <= 1e-12 * np.abs(w).sum()


@SETTINGS
@given(scene=candidate_scenes())
def test_returned_weights_are_the_scored_candidate(scene):
    """The weights built for a scored candidate are its dense weights, normalised.

    They come from the null coefficients and pointing array factor that
    scoring solved, so they must match the dense least-squares solve, and
    their EIRP toward the pointing must re-derive.  The unprojected weights
    peak at 1 (max-normalised tapers), which sets the scale of the roundoff.
    """
    config, pose, request, (s_az, s_el) = scene
    synth, w = _candidate(scene)
    assert synth._evaluate(s_az, s_el)
    weights, eirp_dbm = synth._weights(synth.best)
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs(weights.entries * scale - w)) <= 1e-12
    assert eirp(weights, config, pose, request.pointing) == pytest.approx(eirp_dbm, abs=1e-9)


@settings(SETTINGS, max_examples=40)
@given(scene=candidate_scenes(), steps=st.lists(
    st.tuples(st.booleans(), st.floats(5.0, 40.0)), min_size=1, max_size=6
))
def test_cached_axis_responses_match_a_fresh_block(scene, steps):
    """A synthesizer scoring a coordinate walk matches a fresh one per candidate, bit for bit.

    Each step moves one taper, as the refinement does, so the other axis's
    responses come from the synthesizer's cache.
    """
    config, pose, request, (s_az, s_el) = scene
    synth, _ = _candidate(scene)
    synth.score(s_az, s_el)
    for move_az, value in steps:
        s_az, s_el = (value, s_el) if move_az else (s_az, value)
        af_point, terms = synth.score(s_az, s_el)
        fresh = _Synthesizer(request, config, pose)
        fresh_point, fresh_terms = fresh.score(s_az, s_el)
        assert af_point == fresh_point
        for plane in _PLANES:
            want = fresh.cut_power(fresh_terms, plane)
            assert np.array_equal(synth.cut_power(terms, plane), want)


@SETTINGS
@given(
    m=st.sampled_from([1, 4, 9, 16, 25, 64, 81, 100]),
    units=st.lists(st.tuples(polar, angle), min_size=1, max_size=20).map(
        lambda dirs: np.array([direction_unit(DirectionAngles(*d)) for d in dirs])
    ),
    pointing=st.tuples(polar, angle),
)
def test_axis_factor_recurrence_matches_direct_exponentials(m, units, pointing):
    """The real tables are cos and sin of q alpha, the axis factors exp(-j k x u).

    Both are built by a rotation recurrence from one exponential per sample;
    here every row is checked against its own direct evaluation.
    """
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    side = config.side
    # the axis extremes carry the largest phases, with |u_x| = |u_z| = 1
    units = np.vstack([units, np.eye(3), -np.eye(3)])
    point = direction_unit(DirectionAngles(*pointing))
    tables = _axis_tables(config, point, units)
    # one allocation holds both axes, as the module's Factor memory note requires
    assert tables[0].base is tables[1].base
    half = side - side // 2
    q = 2 * (side // 2 + np.arange(half)) - (side - 1)
    amplitude = np.sqrt(element_gain(units))
    for (cos, sin), col, amp in zip(tables, (0, 2), (1.0, amplitude)):
        alpha = 0.5 * config.wavenumber * config.spacing_m * (point[col] - units[:, col])
        assert np.max(np.abs(cos - np.cos(np.outer(q, alpha)) * amp)) <= 1e-12
        assert np.max(np.abs(sin - np.sin(np.outer(q, alpha)) * amp)) <= 1e-12
        if side % 2:
            # the centre row, q = 0, is the amplitude alone
            assert np.all(cos[0] == amp) and np.all(sin[0] == 0.0)
    # the synthesizer's pointing and null factors, mirror rows exact conjugates
    x_rows, z_cols = grid_axis_offsets(config)
    jk = 1j * config.wavenumber
    ex, ez = _axis_factors(config, units)
    assert np.max(np.abs(ex - np.exp(-jk * np.outer(x_rows, units[:, 0])))) <= 1e-12
    assert np.max(np.abs(ez - np.exp(-jk * np.outer(z_cols, units[:, 2])))) <= 1e-12
    for f in (ex, ez):
        assert np.all(f[: side // 2] == np.conj(f[::-1][: side // 2]))
        if side % 2:
            assert np.all(f[side // 2] == 1.0)


@SETTINGS
@given(scene=candidate_scenes(sizes=(9, 25, 81)))
# two nulls 1.5e-15 rad apart, one null to the dense solve: a basis kept down
# to 1e-15 of its largest singular value solved with both and was 0.146 off
@example(scene=(
    ArrayConfig(num_elements=9, carrier_hz=3e11),
    Pose(position=np.array([0.0, 0.0, 100.0]), angles=RotationAngles(0.0, 0.0, 0.0)),
    SynthesisRequest(
        pointing=DirectionAngles(1.0, 0.0), sll_min_az_db=20.0, sll_min_el_db=20.0,
        eirp_target_dbm=25.0,
        nulls=(DirectionAngles(0.0, 0.0), DirectionAngles(1.5297812113742726e-15, 0.0)),
    ),
    (5.0, 5.0),
))
def test_odd_sides_match_dense_kernel(scene):
    """Candidate cuts, the pointing response and `pattern_cut` against the dense kernel on odd sides.

    The synthesizer's own searches run on an even side; an odd one reaches
    the other branch of the fold, a centre row that counts once.  All three
    are held to 1e-12 of the coherent-sum bound, as in the factored-cut test
    above.
    """
    config, pose, request, (s_az, s_el) = scene
    synth, w = _candidate(scene)
    af_point, terms = synth.score(s_az, s_el)
    want = np.vdot(steering(config, _frame_units(pose, [request.pointing])[0]), w)
    assert abs(af_point - want) <= 1e-12 * np.abs(w).sum()
    for plane in _PLANES:
        angles = synth.evaluator.cuts[plane][0]
        dense, ge = _dense_cut_power(w, config, pose, plane, request.pointing, angles)
        bound = np.abs(w).sum() ** 2 * ge.max()
        assert np.max(np.abs(synth.cut_power(terms, plane) - dense)) <= 1e-12 * bound
        cut = pattern_cut(w, config, pose, plane, request.pointing)
        assert np.array_equal(cut.angles_rad, angles)
        factored = 10.0 ** (cut.gains_db / 10.0) * dense.max()
        assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


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


def _assert_linear_sll_matches_db(power):
    """SLL of a linear cut power against the dB path's, to 1e-12 dB; infinities exactly."""
    want = _sll_from_gains(_gains_db(power))
    got = _sll_from_power(power.copy())
    if math.isinf(want) or math.isinf(got):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12
    return got


@settings(SETTINGS, max_examples=300)
@given(
    # flat runs, repeated peaks, zeros, and levels beyond the 400 dB floor are
    # drawn; a sample within roundoff of the 6 dB threshold is not, since the
    # two forms round that compare differently
    power=st.lists(
        st.one_of(
            st.floats(0.0, 1e3),
            st.sampled_from([0.0, 0.25, 1.0, 4.0]),
            st.floats(-450.0, 10.0).map(lambda db: 10.0 ** (db / 10.0)),
        ),
        min_size=1,
        max_size=300,
    ).map(lambda values: np.asarray(values, dtype=np.float64))
)
@example(power=np.zeros(40))  # a null cut
@example(power=np.array([0.1, 0.5, 1.0, 0.5, 0.1]))  # a single lobe
@example(power=np.array([0.05, 0.01, 1.0, 0.01, 0.05]))  # one sidelobe each side
@example(power=np.array([1e-50, 1e-60, 1.0, 1e-60]))  # a dip below the floor
def test_linear_sll_matches_db_sll(power):
    _assert_linear_sll_matches_db(power)


def test_linear_sll_matches_db_sll_on_synthesis_cuts():
    from tests.helpers import random_null_scene

    rng = np.random.default_rng(5)
    config = ArrayConfig(num_elements=100, carrier_hz=3e11)
    finite = 0
    for i in range(100):
        pose, pointing, nulls = random_null_scene(rng)
        request = SynthesisRequest(
            pointing=pointing, sll_min_az_db=20.0, sll_min_el_db=20.0,
            eirp_target_dbm=25.0, nulls=nulls[: i % 3],
        )
        synth = _Synthesizer(request, config, pose)
        _, terms = synth.score(*rng.uniform(5.0, 40.0, 2))
        for plane in _PLANES:
            finite += math.isfinite(_assert_linear_sll_matches_db(synth.cut_power(terms, plane)))
    assert finite == 200


def _assert_same_arc(angles, units_arr, point_index, circular):
    got_angles, got_idx = _full_circle_select(angles, units_arr, point_index, circular)
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
            angles, units = _full_circle_grid(plane, pointing, 0.5)
            point_index = int(rng.integers(angles.size))
            _assert_same_arc(angles, units @ rot, point_index, plane == "azimuth")


IDENTITY = (0.0, 0.0, 0.0)


def _assert_arc_matches_full_circle(pose_angles, pointing):
    rot = rotation_matrix(RotationAngles(*pose_angles))
    pointing = DirectionAngles(*pointing)
    for plane in ("azimuth", "elevation"):
        want_angles, want_units = _full_circle_arc(plane, pointing, rot)
        got_angles, got_units = _cut_arc(plane, pointing, rot)
        assert np.array_equal(got_angles, want_angles)
        assert np.array_equal(got_units, want_units)
        assert np.array_equal(element_gain(got_units), element_gain(want_units))


@SETTINGS
@given(pose_angles=st.tuples(angle, angle, angle), pointing=st.tuples(polar, angle))
# pointings at the phi = +-pi seam
@example(pose_angles=(0.3, -0.2, 0.1), pointing=(1.2, math.pi))
@example(pose_angles=(0.3, -0.2, 0.1), pointing=(1.2, -math.pi))
@example(pose_angles=(-2.0, 0.4, 1.1), pointing=(2.0, math.nextafter(math.pi, 0.0)))
@example(pose_angles=(-2.0, 0.4, 1.1), pointing=(0.7, -math.pi + 1e-4))
@example(pose_angles=(1.0, 1.0, 1.0), pointing=(1.0, math.pi))
# theta at the poles and on the horizon
@example(pose_angles=(0.5, 0.5, 0.5), pointing=(0.0, 0.3))
@example(pose_angles=(0.5, 0.5, 0.5), pointing=(math.pi / 2, 0.3))
@example(pose_angles=(0.5, 0.5, 0.5), pointing=(math.pi, 0.3))
# pointing samples on the aperture plane (u_y = 0 exactly at theta = 0 and pi)
@example(pose_angles=IDENTITY, pointing=(0.0, math.pi / 2))
@example(pose_angles=IDENTITY, pointing=(math.pi, -math.pi / 2))
@example(pose_angles=IDENTITY, pointing=(math.pi / 2, 0.0))
@example(pose_angles=IDENTITY, pointing=(math.pi / 2, math.pi))
def test_cut_arc_matches_full_circle_reference(pose_angles, pointing):
    _assert_arc_matches_full_circle(pose_angles, pointing)


def test_cut_arc_matches_full_circle_reference_at_a_single_gap():
    """The half-space test drops a single sample 20 samples from the pointing.

    The arc must then start just past that gap, well inside the window, and
    the window itself wraps round the seam.  Yaw turns the aperture normal
    about z, so a yaw is chosen that puts the azimuth cut's lowest array-frame
    u_y on a grid sample, and theta one that makes that lowest value -1e-9:
    the sample fails the half-space test by far more than its tolerance,
    while its neighbours pass.
    """
    angles = np.arange(-math.pi, math.pi, math.radians(GRID_STEP_DEG))
    gap, point = 5, 25  # the gap sample is 20 samples from the pointing
    normal = rotation_matrix(RotationAngles(0.0, 0.4, 0.3))[:, 1]
    alpha = angles[gap] + math.pi - math.atan2(normal[1], normal[0])
    rho = math.hypot(normal[0], normal[1])
    theta = math.acos(-1e-9) - math.atan2(rho, normal[2])
    pose_angles = (math.remainder(alpha, 2 * math.pi), 0.4, 0.3)
    rot = rotation_matrix(RotationAngles(*pose_angles))
    _, units = _full_circle_grid("azimuth", DirectionAngles(theta, 0.0))
    dropped = np.flatnonzero((units @ rot)[:, 1] < -1e-12)
    assert dropped.tolist() == [gap]
    _assert_arc_matches_full_circle(pose_angles, (theta, angles[point]))
    got_angles, _ = _cut_arc("azimuth", DirectionAngles(theta, angles[point]), rot)
    assert got_angles[0] == angles[gap + 1]
