"""Oracles for the factored cut engine and the vectorized cut helpers.

Cut patterns come from real per-axis tables relative to the pointing, cos
and sin of q alpha built by a rotation recurrence, both cuts side by side:
`pattern_cut` folds a whole weight matrix, made pointing-relative, onto
them, and the synthesizer scores each candidate through its
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
linear power.  The arc build `_cut_arc`, its trig by angle addition from
one shared offset table, is checked against the whole cut centred on the
pointing, built with a direct cosine and sine per sample: the same angles
exactly, the same array-frame units to roundoff, and the same samples kept
by the vectorized half-space selection, itself checked against a loop walk.

Each property test (see `over`) loops over seeded case lists: explicit
examples, then `count` accepted draws, draw i from `np.random.default_rng(i)`
alone, so the cases depend on nothing else (`test_case_lists_are_pinned`
holds them to a digest).  A failure names its seed; to re-run seed 17 of the
candidate-cut test alone:

    PYTHONPATH=src python -c 'import numpy as np; from tests.test_pattern_engine import *;
        test_factored_candidate_cut_matches_dense_kernel.check(
            *candidate_scene(*draw_candidate(np.random.default_rng(17))))'
"""

import hashlib
import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

from tests.helpers import dense_candidate_weights, dense_null_projection, dense_pointing_response
from uavisac import _kernels
from uavisac.beampattern import (
    GRID_STEP_DEG,
    MAIN_LOBE_MIN_DEPTH_DB,
    NullConflictError,
    SynthesisRequest,
    _axis_tables,
    _cut_arc,
    _gains_db,
    _HALF_ARC,
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
    array_frame_unit,
    centered_grid_offsets,
    direction_unit,
    element_gain,
    offset_direction,
    rotation_matrix,
    steering,
)

IDENTITY = (0.0, 0.0, 0.0)


class Cases(NamedTuple):
    """A case list: the `examples`, then `count` accepted draws."""

    count: int
    draw: Callable  # rng -> a case's primitives, as plain Python values
    build: Callable | None = None  # primitives -> case, or None to reject; unset: as drawn
    examples: tuple = ()  # primitives, as drawn


def _drawn(*case_lists):
    """(seed, primitives, case) of each list's examples, seed None, then accepted draws."""
    for cases in case_lists:
        build = cases.build or (lambda *prims: prims)
        for prims in cases.examples:
            yield None, prims, build(*prims)
        seed = accepted = 0
        while accepted < cases.count:
            prims = cases.draw(np.random.default_rng(seed))
            case = build(*prims)
            if case is not None:
                accepted += 1
                yield seed, prims, case
            seed += 1


def over(*case_lists):
    """One test running the decorated check on every case; a failure names its seed."""

    def decorate(check):
        def test():
            for seed, prims, case in _drawn(*case_lists):
                try:
                    check(*case)
                except Exception as exc:
                    raise AssertionError(f"seed {seed}, primitives {prims!r}") from exc

        test.__name__, test.__doc__ = check.__name__, check.__doc__
        test.check, test.case_lists = check, case_lists
        return test

    return decorate


def _direction(rng):
    """(theta, phi) drawn on [0, pi] x [-pi, pi]."""
    return rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)


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


def _cut_units(plane, pointing, angles):
    """Global-frame unit vectors of a cut's angle samples, (n, 3)."""
    if plane == "azimuth":
        sin_t = math.sin(pointing.theta)
        cos_t = np.full_like(angles, math.cos(pointing.theta))
        return np.column_stack([np.cos(angles) * sin_t, np.sin(angles) * sin_t, cos_t])
    cos_p, sin_p, sin_a = math.cos(pointing.phi), math.sin(pointing.phi), np.sin(angles)
    return np.column_stack([cos_p * sin_a, sin_p * sin_a, np.cos(angles)])


def _arc_centre(pointing):
    """(theta, phi) of the pointing's direction with theta on [0, pi], _cut_arc's centre rule."""
    sin_theta = math.sin(pointing.theta)
    sin_phi, cos_phi = math.sin(pointing.phi), math.cos(pointing.phi)
    if sin_theta < 0.0:
        sin_phi, cos_phi = -sin_phi, -cos_phi
    return DirectionAngles(math.atan2(abs(sin_theta), math.cos(pointing.theta)),
                           math.atan2(sin_phi, cos_phi))


def _full_circle(plane, pointing, rot, step_deg=GRID_STEP_DEG):
    """The whole cut centred on the pointing: angles, array-frame units, the pointing's index.

    Sample k sits k steps from the pointing's own angle, for k up to 180
    degrees each side; the elevation cut keeps theta on [0, pi].  The cut
    never wraps, and its units take one np.cos and np.sin per sample.
    """
    centre = _arc_centre(pointing)
    half_turn = round(180.0 / step_deg)
    k = np.arange(-half_turn, half_turn + 1)
    angles = (centre.phi if plane == "azimuth" else centre.theta) + k * math.radians(step_deg)
    if plane == "elevation":
        inside = (angles >= 0.0) & (angles <= math.pi)
        k, angles = k[inside], angles[inside]
    return angles, _cut_units(plane, centre, angles) @ rot, int(np.flatnonzero(k == 0)[0])


def _arc_keep(angles, units_arr, point_index):
    """Samples within 90 degrees of the pointing's and in its half-space."""
    side = 1.0 if units_arr[point_index, 1] >= 0.0 else -1.0
    keep = side * units_arr[:, 1] >= -1e-12
    return keep & (np.abs(angles - angles[point_index]) <= math.pi / 2 + 1e-12)


def _full_circle_select(angles, units_arr, point_index):
    """Vectorized arc selection over the whole cut: (angles, row indices)."""
    dropped = np.flatnonzero(~_arc_keep(angles, units_arr, point_index))
    before = dropped[dropped < point_index]
    after = dropped[dropped > point_index]
    lo = int(before[-1]) + 1 if before.size else 0
    hi = int(after[0]) if after.size else angles.size
    idx = np.arange(lo, hi)
    return angles[idx], idx


def _full_circle_arc(plane, pointing, rot):
    """The arc selected from the whole cut: (angles, array-frame units)."""
    angles, units_arr, point_index = _full_circle(plane, pointing, rot)
    arc_angles, idx = _full_circle_select(angles, units_arr, point_index)
    return arc_angles, units_arr[idx]


def _cut_arc_reference(angles, units_arr, point_index):
    keep = _arc_keep(angles, units_arr, point_index)
    lo = point_index
    while lo > 0 and keep[lo - 1]:
        lo -= 1
    hi = point_index
    while hi < angles.size - 1 and keep[hi + 1]:
        hi += 1
    idx = np.arange(lo, hi + 1)
    return angles[idx], idx


def _dense_cut_power(weights, config, pose, plane, pointing, angles):
    """Cut power and element gain from the full steering matrix of the cut directions."""
    units_arr = _cut_units(plane, pointing, angles) @ rotation_matrix(pose.angles)
    emat = _kernels.steering_matrix(units_arr, centered_grid_offsets(config), config.wavenumber)
    ge = ((1.0 + units_arr[:, 1]) / 2.0) ** 2
    return _kernels.cut_power(emat, weights) * ge, ge


def scene_objects(m, pose_angles, pointing, nulls):
    """Array, pose and synthesis request of a scene's primitives."""
    request = SynthesisRequest(
        pointing=DirectionAngles(*pointing), sll_min_az_db=20.0, sll_min_el_db=20.0,
        eirp_target_dbm=25.0, nulls=tuple(DirectionAngles(*n) for n in nulls),
    )
    pose = Pose(position=np.array([0.0, 0.0, 100.0]), angles=RotationAngles(*pose_angles))
    return ArrayConfig(num_elements=m, carrier_hz=3e11), pose, request


def draw_candidate(rng, sizes=(4, 16, 64, 100)):
    """Array size, pose angles, pointing, 0-2 nulls and two taper SLLs in dB."""
    m = sizes[rng.integers(len(sizes))]
    pose_angles, pointing = tuple(rng.uniform(-math.pi, math.pi, 3).tolist()), _direction(rng)
    nulls = tuple(_direction(rng) for _ in range(rng.integers(3)))
    return m, pose_angles, pointing, nulls, tuple(rng.uniform(5.0, 40.0, 2).tolist())


def draw_weights(rng):
    """A candidate's primitives, a rows-by-cols corner block, a weight seed or None, a plane."""
    prims = draw_candidate(rng)
    block = tuple(rng.integers(1, math.isqrt(prims[0]), 2, endpoint=True).tolist())
    seed = int(rng.integers(2**32)) if rng.integers(2) else None
    return (*prims, block, seed, _PLANES[rng.integers(2)])


def weight_scene(m, pose_angles, pointing, nulls, tapers, block, seed, plane):
    """Array, pose, pointing, weights zero outside the block with nulls projected out, plane.

    Without a seed the block holds a phase-steered Chebyshev taper, as the
    synthesizer does; with one, random complex weights.
    """
    rows, cols = block
    if rows * cols <= len(nulls):
        return None
    config, pose, request = scene_objects(m, pose_angles, pointing, nulls)
    side = config.side
    mi = np.arange(m)
    active = (mi // side < rows) & (mi % side < cols)
    if seed is None:
        tx = chebyshev_taper(rows, tapers[0]) if rows > 1 else np.ones(1)
        tz = chebyshev_taper(cols, tapers[1]) if cols > 1 else np.ones(1)
        amp = np.zeros(m)
        amp[active] = tx[mi[active] // side] * tz[mi[active] % side]
        unit = array_frame_unit(rotation_matrix(pose.angles), request.pointing)
        w = amp * np.exp(1j * config.wavenumber * (centered_grid_offsets(config) @ unit))
    else:
        rng = np.random.default_rng(seed)
        w = np.where(active, rng.normal(size=m) + 1j * rng.normal(size=m), 0.0)
    w = dense_null_projection(w, config, pose, request.nulls, active)
    return (config, pose, request.pointing, w, plane) if np.max(np.abs(w)) > 1e-6 else None


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


@over(Cases(100, draw_weights, weight_scene))
def test_factored_cut_matches_dense_kernel(config, pose, pointing, w, plane):
    cut = pattern_cut(w, config, pose, plane, pointing)
    dense, ge = _dense_cut_power(w, config, pose, plane, pointing, cut.angles_rad)
    factored = 10.0 ** (cut.gains_db / 10.0) * dense.max()
    # Relative to the coherent-sum bound (sum |w_m|)^2 max g_e, the scale of
    # either evaluation's phase roundoff: on a cut lying wholly in a deep null
    # the dense reference itself is that far from an extended-precision sum,
    # so the cut's own peak is no fair scale.
    bound = np.abs(w).sum() ** 2 * ge.max()
    assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


def candidate_scene(m, pose_angles, pointing, nulls, tapers, *rest):
    """Array, pose, request, taper SLLs, the candidate's dense weights, then `rest`.

    None when a null conflicts with the pointing or the weights vanish.
    """
    config, pose, request = scene_objects(m, pose_angles, pointing, nulls)
    rot = rotation_matrix(pose.angles)
    point = array_frame_unit(rot, request.pointing)
    if any(null_conflicts(array_frame_unit(rot, n), point, config) for n in request.nulls):
        return None
    w = dense_candidate_weights(config, pose, request, *tapers)
    return (config, pose, request, tapers, w, *rest) if np.max(np.abs(w)) > 1e-6 else None


CANDIDATES = Cases(100, draw_candidate, candidate_scene)


@over(CANDIDATES)
def test_factored_candidate_cut_matches_dense_kernel(config, pose, request, tapers, w):
    synth = _Synthesizer(request, config, pose)
    _, terms = synth.score(*tapers)
    for plane in _PLANES:
        angles = synth.evaluator.cuts[plane][0]
        dense, ge = _dense_cut_power(w, config, pose, plane, request.pointing, angles)
        factored = synth.cut_power(terms, plane)
        bound = np.abs(w).sum() ** 2 * ge.max()  # see the factored-cut test above
        assert np.max(np.abs(factored - dense)) <= 1e-12 * bound


def _near_null_scene(phi):
    """Primitives of a 2x2 array pointed at theta = 1, phi, with a null at theta = 1, phi = 0.5."""
    return 4, IDENTITY, (1.0, phi), ((1.0, 0.5),)


@pytest.mark.parametrize("phi", [0.46875, 0.4765625])
def test_nulls_near_the_pointing_in_direction_cosines_conflict(phi):
    # nulls 1.5 and 1.1 degrees off the pointing, but 0.012 and 0.009 from it
    # in array-frame (u_x, u_z), the only part of a direction the aperture
    # sees; they leave 4e-4 and 2e-4 of the unprojected response, which
    # sum(tx) sum(tz) - c . (1^T d_n) missed for the first by 1.1e-12 of
    # itself, and a float64 dense solve for the second by 1.2e-12
    config, pose, request = scene_objects(*_near_null_scene(phi))
    with pytest.raises(NullConflictError):
        _Synthesizer(request, config, pose)


def draw_near_null(rng):
    """draw_candidate's primitives with 1-2 nulls as (offset, bearing) from the pointing.

    Offsets are drawn on [1, 18] degrees, bearings on [-pi, pi].
    """
    m, pose_angles, pointing, _, tapers = draw_candidate(rng)
    offsets = tuple(
        (rng.uniform(1.0, 18.0), rng.uniform(-math.pi, math.pi)) for _ in range(rng.integers(1, 3))
    )
    return m, pose_angles, pointing, offsets, tapers


def near_null_scene(m, pose_angles, pointing, offsets, tapers):
    """candidate_scene with each null `offset` degrees from the pointing along `bearing`.

    The bearing turns from the direction of increasing theta toward that of
    increasing phi.  The scene is kept only where the 1e-12 bound can hold:
    rounding each component of its array-frame units by a relative eps
    moves the extended-precision pointing response by under 1e-13 of itself,
    to first order (finite differences of 1e-9).  Two nulls near the pointing
    and near each other can leave a response that such rounding moves by
    1e-12 of itself or more, and rounding of that size inside a float64
    evaluation then misses the bound as well.
    """
    theta, phi = pointing
    e_theta = np.array([math.cos(phi) * math.cos(theta), math.sin(phi) * math.cos(theta),
                        -math.sin(theta)])
    e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
    nulls = []
    for offset, bearing in offsets:
        arc = math.radians(offset)
        toward = math.cos(bearing) * e_theta + math.sin(bearing) * e_phi
        unit = math.cos(arc) * direction_unit(DirectionAngles(*pointing)) + math.sin(arc) * toward
        nulls.append(offset_direction(unit)[1])
    scene = candidate_scene(m, pose_angles, pointing, nulls, tapers)
    if scene is None:
        return None
    config, pose, request = scene[:3]
    rot = rotation_matrix(pose.angles)
    units = np.array([array_frame_unit(rot, d) for d in (request.pointing, *request.nulls)])
    want = dense_pointing_response(config, pose, request, *tapers)
    step, bound = 1e-9, 0.0
    for i in range(len(units)):
        for col in (0, 2):
            moved = units.copy()
            moved[i, col] += step
            change = dense_pointing_response(config, pose, request, *tapers, units=moved) - want
            bound += abs(change) / step * abs(units[i, col]) * np.finfo(np.float64).eps
    return scene if bound < 1e-13 * abs(want) else None


@over(
    # the nearest of the 2x2 scenes above that the conflict rule admits: a
    # null 2.1 degrees off the pointing, 0.018 from it in (u_x, u_z), leaving
    # 8e-4 of the unprojected response
    CANDIDATES._replace(examples=[(*_near_null_scene(0.453125), (5.0, 5.0))]),
    # nulls near the pointing on every array size: sum(tx) sum(tz) -
    # c . (1^T d_n), the pointing response before its rewrite for near nulls,
    # misses 6 of these (all 2x2, two nulls) by 1.2e-12 to 5.2e-12 of themselves
    Cases(400, draw_near_null, near_null_scene),
)
def test_factored_pointing_response_matches_projected_weights(config, pose, request, tapers, w):
    """The pointing response to 1e-12 of itself, against the dense solve in extended precision.

    A null near the pointing leaves a response far below the terms it is the
    difference of, so the float64 dense weights are held to 1e-12 of the
    coherent-sum bound only, as in the odd-side test below.
    """
    synth = _Synthesizer(request, config, pose)
    af_point, _ = synth.score(*tapers)
    want = dense_pointing_response(config, pose, request, *tapers)
    assert abs(af_point - want) <= 1e-12 * abs(want)
    point = array_frame_unit(rotation_matrix(pose.angles), request.pointing)
    assert abs(af_point - np.vdot(steering(config, point), w)) <= 1e-12 * np.abs(w).sum()


@over(CANDIDATES)
def test_returned_weights_are_the_scored_candidate(config, pose, request, tapers, w):
    """The weights built for a scored candidate are its dense weights, normalised.

    They come from the null coefficients and pointing array factor that
    scoring solved, so they must match the dense least-squares solve, and
    their EIRP toward the pointing must re-derive.  The unprojected weights
    peak at 1 (max-normalised tapers), which sets the scale of the roundoff.
    """
    synth = _Synthesizer(request, config, pose)
    assert synth._evaluate(*tapers)
    weights, eirp_dbm = synth._weights(synth.best)
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs(weights.entries * scale - w)) <= 1e-12
    assert eirp(weights, config, pose, request.pointing) == pytest.approx(eirp_dbm, abs=1e-9)


def draw_walk(rng):
    """draw_candidate's primitives and 1-6 steps (move the azimuth taper?, SLL in dB)."""
    prims = draw_candidate(rng)
    steps = ((bool(rng.integers(2)), rng.uniform(5.0, 40.0)) for _ in range(rng.integers(1, 7)))
    return (*prims, tuple(steps))


@over(Cases(40, draw_walk, candidate_scene))
def test_cached_axis_responses_match_a_fresh_block(config, pose, request, tapers, w, steps):
    """A synthesizer scoring a coordinate walk matches a fresh one per candidate, bit for bit.

    Each step moves one taper, as the refinement does, so the other axis's
    responses come from the synthesizer's cache.
    """
    s_az, s_el = tapers
    synth = _Synthesizer(request, config, pose)
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


def draw_directions(rng):
    """An array size, 1-20 sample directions and a pointing."""
    m = (1, 4, 9, 16, 25, 64, 81, 100)[rng.integers(8)]
    return m, tuple(_direction(rng) for _ in range(rng.integers(1, 21))), _direction(rng)


@over(Cases(100, draw_directions))
def test_axis_factor_recurrence_matches_direct_exponentials(m, directions, pointing):
    """The real tables are cos and sin of q alpha, the null phasors exp(j k x (u - p)).

    The tables are built by a rotation recurrence from one cosine and one
    sine per sample, the synthesizer's null phasors relative to the pointing
    p from half-angle sines; here every row is checked against its own direct
    evaluation.
    """
    config = ArrayConfig(num_elements=m, carrier_hz=3e11)
    side = config.side
    # the axis extremes carry the largest phases, with |u_x| = |u_z| = 1
    units = np.array([direction_unit(DirectionAngles(*d)) for d in directions])
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
    # the synthesizer's null phasors relative to the pointing, mirror rows
    # exact conjugates, as the real fold needs: the drawn directions that do
    # not conflict with the pointing serve as nulls
    free = [not null_conflicts(u, point, config) for u in units[: len(directions)]]
    nulls = [d for d, keep in zip(directions, free) if keep][: m - 1]
    if not nulls:
        return
    _, pose, request = scene_objects(m, IDENTITY, pointing, nulls)
    synth = _Synthesizer(request, config, pose)
    null_units = units[: len(directions)][free][: m - 1]
    x_rows, z_cols = grid_axis_offsets(config)
    jk = 1j * config.wavenumber
    dx, dz = synth.null_x, synth.null_z
    assert np.max(np.abs(dx - np.exp(jk * np.outer(x_rows, null_units[:, 0] - point[0])))) <= 1e-12
    assert np.max(np.abs(dz - np.exp(jk * np.outer(z_cols, null_units[:, 2] - point[2])))) <= 1e-12
    for f in (dx, dz):
        assert np.all(f[: side // 2] == np.conj(f[::-1][: side // 2]))
        if side % 2:
            assert np.all(f[side // 2] == 1.0)


@over(CANDIDATES._replace(draw=partial(draw_candidate, sizes=(9, 25, 81)), examples=[
    # two nulls 1.5e-15 rad apart, one null to the dense solve: a basis kept
    # down to 1e-15 of its largest singular value solved with both and was
    # 0.146 off
    (9, IDENTITY, (1.0, 0.0), ((0.0, 0.0), (1.5297812113742726e-15, 0.0)), (5.0, 5.0)),
]))
def test_odd_sides_match_dense_kernel(config, pose, request, tapers, w):
    """Candidate cuts, the pointing response and `pattern_cut` against the dense kernel on odd sides.

    The synthesizer's own searches run on an even side; an odd one reaches
    the other branch of the fold, a centre row that counts once.  All three
    are held to 1e-12 of the coherent-sum bound, as in the factored-cut test
    above.
    """
    synth = _Synthesizer(request, config, pose)
    af_point, terms = synth.score(*tapers)
    point = array_frame_unit(rotation_matrix(pose.angles), request.pointing)
    want = np.vdot(steering(config, point), w)
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


def draw_gains(rng):
    """dB gains: floats, integers, or up to 60 of four levels round the threshold.

    The last two make flat runs, repeated peaks and threshold ties common.
    """
    family = rng.integers(3)
    if family == 2:
        return (rng.choice([-30.0, -7.0, -6.0, 0.0], rng.integers(1, 61)).tolist(),)
    n = rng.integers(1, 301)
    return ((rng.uniform(-400.0, 10.0, n) if family == 0 else rng.integers(-40, 1, n)).tolist(),)


@over(Cases(300, draw_gains, examples=[
    ([0.0],),
    ([-6.0, 0.0, -6.0, -6.0, -3.0],),
    ([-10.0, -20.0, -10.0, 0.0, 0.0, -20.0, -10.0],),
]))
def test_sll_matches_loop_reference(values):
    gains = np.asarray(values, dtype=np.float64)
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


def draw_power(rng):
    """Power samples on [0, 1e3], at four levels, or in dB (indices `db`) down past the floor.

    No family puts a sample within roundoff of the 6 dB threshold, which the
    two forms compare differently.
    """
    n = rng.integers(1, 301)
    family = rng.integers(3, size=n)
    values = np.where(family == 0, rng.uniform(0.0, 1e3, n), rng.choice([0.0, 0.25, 1.0, 4.0], n))
    values = np.where(family == 2, rng.uniform(-450.0, 10.0, n), values)
    return values.tolist(), np.flatnonzero(family == 2).tolist()


@over(Cases(300, draw_power, examples=[
    ([0.0] * 40,),  # a null cut
    ([0.1, 0.5, 1.0, 0.5, 0.1],),  # a single lobe
    ([0.05, 0.01, 1.0, 0.01, 0.05],),  # one sidelobe each side
    ([1e-50, 1e-60, 1.0, 1e-60],),  # a dip below the floor
]))
def test_linear_sll_matches_db_sll(values, db=()):
    power = np.asarray(values, dtype=np.float64)
    power[list(db)] = 10.0 ** (power[list(db)] / 10.0)
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


def draw_arc(rng):
    """A cut size, each sample's u_y among five levels, and the pointing index."""
    n = rng.integers(2, 81)
    y = rng.choice([-1.0, -1e-13, 0.0, 0.3, 1.0], n).tolist()
    return int(n), y, int(rng.integers(n))


def _assert_same_arc(angles, units_arr, point_index):
    got_angles, got_idx = _full_circle_select(angles, units_arr, point_index)
    ref_angles, ref_idx = _cut_arc_reference(angles, units_arr, point_index)
    assert np.array_equal(got_idx, ref_idx)
    assert np.array_equal(got_angles, ref_angles)


@over(Cases(300, draw_arc, examples=[
    # one dropped sample: the arc stops just short of it on the pointing's side
    *((12, [1.0] * 5 + [-1.0] + [1.0] * 6, point_index) for point_index in (0, 4, 6, 11)),
]))
def test_cut_arc_matches_loop_reference(n, y, point_index):
    angles = np.linspace(0.0, math.pi, n)
    units_arr = np.zeros((n, 3))
    units_arr[:, 1] = y
    _assert_same_arc(angles, units_arr, point_index)


def test_cut_arc_wrapping_and_single_gap_cases():
    """Arcs centred at the phi = +-pi seam run on past it; one gap ends an arc.

    A yaw of pi/2 turns the aperture normal onto the -x axis, so every
    sample of an azimuth arc centred at phi = +-pi is in the beam's half-space
    and the whole arc, 90 degrees each side, crosses the seam in even steps.
    """
    rot = rotation_matrix(RotationAngles(math.pi / 2, 0.0, 0.0))
    for phi in (math.pi, -math.pi, math.nextafter(math.pi, 0.0)):
        angles, _ = _cut_arc("azimuth", DirectionAngles(math.pi / 2, phi), rot)
        assert angles.size == 2 * _HALF_ARC + 1
        assert angles[_HALF_ARC] == math.atan2(math.sin(phi), math.cos(phi))
        assert np.allclose(np.diff(angles), math.radians(GRID_STEP_DEG), rtol=0.0, atol=1e-12)
        assert angles.min() < -math.pi or angles.max() > math.pi
        _assert_arc_matches_full_circle((math.pi / 2, 0.0, 0.0), (math.pi / 2, phi))
    # one dropped sample: the arc stops just short of it on the pointing's side
    n = 12
    angles = np.linspace(0.0, math.pi, n)
    units_arr = np.zeros((n, 3))
    units_arr[:, 1] = 1.0
    units_arr[5, 1] = -1.0
    for point_index, want in ((0, range(5)), (4, range(5)), (6, range(6, n)), (n - 1, range(6, n))):
        got_angles, got_idx = _full_circle_select(angles, units_arr, point_index)
        assert got_idx.tolist() == list(want)
        _assert_same_arc(angles, units_arr, point_index)


def test_cut_arc_matches_loop_reference_on_cut_grids():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rot = rotation_matrix(RotationAngles(*rng.uniform(-math.pi, math.pi, 3)))
        pointing = DirectionAngles(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        for plane in ("azimuth", "elevation"):
            angles, units_arr, _ = _full_circle(plane, pointing, rot, 0.5)
            _assert_same_arc(angles, units_arr, int(rng.integers(angles.size)))


def _assert_arc_matches_full_circle(pose_angles, pointing):
    """_cut_arc's angles equal the full circle's arc exactly, its units to 1e-15."""
    rot = rotation_matrix(RotationAngles(*pose_angles))
    pointing = DirectionAngles(*pointing)
    for plane in ("azimuth", "elevation"):
        want_angles, want_units = _full_circle_arc(plane, pointing, rot)
        got_angles, got_units = _cut_arc(plane, pointing, rot)
        assert np.array_equal(got_angles, want_angles)
        assert np.max(np.abs(got_units - want_units)) <= 1e-15


def draw_pose_pointing(rng):
    return tuple(rng.uniform(-math.pi, math.pi, 3).tolist()), _direction(rng)


# pointings outside theta on [0, pi] and phi on (-pi, pi], which the CLI's
# --el -95 and --az 1e15 give: the arc is that of their direction
OUT_OF_RANGE = tuple(((0.5, -0.3, 0.2), p) for p in (
    (-0.17, 0.4), (math.pi + 0.09, 0.4), (-1.7e13, 0.4), (1.1, 1.7e13)))


@over(Cases(100, draw_pose_pointing, examples=[
    # pointings at the phi = +-pi seam, whose arcs run on past it without wrapping
    ((0.3, -0.2, 0.1), (1.2, math.pi)),
    ((0.3, -0.2, 0.1), (1.2, -math.pi)),
    ((-2.0, 0.4, 1.1), (2.0, math.nextafter(math.pi, 0.0))),
    ((-2.0, 0.4, 1.1), (0.7, -math.pi + 1e-4)),
    ((1.0, 1.0, 1.0), (1.0, math.pi)),
    # theta at the poles and on the horizon
    ((0.5, 0.5, 0.5), (0.0, 0.3)),
    ((0.5, 0.5, 0.5), (math.pi / 2, 0.3)),
    ((0.5, 0.5, 0.5), (math.pi, 0.3)),
    # pointing samples on the aperture plane (u_y = 0 exactly at theta = 0 and pi)
    (IDENTITY, (0.0, math.pi / 2)),
    (IDENTITY, (math.pi, -math.pi / 2)),
    (IDENTITY, (math.pi / 2, 0.0)),
    (IDENTITY, (math.pi / 2, math.pi)),
    *OUT_OF_RANGE,
]))
def test_cut_arc_matches_full_circle_reference(pose_angles, pointing):
    _assert_arc_matches_full_circle(pose_angles, pointing)


@over(Cases(50, draw_pose_pointing, examples=OUT_OF_RANGE))
def test_each_cut_has_a_sample_on_the_pointing(pose_angles, pointing):
    """Both cuts of `pattern_cut` strictly increase and hold R^T u_p to 1e-15.

    A sample's direction is rebuilt from its angle and the pointing's other
    angle, both as _arc_centre reads them off the pointing's direction.
    """
    config = ArrayConfig(num_elements=16, carrier_hz=3e11)
    pose = Pose(position=np.zeros(3), angles=RotationAngles(*pose_angles))
    pointing = DirectionAngles(*pointing)
    rot = rotation_matrix(pose.angles)
    point = array_frame_unit(rot, pointing)
    centre = _arc_centre(pointing)
    for plane in _PLANES:
        angles = pattern_cut(steering(config, point), config, pose, plane, pointing).angles_rad
        assert np.all(np.diff(angles) > 0.0)
        units = _cut_units(plane, centre, angles) @ rot
        assert np.min(np.max(np.abs(units - point), axis=1)) <= 1e-15


def test_half_arc_is_90_degrees_of_grid_steps():
    # _cut_arc keeps the samples within _HALF_ARC steps of the pointing,
    # which are the samples within 90 degrees only while the step divides 90
    assert _HALF_ARC * GRID_STEP_DEG == 90


def test_cut_arc_matches_full_circle_reference_at_a_single_gap():
    """The half-space test drops a single sample 20 samples from the pointing.

    The arc must then start just past that gap, well inside its 90-degree
    reach.  Yaw turns the aperture normal about z, so a yaw is chosen that
    puts the azimuth cut's lowest array-frame u_y on the arc's sample -20,
    and theta one that makes that lowest value -1e-9: the sample fails the
    half-space test by far more than its tolerance, while its neighbours
    pass.
    """
    phi = 1.0
    gap_angle = math.atan2(math.sin(phi), math.cos(phi)) - 20 * math.radians(GRID_STEP_DEG)
    normal = rotation_matrix(RotationAngles(0.0, 0.4, 0.3))[:, 1]
    alpha = gap_angle + math.pi - math.atan2(normal[1], normal[0])
    rho = math.hypot(normal[0], normal[1])
    theta = math.acos(-1e-9) - math.atan2(rho, normal[2])
    pose_angles = (math.remainder(alpha, 2 * math.pi), 0.4, 0.3)
    rot = rotation_matrix(RotationAngles(*pose_angles))
    angles, units_arr, point_index = _full_circle("azimuth", DirectionAngles(theta, phi), rot)
    dropped = np.flatnonzero(units_arr[:, 1] < -1e-12)
    assert dropped.tolist() == [point_index - 20]
    _assert_arc_matches_full_circle(pose_angles, (theta, phi))
    got_angles, _ = _cut_arc("azimuth", DirectionAngles(theta, phi), rot)
    assert got_angles[0] == angles[point_index - 19]


def test_case_lists_are_pinned():
    """The primitives of every case list, examples first, hash to a recorded digest.

    Drawn values and literals are hashed, never a float built from them, so
    the digest moves with a draw, a count, an example or a rejection rule.
    """
    digest = hashlib.sha256()
    for name, test in list(globals().items()):
        if hasattr(test, "case_lists"):
            drawn = [(seed, prims) for seed, prims, _ in _drawn(*test.case_lists)]
            digest.update(repr((name, drawn)).encode())
    assert digest.hexdigest() == "197bf5a24e3d780579440a5cc7de9c1fd6eee9077cfe1a7d16cab07faa42207f"
