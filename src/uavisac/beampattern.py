"""Array radiation patterns and the dual-beam synthesis loop.

The synthesizer builds Chebyshev-tapered, phase-steered weights on the full
planar aperture, projects nulls out of the weight vector, and scores each
candidate by its sidelobe deficit, the summed relative shortfall of both
cuts below their SLL minima (0 when feasible).  The EIRP target only sizes
the returned weights: the per-element power meeting it is target / gain in
closed form, so every candidate meets it and an EIRP mismatch term would
score only roundoff.  PAPER.md's abstract does not fix the form of the
optimizer's cost, nor whether the optimizer may switch elements off (a
g-by-v active block): every candidate here drives all M elements.

One incumbent: feasible candidates rank first, then the cheapest, so the
answer is the first candidate meeting both sidelobe minima, else the
cheapest of all.  A later candidate replaces it when it is feasible and the
incumbent is not, or when it costs less by more than TIE_TOLERANCE; a tie, or
a margin that reordered arithmetic could flip, keeps the earlier candidate.
One stopping rule: no candidate is scored once the incumbent is feasible,
which is what `converged` reports, or once COUNTER_MAX distinct candidates
have been scored.  The sweep is deterministic: five diagonal taper
setpoints, both tapers at min + 0 to 20 dB, then a per-plane coordinate
search around the incumbent.  A request without nulls that is still
infeasible then widens both tapers, min + 25, 30, 35 and 40 dB, and the
stopping rule ends it at the first feasible setpoint; every such beam
measured was met at min + 25 or 30 dB.  A null-steered request that is
infeasible after the coordinate search ends there, unconverged, with its
cheapest candidate and the rest of the budget unused: wider tapers made
none of the measured ones feasible.

Synthesis runs relative to the pointing (see _Synthesizer for why that is
exact): a candidate is the taper outer product tx tz^T, minus one outer
product dx_n dz_n^T of a null's relative phasors per projected null, and the
null coefficients are a fixed linear map of tx tz^T.  So one synthesis has
one scoring record, built with it: the factored null solve (skipped when
there are no nulls), each null column's pointing response, and its response
over both cuts at once.  Cuts are scored on real tables taken relative to
the pointing: row r of a grid axis carries the phase q_r alpha, q_r = 2r -
(side - 1), alpha = (k d / 2)(u_p - u), so a taper symmetric about the
aperture centre has a real response, a cosine sum over half the rows, and a
null's response is a real Dirichlet kernel per axis.  A candidate then
costs one real (side/2)-row product per axis, covering both cuts, of which
the coordinate search, moving one taper at a time, recomputes only one, and
its cut power is (Rx Rz - Re(c) Q)^2 + (Im(c) Q)^2; odd sides take the same
fold, with a centre row that counts once.  No weight vector is built while
scoring: the incumbent keeps its null coefficients and pointing array
factor, and the returned weights are built from them, exactly the candidate
that was scored.  Each cut's SLL is found on linear power, with one
logarithm per cut.  The elevation cut is scored first, and the azimuth cut
only when the candidate can still displace the incumbent.

`pattern_cut` builds one plane's arc and tables the same way and folds a
whole weight matrix, made pointing-relative, onto them.  A cut is built arc
first: the arc is centred on the pointing, its samples whole GRID_STEP_DEG
steps from it up to 90 degrees each side, so the samples turn with the beam
and not with a fixed world grid: under a yaw alone, a design equals that of
the same request in array-frame angles.  Each sample's unit comes from the
pointing's cosines and sines by angle addition with one shared offset table,
and only the arc's samples get array-frame units and the half-space test.  Each axis
table takes one cosine and one sine per sample, of the half-step phase
alpha, which a rotation recurrence expands to every upper-half row; mirror
rows carry -q_r.  The z tables carry the element amplitude sqrt(g_e), so
|af|^2 is the cut power as it stands.  Candidate scoring and `pattern_cut`
share the table build and the main-lobe rules (see _sidelobe_peak), so the
achieved values reported by a synthesis result re-derive from its weights to
roundoff.  Everything here is pure given its inputs; results are immutable.

Factor memory: an evaluator's tables (2 axes x cos, sin x (side + 1) // 2
rows x n_az + n_el samples, about 0.8 MB for M = 100 at the 0.05 degree
step) are one allocation, which also holds the complex rows the recurrence
builds them in (about 1.2 MB in all); a synthesizer's null responses and
its cached axis responses are plain numpy arrays, freed with their owner.
Freeing that allocation raises glibc's mmap threshold past its size and the
heap trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD), so the
next build takes memory the heap already holds.  Separate table and scratch
arrays would leave a free top chunk over the trim threshold, and every build
would fault its pages in afresh: 168 against 5 minor faults per synthesis
over a dataset trajectory (glibc 2.36, x86-64).  Calls share only the
read-only arc table and cached tapers, so concurrent calls need no lock.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    ArrayConfig,
    DirectionAngles,
    Pose,
    array_frame_unit,
    element_amplitude,
    element_gain,
    rotation_matrix,
    steering,
)
from .units import from_db, to_db

# the one cut step: every principal cut samples its parameter at this step
GRID_STEP_DEG = 0.05
_GRID_STEP_RAD = math.radians(GRID_STEP_DEG)
# samples in 90 degrees, an arc's reach on each side of the pointing; the
# step divides 90 degrees, so no sample falls between the two rules
_HALF_ARC = round(90.0 / GRID_STEP_DEG)
# arc sample k sits k steps from the pointing, k in [-_HALF_ARC, _HALF_ARC];
# row k of _ARC_TRIG is (cos, sin) of its offset and 1, which angle addition
# turns into the sample's unit (see _cut_arc); shared between calls, read-only
_ARC_OFFSETS = np.arange(-_HALF_ARC, _HALF_ARC + 1) * _GRID_STEP_RAD
_ARC_TRIG = np.column_stack(
    [np.cos(_ARC_OFFSETS), np.sin(_ARC_OFFSETS), np.ones(_ARC_OFFSETS.size)])
_ARC_OFFSETS.setflags(write=False)
_ARC_TRIG.setflags(write=False)
NULL_CONFLICT_DEG = 1.0
# the chord of NULL_CONFLICT_DEG, the radius of a conflict in (u_x, u_z)
_NULL_CONFLICT_CHORD = 2.0 * math.sin(math.radians(NULL_CONFLICT_DEG) / 2.0)
MIN_TAPER_SLL_DB = 5.0
MAIN_LOBE_MIN_DEPTH_DB = 6.0
# an infeasible candidate displaces an infeasible incumbent only when its
# deficit is lower by more than this: far above the roundoff of reordered
# scoring arithmetic (1.8e-16 seen), far below 2e-11 dB of a 20 dB minimum
TIE_TOLERANCE = 1e-12
# distinct candidates one synthesis may score
COUNTER_MAX = 200
# diagonal taper setpoints in dB above both SLL minima (see _Synthesizer.run)
_COARSE_OFFSETS_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
_WIDENED_OFFSETS_DB = (25.0, 30.0, 35.0, 40.0)
_PLANES = ("azimuth", "elevation")
_DB_FLOOR = 1e-40
_MAIN_LOBE_RATIO = 10.0 ** (-MAIN_LOBE_MIN_DEPTH_DB / 10.0)


class NullConflictError(ValueError):
    """A requested null the array cannot tell apart from the pointing (see null_conflicts)."""


@dataclass(frozen=True)
class BeamWeights:
    """Normalized complex excitations plus the per-element power scale."""

    entries: NDArray[np.complex128]
    power_per_element_mw: float

    def __post_init__(self) -> None:
        # negated comparisons, so that NaN fails them
        if not 0.0 < self.power_per_element_mw < math.inf:
            raise ValueError("power_per_element_mw must be positive and finite")
        if not np.max(np.abs(self.entries)) <= 1.0 + 1e-9:
            raise ValueError("weight amplitudes must be finite and not exceed 1")

    @property
    def vector(self) -> NDArray[np.complex128]:
        """Amplitude-scaled weights sqrt(PPE) * entries."""
        return math.sqrt(self.power_per_element_mw) * self.entries

    @property
    def total_power_mw(self) -> float:
        return self.power_per_element_mw * float(np.sum(np.abs(self.entries) ** 2))


@dataclass(frozen=True)
class BeamformingMatrix:
    """Sensing and communication beams transmitted in the same slot."""

    sensing: BeamWeights
    comm: BeamWeights

    @property
    def total_power_mw(self) -> float:
        return self.sensing.total_power_mw + self.comm.total_power_mw

    def satisfies_budget(self, p_max_mw: float) -> bool:
        return self.total_power_mw <= p_max_mw * (1.0 + 1e-12)


@dataclass(frozen=True)
class SynthesisRequest:
    """Inputs of one synthesis run: pointing, SLL minima, EIRP target, nulls."""

    pointing: DirectionAngles
    sll_min_az_db: float
    sll_min_el_db: float
    eirp_target_dbm: float
    nulls: tuple[DirectionAngles, ...] = ()

    def __post_init__(self) -> None:
        for name in ("sll_min_az_db", "sll_min_el_db", "eirp_target_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for i, direction in enumerate((self.pointing, *self.nulls)):
            if not all(map(math.isfinite, direction)):
                name = f"nulls[{i - 1}]" if i else "pointing"
                raise ValueError(f"{name} must be finite, got {direction!r}")
        for name in ("sll_min_az_db", "sll_min_el_db"):
            value = getattr(self, name)
            if not (0.0 < value and from_db(value) < math.inf):  # Scenario's rule
                raise ValueError(
                    f"{name} must be positive dB with a finite linear value, got {value!r}")


@dataclass(frozen=True)
class SynthesisResult:
    weights: BeamWeights
    achieved_sll_az_db: float
    achieved_sll_el_db: float
    achieved_eirp_dbm: float
    iterations: int
    cost: float
    converged: bool

    @property
    def active_elements(self) -> int:
        """Elements driven by the weights: synthesis always uses the full aperture."""
        return self.weights.entries.size


@dataclass(frozen=True)
class PatternCut:
    """One principal cut: strictly increasing angles with peak at 0 dB."""

    plane: str
    angles_rad: NDArray[np.float64]
    gains_db: NDArray[np.float64]


def _weight_entries(weights) -> NDArray[np.complex128]:
    entries = getattr(weights, "entries", weights)
    return np.asarray(entries, dtype=np.complex128)


def array_gain(
    weights, config: ArrayConfig, uav_pos, angles, direction: DirectionAngles
) -> float:
    """Linear power gain |a(dir)^H w|^2 g_e(dir) of the posed array.

    Far-field evaluation: only the element offsets matter, not the absolute
    array position.  Accepts BeamWeights or a raw complex vector (normalized
    excitations, not amplitude-scaled).
    """
    unit = array_frame_unit(rotation_matrix(angles), direction)
    return steered_gain(weights, steering(config, unit), element_gain(unit))


def steered_gain(weights, a: NDArray[np.complex128], gain: float) -> float:
    """Linear power gain |a^H w|^2 gain toward steering vector a of element gain `gain`."""
    w = _weight_entries(weights)
    if w.shape != a.shape:
        raise ValueError("weight length does not match the array size")
    return float(abs(np.vdot(a, w)) ** 2 * gain)


def _cut_arc(plane: str, pointing: DirectionAngles, rot):
    """Angles and array-frame units of the cut samples belonging to the beam.

    Arc sample k sits k GRID_STEP_DEG from the pointing along the cut
    parameter, k in [-_HALF_ARC, _HALF_ARC], so the arc reaches 90 degrees
    each side and sample 0 is the pointing itself; the elevation arc also
    stays within theta in [0, pi].  The centre is read off the pointing's unit
    (cos phi sin theta, sin phi sin theta, cos theta), as
    geometry.direction_unit builds it: theta = atan2(|sin theta|, cos theta),
    phi turned by pi where sin theta < 0, and the azimuth arc centred on
    atan2(sin phi, cos phi), so any finite angle pair gives the arc of its
    direction.  By angle addition, a sample's unit is its _ARC_TRIG row, the
    cos and sin of its offset and 1, times a basis of the cut made from the
    pointing's cos and sin, so the arc takes no trig of its own.  The arc is
    then cut short at the first sample on each side outside the beam's own
    half-space: a planar aperture radiates an exact mirror image through its
    own plane, which a ground plane suppresses in hardware, so the mirror
    hemisphere never enters the sidelobe accounting.  `rot` is the array's
    rotation matrix, so row i of the units is R^T u_i.  Returns (angles,
    units) with strictly increasing angles.
    """
    cos_theta, sin_theta = math.cos(pointing.theta), math.sin(pointing.theta)
    cos_phi, sin_phi = math.cos(pointing.phi), math.sin(pointing.phi)
    if sin_theta < 0.0:
        cos_phi, sin_phi = -cos_phi, -sin_phi
    sin_theta = abs(sin_theta)
    lo, hi = 0, _ARC_OFFSETS.size
    if plane == "azimuth":
        angles = math.atan2(sin_phi, cos_phi) + _ARC_OFFSETS
        # the offset turns the horizontal part of the unit; its z stays
        basis = [[cos_phi * sin_theta, sin_phi * sin_theta, 0.0],
                 [-sin_phi * sin_theta, cos_phi * sin_theta, 0.0],
                 [0.0, 0.0, cos_theta]]
    else:
        angles = math.atan2(sin_theta, cos_theta) + _ARC_OFFSETS
        lo, hi = np.searchsorted(angles, 0.0), np.searchsorted(angles, math.pi, "right")
        # the pointing's unit and its unit tangent toward increasing theta
        basis = [[cos_phi * sin_theta, sin_phi * sin_theta, cos_theta],
                 [cos_phi * cos_theta, sin_phi * cos_theta, -sin_theta],
                 [0.0, 0.0, 0.0]]
    angles = angles[lo:hi]
    units = _ARC_TRIG[lo:hi] @ (np.array(basis) @ rot)
    centre = _HALF_ARC - lo
    side = 1.0 if units[centre, 1] >= 0.0 else -1.0
    dropped = np.flatnonzero(side * units[:, 1] < -1e-12)
    before = dropped[dropped < centre]
    after = dropped[dropped > centre]
    lo = int(before[-1]) + 1 if before.size else 0
    hi = int(after[0]) if after.size else angles.size
    return angles[lo:hi], units[lo:hi]


def _axis_tables(config: ArrayConfig, point, units):
    """Pointing-relative cosine and sine tables of both grid axes: (2, 2, half, n).

    Entry [a, 0, i] is cos(q_i alpha) and [a, 1, i] sin(q_i alpha) on axis
    a (x, then z), for the upper-half row multiples q_i = 2 (side // 2 + i) -
    (side - 1), which are 1, 3, 5, ... on an even side and 0, 2, 4, ... on an
    odd one, with alpha = (k d / 2)(p - u) the half-step phase of the array-
    frame component of each unit (n, 3) relative to that of the pointing p:
    e^(j q alpha) is row side // 2 + i of the pointing's steering factor times
    the conjugated factor of the sample.  One np.cos and one np.sin per
    sample give the first row (1 and 0 on an odd side) and the step rotation
    by 2 alpha; each further row is the one before it rotated by that step.
    The z tables carry each sample's element amplitude sqrt(g_e) = (1 +
    u_y) / 2, which enters through the first row and the rotation carries to
    the rest.  Both axes' tables are one allocation (see Factor memory in the
    module docstring).
    """
    side = config.side
    scale = 0.5 * config.wavenumber * config.spacing_m
    n = units.shape[0]
    half = side - side // 2
    # the rotation runs on complex rows, one multiply per row, split into
    # the two real tables once built; the rows sit in the tables' allocation
    buf = np.empty((3, 2, half, n))
    out, rows = buf[:2], buf[2].reshape(-1).view(np.complex128).reshape(half, n)
    first = np.empty(n, dtype=np.complex128)
    for table, col, amplitude in zip(out, (0, 2), (1.0, element_amplitude(units))):
        alpha = scale * (point[col] - units[:, col])
        np.cos(alpha, out=first.real)
        np.sin(alpha, out=first.imag)
        if side % 2:
            rows[0] = amplitude
        else:
            np.multiply(first, amplitude, out=rows[0])
        step = first * first
        for r in range(1, rows.shape[0]):
            np.multiply(rows[r - 1], step, out=rows[r])
        table[0], table[1] = rows.real, rows.imag
    return out


def _fold(w: NDArray, side: int):
    """Symmetric and antisymmetric parts of weights on the rows of a side-row axis.

    Row side // 2 + i and its mirror side - 1 - (side // 2 + i) carry the
    multiples +q_i and -q_i of _axis_tables, so sum_r w_r e^(j q_r alpha) =
    sym . cos + j anti . sin, with sym_i = w_up + w_mirror and anti_i = w_up
    - w_mirror; the centre row of an odd side (q = 0) counts once.  w is
    (side,) or (side, k), folded along its first axis.
    """
    up, mirror = w[side // 2 :], w[(side - 1) // 2 :: -1]
    sym, anti = up + mirror, up - mirror
    if side % 2:
        sym[0] = up[0]
    return sym, anti


class _PatternEvaluator:
    """Pointing-relative cosine and sine tables of both grid axes over both principal cuts.

    Takes the pose's rotation `rot`, the pointing and its array-frame unit
    `point`, which the synthesizer derives with its nulls' (_frame_units).
    The panel is a square grid in the array's XZ plane, so the steering
    vector toward array-frame direction u is the Kronecker product
    exp(j k u_x x) (x) exp(j k u_z z) of one factor per grid axis, and a
    weight matrix W (rows, columns) has a^H w = e_x^H W e_z*.  Taken relative
    to the pointing p, a row's factor is the pointing's times e^(j q alpha)
    with alpha = (k d / 2)(p - u) and q the row's odd or even multiple, and
    mirror rows carry -q.  A weight vector that is Hermitian about the axis
    centre, as a symmetric taper and a pointing-relative null phasor are,
    thus has a real response: a cosine sum over the upper-half rows, minus a
    sine sum for a complex one (Van Trees, Optimum Array Processing, ch. 3).
    Both arcs (see _cut_arc) sit side by side, azimuth then elevation, in one
    real (2, half, n_az + n_el) table per grid axis (see _axis_tables).
    `cuts` holds each cut's angles and its slice of the table columns.
    `axis_response` folds one axis's weights onto its table, as the
    synthesizer scores its pointing-relative candidates (see _Synthesizer).
    """

    def __init__(self, config: ArrayConfig, rot, pointing: DirectionAngles, point):
        arcs = {plane: _cut_arc(plane, pointing, rot) for plane in _PLANES}
        units = np.concatenate([units for _, units in arcs.values()])
        self.config = config
        self.point = point
        self.tables = _axis_tables(config, self.point, units)
        self.cuts: dict[str, tuple[NDArray[np.float64], slice]] = {}
        start = 0
        for plane, (angles, _) in arcs.items():
            self.cuts[plane] = (angles, slice(start, start + angles.size))
            start += angles.size

    def axis_response(self, axis: int, w: NDArray) -> NDArray[np.float64]:
        """sum_r w_r e^(j q_r alpha) over both cuts for pointing-relative weights on every row.

        `axis` is 0 for the grid's x rows, 1 for its z columns (whose tables
        carry sqrt(g_e)); w is (side,) or (side, k), giving (n,) or (k, n).
        The weights must be Hermitian about the axis centre (w[side - 1 - r]
        = conj w[r]), as a symmetric taper and a pointing-relative null phasor
        are, so their response is real: one product with the cosine table,
        plus one with the sine table for complex weights.
        """
        cos, sin = self.tables[axis]
        sym, anti = _fold(w, self.config.side)
        real = sym.real.T @ cos
        if np.iscomplexobj(w):
            real -= anti.imag.T @ sin
        return real


def _gains_db(power: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cut power in dB below its peak, floored at _DB_FLOOR; -400 dB for a null cut."""
    peak = power.max()
    if peak <= 0.0:
        return np.full(power.shape, -400.0)
    return 10.0 * np.log10(np.maximum(power / peak, _DB_FLOOR))


def pattern_cut(
    weights,
    config: ArrayConfig,
    pose: Pose,
    plane: str,
    pointing: DirectionAngles,
) -> PatternCut:
    """Principal cut through the pointing direction, normalized to 0 dB peak.

    The azimuth cut fixes theta at the pointing value and sweeps phi; the
    elevation cut fixes phi and sweeps theta, both in GRID_STEP_DEG steps from
    the pointing, which is a sample of each.  Both cover up to 90 degrees on
    each side of the beam within its own hemisphere (the mirror image through
    the aperture plane is excluded, as a ground plane would enforce).  Angles
    outside theta in [0, pi] and phi in (-pi, pi] give the cuts of their
    direction (see _cut_arc).
    """
    if plane not in _PLANES:
        raise ValueError(f"unknown cut plane {plane!r}")
    rot = rotation_matrix(pose.angles)
    point = array_frame_unit(rot, pointing)
    angles, units = _cut_arc(plane, pointing, rot)
    (cos_x, sin_x), (cos_z, sin_z) = _axis_tables(config, point, units)
    side = config.side
    pointing_factor = np.conj(steering(config, point)).reshape(side, side)
    sym, anti = _fold(_weight_entries(weights).reshape(side, side) * pointing_factor, side)
    sym, anti = _fold(sym.T @ cos_x + 1j * (anti.T @ sin_x), side)
    af = (sym * cos_z).sum(axis=0) + 1j * (anti * sin_z).sum(axis=0)
    gains_db = _gains_db(np.square(af.real) + np.square(af.imag))
    return PatternCut(plane=plane, angles_rad=angles, gains_db=gains_db)


def _first_true(flags: NDArray[np.bool_]) -> int | None:
    """Index of the first True flag; None when there is none."""
    if flags.size:
        i = int(flags.argmax())
        if flags[i]:
            return i
    return None


def _sidelobe_peak(values: NDArray[np.float64], peak: int, threshold: float):
    """Largest sample outside the main lobe around values[peak]; None when there is none.

    The one statement of the main-lobe rules, for gains in dB and for linear
    power alike: the lobe spans from the peak to the first boundary minimum
    on each side, the nearest i <= peak with values[i - 1] > values[i] and
    the nearest i >= peak with values[i + 1] > values[i], among samples at or
    below threshold.  A boundary minimum must sit well below the peak;
    shallower dips are main-lobe ripple (element-pattern lift near the cut
    edge), not nulls.
    """
    below = values <= threshold
    # entry j of left_hits tests i = j + 1, entry j of right_hits i = peak + j
    left_hits = (values[:peak] > values[1 : peak + 1]) & below[1 : peak + 1]
    right_hits = (values[peak + 1 :] > values[peak:-1]) & below[peak:-1]
    last = _first_true(left_hits[::-1])
    first = _first_true(right_hits)
    left = 0 if last is None else peak - last
    right = values.size if first is None else peak + first + 1
    if left == 0 and right == values.size:
        return None
    return max(values[:left].max(initial=-math.inf), values[right:].max(initial=-math.inf))


def _sll_from_gains(gains_db: NDArray[np.float64]) -> float:
    gains = np.asarray(gains_db, dtype=np.float64)
    peak = int(np.argmax(gains))
    sidelobe = _sidelobe_peak(gains, peak, gains[peak] - MAIN_LOBE_MIN_DEPTH_DB)
    return math.inf if sidelobe is None else float(gains[peak] - sidelobe)


def _sll_from_power(power: NDArray[np.float64]) -> float:
    """Sidelobe level in dB of a linear cut power, as _sll_from_gains gives on its dB form.

    The main-lobe rules run on power: the boundary threshold is the peak
    times 10^(-MAIN_LOBE_MIN_DEPTH_DB / 10), and power is floored in place at
    _DB_FLOOR times the peak, as the dB form floors its ratios.  Only the
    sidelobe-to-peak ratio goes through a logarithm.  Both forms find the same
    lobe except where a sample sits within roundoff of the threshold or the
    floor, which is why the incumbent rule tolerates cost differences below
    TIE_TOLERANCE.
    """
    peak = int(np.argmax(power))
    top = float(power[peak])
    np.maximum(power, top * _DB_FLOOR, out=power)
    sidelobe = _sidelobe_peak(power, peak, top * _MAIN_LOBE_RATIO)
    if sidelobe is None:
        return math.inf
    return -10.0 * math.log10(max(sidelobe / top, _DB_FLOOR))


def extract_sll(cut: PatternCut) -> float:
    """Sidelobe level in dB below the peak; +inf when no sidelobe exists.

    The main lobe spans the contiguous region around the global peak down to
    the first sufficiently deep local minimum on each side; everything beyond
    counts as sidelobe.
    """
    return _sll_from_gains(cut.gains_db)


def eirp(
    weights: BeamWeights, config: ArrayConfig, pose: Pose, pointing: DirectionAngles
) -> float:
    """Radiated EIRP toward the pointing direction, dBm.

    Per-element power times the array power gain; -inf when the pattern has a
    null at the pointing direction.
    """
    gain = array_gain(weights, config, pose.position, pose.angles, pointing)
    return to_db(weights.power_per_element_mw * gain)


def chebyshev_taper(n: int, sll_db: float) -> NDArray[np.float64]:
    """Dolph-Chebyshev amplitude taper, max-normalized, equiripple at -sll_db.

    The returned array is shared between calls and read-only.
    """
    if not float(n).is_integer():
        raise ValueError(f"taper length must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("taper needs at least two elements")
    # negated, so that NaN fails it; the DFT below sums n samples as large as
    # the amplitude ratio 10 ** (sll_db / 20) = from_db(sll_db / 2), inf past floats
    if not (0.0 < sll_db and n * from_db(sll_db / 2.0) < math.inf):
        raise ValueError(f"sidelobe level must be positive dB with n times its amplitude ratio "
                         f"finite, got {sll_db!r} for n = {n}")
    return _dolph_chebyshev(int(n), float(sll_db))


@functools.lru_cache(maxsize=4096)
def _dolph_chebyshev(n: int, sll_db: float) -> NDArray[np.float64]:
    # Samples of the array factor T_{n-1}(x0 cos(pi k / n)) on n equispaced
    # points, turned into element weights by a DFT (Dolph, Proc. IRE, 1946).
    order = n - 1.0
    x0 = np.cosh(1.0 / order * np.arccosh(10.0 ** (sll_db / 20.0)))
    x = x0 * np.cos(np.pi * np.arange(n) / n)
    p = np.zeros(n)
    hi, lo = x > 1, x < -1
    mid = ~(hi | lo)
    p[hi] = np.cosh(order * np.arccosh(x[hi]))
    p[lo] = (2 * (n % 2) - 1) * np.cosh(order * np.arccosh(-x[lo]))
    p[mid] = np.cos(order * np.arccos(x[mid]))
    if n % 2:
        w = np.real(np.fft.fft(p))[: (n + 1) // 2]
        w = np.concatenate((w[1:][::-1], w))
    else:
        w = np.real(np.fft.fft(p * np.exp(1j * np.pi / n * np.arange(n))))[1 : n // 2 + 1]
        w = np.concatenate((w[::-1], w))
    w = w / np.max(w)
    w.setflags(write=False)
    return w


def _frame_units(rot, directions: Sequence[DirectionAngles]) -> NDArray[np.float64]:
    """Array-frame units of the directions under rotation `rot`, (n, 3); (0, 3) for none."""
    return np.reshape([array_frame_unit(rot, d) for d in directions], (-1, 3))


def _project_out(
    w: NDArray[np.complex128], basis: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """Least-squares projection of w onto the orthogonal complement of basis's columns.

    The weights change by the least-norm perturbation that zeroes every
    column's response (Steyskal's null steering).  Only `apply_nulls` uses
    it; the synthesizer solves its nulls in factored form (see _Synthesizer).
    """
    return w - basis @ np.linalg.lstsq(basis, w, rcond=None)[0]


def null_conflicts(null, point, config: ArrayConfig) -> bool:
    """True when a null lies too close to the pointing for the array to steer it.

    `null` and `point` are array-frame units (3,) of the null and the
    pointing (geometry.array_frame_unit).  The null conflicts when its
    (u_x, u_z) lies within the chord of NULL_CONFLICT_DEG of the pointing's,
    modulo the grating period lambda/d on each axis.  A null within
    NULL_CONFLICT_DEG of the pointing always does: dropping u_y and wrapping
    never lengthen the chord.  The planar aperture sees only (u_x, u_z), and
    at lambda/2 spacing its steering phases repeat with period 2 in each, so
    a null mirrored through the aperture plane, or at the antipode of an
    endfire pointing, has the pointing's own steering vector and projecting
    it out removes the beam.
    """
    period = config.wavelength_m / config.spacing_m
    ux, _, uz = null - point
    return math.hypot(math.remainder(ux, period), math.remainder(uz, period)) < _NULL_CONFLICT_CHORD


def check_nulls(config: ArrayConfig, nulls, point) -> None:
    """Reject more nulls than the array can place, or one conflicting with the pointing.

    `nulls` holds the nulls' array-frame units, (n, 3), and `point` the
    pointing's (3,); see null_conflicts.
    """
    if len(nulls) >= config.num_elements:
        raise ValueError("cannot null as many directions as array elements")
    if any(null_conflicts(n, point, config) for n in nulls):
        raise NullConflictError("null direction conflicts with the pointing direction")


def apply_nulls(
    weights: BeamWeights,
    config: ArrayConfig,
    pose: Pose,
    nulls: Sequence[DirectionAngles],
    pointing: DirectionAngles,
) -> BeamWeights:
    """Project the weights onto the complement of the null steering vectors.

    Zeroes a(null)^H w for every requested null while perturbing the input
    weights as little as possible.  A null conflicting with the pointing
    (null_conflicts) is rejected.
    """
    nulls = tuple(nulls)
    if not nulls:
        return weights
    units = _frame_units(rotation_matrix(pose.angles), (pointing, *nulls))
    check_nulls(config, units[1:], units[0])
    basis = steering(config, units[1:]).T
    projected = _project_out(_weight_entries(weights), basis)
    scale = max(1.0, float(np.max(np.abs(projected))))
    return BeamWeights(
        entries=projected / scale,
        power_per_element_mw=weights.power_per_element_mw * scale**2,
    )


@dataclass
class _Candidate:
    sll_az_db: float
    sll_el_db: float
    s_az: float
    s_el: float
    cost: float
    feasible: bool
    # the candidate's score, from which _Synthesizer._weights builds its weights
    af_point: complex
    coeff: NDArray[np.complex128] | None

    def displaces(self, incumbent: "_Candidate | None") -> bool:
        """Feasible beats infeasible; otherwise only costing less by over TIE_TOLERANCE wins."""
        if incumbent is None:
            return True
        if self.feasible != incumbent.feasible:
            return self.feasible
        return self.cost < incumbent.cost - TIE_TOLERANCE


def _sll_cost_term(measured_db: float, requested_db: float) -> float:
    """Relative sidelobe deficit against the requested minimum.

    The minima are inequality constraints, so surplus SLL carries no penalty;
    only falling short of the request contributes to the cost.
    """
    if math.isinf(measured_db):
        return 0.0
    return max(0.0, (requested_db - measured_db) / requested_db)


def _taper(n: int, sll_db: float) -> NDArray[np.float64]:
    """Chebyshev taper of one aperture axis; a single element is untapered."""
    return chebyshev_taper(n, sll_db) if n > 1 else np.ones(1)


class _Synthesizer:
    """Search state and factored scoring record of one synthesis run.

    The run is pointing-relative.  A candidate has the unprojected weights
    t = tx tz^T, the outer product of its two tapers, and null n the
    unit-modulus phasors d_n = dx_n (x) dz_n, e^(j q theta) per axis with
    theta = (k d / 2)(u_n - u_p) on row multiple q, formed as 1 + e from the
    half-angle sine, e = -2 sin^2(q theta / 2) + j sin(q theta).  Projecting
    the nulls out subtracts sum_n c_n dx_n dz_n^T, with c = V S^-1 U^H vec(t)
    the least-squares coefficients (Steyskal's minimum-norm perturbation),
    U S V^H being the thin SVD of the null basis, column n vec(dx_n dz_n^T).
    The absolute weights and null steering vectors are these times the
    pointing's steering vector a_p, entry by entry: a diagonal scaling D of
    unit modulus, which turns the SVD into (D U) S V^H and leaves S, V and c
    as they are, so only `_weights` applies a_p, once.  The SVD factors are
    applied one at a time: an explicit pseudo-inverse V S^-1 U^H rounds every
    entry at the scale of 1/s_min, and left two nulls 1e-9 rad apart at
    2.6e-9 of the pointing response instead of 2.2e-10.  The Gram form
    (dx_m^H dx_n)(dz_m^H dz_n) would square the condition number and merge
    the two into one null.  The SVD is fixed for the run, and so are each
    null column's pointing response and its response over both cuts, Q_n,
    the product of the two axis responses of its phasors (see
    _PatternEvaluator.axis_response).  The tapers are symmetric and the null
    phasors Hermitian about the aperture centre, so the axis responses Rx, Rz
    of the tapers and Q are real: Rx is one (side/2)-row cosine sum, Q_n a
    product of two Dirichlet kernels, and a candidate's cut array factor is
    af = Rx Rz - c^T Q, whose power is (Rx Rz - Re(c) Q)^2 + (Im(c) Q)^2.
    The coordinate search moves one taper at a time, so each axis keeps the
    response to its last taper and reuses it while that taper stays.  The
    candidate's pointing array factor is 1^T (I - P) t with P the projection
    onto the d_n, that is sum(tx) sum(tz) - c . (1^T d_n).  For a null near
    the pointing both terms are close to sum(tx) sum(tz), so their difference
    carries the rounding of that scale: it is 1.1e-12 of itself off for a
    null 1.5 degrees from the pointing of a 2x2 array.  Since
    (I - P) d_k = 0, it is also -e^H (I - P) t = (e^H d_n) . c - e^H t with
    e = d_k - 1 for the null k nearest the pointing, and e^H t and e^H d_n
    are sums of products of e_x = dx_k - 1 and e_z = dz_k - 1, so nothing is
    rounded at the scale of 1 (2e-16 of that response).  A request without
    nulls (every sensing beam) has no SVD and no Q: its cut array factor is
    Rx Rz alone.  The candidate keeps c and its pointing array factor, from
    which `_weights` builds the returned weights with no second null solve.
    """

    def __init__(self, request: SynthesisRequest, config: ArrayConfig, pose: Pose):
        self.request = request
        rot = rotation_matrix(pose.angles)
        # row 0 is the pointing, row 1 + n null n
        units = _frame_units(rot, (request.pointing, *request.nulls))
        check_nulls(config, units[1:], units[0])
        self.evaluator = _PatternEvaluator(config, rot, request.pointing, units[0])
        self.point_element_gain = element_gain(units[0])
        self.side = side = config.side
        self.null_response = None
        if request.nulls:
            # e = d - 1 and d per axis of every null, (side, n) for x, then z;
            # theta is odd in q, so mirror rows are exact conjugates, as
            # axis_response's fold requires
            q = np.arange(1 - side, side, 2) * (0.5 * config.wavenumber * config.spacing_m)
            theta = q[:, None, None] * (units[1:, ::2] - units[0, ::2])
            rel = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
            ex, ez = rel[..., 0], rel[..., 1]
            self.null_x, self.null_z = dx, dz = 1.0 + ex, 1.0 + ez
            # column n is vec(dx_n dz_n^T), flattened row-major as the weights are
            basis = (dx[:, None, :] * dz[None, :, :]).reshape(side * side, -1)
            # singular values up to max(M, n) eps of the largest are dropped, as
            # np.linalg.lstsq and matrix_rank drop them, so coincident nulls count once
            u, s, vh = np.linalg.svd(basis, full_matrices=False)
            keep = s > max(basis.shape) * np.finfo(np.float64).eps * s[0]
            self.solve = u[:, keep].conj().T, s[keep], vh[keep].conj().T
            # the nearest null has the largest |1^T d_n| = |1^T dx_n| |1^T dz_n|
            near = int(np.argmax(np.abs(dx.sum(axis=0) * dz.sum(axis=0))))
            # conj(e) as a side x side matrix, e = (1 + e_x)(1 + e_z)^T - 1 1^T
            # expanded so that each entry is a sum of the small terms
            cx, cz = ex[:, near].conj(), ez[:, near].conj()
            self.near = cx[:, None] + cz + cx[:, None] * cz
            self.near_null = np.einsum("rn,rc,cn->n", dx, self.near, dz)
            ev = self.evaluator
            self.null_response = ev.axis_response(0, dx) * ev.axis_response(1, dz)
        self._responses: list[tuple[float, NDArray] | None] = [None, None]
        self.best: _Candidate | None = None
        self._seen: set[tuple[float, float]] = set()

    def _response(self, axis: int, sll_db: float, taper):
        """The taper's axis response over both cuts, reused while the axis taper stays at sll_db."""
        cached = self._responses[axis]
        if cached is not None and cached[0] == sll_db:
            return cached[1]
        response = self.evaluator.axis_response(axis, taper)
        self._responses[axis] = (sll_db, response)
        return response

    def score(self, s_az: float, s_el: float):
        """Pointing array factor of one candidate, and the terms its cuts are built from.

        The array factor is that of the projected weights before `_weights`
        normalises them, a scale that the cut power ratios and the EIRP do
        not see.  The terms go to `cut_power`.
        """
        tx, tz = _taper(self.side, s_az), _taper(self.side, s_el)
        responses = self._response(0, s_az, tx), self._response(1, s_el, tz)
        if self.null_response is None:
            return tx.sum() * tz.sum(), (responses, None)
        uh, s, v = self.solve
        coeff = v @ ((uh @ np.outer(tx, tz).ravel()) / s)
        # (e^H d_n) . c - e^H t
        return coeff @ self.near_null - tx @ self.near @ tz, (responses, coeff)

    def cut_power(self, terms, plane: str) -> NDArray[np.float64]:
        """Linear power of one cut of the candidate that `score` returned the terms of."""
        (rx, rz), coeff = terms
        span = self.evaluator.cuts[plane][1]
        af = rx[span] * rz[span]
        if coeff is not None:
            # rows Re c and Im c of the complex coefficients
            re, im = coeff.view(np.float64).reshape(-1, 2).T @ self.null_response[:, span]
            af -= re
            return np.square(af, out=af) + np.square(im, out=im)
        return np.square(af, out=af)

    def _weights(self, cand: _Candidate) -> tuple[BeamWeights, float]:
        """Normalised weights of the scored candidate sized to the EIRP target, and its EIRP (dBm).

        (tx tz^T - sum_n c_n dx_n dz_n^T) times the pointing's steering
        vector, entry by entry, with the c and the pointing array factor of
        the candidate's score: the one place the run leaves the
        pointing-relative frame.
        """
        side = self.side
        w = np.outer(_taper(side, cand.s_az), _taper(side, cand.s_el))
        if cand.coeff is not None:
            w = w - (self.null_x * cand.coeff) @ self.null_z.T
        w = w * steering(self.evaluator.config, self.evaluator.point).reshape(side, side)
        scale = max(1.0, float(np.max(np.abs(w))))
        entries = w.ravel() / scale
        gain_point = float(abs(cand.af_point / scale) ** 2 * self.point_element_gain)
        ppe = from_db(self.request.eirp_target_dbm) / gain_point
        return BeamWeights(entries=entries, power_per_element_mw=ppe), to_db(ppe * gain_point)

    def _feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    def _cannot_win(self, cost_floor: float) -> bool:
        """True when an infeasible candidate costing at least cost_floor cannot win.

        Candidates are scored only while the incumbent is infeasible, so it
        cannot when cost_floor is not below the incumbent's cost by more than
        TIE_TOLERANCE.  cost_floor is one cut's deficit; the full cost adds
        the other, non-negative deficit, and float addition is monotone, so
        the full cost is no lower.
        """
        return self.best is not None and cost_floor >= self.best.cost - TIE_TOLERANCE

    def _evaluate(self, s_az: float, s_el: float) -> bool:
        """Score one candidate; True when it becomes the incumbent.

        The only stopping rule: nothing is scored once the incumbent is
        feasible or COUNTER_MAX distinct candidates have been scored.  The
        elevation cut is scored first; when its SLL falls short and the
        candidate then cannot win, the azimuth cut is never built, and the
        candidate still counts as scored.  A candidate with no gain toward
        the pointing cannot be sized to the EIRP target and counts as scored
        without a cost.
        """
        s_az = max(MIN_TAPER_SLL_DB, s_az)
        s_el = max(MIN_TAPER_SLL_DB, s_el)
        key = (round(s_az, 6), round(s_el, 6))
        if key in self._seen or self._feasible() or len(self._seen) >= COUNTER_MAX:
            return False
        self._seen.add(key)
        req = self.request
        af_point, terms = self.score(s_az, s_el)
        if abs(af_point) ** 2 * self.point_element_gain <= 0.0:
            return False
        sll_el = _sll_from_power(self.cut_power(terms, "elevation"))
        deficit_el = _sll_cost_term(sll_el, req.sll_min_el_db)
        if sll_el < req.sll_min_el_db and self._cannot_win(deficit_el):
            return False
        sll_az = _sll_from_power(self.cut_power(terms, "azimuth"))
        cand = _Candidate(
            sll_az_db=sll_az,
            sll_el_db=sll_el,
            s_az=s_az,
            s_el=s_el,
            cost=_sll_cost_term(sll_az, req.sll_min_az_db) + deficit_el,
            feasible=(sll_az >= req.sll_min_az_db and sll_el >= req.sll_min_el_db),
            af_point=af_point,
            coeff=terms[1],
        )
        if cand.displaces(self.best):
            self.best = cand
            return True
        return False

    def _sweep(self, offsets: Sequence[float]) -> None:
        """Both tapers at each offset above their SLL minima, in order."""
        req = self.request
        for offset in offsets:
            self._evaluate(req.sll_min_az_db + offset, req.sll_min_el_db + offset)

    def _refine(self) -> None:
        """Coordinate search around the incumbent's tapers."""
        if self.best is None:
            return
        for step in (2.0, 1.0, 0.5, 0.25):
            improved = True
            while improved and not self._feasible():
                improved = False
                for d_az, d_el in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                    improved |= self._evaluate(self.best.s_az + d_az, self.best.s_el + d_el)

    def run(self) -> SynthesisResult:
        self._sweep(_COARSE_OFFSETS_DB)
        self._refine()
        if not self.request.nulls:
            # a beam without nulls that is still infeasible widens both
            # tapers; scoring stops at the first feasible setpoint, and a
            # null-steered beam returns its cheapest candidate unconverged
            self._sweep(_WIDENED_OFFSETS_DB)
        chosen = self.best
        if chosen is None:
            raise RuntimeError("synthesis produced no candidates")
        weights, eirp_dbm = self._weights(chosen)
        return SynthesisResult(
            weights=weights,
            achieved_sll_az_db=chosen.sll_az_db,
            achieved_sll_el_db=chosen.sll_el_db,
            achieved_eirp_dbm=eirp_dbm,
            iterations=len(self._seen),
            cost=chosen.cost,
            converged=self._feasible(),
        )


def synthesize(request: SynthesisRequest, config: ArrayConfig, pose: Pose) -> SynthesisResult:
    """Run the beam-pattern optimizer for one pointing request.

    Returns the first candidate meeting both sidelobe minima (converged, cost
    0), else the smallest sidelobe deficit (`cost`) found within COUNTER_MAX
    candidates, unconverged and best-effort.  The EIRP target only sizes the
    per-element power, so `achieved_eirp_dbm` meets it to roundoff.
    """
    return _Synthesizer(request, config, pose).run()


def beampattern_gain(matrix: BeamformingMatrix, config: ArrayConfig, unit) -> float:
    """Transmit power density radiated toward the target's array-frame unit.

    Sum of the two rank-one beam contributions |a^H w|^2, sensing then comm,
    with amplitude-scaled weight vectors and a = steering(config, unit);
    invariant under per-beam global phase rotation.
    """
    a = steering(config, unit)
    total = 0.0
    for beam in (matrix.sensing, matrix.comm):
        total += abs(np.vdot(a, beam.vector)) ** 2
    return float(total)


def export_cut_csv(cut: PatternCut, path) -> None:
    """Write one cut as `angle_deg,gain_db` rows with a header line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "gain_db"])
        for angle, gain in zip(cut.angles_rad, cut.gains_db):
            writer.writerow([repr(math.degrees(float(angle))), repr(float(gain))])
