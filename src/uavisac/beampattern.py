"""Array radiation patterns and the dual-beam synthesis loop.

The synthesizer builds Chebyshev-tapered, phase-steered weights for a g-by-v
active block of the planar array, projects nulls out of the weight vector,
solves the per-element power from the EIRP target in closed form, and scores
each candidate by the relative sidelobe-level and EIRP mismatch.

One incumbent: feasible candidates rank first, then the cheapest, so the
answer is the cheapest candidate meeting both sidelobe minima, else the
cheapest of all.  A later candidate replaces it when it is feasible and the
incumbent is not, or when it costs less by more than TIE_TOLERANCE; a tie, or
a margin that reordered arithmetic could flip, keeps the earlier candidate.
One stopping rule: no candidate is scored once the incumbent is feasible
with cost under the threshold, or once counter_max distinct candidates have
been scored.  The sweep is deterministic: five taper setpoints at the full
aperture, then a per-plane coordinate search around the incumbent.  When
nothing there is feasible, it walks the shrunk active blocks and refines the
first that yields a feasible candidate; when none does, the sweep ends
without refining and leaves the rest of the budget unused.

Every candidate is a tapered, phase-steered outer product vx vz^T on its
active block, minus one outer product bx_n bz_n^T of axis factors per
projected null, and the null coefficients are a fixed linear map of vx vz^T
for the whole block.  So each active block gets one scoring record, built on
its first candidate: the factored null solve (skipped when there are no
nulls), each null column's pointing response, and its response over both
cuts at once.  A candidate then costs one 1-column product per axis,
covering both cuts, of which the coordinate search, moving one taper at a
time, recomputes only one.  No weight vector is built while scoring: the
incumbent keeps its null coefficients and pointing array factor, and the
returned weights are built from them, exactly the candidate that was scored.
Each cut's SLL is found on linear power, with one logarithm per cut.  The
elevation cut is scored first, and the azimuth cut only when the candidate
can still displace the incumbent.

`pattern_cut` contracts a whole weight matrix against the same per-axis
steering factors.  A cut is built arc first: from cached grid trig, only a
window around the pointing sample gets array-frame units and the arc tests,
and each axis factor takes one complex exponential, the half-step phasor,
which a recurrence symmetric about the aperture centre expands to every grid
row.  The z factors carry the element amplitude sqrt(g_e), so |a^H w|^2 is
the cut power as it stands.  Candidate scoring and `pattern_cut` share those
factors and the main-lobe rules (see _sidelobe_peak), so the achieved values
reported by a synthesis result re-derive from its weights to roundoff.
Everything here is pure given its inputs; results are immutable.

Factor memory: an evaluator's two (side, n_az + n_el) factor matrices
(about 0.8 MB each for M = 100 on the 0.05 degree grid), a block record's
null responses and its cached axis responses are plain numpy arrays, freed
with their owner.  The two factor matrices are one allocation.  Freeing it
raises glibc's mmap threshold past its size and the heap trim threshold to
twice that (mallopt(3), M_MMAP_THRESHOLD), so the next build takes memory
the heap already holds.  Two separate factor arrays would leave a free top
chunk over the trim threshold, and every build would fault its pages in
afresh: 201,590 minor faults against 77 over two dataset trajectories
(glibc 2.36, x86-64).  Calls share only read-only cached grids and tapers,
so concurrent calls need no lock.
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
    angular_separation,
    array_frame_unit,
    element_gain,
    rotation_matrix,
    steering,
)
from .units import from_db, to_db

# the one cut grid: every principal cut samples its parameter at this step
GRID_STEP_DEG = 0.05
_GRID_STEP_RAD = math.radians(GRID_STEP_DEG)
# samples on each side of the pointing in the index window holding an arc
_ARC_REACH = math.ceil(math.pi / 2 / _GRID_STEP_RAD) + 2
NULL_CONFLICT_DEG = 1.0
MIN_TAPER_SLL_DB = 5.0
MAIN_LOBE_MIN_DEPTH_DB = 6.0
# a candidate displaces an incumbent of its own feasibility only when it is
# cheaper by more than this: far above the roundoff of reordered scoring
# arithmetic (1.8e-16 seen), far below any stopping threshold
TIE_TOLERANCE = 1e-12
_PLANES = ("azimuth", "elevation")
_DB_FLOOR = 1e-40
_MAIN_LOBE_RATIO = 10.0 ** (-MAIN_LOBE_MIN_DEPTH_DB / 10.0)


class NullConflictError(ValueError):
    """A requested null lies within one degree of the pointing direction."""


@dataclass(frozen=True)
class BeamWeights:
    """Normalized complex excitations plus the per-element power scale."""

    entries: NDArray[np.complex128]
    power_per_element_mw: float

    def __post_init__(self) -> None:
        if self.power_per_element_mw <= 0.0:
            raise ValueError("power_per_element_mw must be positive")
        if np.max(np.abs(self.entries)) > 1.0 + 1e-9:
            raise ValueError("weight amplitudes must not exceed 1")

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
    k1: float = 1.0
    k2: float = 1.0
    threshold: float = 0.05
    counter_max: int = 200

    def __post_init__(self) -> None:
        if self.sll_min_az_db <= 0.0 or self.sll_min_el_db <= 0.0:
            raise ValueError("sidelobe minima must be positive dB values")
        if self.counter_max < 1:
            raise ValueError("counter_max must be at least 1")


@dataclass(frozen=True)
class SynthesisResult:
    weights: BeamWeights
    achieved_sll_az_db: float
    achieved_sll_el_db: float
    achieved_eirp_dbm: float
    active_rows: int
    active_cols: int
    iterations: int
    cost: float
    converged: bool

    @property
    def active_elements(self) -> int:
        return self.active_rows * self.active_cols


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
    return unit_array_gain(weights, config, unit, element_gain(unit))


def unit_array_gain(weights, config: ArrayConfig, unit, gain: float) -> float:
    """Linear power gain |a(unit)^H w|^2 gain toward an array-frame unit of element gain `gain`."""
    w = _weight_entries(weights)
    if w.shape[0] != config.num_elements:
        raise ValueError("weight length does not match the array size")
    return float(abs(np.vdot(steering(config, unit), w)) ** 2 * gain)


@functools.lru_cache(maxsize=len(_PLANES))
def _cut_grid(plane: str):
    """Cut parameter samples of one principal cut with their cosines and sines.

    The azimuth cut sweeps phi over [-pi, pi) in 7200 samples, the last one
    step and 4e-13 below pi, the elevation cut theta over [0, pi] in 3601,
    both at GRID_STEP_DEG.  The (angles, cos, sin) arrays are shared between calls
    and read-only.
    """
    step = _GRID_STEP_RAD
    if plane == "azimuth":
        angles = np.arange(-math.pi, math.pi, step)
    elif plane == "elevation":
        angles = np.arange(0.0, math.pi + step / 2, step)
    else:
        raise ValueError(f"unknown cut plane {plane!r}")
    grid = (angles, np.cos(angles), np.sin(angles))
    for a in grid:
        a.setflags(write=False)
    return grid


def _cut_arc(plane: str, pointing: DirectionAngles, rot):
    """Angles and array-frame units of the cut samples belonging to the beam.

    Keeps samples within 90 degrees of the pointing along the cut parameter
    and inside the beam's own half-space: a planar aperture radiates an exact
    mirror image through its own plane, which a ground plane suppresses in
    hardware, so the mirror hemisphere never enters the sidelobe accounting.
    The kept samples form the contiguous run around the pointing sample, so
    units and both tests are computed only on an index window two samples
    wider than 90 degrees on each side, whose edge samples always fail the
    angle test, also for windows that cross the azimuth seam at +-pi.  `rot`
    is the array's rotation matrix, so row i of the units is R^T u_i.
    Returns (angles, units) with strictly increasing angles (azimuth arcs
    crossing the wrap point are unwrapped past pi).
    """
    angles, cos, sin = _cut_grid(plane)
    n = angles.size
    reach = _ARC_REACH
    circular = plane == "azimuth"
    if circular:
        point_angle = math.atan2(math.sin(pointing.phi), math.cos(pointing.phi))
        point_index = int(np.argmin(np.abs(angles - point_angle)))
        window = np.arange(point_index - reach, point_index + reach + 1) % n
        sin_t = math.sin(pointing.theta)
        units = np.column_stack(
            [
                cos[window] * sin_t,
                sin[window] * sin_t,
                np.full(window.size, math.cos(pointing.theta)),
            ]
        )
        centre = reach
    else:
        point_index = int(np.argmin(np.abs(angles - pointing.theta)))
        window = slice(max(0, point_index - reach), min(n, point_index + reach + 1))
        units = np.column_stack(
            [
                math.cos(pointing.phi) * sin[window],
                math.sin(pointing.phi) * sin[window],
                cos[window],
            ]
        )
        centre = point_index - window.start
    window_angles = angles[window]
    units = units @ rot
    side = 1.0 if units[centre, 1] >= 0.0 else -1.0
    keep = side * units[:, 1] >= -1e-12
    if circular:
        # Round the circle consecutive samples are one step apart, and the
        # two across the seam one step and 4e-13.  A sample at index offset o
        # thus lies within |o| steps (plus 4e-13) of the pointing, so offsets
        # up to ceil(90 deg / step) - 1 = reach - 3 are under 90 degrees by
        # far more than the test's roundoff and pass it.  Only the three
        # outermost samples per side are tested.
        edges = [0, 1, 2, -3, -2, -1]
        delta = window_angles[edges] - angles[point_index]
        keep[edges] &= np.abs(np.arctan2(np.sin(delta), np.cos(delta))) <= math.pi / 2 + 1e-12
    else:
        keep &= np.abs(window_angles - angles[point_index]) <= math.pi / 2 + 1e-12
    dropped = np.flatnonzero(~keep)
    before = dropped[dropped < centre]
    after = dropped[dropped > centre]
    lo = int(before[-1]) + 1 if before.size else 0
    hi = int(after[0]) if after.size else keep.size
    arc_angles = window_angles[lo:hi].copy()
    if circular:
        wrapped = np.nonzero(np.diff(arc_angles) < 0)[0]
        if wrapped.size:
            arc_angles[wrapped[0] + 1 :] += 2.0 * math.pi
    return arc_angles, units[lo:hi]


def _axis_factors(config: ArrayConfig, units, z_amplitude=1.0):
    """Conjugated per-axis steering factors of array-frame units (n, 3): (side, n) each.

    Row r of the first is exp(-j k x_r u_x), row c of the second
    exp(-j k z_c u_z), over the row x and column z offsets of
    geometry.centered_grid_offsets (element r * side + c sits at (x_r, 0, z_c)):
    the conjugates that the a^H w contraction takes.  Those offsets are evenly
    spaced and symmetric about the aperture centre, so one complex
    exponential per axis, the half-step phasor h = exp(-j k d u / 2), builds
    every row: the first row at or above the centre is h for an even side and
    exactly 1 for an odd one, each row further up is the one below it times
    the step phasor h^2, and each row below the centre is the exact conjugate
    of its mirror.  `z_amplitude`, a real scale per unit, multiplies every
    row of the second factor; it enters through the first row at or above the
    centre, which the recurrence and the conjugate mirror carry to the rest.
    Both factors are views of one (2, side, n) array, a single allocation
    (see Factor memory in the module docstring).
    """
    side = config.side
    mid = side // 2
    phase = -0.5j * config.wavenumber * config.spacing_m
    out = np.empty((2, side, units.shape[0]), dtype=np.complex128)
    for u, f, amplitude in zip((units[:, 0], units[:, 2]), out, (1.0, z_amplitude)):
        half = np.exp(phase * u)
        f[mid] = (1.0 if side % 2 else half) * amplitude
        step = half * half
        for r in range(mid + 1, side):
            np.multiply(f[r - 1], step, out=f[r])
        np.conjugate(f[: (side - 1) // 2 : -1], out=f[:mid])
    return out


class _PatternEvaluator:
    """Caches conjugated per-axis steering factors for both principal cuts.

    The panel is a square grid in the array's XZ plane, so the steering
    vector toward array-frame direction u is the Kronecker product
    exp(j k u_x x) (x) exp(j k u_z z) of one factor per grid axis, and
    a^H w = e_x^H W e_z* with W the weights reshaped to (rows, columns).
    Each cut's samples come arc first: the grid trig is cached, and units
    are computed only on a window around the pointing sample (see _cut_arc).
    Both arcs sit side by side, azimuth then elevation, in one (side, n_az +
    n_el) factor matrix per grid axis, built with one complex exponential per
    axis by a symmetric recurrence (see _axis_factors), instead of a dense
    (n, side**2) steering matrix.  The z factors carry each sample's element
    amplitude sqrt(g_e), so |e_x^H W e_z*|^2 is the cut power with no gain
    multiply.  `cuts` holds each cut's angles and its slice of the factor
    columns.  `cut_gains_db` contracts a whole weight matrix, as
    `pattern_cut` needs; the synthesizer contracts its candidates against the
    fused factors one axis at a time, both cuts in one product (see _Block).
    """

    def __init__(self, config: ArrayConfig, rot, pointing: DirectionAngles):
        arcs = {plane: _cut_arc(plane, pointing, rot) for plane in _PLANES}
        units = np.concatenate([units for _, units in arcs.values()])
        self.ex, self.ez = _axis_factors(
            config, units, z_amplitude=np.sqrt(element_gain(units))
        )
        self.cuts: dict[str, tuple[NDArray[np.float64], slice]] = {}
        start = 0
        for plane, (angles, _) in arcs.items():
            self.cuts[plane] = (angles, slice(start, start + angles.size))
            start += angles.size

    def cut_gains_db(self, plane: str, weights: NDArray[np.complex128]):
        """Cut angles and gains (dB below the cut's peak) of (side, side) weights."""
        angles, span = self.cuts[plane]
        af = (np.matmul(weights.T, self.ex[:, span]) * self.ez[:, span]).sum(axis=0)
        return angles, _gains_db(np.square(af.real) + np.square(af.imag))


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
    elevation cut fixes phi and sweeps theta, both on the GRID_STEP_DEG grid.
    Both cover up to 90 degrees on each side of the beam within its own
    hemisphere (the mirror image through the aperture plane is excluded, as a
    ground plane would enforce).
    """
    ev = _PatternEvaluator(config, rotation_matrix(pose.angles), pointing)
    w = _weight_entries(weights).reshape(config.side, config.side)
    angles, gains_db = ev.cut_gains_db(plane, w)
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
    if n < 2:
        raise ValueError("taper needs at least two elements")
    if sll_db <= 0.0:
        raise ValueError("sidelobe level must be positive dB")
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
    it; the synthesizer solves its nulls in factored form (see _Block).
    """
    return w - basis @ np.linalg.lstsq(basis, w, rcond=None)[0]


def null_conflicts(null: DirectionAngles, pointing: DirectionAngles) -> bool:
    """True when a null lies within NULL_CONFLICT_DEG of the pointing direction."""
    return math.degrees(angular_separation(null, pointing)) < NULL_CONFLICT_DEG


def check_nulls(
    config: ArrayConfig,
    nulls: Sequence[DirectionAngles],
    pointing: DirectionAngles | None = None,
) -> None:
    """Reject more nulls than the array can place, or one on the pointing."""
    if len(nulls) >= config.num_elements:
        raise ValueError("cannot null as many directions as array elements")
    if pointing is not None and any(null_conflicts(null, pointing) for null in nulls):
        raise NullConflictError("null direction conflicts with the pointing direction")


def apply_nulls(
    weights: BeamWeights,
    config: ArrayConfig,
    pose: Pose,
    nulls: Sequence[DirectionAngles],
    pointing: DirectionAngles | None = None,
) -> BeamWeights:
    """Project the weights onto the complement of the null steering vectors.

    Zeroes a(null)^H w for every requested null while perturbing the input
    weights as little as possible.  When the pointing direction is supplied,
    a null within one degree of it is rejected.
    """
    nulls = tuple(nulls)
    if not nulls:
        return weights
    check_nulls(config, nulls, pointing)
    basis = steering(config, _frame_units(rotation_matrix(pose.angles), nulls)).T
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
    rows: int
    cols: int
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
    """Chebyshev taper of one block axis; a single element is untapered."""
    return chebyshev_taper(n, sll_db) if n > 1 else np.ones(1)


class _Block:
    """Factored scoring record of one rows-by-cols active block.

    A candidate on the block has the unprojected weights vx vz^T, vx and vz
    being the pointing's axis factors times the two tapers.  Projecting the
    nulls out subtracts sum_n c_n bx_n bz_n^T, with bx_n, bz_n the axis factors
    of null n and c = V S^-1 U^H vec(vx vz^T) the least-squares coefficients
    (Steyskal's minimum-norm perturbation), U S V^H being the thin SVD of the
    block's null basis, column n vec(bx_n bz_n^T).  The factors are applied
    one at a time: an explicit pseudo-inverse V S^-1 U^H rounds every entry
    at the scale of 1/s_min, and left two nulls 1e-9 rad apart at 2.6e-9 of
    the pointing response instead of 2.2e-10.  The Gram form
    (bx_m^H bx_n)(bz_m^H bz_n) would square the condition number and merge
    the two into one null.  The SVD is fixed for the block, and so are each
    null column's pointing response a_p^H (bx_n (x) bz_n) and its response
    over both cuts, Q_n = (bx_n^T Ex*)(bz_n^T Ez*), with Ex*, Ez* the
    evaluator's fused factors, whose z factors carry sqrt(g_e).  So a
    candidate's cut power is |af|^2 for af = (vx^T Ex*)(vz^T Ez*) - c^T Q,
    one 1-column product per axis for both cuts.  The coordinate search
    moves one taper at a time, so each axis keeps the response to its last
    taper and reuses it while that taper stays.  The pointing array factor is
    sum(tx) sum(tz) - c . (null pointing responses), since the steering
    factors have unit modulus.  A block without nulls (every sensing beam)
    has no SVD and no Q: its cut array factor is the product of the two axis
    responses alone.
    """

    def __init__(self, synth: "_Synthesizer", rows: int, cols: int):
        evaluator = synth.evaluator
        self.rows, self.cols = rows, cols
        self.cuts = evaluator.cuts
        self.ex, self.ez = evaluator.ex[:rows], evaluator.ez[:cols]
        ax, az = synth.axis_x[:rows], synth.axis_z[:cols]
        self.point_x, self.point_z = ax[:, 0], az[:, 0]
        self.null_response = None
        n = ax.shape[1] - 1
        if n:
            bx, bz = ax[:, 1:], az[:, 1:]
            # column n is vec(bx_n bz_n^T), flattened row-major as the weights are
            basis = (bx[:, None, :] * bz[None, :, :]).reshape(rows * cols, n)
            # singular values up to 1e-15 of the largest are dropped, as
            # np.linalg.pinv drops them, so coincident nulls count once
            u, s, vh = np.linalg.svd(basis, full_matrices=False)
            keep = s > 1e-15 * s[0]
            self.solve = u[:, keep].conj().T, s[keep], vh[keep].conj().T
            self.null_point = (self.point_x.conj() @ bx) * (self.point_z.conj() @ bz)
            # the z factors multiply in one null at a time, in place, so no
            # second (n, width) array is held
            self.null_response = np.matmul(bx.T, self.ex)
            for row, z in zip(self.null_response, bz.T):
                row *= z @ self.ez
        self._responses: list[tuple[float, NDArray[np.complex128]] | None] = [None, None]

    def _response(self, axis: int, sll_db: float, v, factors):
        """v^T factors over both cuts, reused while the axis taper stays at sll_db."""
        cached = self._responses[axis]
        if cached is not None and cached[0] == sll_db:
            return cached[1]
        response = v @ factors
        self._responses[axis] = (sll_db, response)
        return response

    def score(self, s_az: float, s_el: float):
        """Pointing array factor of one candidate, and the terms its cuts are built from.

        The array factor is that of the projected weights before
        _Synthesizer._weights normalises them, a scale that the cut power
        ratios and the EIRP do not see.  The terms go to `cut_power`.
        """
        tx, tz = _taper(self.rows, s_az), _taper(self.cols, s_el)
        vx, vz = self.point_x * tx, self.point_z * tz
        responses = self._response(0, s_az, vx, self.ex), self._response(1, s_el, vz, self.ez)
        af_point = tx.sum() * tz.sum()
        if self.null_response is None:
            return af_point, (responses, None)
        uh, s, v = self.solve
        coeff = v @ ((uh @ np.outer(vx, vz).ravel()) / s)
        return af_point - coeff @ self.null_point, (responses, coeff)

    def cut_power(self, terms, plane: str) -> NDArray[np.float64]:
        """Linear power of one cut of the candidate that `score` returned the terms of."""
        (rx, rz), coeff = terms
        span = self.cuts[plane][1]
        af = rx[span] * rz[span]
        if coeff is not None:
            af -= coeff @ self.null_response[:, span]
        return np.square(af.real) + np.square(af.imag)


class _Synthesizer:
    """Search state of one synthesis run.

    Candidates are scored through the record of their active block (see
    _Block), built on the block's first candidate; one record is live at a
    time, since the search finishes with a block before it moves to the
    next.  A cut's power is |af|^2, since the evaluator's z factors carry
    sqrt(g_e), and its SLL is found on that linear power (see
    _sll_from_power).  The elevation cut is scored first, and the azimuth
    cut only when the candidate can still displace the incumbent (see
    _cannot_win); the incumbent moves as _Candidate.displaces says.  Scoring
    builds no weight vector: the candidate keeps the null coefficients and
    pointing array factor of its score, and `_weights` builds the returned
    candidate's weights, their max(1, max|w|) normalisation and its
    per-element power from them, with no second null solve.
    """

    def __init__(self, request: SynthesisRequest, config: ArrayConfig, pose: Pose):
        self.request = request
        check_nulls(config, request.nulls, request.pointing)
        rot = rotation_matrix(pose.angles)
        self.evaluator = _PatternEvaluator(config, rot, request.pointing)
        # row 0 is the pointing, row 1 + n null n; so are the axis-factor columns
        units = _frame_units(rot, (request.pointing, *request.nulls))
        self.point_element_gain = element_gain(units[0])
        self.axis_x, self.axis_z = np.conj(_axis_factors(config, units))
        self.eirp_target_mw = from_db(request.eirp_target_dbm)
        self.side = config.side
        self.best: _Candidate | None = None
        self._block: _Block | None = None
        self._seen: set[tuple[int, int, float, float]] = set()

    def _weights(self, cand: _Candidate) -> tuple[BeamWeights, float]:
        """Normalised weights of the scored candidate sized to the EIRP target, and its EIRP (dBm).

        vx vz^T - sum_n c_n bx_n bz_n^T on the block, zero off it, with the c
        and the pointing array factor of the candidate's score (see _Block).
        """
        rows, cols = cand.rows, cand.cols
        ax, az = self.axis_x[:rows], self.axis_z[:cols]
        w = np.zeros((self.side, self.side), dtype=np.complex128)
        block = w[:rows, :cols]
        np.outer(ax[:, 0] * _taper(rows, cand.s_az), az[:, 0] * _taper(cols, cand.s_el), out=block)
        if cand.coeff is not None:
            block -= (ax[:, 1:] * cand.coeff) @ az[:, 1:].T
        scale = max(1.0, float(np.max(np.abs(w))))
        entries = w.ravel() / scale
        gain_point = float(abs(cand.af_point / scale) ** 2 * self.point_element_gain)
        ppe = self.eirp_target_mw / gain_point
        return BeamWeights(entries=entries, power_per_element_mw=ppe), to_db(ppe * gain_point)

    def _feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    def _converged(self) -> bool:
        return self._feasible() and self.best.cost < self.request.threshold

    def _cannot_win(self, cost_floor: float) -> bool:
        """True when an infeasible candidate costing at least cost_floor cannot win.

        It cannot when the incumbent is feasible, or when cost_floor is not
        below the incumbent's cost by more than TIE_TOLERANCE.  cost_floor is
        k1 times one cut's deficit plus the EIRP term; the full cost adds k1
        times the other, non-negative deficit, and float addition and scaling
        by k1 >= 0 are monotone, so the full cost is no lower.  With k1 < 0 it
        is no bound, and nothing is ruled out.
        """
        best = self.best
        return (
            best is not None
            and self.request.k1 >= 0.0
            and (best.feasible or cost_floor >= best.cost - TIE_TOLERANCE)
        )

    def _evaluate(self, rows: int, cols: int, s_az: float, s_el: float) -> bool:
        """Score one candidate; True when it becomes the incumbent.

        The only stopping rule: nothing is scored once the incumbent has
        converged or counter_max distinct candidates have been scored.  The
        elevation cut is scored first; when its SLL falls short and the
        candidate then cannot win, the azimuth cut is never built, and the
        candidate still counts as scored.
        """
        s_az = max(MIN_TAPER_SLL_DB, s_az)
        s_el = max(MIN_TAPER_SLL_DB, s_el)
        key = (rows, cols, round(s_az, 6), round(s_el, 6))
        if key in self._seen or self._converged() or len(self._seen) >= self.request.counter_max:
            return False
        self._seen.add(key)
        req = self.request
        if self._block is None or (self._block.rows, self._block.cols) != (rows, cols):
            self._block = _Block(self, rows, cols)
        af_point, terms = self._block.score(s_az, s_el)
        gain_point = float(abs(af_point) ** 2 * self.point_element_gain)
        if gain_point <= 0.0:
            return False
        ppe = self.eirp_target_mw / gain_point
        eirp_dbm = to_db(ppe * gain_point)
        denom = max(abs(req.eirp_target_dbm), 1.0)
        z2 = req.k2 * abs(eirp_dbm - req.eirp_target_dbm) / denom
        sll_el = _sll_from_power(self._block.cut_power(terms, "elevation"))
        deficit_el = _sll_cost_term(sll_el, req.sll_min_el_db)
        if sll_el < req.sll_min_el_db and self._cannot_win(req.k1 * deficit_el + z2):
            return False
        sll_az = _sll_from_power(self._block.cut_power(terms, "azimuth"))
        z1 = req.k1 * (_sll_cost_term(sll_az, req.sll_min_az_db) + deficit_el)
        cand = _Candidate(
            sll_az_db=sll_az,
            sll_el_db=sll_el,
            rows=rows,
            cols=cols,
            s_az=s_az,
            s_el=s_el,
            cost=z1 + z2,
            feasible=(sll_az >= req.sll_min_az_db and sll_el >= req.sll_min_el_db),
            af_point=af_point,
            coeff=terms[1],
        )
        if cand.displaces(self.best):
            self.best = cand
            return True
        return False

    def _coarse_sweep(self, rows: int, cols: int) -> None:
        req = self.request
        for offset in (0.0, 5.0, 10.0, 15.0, 20.0):
            self._evaluate(rows, cols, req.sll_min_az_db + offset, req.sll_min_el_db + offset)

    def _refine(self) -> None:
        """Coordinate search around the incumbent's tapers on its own block."""
        if self.best is None:
            return
        for step in (2.0, 1.0, 0.5, 0.25):
            improved = True
            while improved and not self._converged():
                improved = False
                for d_az, d_el in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                    best = self.best
                    improved |= self._evaluate(
                        best.rows, best.cols, best.s_az + d_az, best.s_el + d_el
                    )

    def run(self) -> SynthesisResult:
        side = self.side
        self._coarse_sweep(side, side)
        self._refine()
        if not self._feasible():
            # the full aperture cannot meet the minima; shrink the active block
            for rows, cols in [
                (g, v)
                for g in (side, side - 1, side - 2)
                for v in (side, side - 1, side - 2)
                if (g, v) != (side, side) and g >= 1 and v >= 1
            ]:
                self._coarse_sweep(rows, cols)
                if self._feasible():
                    self._refine()
                    break
        chosen = self.best
        if chosen is None:
            raise RuntimeError("synthesis produced no candidates")
        weights, eirp_dbm = self._weights(chosen)
        return SynthesisResult(
            weights=weights,
            achieved_sll_az_db=chosen.sll_az_db,
            achieved_sll_el_db=chosen.sll_el_db,
            achieved_eirp_dbm=eirp_dbm,
            active_rows=chosen.rows,
            active_cols=chosen.cols,
            iterations=len(self._seen),
            cost=chosen.cost,
            converged=self._converged(),
        )


def synthesize(request: SynthesisRequest, config: ArrayConfig, pose: Pose) -> SynthesisResult:
    """Run the beam-pattern optimizer for one pointing request.

    Returns the best candidate found; `converged` is False when the cost never
    dropped below the threshold within the iteration budget, in which case the
    result is best-effort.
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
