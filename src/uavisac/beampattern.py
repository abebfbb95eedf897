"""Array radiation patterns and the dual-beam synthesis loop.

The synthesizer builds Chebyshev-tapered, phase-steered weights for a g-by-v
active block of the planar array, projects nulls out of the weight vector,
solves the per-element power from the EIRP target in closed form, and scores
each candidate by the relative sidelobe-level and EIRP mismatch.

One incumbent: candidates rank by (infeasible, cost), so the answer is the
cheapest candidate meeting both sidelobe minima, else the cheapest of all; a
later candidate replaces it only on a strictly lower rank, never on a tie.
One stopping rule: no candidate is scored once the incumbent is feasible
with cost under the threshold, or once counter_max distinct candidates have
been scored.  The sweep is deterministic: five taper setpoints at the full
aperture, then a per-plane coordinate search around the incumbent.  When
nothing there is feasible, it walks the shrunk active blocks and refines the
first that yields a feasible candidate; when none does, the sweep ends
without refining and leaves the rest of the budget unused.

Every candidate is a tapered, phase-steered outer product vx vz^T on its
active block, minus one outer product per projected null, so its weights
reshaped to (rows, columns) are W = X Z^T with 1 + n_nulls columns.  Cuts
contract that factored form against per-axis steering factors; `pattern_cut`
contracts any weight vector through the same path as X = W, Z = I.  A cut is
built arc first: from cached grid trig, only a window around the pointing
sample gets array-frame units and the arc tests, and each axis factor takes
one complex exponential, the half-step phasor, which a recurrence symmetric
about the aperture centre expands to every grid row.  Pattern cuts, SLL
extraction and EIRP evaluation thus share one code path, so the achieved
values reported by a synthesis result can be re-derived from its weights.
Everything here is pure given its inputs; results are immutable.

Factor memory: each pattern evaluator takes flat buffers for its four
(side, n_arc) factor matrices and its cut products from a pool private to the
calling thread, and gives them back when it is collected, so a loop of
syntheses stops faulting fresh pages in on every build and every candidate.
Two live evaluators never share memory, and threads never share buffers.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
import weakref
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
    grid_axis_offsets,
    rotation_matrix,
    steering,
    steering_vector,
)
from .units import from_db, to_db

GRID_STEP_DEG = 0.05
NULL_CONFLICT_DEG = 1.0
MIN_TAPER_SLL_DB = 5.0
MAIN_LOBE_MIN_DEPTH_DB = 6.0
_DB_FLOOR = 1e-40


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
    w = _weight_entries(weights)
    if w.shape[0] != config.num_elements:
        raise ValueError("weight length does not match the array size")
    unit = array_frame_unit(angles, direction)
    return float(abs(np.vdot(steering(config, unit), w)) ** 2 * element_gain(unit))


@functools.lru_cache(maxsize=16)
def _cut_grid(plane: str, step_deg: float):
    """Cut parameter samples of one principal cut with their cosines and sines.

    The azimuth cut sweeps phi over [-pi, pi), the elevation cut theta over
    [0, pi].  The (angles, cos, sin) arrays are shared between calls and
    read-only.
    """
    step = math.radians(step_deg)
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


def _arc_reach(step_deg: float) -> int:
    """Samples on each side of the pointing in the index window holding an arc."""
    return math.ceil(math.pi / 2 / math.radians(step_deg)) + 2


def _cut_arc(plane: str, pointing: DirectionAngles, rot, step_deg: float):
    """Angles and array-frame units of the cut samples belonging to the beam.

    Keeps samples within 90 degrees of the pointing along the cut parameter
    and inside the beam's own half-space: a planar aperture radiates an exact
    mirror image through its own plane, which a ground plane suppresses in
    hardware, so the mirror hemisphere never enters the sidelobe accounting.
    The kept samples form the contiguous run around the pointing sample, so
    units and both tests are computed only on an index window two samples
    wider than 90 degrees on each side, whose edge samples always fail the
    angle test (the azimuth grid may end with a sample that duplicates -pi to
    roundoff, which shifts a window across the seam by at most one sample).
    `rot` is the array's rotation matrix, so row i of the units is R^T u_i.
    Returns (angles, units) with strictly increasing angles (azimuth arcs
    crossing the wrap point are unwrapped past pi).
    """
    angles, cos, sin = _cut_grid(plane, step_deg)
    n = angles.size
    reach = _arc_reach(step_deg)
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
        # Round the circle consecutive samples are one step apart, except
        # across the seam, where the gap is at most one step (next to nothing
        # on the 0.03 and 0.09 degree grids, whose last sample duplicates -pi
        # to roundoff).  A sample at index offset o thus lies at most |o|
        # steps from the pointing, so offsets up to ceil(90 deg / step) - 1
        # = reach - 3 are under 90 degrees by more than the test's roundoff
        # and pass it.  Only the three outermost samples per side are tested.
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


def _axis_factors(config: ArrayConfig, units, out=None):
    """Conjugated per-axis steering factors of array-frame units (n, 3): (side, n) each.

    Row r of the first is exp(-j k x_r u_x), row c of the second
    exp(-j k z_c u_z), over the grid offsets of grid_axis_offsets: the
    conjugates that the a^H w contraction takes.  Those offsets are evenly
    spaced and symmetric about the aperture centre, so one complex
    exponential per axis, the half-step phasor h = exp(-j k d u / 2), builds
    every row: the first row at or above the centre is h for an even side and
    exactly 1 for an odd one, each row further up is the one below it times
    the step phasor h^2, and each row below the centre is the exact conjugate
    of its mirror.  `out`, when given, is a pair of complex (side, n) arrays
    written in place and returned; otherwise both are allocated.
    """
    side = config.side
    mid = side // 2
    phase = -0.5j * config.wavenumber * config.spacing_m
    if out is None:
        out = [np.empty((side, units.shape[0]), dtype=np.complex128) for _ in range(2)]
    for u, f in zip((units[:, 0], units[:, 2]), out):
        half = np.exp(phase * u)
        f[mid] = 1.0 if side % 2 else half
        step = half * half
        for r in range(mid + 1, side):
            np.multiply(f[r - 1], step, out=f[r])
        np.conjugate(f[: (side - 1) // 2 : -1], out=f[:mid])
    return out


class _BufferPool:
    """Free flat complex buffers, listed by length, of one thread's evaluators."""

    def __init__(self):
        self.free: dict[int, list[NDArray[np.complex128]]] = {}

    def take(self, size: int, count: int) -> list[NDArray[np.complex128]]:
        free = self.free.setdefault(size, [])
        return [free.pop() if free else np.empty(size, dtype=np.complex128) for _ in range(count)]

    def give(self, buffers) -> None:
        # the finalizer may run on another thread; only the owning thread
        # pops, and list append and pop are atomic, so no lock is needed
        for buffer in buffers:
            self.free[buffer.size].append(buffer)


class _ThreadPool(threading.local):
    """The calling thread's buffer pool, created on the thread's first use."""

    def __init__(self):
        self.pool = _BufferPool()


_thread = _ThreadPool()


def _view(buffer: NDArray[np.complex128], rows: int, cols: int) -> NDArray[np.complex128]:
    """The leading rows * cols entries of a flat buffer as a C-ordered matrix."""
    return buffer[: rows * cols].reshape(rows, cols)


class _PatternEvaluator:
    """Caches conjugated per-axis steering factors for both principal cuts.

    The panel is a square grid in the array's XZ plane, so the steering
    vector toward array-frame direction u is the Kronecker product
    exp(j k u_x x) (x) exp(j k u_z z) of one factor per grid axis.  Weights
    come in factored form W = X Z^T, W being the weights reshaped to (rows,
    columns), and a^H w = sum_j (e_x^H X_j)(e_z^H Z_j).  `pattern_cut` passes
    X = W and Z = I; the synthesizer passes its Chebyshev candidate and one
    column per null, 1 + n_nulls columns in all.  Each cut's samples come
    arc first: the grid trig is cached, and units are computed only on a
    window around the pointing sample (see _cut_arc).  A cut of n arc
    samples thus costs two (side, n) factor matrices, built with one complex
    exponential per axis by a symmetric recurrence (see _axis_factors), and
    2 n side (1 + n_nulls) products per candidate instead of a dense
    (n, side**2) steering matrix.

    `columns` bounds the columns of the X and Z that cuts contract.

    The four factor matrices, and the two (columns, n) products that every
    cut of this evaluator reuses, live in flat buffers taken from the calling
    thread's pool, sized for the longest arc the grid step allows, window =
    2 reach + 1 samples: four of side * window entries for the factors and
    two of columns * window for the products.  An (r, n) array is the
    contiguous view buffer[: r * n].reshape(r, n), the layout a fresh array
    has.  A finalizer returns the buffers to that pool when the evaluator is
    collected, so two live evaluators never share memory, and evaluators
    built on different threads never share buffers.
    """

    def __init__(
        self,
        config: ArrayConfig,
        pose: Pose,
        pointing: DirectionAngles,
        step_deg: float = GRID_STEP_DEG,
        *,
        columns: int,
    ):
        rot = rotation_matrix(pose.angles)
        side = config.side
        pool = _thread.pool
        window = 2 * _arc_reach(step_deg) + 1
        factors = pool.take(side * window, 4)
        self.products = pool.take(columns * window, 2)
        weakref.finalize(self, pool.give, factors + self.products)
        self.cuts: dict[str, tuple] = {}
        for i, plane in enumerate(("azimuth", "elevation")):
            angles, units = _cut_arc(plane, pointing, rot, step_deg)
            out = [_view(b, side, units.shape[0]) for b in factors[2 * i : 2 * i + 2]]
            ex_conj, ez_conj = _axis_factors(config, units, out=out)
            self.cuts[plane] = (angles, ex_conj, ez_conj, element_gain(units))

    def cut_gains_db(self, plane: str, x: NDArray[np.complex128], z: NDArray[np.complex128]):
        """Cut angles and gains (dB below the cut's peak) of the weights x z^T."""
        angles, ex_conj, ez_conj, ge = self.cuts[plane]
        px, pz = (_view(b, x.shape[1], ex_conj.shape[1]) for b in self.products)
        np.matmul(x.T, ex_conj, out=px)
        af = np.multiply(px, np.matmul(z.T, ez_conj, out=pz), out=px).sum(axis=0)
        power = np.abs(af) ** 2 * ge
        peak = power.max()
        if peak <= 0.0:
            return angles, np.full(power.shape, -400.0)
        norm = np.maximum(power / peak, _DB_FLOOR)
        return angles, 10.0 * np.log10(norm)


def pattern_cut(
    weights,
    config: ArrayConfig,
    pose: Pose,
    plane: str,
    pointing: DirectionAngles,
    step_deg: float = GRID_STEP_DEG,
) -> PatternCut:
    """Principal cut through the pointing direction, normalized to 0 dB peak.

    The azimuth cut fixes theta at the pointing value and sweeps phi; the
    elevation cut fixes phi and sweeps theta.  Both cover up to 90 degrees on
    each side of the beam within its own hemisphere (the mirror image through
    the aperture plane is excluded, as a ground plane would enforce).
    """
    if step_deg > 0.1:
        raise ValueError("cut grid step must be at most 0.1 degrees")
    side = config.side
    ev = _PatternEvaluator(config, pose, pointing, step_deg, columns=side)
    w = _weight_entries(weights).reshape(side, side)
    angles, gains_db = ev.cut_gains_db(plane, w, np.eye(side))
    return PatternCut(plane=plane, angles_rad=angles, gains_db=gains_db)


def _sll_from_gains(gains_db: NDArray[np.float64]) -> float:
    gains = np.asarray(gains_db, dtype=np.float64)
    peak = int(np.argmax(gains))
    # a boundary minimum must sit well below the peak; shallower dips are
    # main-lobe ripple (element-pattern lift near the cut edge), not nulls
    below = gains <= gains[peak] - MAIN_LOBE_MIN_DEPTH_DB
    # nearest i <= peak with gains[i - 1] > gains[i], and nearest i >= peak
    # with gains[i + 1] > gains[i], among samples below the threshold
    left_hits = np.flatnonzero((gains[:peak] > gains[1 : peak + 1]) & below[1 : peak + 1])
    right_hits = np.flatnonzero((gains[peak + 1 :] > gains[peak:-1]) & below[peak:-1])
    left = int(left_hits[-1]) + 1 if left_hits.size else 0
    right = peak + int(right_hits[0]) if right_hits.size else gains.size - 1
    outside = np.concatenate([gains[:left], gains[right + 1 :]])
    if outside.size == 0:
        return math.inf
    return float(gains[peak] - outside.max())


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


def _frame_units(pose: Pose, directions: Sequence[DirectionAngles]) -> NDArray[np.float64]:
    """Array-frame units of the directions, (n, 3); (0, 3) when there are none."""
    return np.reshape([array_frame_unit(pose.angles, d) for d in directions], (-1, 3))


def _project_out(
    w: NDArray[np.complex128],
    basis: NDArray[np.complex128],
    active: NDArray[np.bool_],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Least-squares projection of w onto the orthogonal complement of basis.

    The projection runs inside the subspace of the active-element mask, so
    switched-off elements stay at zero.  Returns (projected w, c), c being the
    least-squares coefficients of the removed component on the basis columns.
    """
    if basis.shape[1] == 0:
        return w, np.zeros(0, dtype=np.complex128)
    out = w.copy()
    sub = basis[active]
    coeff = np.linalg.lstsq(sub, w[active], rcond=None)[0]
    out[active] = w[active] - sub @ coeff
    return out, coeff


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
    basis = steering(config, _frame_units(pose, nulls)).T
    projected, _ = _project_out(_weight_entries(weights), basis, np.ones(config.num_elements, bool))
    scale = max(1.0, float(np.max(np.abs(projected))))
    return BeamWeights(
        entries=projected / scale,
        power_per_element_mw=weights.power_per_element_mw * scale**2,
    )


@dataclass
class _Candidate:
    entries: NDArray[np.complex128]
    ppe_mw: float
    sll_az_db: float
    sll_el_db: float
    eirp_dbm: float
    rows: int
    cols: int
    s_az: float
    s_el: float
    cost: float
    feasible: bool

    @property
    def rank(self) -> tuple[bool, float]:
        """Feasible candidates first, then the cheapest."""
        return (not self.feasible, self.cost)


def _sll_cost_term(measured_db: float, requested_db: float) -> float:
    """Relative sidelobe deficit against the requested minimum.

    The minima are inequality constraints, so surplus SLL carries no penalty;
    only falling short of the request contributes to the cost.
    """
    if math.isinf(measured_db):
        return 0.0
    return max(0.0, (requested_db - measured_db) / requested_db)


class _Synthesizer:
    def __init__(self, request: SynthesisRequest, config: ArrayConfig, pose: Pose):
        self.request = request
        check_nulls(config, request.nulls, request.pointing)
        self.evaluator = _PatternEvaluator(
            config, pose, request.pointing, columns=1 + len(request.nulls)
        )
        # row 0 is the pointing, row 1 + n null n; so are the axis-factor columns
        units = _frame_units(pose, (request.pointing, *request.nulls))
        self.point_steering = steering(config, units[0])
        self.point_element_gain = element_gain(units[0])
        self.null_basis = steering(config, units[1:]).T  # (M, n_nulls) columns
        self.axis_x, self.axis_z = np.conj(_axis_factors(config, units))
        self.eirp_target_mw = from_db(request.eirp_target_dbm)
        self.side = config.side
        self.best: _Candidate | None = None
        self._seen: set[tuple[int, int, float, float]] = set()

    def _build_entries(self, rows: int, cols: int, s_az: float, s_el: float):
        """Candidate weights on a rows-by-cols block: (entries, X, Z) with W = X Z^T.

        The tapered, phase-steered candidate is the outer product vx vz^T of
        one factor per grid axis.  Projecting the nulls out inside the block
        subtracts sum_n c_n bx_n bz_n^T, so X = [vx, -c_n bx_n] and
        Z = [vz, bz_n], both zero off the block; see grid_axis_offsets.
        """
        tx = chebyshev_taper(rows, s_az) if rows > 1 else np.ones(1)
        tz = chebyshev_taper(cols, s_el) if cols > 1 else np.ones(1)
        x = np.zeros_like(self.axis_x)
        z = np.zeros_like(self.axis_z)
        x[:rows] = self.axis_x[:rows]
        z[:cols] = self.axis_z[:cols]
        x[:rows, 0] *= tx
        z[:cols, 0] *= tz
        active = np.zeros((self.side, self.side), dtype=bool)
        active[:rows, :cols] = True
        w, coeff = _project_out(np.outer(x[:, 0], z[:, 0]).ravel(), self.null_basis, active.ravel())
        x[:, 1:] *= -coeff
        scale = max(1.0, float(np.max(np.abs(w))))
        return w / scale, x / scale, z

    def _feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    def _converged(self) -> bool:
        return self._feasible() and self.best.cost < self.request.threshold

    def _evaluate(self, rows: int, cols: int, s_az: float, s_el: float) -> bool:
        """Score one candidate; True when it becomes the incumbent.

        The only stopping rule: nothing is scored once the incumbent has
        converged or counter_max distinct candidates have been scored.
        """
        s_az = max(MIN_TAPER_SLL_DB, s_az)
        s_el = max(MIN_TAPER_SLL_DB, s_el)
        key = (rows, cols, round(s_az, 6), round(s_el, 6))
        if key in self._seen or self._converged() or len(self._seen) >= self.request.counter_max:
            return False
        self._seen.add(key)
        req = self.request
        entries, x, z = self._build_entries(rows, cols, s_az, s_el)
        af_point = abs(np.vdot(self.point_steering, entries)) ** 2
        gain_point = float(af_point * self.point_element_gain)
        if gain_point <= 0.0:
            return False
        ppe = self.eirp_target_mw / gain_point
        eirp_dbm = to_db(ppe * gain_point)
        _, az_db = self.evaluator.cut_gains_db("azimuth", x, z)
        _, el_db = self.evaluator.cut_gains_db("elevation", x, z)
        sll_az = _sll_from_gains(az_db)
        sll_el = _sll_from_gains(el_db)
        z1 = req.k1 * (
            _sll_cost_term(sll_az, req.sll_min_az_db)
            + _sll_cost_term(sll_el, req.sll_min_el_db)
        )
        denom = max(abs(req.eirp_target_dbm), 1.0)
        z2 = req.k2 * abs(eirp_dbm - req.eirp_target_dbm) / denom
        cand = _Candidate(
            entries=entries,
            ppe_mw=ppe,
            sll_az_db=sll_az,
            sll_el_db=sll_el,
            eirp_dbm=eirp_dbm,
            rows=rows,
            cols=cols,
            s_az=s_az,
            s_el=s_el,
            cost=z1 + z2,
            feasible=(sll_az >= req.sll_min_az_db and sll_el >= req.sll_min_el_db),
        )
        # strictly lower rank only: an exact tie keeps the earlier candidate
        if self.best is None or cand.rank < self.best.rank:
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
            while improved:
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
        return SynthesisResult(
            weights=BeamWeights(entries=chosen.entries, power_per_element_mw=chosen.ppe_mw),
            achieved_sll_az_db=chosen.sll_az_db,
            achieved_sll_el_db=chosen.sll_el_db,
            achieved_eirp_dbm=chosen.eirp_dbm,
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


def beampattern_gain(
    matrix: BeamformingMatrix, config: ArrayConfig, pose: Pose, target
) -> float:
    """Transmit power density radiated toward the target location.

    Sum of the two rank-one beam contributions |a^H w|^2 with amplitude-scaled
    weight vectors; invariant under per-beam global phase rotation.
    """
    a = steering_vector(config, pose.position, pose.angles, target)
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
