"""The one decode, its peeling engine and the noiseless classifier.

decode runs the front end and peels its observation stacks with
`peel_stacks`, in either mode; the plan's mode picks only the bin
classifier: the ratio test below, or robust.robust_classifier.
A stack holds one plane per distinct lattice of its stage. A classifier
maps (planes, m) observation columns, one column per bin, to
(nonzero, singleton, u, v, value) arrays. The engine owns everything
else: first-pass bin statistics, rounds over the stages in order, the
check that a recovered location aliases back into the bin it came from,
subtraction of the peels from their bins in every plane of every stage
(with the weight of the plane's first chain), the live-bin churn check
and the status rules. One table of the plan's layout (_PeelLayout)
gives the bin of a location in every stage; it both places the peels
and checks the singletons' bins. decode scans the anchor planes once,
for the largest anchor, and derives both the unit scale and the zero
floor from it.

The noiseless classifier is the ratio test. Noiseless chains sit on
distinct lattices, so a bin's observation vector y has one entry per
delay chain,
y[c] = sum of X[u][v] * exp(2j*pi*(u*s1_c/nx + v*s2_c/ny)) over the
coefficients aliased into the bin. Under the noiseless chain layout
[(0,0), (1,0), (0,1)] a lone contributor betrays its location through

    u = (nx / 2pi) * angle(y[1] * conj(y[0])) mod nx
    v = (ny / 2pi) * angle(y[2] * conj(y[0])) mod ny

and its value is y[0] itself; every chain is then checked against it.

The engine is a worklist peeler. It classifies every bin once, keeps
the classification for the whole decode, and re-classifies a bin only
after a subtraction has touched it, so work after the first pass grows
with the peels, not with rounds times bins. Rounds visit the stages in
order. A stage step takes the stage's singletons in row-major bin order,
with no per-bin re-check: a peel found in stage s lands in stage s only
in its own bin, and the step's bins are distinct, so the classification
stays exact for the rest of the step. A singleton stands only if its
location aliases back into its own bin: the step reads that off the bins
its peels land in, which the subtraction needs anyway, and the first
pass checks its own singletons for the bin statistics. The step then
subtracts all of its peels from every stage in one batch and
re-classifies the bins it touched right away. Noiseless stages share one
plane layout and the ratio test reads nothing but the columns, so in a
noiseless decode the stages' columns sit side by side in one array, and
a step costs one subtraction and one classifier call whatever the number
of stages; the robust classifier reads each stage's own lattice
geometry, so it gets one call per stage. The peels are kept as arrays
and summed per location once, at the end; per-peel Python runs only for
a trace callback.

A re-classification batch of fewer than WHOLE_ARRAY_BATCH columns goes
through a scalar loop over columns, whose cost follows the columns it is
given, where one whole-array call costs tens of microseconds however few
columns it gets. Larger batches take one whole-array ratio test, which
makes the same decisions.

The first pass is one batch of every bin and takes the whole-array
ratio test (_first_pass), except for its zero-tons, the bins whose
anchor is at or below the zero floor, which go through the scalar loop.
That split keeps decode time growing with k on criterion 6's plans,
which differ in shape: the 2-stage k = 200 plan [1225, 81] has 1,306
bins, about 1,044 of them zero-tons, and decodes in about 3.6 stage
steps, while the 3-stage k = 100 plan [81, 25, 49] has 155 bins (29
zero-tons) and takes about 13.7 steps. Sending the zero-tons through the
whole-array test too speeds k = 200 far more than k = 100: in
bench/korder.py the k-order then held in 10 of 150 repeats
(t(100)/t(200) about 1.10) even with k = 100's 155-bin first pass kept
whole on the scalar loop, and in 3 of 150 (about 1.19) with every batch
on the whole-array test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (Dims, FfastPlan, MODE_NOISELESS, DecodeReport,
                   SparseSpectrum, STATUS_NOT_A_SINGLETON_LOOP,
                   STATUS_RESIDUAL_LEFT, STATUS_SUCCESS)
from .frontend import _frozen, distinct_cells, run_frontend, stage_lattices
from .roots import unit_root_list, unit_roots

KIND_ZERO_TON = "zero-ton"
KIND_SINGLETON = "singleton"
KIND_MULTI_TON = "multi-ton"

DEFAULT_TOL_ANGLE = 0.05
DEFAULT_TOL_RESIDUAL = 1e-6

# Re-classification batches of at least this many columns take the
# whole-array ratio test; smaller ones stay on the scalar loop, whose
# cost follows the columns. 280x280 at k = 3821 sends most of its
# re-classified columns through whole-array calls; the 2520x2520
# very-sparse decodes and criterion 6's k = 100 decodes never make a
# batch this large.
WHOLE_ARRAY_BATCH = 256

_TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class BinClass:
    """Classification of one bin: how many coefficients it holds."""

    kind: str
    location: tuple[int, int] | None = None
    value: complex = 0j

    @classmethod
    def from_scan(cls, scan) -> "BinClass":
        """The class of the single column a classifier was given."""
        nonzero, single, uu, vv, vals = scan
        if not nonzero[0]:
            return cls(KIND_ZERO_TON)
        if not single[0]:
            return cls(KIND_MULTI_TON)
        return cls(KIND_SINGLETON, (int(uu[0]), int(vv[0])), complex(vals[0]))


def observation_zero_threshold(stacks) -> float:
    """Floor separating empty bins from live ones, relative to the signal.

    The floor is 1e-9 times the largest anchor magnitude over all stages.
    A bin below it counts as empty, so a coefficient more than about 1e9
    below the largest one is never peeled, and the decode still reports
    success without it: a 30x30 [4, 9, 25] decode of
    {(1, 2): 1e10, (5, 7): 1.0} returns success with one entry.
    """
    return _zero_floor(_anchor_peak(stacks))


def _zero_floor(peak: float) -> float:
    """The zero floor for a largest anchor magnitude of peak."""
    return 1e-9 * peak


def _anchor_peak(stacks) -> float:
    """The largest anchor magnitude over all stages, 0 if none."""
    return max((float(np.abs(stack[0]).max()) for stack in stacks
                if stack.size), default=0.0)


def ratio_estimates(values, dims: Dims) -> tuple[float, float]:
    """Raw (pre-rounding) location estimates from the observation phases."""
    anchor, yx, yy = _three_planes(np.asarray(values), dims)
    return tuple(float(np.angle(y * np.conj(anchor)) * n / (2 * np.pi) % n)
                 for y, n in ((yx, dims.nx), (yy, dims.ny)))


def _three_planes(cols: np.ndarray, dims: Dims) -> np.ndarray:
    """The anchor, x-shifted and y-shifted rows of noiseless columns.

    An axis of size 1 has no shifted chain; the anchor stands in for it
    and passes the ratio test with location 0, so both tests read two
    axes whatever the grid.
    """
    if dims.nx > 1 and dims.ny > 1:
        return cols
    x = 1 if dims.nx > 1 else 0
    return cols[[0, x, x + 1 if dims.ny > 1 else 0]]


def _ratio_scan(cols: np.ndarray, dims: Dims, zero_thresh: float):
    """Ratio test on (C, m) noiseless-layout columns, one column per bin.

    Each chain after the anchor is shifted along one dimension only, so it
    gives that dimension's location and is checked against the anchor.
    One scalar pass per column: the cost follows the number of columns.
    The two axes are written out, as this loop is a decode's hottest.
    """
    nx, ny = dims.nx, dims.ny
    rx, ry = unit_root_list(nx), unit_root_list(ny)
    m = cols.shape[1]
    nonzero = np.zeros(m, dtype=bool)
    single = np.zeros(m, dtype=bool)
    uu = np.zeros(m, dtype=np.int64)
    vv = np.zeros(m, dtype=np.int64)
    phase, two_pi = cmath.phase, _TWO_PI
    tol_angle, tol_res = DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL
    planes = _three_planes(cols, dims).tolist()
    for b, (anchor, yx, yy) in enumerate(zip(*planes)):
        mag = abs(anchor)
        if mag <= zero_thresh:
            nonzero[b] = abs(yx) > zero_thresh or abs(yy) > zero_thresh
            continue
        nonzero[b] = True
        tol_residual = tol_res * mag
        # ||yx| - |anchor|| is a lower bound on the residual below, so
        # such a column fails it without its angles being taken
        if abs(abs(yx) - mag) > 2 * tol_residual:
            continue
        conj = anchor.conjugate()
        # phase(z) is atan2(z.imag, z.real), bit for bit
        est = phase(yx * conj) * nx / two_pi % nx
        u = round(est)
        if abs(est - u) > tol_angle:
            continue
        u %= nx
        if abs(yx - anchor * rx[u]) > tol_residual:
            continue
        est = phase(yy * conj) * ny / two_pi % ny
        v = round(est)
        if abs(est - v) > tol_angle:
            continue
        v %= ny
        if abs(yy - anchor * ry[v]) > tol_residual:
            continue
        single[b] = True
        uu[b] = u
        vv[b] = v
    return nonzero, single, uu, vv, cols[0]


def _ratio_scan_whole(cols: np.ndarray, dims: Dims, zero_thresh: float):
    """The ratio test of _ratio_scan as whole-array numpy expressions.

    It makes the same decisions as the scalar loop; angles and products
    may differ from CPython's in the last bit, which moves a decision only
    for an estimate within one rounding of a tolerance. An angle estimate
    lies in [-n/2, n/2], so adding n to a negative one is the loop's float
    `% n`, and only a location rounded up to n wraps to 0.
    """
    planes = _three_planes(cols, dims)
    mags = np.abs(planes)
    mag = mags[0]
    anchor, yx, yy = planes
    n = np.array([[dims.nx], [dims.ny]])
    est = np.angle(planes[1:] * anchor.conj()) * n / _TWO_PI
    est = np.where(est < 0, est + n, est)
    snapped = np.rint(est)
    loc = snapped.astype(np.int64)
    loc[loc == n] = 0
    tol = DEFAULT_TOL_RESIDUAL * mag
    single = ((mag > zero_thresh)
              & (np.abs(est - snapped) <= DEFAULT_TOL_ANGLE).all(axis=0)
              & (np.abs(yx - anchor * unit_roots(dims.nx)[loc[0]]) <= tol)
              & (np.abs(yy - anchor * unit_roots(dims.ny)[loc[1]]) <= tol))
    loc *= single
    return mags.max(axis=0) > zero_thresh, single, loc[0], loc[1], cols[0]


def _first_pass(cols: np.ndarray, dims: Dims, zero_thresh: float):
    """The whole-array ratio test of every column, with the zero-tons
    (anchor at or below the zero floor) taken again by the scalar loop,
    which decides them alike (see the module doc for why)."""
    nonzero, single, uu, vv, vals = _ratio_scan_whole(cols, dims, zero_thresh)
    zero = np.flatnonzero(np.abs(vals) <= zero_thresh)
    nonzero[zero], single[zero], uu[zero], vv[zero], _ = _ratio_scan(
        cols[:, zero], dims, zero_thresh)
    return nonzero, single, uu, vv, vals


def peel_stacks(stacks, plan: FfastPlan, classify, samples_touched: int,
                cut: float, unit: float, trace=None) -> DecodeReport:
    """Peels the plan's observation stacks with the given bin classifier.

    Each stack holds one plane per distinct lattice of its stage
    (frontend.stage_lattices). classify(si, idx, cols) takes (planes, m)
    observation columns, one column per bin, and returns
    (nonzero, singleton, u, v, value) arrays of length m, with singleton a
    subset of nonzero, u in [0, nx) and v in [0, ny). cols =
    stack[:, idx] of stage si, with idx a slice(None) on the first pass
    and an array of flat bin positions after it. On a noiseless plan,
    whose stages share one plane layout and whose classifier reads
    nothing but cols, it is called once per step on the columns of all
    stages side by side, with si None and idx positions in that joint
    array. The stacks hold the signal times `unit`; recovered
    coefficients at or below `cut` in those units are dropped from the
    spectrum, and the spectrum and the trace are divided by `unit`. The
    stacks are consumed.
    """
    dims = plan.dims
    stages = plan.stages
    lay = _peel_layout(dims, stages)
    offs, total = lay.offs, lay.offs[-1]
    row_bin, col_bin, stage_of = lay.row_bin, lay.col_bin, lay.stage_of
    flats = [stack.reshape(stack.shape[0], -1) for stack in stacks]
    # a group is (si, base, columns, its stages' rows of a batch, phase
    # tables), its columns being global bins base on: the noiseless group
    # holds every stage, from base 0, and its stages share one plane layout
    if plan.mode == MODE_NOISELESS:
        groups = [(None, 0, np.concatenate(flats, axis=1), slice(None),
                   lay.roots[0])]
    else:
        groups = [(si, offs[si], col, slice(si, si + 1), lay.roots[si])
                  for si, col in enumerate(flats)]

    nonzero = np.zeros(total, dtype=bool)
    single = np.zeros(total, dtype=bool)
    uu = np.zeros(total, dtype=np.int64)
    vv = np.zeros(total, dtype=np.int64)
    vals = np.zeros(total, dtype=np.complex128)
    # each stage's share of the classification
    windows = [(single[a:b], uu[a:b], vv[a:b], vals[a:b])
               for a, b in zip(offs, offs[1:])]

    def bins_of(u, v):
        # the global bin of each location in every stage, one row per stage
        at = row_bin.take(u, axis=1)
        at += col_bin.take(v, axis=1)
        return at

    def classify_bins(group, idx, at):
        si, _, col = groups[group][:3]
        nonzero[at], single[at], uu[at], vv[at], vals[at] = classify(
            si, idx, col if isinstance(idx, slice) else col.take(idx, axis=1))

    def subtract(pu, pv, pval, at):
        # the peels' bins are at = bins_of(pu, pv)
        for group, (_, base, col, rows, (rx, ry)) in enumerate(groups):
            # each plane's pval * exp(2j*pi*(s1*pu/nx + s2*pv/ny)) for its
            # first chain's shifts
            w = pval * rx.take(pu, axis=1)
            w *= ry.take(pv, axis=1)
            # peels that share a bin are subtracted one after the other
            pos = at[rows]
            idx = pos - base if base else pos
            np.subtract.at(col, (slice(None), idx), w[:, None])
            classify_bins(group, idx.ravel(), pos.ravel())

    for group, (_, base, col, _, _) in enumerate(groups):
        classify_bins(group, slice(None), slice(base, base + col.shape[1]))
    # a singleton stands only if its location aliases into the bin it came
    # from: the first pass's are checked here, for its bin statistics, and
    # a re-classified bin's when it is found
    for si, (window, s_uu, s_vv, _) in enumerate(windows):
        window &= (row_bin[si].take(s_uu) + col_bin[si].take(s_vv)
                   == np.arange(offs[si], offs[si + 1]))
    # a bin's kind is 0, 1 or 2: nonzero + single, added as ints, since
    # two bool arrays add as a logical or
    kinds = nonzero.astype(np.intp) + single
    counts = np.bincount(3 * stage_of + kinds,
                         minlength=3 * len(stages)).reshape(-1, 3).tolist()
    bin_stats = [{KIND_ZERO_TON: z, KIND_SINGLETON: s, KIND_MULTI_TON: m}
                 for z, m, s in counts]
    peels = []
    rounds = 0
    prev_live = float("inf")
    while True:
        rounds += 1
        progressed = False
        for si, (window, s_uu, s_vv, s_vals) in enumerate(windows):
            found = window.nonzero()[0]
            if not found.size:
                continue
            pu, pv = s_uu[found], s_vv[found]
            at = bins_of(pu, pv)
            stands = at[si] == found + offs[si]
            if np.count_nonzero(stands) < found.size:
                found, pu, pv, at = (found[stands], pu[stands], pv[stands],
                                     at[:, stands])
                if not found.size:
                    continue
            progressed = True
            pval = s_vals[found]
            peels.append((pu, pv, pval))
            if trace is not None:
                for b, u, v, value in zip(found.tolist(), pu.tolist(),
                                          pv.tolist(),
                                          (pval / unit).tolist()):
                    trace({"round": rounds, "stage": si,
                           "bin": divmod(b, stages[si].bins_y),
                           "location": (u, v), "value": value})
            subtract(pu, pv, pval, at)
        # a real peel drains (under noise, quiets) the bin it was detected
        # in, so genuine progress strictly shrinks the live-bin count; a
        # flat round is churn
        live = np.count_nonzero(nonzero)
        if not progressed or live >= prev_live:
            break
        prev_live = live
    entries, events = _sum_peels(peels, dims, cut, unit)
    if live:
        status = STATUS_NOT_A_SINGLETON_LOOP
    elif len(entries) == events:
        status = STATUS_SUCCESS
    else:
        status = STATUS_RESIDUAL_LEFT
    return DecodeReport(SparseSpectrum(dims, entries), samples_touched,
                        distinct_cells(dims, stages), rounds, status,
                        bin_stats)


@dataclass(frozen=True)
class _PeelLayout:
    """A plan's bins in one global index, built once per plan, read-only.

    Stage s holds global bins offs[s] to offs[s + 1], and stage_of names
    each global bin's stage. One table answers where a location (u, v)
    lands: its global bin in stage s is row_bin[s, u] + col_bin[s, v],
    with row_bin[s, u] = offs[s] + (u mod bins_x) * bins_y and
    col_bin[s, v] = v mod bins_y. It places a peel batch in every stage
    at once, and it checks that a singleton's location aliases back into
    the bin it came from. A plane holds its lattice's first chain:
    roots[s] holds the phase tables of stage s's planes (_plane_roots),
    which weigh a peel batch in every plane of the stage.
    """

    offs: list
    row_bin: np.ndarray
    col_bin: np.ndarray
    stage_of: np.ndarray
    roots: list


@lru_cache(maxsize=16)
def _plane_roots(dims: Dims, lead) -> tuple:
    """Phase tables of the planes whose first chains have shifts lead:
    row g of the first holds exp(2j*pi*s1_g*u/nx) for every u, which is
    unit_roots(nx) at s1_g * u mod nx, and the second likewise for s2
    and v. Built once per lead, read-only."""
    tables = []
    for n, steps in zip((dims.nx, dims.ny), zip(*lead)):
        rows = unit_roots(n).take(np.outer(steps, np.arange(n)), mode="wrap")
        rows.flags.writeable = False
        tables.append(rows)
    return tuple(tables)


@lru_cache(maxsize=16)
def _peel_layout(dims: Dims, stages) -> _PeelLayout:
    counts = [st.bin_count for st in stages]
    offs = np.cumsum([0] + counts).tolist()
    return _PeelLayout(
        offs,
        _frozen([off + np.arange(dims.nx) % st.bins_x * st.bins_y
                 for off, st in zip(offs, stages)]),
        _frozen([np.arange(dims.ny) % st.bins_y for st in stages]),
        _frozen(np.repeat(np.arange(len(stages)), counts)),
        [_plane_roots(dims, stage_lattices(dims, st).lead) for st in stages])


def _sum_peels(peels, dims: Dims, cut: float, unit: float):
    """The peels summed per location, in (u, v) order, above `cut`, divided
    by `unit`; and the number of peels.

    Each location's sum starts from zero and takes its peels in peel
    order, so a location peeled once keeps its value with any -0.0 part
    made +0.0. Keys are in-range ints and every kept value is nonzero
    (cut >= 0), so the spectrum takes the dict as it stands.
    """
    if not peels:
        return {}, 0
    pu, pv, pval = (np.concatenate(part) for part in zip(*peels))
    locs, inverse = np.unique(pu * dims.ny + pv, return_inverse=True)
    sums = np.empty(locs.size, dtype=np.complex128)
    sums.real = np.bincount(inverse, pval.real, locs.size)
    sums.imag = np.bincount(inverse, pval.imag, locs.size)
    keep = np.abs(sums) > cut
    u, v = np.divmod(locs[keep], dims.ny)
    return (dict(zip(zip(u.tolist(), v.tolist()),
                     (sums[keep] / unit).tolist())),
            pval.size)


def decode(source, plan: FfastPlan, *, min_magnitude: float = 0.0,
           trace=None) -> DecodeReport:
    """Front end plus peeling: the full sparse transform, either mode.

    Recovered values at or below max(min_magnitude, zero floor) are
    dropped, the zero floor being 1e-9 times the largest anchor
    magnitude (_zero_floor). Success means every bin ends at or below
    that floor and each peel kept an entry of its own: a dropped value
    leaves residual-left. min_magnitude must be finite and >= 0; any
    other value (a NaN or infinite one would drop every entry) raises
    ValueError before any sample is read.

    The stacks are peeled at unit scale: times the exact power of two
    that brings the largest anchor into [0.5, 1), with the zero floor,
    min_magnitude and a robust plan's noise variance (by its square)
    scaled alike, and the values scaled back at the end. No product of
    two observations then over- or underflows, so decoding c * x gives c
    times the spectrum of x from c = 1e-300 to 1e300, and where the
    unscaled stacks would peel without over- or underflow, the decisions
    and values are theirs, bit for bit.
    """
    if not 0 <= min_magnitude < math.inf:
        raise ValueError("min_magnitude must be finite and >= 0, got %r"
                         % (min_magnitude,))
    before = source.access_count
    stacks = run_frontend(plan, source)
    touched = source.access_count - before
    # the power of two that brings the largest anchor into [0.5, 1): 1 for
    # all-zero stacks, at most 2^1023, the largest a float holds; scaling
    # by it is exact, so peak * unit is the scaled stacks' largest anchor
    peak = _anchor_peak(stacks)
    unit = math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))
    for stack in stacks:
        stack *= unit
    zero_thresh = _zero_floor(peak * unit)
    if plan.mode == MODE_NOISELESS:
        def classify(si, idx, cols):
            if isinstance(idx, slice):
                return _first_pass(cols, plan.dims, zero_thresh)
            scan = (_ratio_scan if cols.shape[1] < WHOLE_ARRAY_BATCH
                    else _ratio_scan_whole)
            return scan(cols, plan.dims, zero_thresh)
    else:
        # a local import: robust.robust_decode must be this decode, as
        # criteria 5, 8 and 9 and perfbench import it from robust, so
        # robust imports peeler and a module-level import back is a cycle
        from .robust import robust_classifier
        classify = robust_classifier(plan, zero_thresh, unit)
    return peel_stacks(stacks, plan, classify, touched,
                       max(min_magnitude * unit, zero_thresh), unit, trace)
