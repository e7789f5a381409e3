"""The peeling engine shared by both decoders, and the noiseless classifier.

Both decoders run one loop, `peel_stacks`, over the front end's
observation stacks, and differ only in the bin classifier they plug in.
A stack holds one plane per distinct lattice of its stage. A classifier
maps a stage's (planes, m) observation columns, one column per bin, to
(nonzero, singleton, u, v, value) arrays. The engine owns everything
else: first-pass bin statistics, rounds over the stages in order, the
check that a recovered location aliases back into the bin it came from,
subtraction of the peels from their bins in every plane of every stage
(with the weight of the plane's first chain), the live-bin churn check
and the status rules.

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
each stage's classification for the whole decode, and re-classifies a
bin only after a subtraction has touched it, so work after the first
pass grows with the peels, not with rounds times bins. Rounds visit the
stages in order. A stage step takes the stage's singletons in row-major
bin order, with no per-bin re-check: a peel found in stage s lands in
stage s only in its own bin, and the step's bins are distinct, so the
classification stays exact for the rest of the step. The step then
subtracts all of its peels from every stage in one batch and marks the
bins it touched as dirty; a stage's dirty bins are re-classified before
the stage is next read, at its own step or at the round-end live count.

A re-classification batch is the set of dirty bins that one read of a
stage hands the classifier. Most batches are a handful of columns, and
the noiseless classifier is a scalar loop over columns: its cost follows
the columns it is given, where one whole-array call costs tens of
microseconds however few columns it gets (the two break even near 16
columns). A batch of at least WHOLE_ARRAY_BATCH columns goes through one
whole-array ratio test instead, which returns bit for bit what the loop
returns. At 280x280 with k = 3821 most re-classified columns come in
such batches; the 2520x2520 very-sparse decodes and criterion 6's
k = 100 and k = 200 decodes never make one.

The first pass stays on the scalar loop, although each of its batches
is a whole stage, only because of criterion 6. Vectorized, it lets the
2-stage k = 200 plan [1225, 81] decode faster than the 3-stage k = 100
plan [81, 25, 49], whose time is set by per-call cost over more stages
and rounds, and decode time stops growing with k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (Dims, FfastError, FfastPlan, MODE_NOISELESS, DecodeReport,
                   SparseSpectrum, STATUS_NOT_A_SINGLETON_LOOP,
                   STATUS_RESIDUAL_LEFT, STATUS_SUCCESS, noiseless_shifts)
from .frontend import (BinObservation, distinct_cells, run_frontend,
                       stage_lattices)

KIND_ZERO_TON = "zero-ton"
KIND_SINGLETON = "singleton"
KIND_MULTI_TON = "multi-ton"

DEFAULT_TOL_ANGLE = 0.05
DEFAULT_TOL_RESIDUAL = 1e-6

# Re-classification batches of at least this many columns take the
# whole-array ratio test. The two paths break even near 16 columns, but
# 256 keeps every batch of criterion 6's k = 100 and k = 200 decodes (at
# most 187 columns) and of the 2520x2520 very-sparse decodes (at most 61)
# on the scalar loop, whose cost follows the peels, so their k-order and
# per-peel cost stay as they were. 280x280 at k = 3821 still sends 86% of
# its re-classified columns, in batches of about 260 to 1,900, through
# one call per batch.
WHOLE_ARRAY_BATCH = 256


class WrongShiftLayout(FfastError, ValueError):
    """Observation chains do not follow the expected shift layout."""


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
    scale = 0.0
    for stack in stacks:
        if stack.size:
            scale = max(scale, float(np.abs(stack[0]).max()))
    return 1e-9 * scale


def ratio_estimates(values, dims: Dims) -> tuple[float, float]:
    """Raw (pre-rounding) location estimates from the observation phases."""
    values = np.asarray(values)
    est_u, est_v = 0.0, 0.0
    idx = 1
    if dims.nx > 1:
        est_u = float(np.angle(values[1] * np.conj(values[0]))
                      * dims.nx / (2 * np.pi) % dims.nx)
        idx = 2
    if dims.ny > 1:
        est_v = float(np.angle(values[idx] * np.conj(values[0]))
                      * dims.ny / (2 * np.pi) % dims.ny)
    return est_u, est_v


def _ratio_scan(cols: np.ndarray, dims: Dims, zero_thresh: float):
    """Ratio test on (C, m) noiseless-layout columns, one column per bin.

    Each chain after the anchor is shifted along one dimension only, so it
    gives that dimension's location and is checked against the anchor.
    One scalar pass per column: the cost follows the number of columns.
    """
    ns = [n for n in (dims.nx, dims.ny) if n > 1]
    m = cols.shape[1]
    nonzero = np.zeros(m, dtype=bool)
    single = np.zeros(m, dtype=bool)
    uu = np.zeros(m, dtype=np.int64)
    vv = np.zeros(m, dtype=np.int64)
    for b, ys in enumerate(cols.T.tolist()):
        anchor = ys[0]
        mag = abs(anchor)
        if mag <= zero_thresh:
            if max(map(abs, ys)) > zero_thresh:
                nonzero[b] = True
            continue
        nonzero[b] = True
        conj = anchor.conjugate()
        locs = []
        for n, y in zip(ns, ys[1:]):
            ratio = y * conj
            est = math.atan2(ratio.imag, ratio.real) * n / (2 * math.pi) % n
            snapped = round(est)
            loc = snapped % n
            if (abs(est - snapped) > DEFAULT_TOL_ANGLE
                    or abs(y - anchor * cmath.exp(2j * math.pi * (loc / n)))
                    > DEFAULT_TOL_RESIDUAL * mag):
                break
            locs.append(loc)
        else:
            single[b] = True
            if dims.nx > 1:
                uu[b] = locs[0]
            if dims.ny > 1:
                vv[b] = locs[-1]
    return nonzero, single, uu, vv, cols[0].copy()


def _ratio_scan_batch(cols: np.ndarray, dims: Dims, zero_thresh: float):
    """_ratio_scan as whole-array expressions, with the same results.

    numpy's complex multiply and complex abs round differently from
    CPython's, and its SIMD arctan2 differs from math.atan2 in the last
    bit, so products are formed on real parts as CPython forms them,
    magnitudes come from np.hypot and angles from math.atan2. The
    _unit_roots table holds cmath.exp's values.
    """
    m = cols.shape[1]
    re, im = cols.real, cols.imag
    mags = np.hypot(re, im)
    mag = mags[0]
    nonzero = mags.max(axis=0) > zero_thresh
    single = mag > zero_thresh
    ar, ai = re[0], im[0]
    ns = [n for n in (dims.nx, dims.ny) if n > 1]
    locs = []
    for row, n in enumerate(ns, 1):
        yr, yi = re[row], im[row]
        # angle of y * conj(anchor)
        angle = np.fromiter(map(math.atan2, (yi * ar - yr * ai).tolist(),
                                (yr * ar + yi * ai).tolist()),
                            np.float64, m)
        est = angle * n / (2 * math.pi) % n
        snapped = np.rint(est)
        loc = snapped.astype(np.int64) % n
        root = _unit_roots(n)[loc]
        wr, wi = root.real, root.imag
        # |y - anchor * root|
        residual = np.hypot(yr - (ar * wr - ai * wi), yi - (ar * wi + ai * wr))
        single &= ((np.abs(est - snapped) <= DEFAULT_TOL_ANGLE)
                   & (residual <= DEFAULT_TOL_RESIDUAL * mag))
        locs.append(loc)
    uu = np.where(single, locs[0], 0) if dims.nx > 1 else np.zeros(m, np.int64)
    vv = np.where(single, locs[-1], 0) if dims.ny > 1 else np.zeros(m, np.int64)
    return nonzero, single, uu, vv, cols[0].copy()


def ratio_test(obs: BinObservation, dims: Dims) -> BinClass:
    """Classifies one noiseless-layout observation; any nonzero chain is live."""
    expected = noiseless_shifts(dims)
    if tuple(obs.shifts) != expected:
        raise WrongShiftLayout("expected chain shifts %r, got %r"
                               % (expected, tuple(obs.shifts)))
    if len(obs.values) != len(expected):
        raise WrongShiftLayout("expected %d chain values, got %d"
                               % (len(expected), len(obs.values)))
    cols = np.asarray(obs.values, dtype=np.complex128)[:, None]
    return BinClass.from_scan(_ratio_scan(cols, dims, 0.0))


@lru_cache(maxsize=32)
def _unit_roots(n: int) -> np.ndarray:
    """exp(2j*pi*r/n) for r in range(n), read-only."""
    roots = np.exp(2j * np.pi * (np.arange(n) / n))
    roots.flags.writeable = False
    return roots


def peel_stacks(stacks, plan: FfastPlan, classify, samples_touched: int,
                max_rounds: int | None, cut: float, trace=None) -> DecodeReport:
    """Peels the plan's observation stacks with the given bin classifier.

    Each stack holds one plane per distinct lattice of its stage
    (frontend.stage_lattices). classify(stage_index, idx, cols) takes the
    (planes, m) columns cols = stack[:, idx] of one stage, one column per
    bin, and returns (nonzero, singleton, u, v, value) arrays of length m,
    with singleton a subset of nonzero. Recovered
    coefficients at or below `cut` in magnitude are dropped from the
    spectrum. The stacks are consumed.
    """
    dims = plan.dims
    stages = plan.stages
    cols = [stack.reshape(stack.shape[0], -1) for stack in stacks]
    ex, ey = _unit_roots(dims.nx), _unit_roots(dims.ny)
    # a plane holds its lattice's first chain; stages whose lattices start
    # with the same shifts share the weights of a peel batch
    layout_ids: dict = {}
    layout_of = [layout_ids.setdefault(stage_lattices(dims, st).lead,
                                       len(layout_ids)) for st in stages]
    layouts = [np.array(lead, dtype=np.int64).T[:, :, None]
               for lead in layout_ids]

    bins = [np.divmod(np.arange(st.bin_count), st.bins_y) for st in stages]

    def classify_bins(si, idx):
        stage, (ii, jj) = stages[si], bins[si]
        nonzero, single, uu, vv, vals = classify(si, idx, cols[si][:, idx])
        single = (single & (uu % stage.bins_x == ii[idx])
                  & (vv % stage.bins_y == jj[idx]))
        return [nonzero, single, uu, vv, vals]

    state = [classify_bins(si, slice(None)) for si in range(len(stages))]
    dirty = [np.zeros(st.bin_count, dtype=bool) for st in stages]

    def current(si):
        # re-classifies only the bins subtracted into since the last read
        idx = np.flatnonzero(dirty[si])
        if idx.size:
            dirty[si][idx] = False
            for arr, new in zip(state[si], classify_bins(si, idx)):
                arr[idx] = new
        return state[si]

    def subtract(uu, vv, vals):
        weights = [None] * len(layouts)
        for si, (col, st) in enumerate(zip(cols, stages)):
            lid = layout_of[si]
            if weights[lid] is None:
                s1, s2 = layouts[lid]
                weights[lid] = (vals * ex[s1 * uu % dims.nx]
                                * ey[s2 * vv % dims.ny])
            flat = uu % st.bins_x * st.bins_y + vv % st.bins_y
            np.subtract.at(col, (slice(None), flat), weights[lid])
            dirty[si][flat] = True

    bin_stats = []
    for nonzero, single, *_ in state:
        bin_stats.append({KIND_ZERO_TON: int(nonzero.size - nonzero.sum()),
                          KIND_SINGLETON: int(single.sum()),
                          KIND_MULTI_TON: int((nonzero & ~single).sum())})
    if max_rounds is None:
        max_rounds = sum(plan.bin_counts) + len(stages)
    recovered: dict[tuple[int, int], complex] = {}
    events = 0
    rounds = 0
    deadlock = False
    prev_live = float("inf")
    while rounds < max_rounds:
        rounds += 1
        progressed = False
        for si, stage in enumerate(stages):
            _, single, uu, vv, vals = current(si)
            found = np.flatnonzero(single)
            if not found.size:
                continue
            progressed = True
            uu, vv, vals = uu[found], vv[found], vals[found]
            for b, u, v, value in zip(found.tolist(), uu.tolist(), vv.tolist(),
                                      vals.tolist()):
                recovered[(u, v)] = recovered.get((u, v), 0j) + value
                if trace is not None:
                    trace({"round": rounds, "stage": si,
                           "bin": divmod(b, stage.bins_y),
                           "location": (u, v), "value": value})
            events += found.size
            subtract(uu, vv, vals)
        # a real peel drains (under noise, quiets) the bin it was detected
        # in, so genuine progress strictly shrinks the live-bin count; a
        # flat round is churn
        live = sum(int(current(si)[0].sum()) for si in range(len(stages)))
        if not progressed or live >= prev_live:
            deadlock = True
            break
        prev_live = live
    residual = any(current(si)[0].any() for si in range(len(stages)))
    # keys are in-range ints and every kept value is nonzero (cut >= 0), so
    # the spectrum takes the dict as it stands
    entries = {loc: val for loc, val in recovered.items() if abs(val) > cut}
    if not residual and len(entries) == events:
        status = STATUS_SUCCESS
    elif deadlock and residual:
        status = STATUS_NOT_A_SINGLETON_LOOP
    else:
        status = STATUS_RESIDUAL_LEFT
    return DecodeReport(SparseSpectrum(dims, entries), samples_touched,
                        distinct_cells(dims, stages), rounds, status,
                        bin_stats)


def decode(source, plan: FfastPlan, max_rounds: int | None = None,
           trace=None) -> DecodeReport:
    """Front end plus peeling: the full sparse transform, noiseless mode.

    Success means every bin ends at or below observation_zero_threshold,
    1e-9 times the largest anchor magnitude; coefficients below that
    floor are missing from a successful report.
    """
    if plan.mode != MODE_NOISELESS:
        raise FfastError("decode() handles noiseless plans; "
                         "robust plans go through robust_decode()")
    plan.validate()
    before = source.access_count
    stacks = run_frontend(plan, source)
    touched = source.access_count - before
    zero_thresh = observation_zero_threshold(stacks)

    def classify(si, idx, cols):
        # the first pass (idx is a slice) stays scalar: see the module doc
        scan = (_ratio_scan_batch if not isinstance(idx, slice)
                and cols.shape[1] >= WHOLE_ARRAY_BATCH else _ratio_scan)
        return scan(cols, plan.dims, zero_thresh)

    return peel_stacks(stacks, plan, classify, touched, max_rounds,
                       zero_thresh, trace)
