"""The peeling engine shared by both decoders, and the noiseless classifier.

Both decoders run one loop, `peel_stacks`, over the front end's
observation stacks, and differ only in the bin classifier they plug in.
A classifier maps a stage's (C, m) observation columns, one column per
bin, to (nonzero, singleton, u, v, value) arrays. The engine owns
everything else: first-pass bin statistics, rounds over the stages in
order, the check that a recovered location aliases back into the bin it
came from, subtraction of each peel from its bin in every stage, the
live-bin churn check and the status rules.

The noiseless classifier is the ratio test. A bin's observation vector y
has one entry per delay chain,
y[c] = sum of X[u][v] * exp(2j*pi*(u*s1_c/nx + v*s2_c/ny)) over the
coefficients aliased into the bin. Under the noiseless chain layout
[(0,0), (1,0), (0,1)] a lone contributor betrays its location through

    u = (nx / 2pi) * angle(y[1] * conj(y[0])) mod nx
    v = (ny / 2pi) * angle(y[2] * conj(y[0])) mod ny

and its value is y[0] itself; every chain is then checked against it.

Each stage step classifies the whole stage once and peels its singletons
in row-major bin order, with no per-bin re-check: a peel found in stage s
lands in stage s only in its own bin, and the step's bins are distinct,
so the scan stays exact for the rest of the step. Subtraction stays one
peel at a time, into every stage: per-peel cost is what keeps decode
time growing with k rather than with the number of stage steps, which
the runtime-flatness acceptance check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dims, FfastError, FfastPlan, MODE_NOISELESS, DecodeReport,
                   SparseSpectrum, STATUS_NOT_A_SINGLETON_LOOP,
                   STATUS_RESIDUAL_LEFT, STATUS_SUCCESS, noiseless_shifts)
from .frontend import BinObservation, chain_weights, run_frontend

KIND_ZERO_TON = "zero-ton"
KIND_SINGLETON = "singleton"
KIND_MULTI_TON = "multi-ton"

DEFAULT_TOL_ANGLE = 0.05
DEFAULT_TOL_RESIDUAL = 1e-6


class WrongShiftLayout(FfastError, ValueError):
    """Observation chains do not follow the expected shift layout."""


@dataclass(frozen=True)
class BinClass:
    """Classification of one bin: how many coefficients it holds."""

    kind: str
    location: tuple[int, int] | None = None
    value: complex = 0j

    @classmethod
    def zero_ton(cls) -> "BinClass":
        return cls(KIND_ZERO_TON)

    @classmethod
    def singleton(cls, location, value) -> "BinClass":
        return cls(KIND_SINGLETON, (int(location[0]), int(location[1])),
                   complex(value))

    @classmethod
    def multi_ton(cls) -> "BinClass":
        return cls(KIND_MULTI_TON)

    @classmethod
    def from_scan(cls, scan) -> "BinClass":
        """The class of the single column a classifier was given."""
        nonzero, single, uu, vv, vals = scan
        if not nonzero[0]:
            return cls.zero_ton()
        if not single[0]:
            return cls.multi_ton()
        return cls.singleton((uu[0], vv[0]), vals[0])


def observation_zero_threshold(stacks) -> float:
    """Floor separating empty bins from live ones, relative to the signal."""
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


def _ratio_scan(cols: np.ndarray, dims: Dims, tol_angle: float,
                tol_residual: float, zero_thresh: float):
    """Ratio test on (C, m) noiseless-layout columns, one column per bin.

    Each chain after the anchor is shifted along one dimension only, so it
    gives that dimension's location and is checked against the anchor.
    """
    anchor = cols[0]
    mag = np.abs(anchor)
    nonzero = np.abs(cols).max(axis=0) > zero_thresh
    n = np.array([d for d in (dims.nx, dims.ny) if d > 1]).reshape(-1, 1)
    ratio = cols[1:] * np.conj(anchor)
    est = np.arctan2(ratio.imag, ratio.real) * n / (2 * np.pi) % n
    snapped = np.rint(est)
    locs = snapped.astype(np.int64) % n
    w = np.exp(2j * np.pi * (locs / n))
    single = (nonzero & (mag > zero_thresh)
              & (np.abs(est - snapped) <= tol_angle).all(axis=0)
              & (np.abs(cols[1:] - anchor * w) <= tol_residual * mag).all(axis=0))
    uu, vv = np.zeros((2, anchor.size), dtype=np.int64)
    if dims.nx > 1:
        uu = locs[0]
    if dims.ny > 1:
        vv = locs[-1]
    return nonzero, single, uu, vv, anchor.copy()


def ratio_test(obs: BinObservation, dims: Dims,
               tol_angle: float = DEFAULT_TOL_ANGLE,
               tol_residual: float = DEFAULT_TOL_RESIDUAL,
               zero_thresh: float = 0.0) -> BinClass:
    """Classifies one noiseless-layout observation."""
    expected = noiseless_shifts(dims)
    if tuple(obs.shifts) != expected:
        raise WrongShiftLayout("expected chain shifts %r, got %r"
                               % (expected, tuple(obs.shifts)))
    if len(obs.values) != len(expected):
        raise WrongShiftLayout("expected %d chain values, got %d"
                               % (len(expected), len(obs.values)))
    cols = np.asarray(obs.values, dtype=np.complex128)[:, None]
    return BinClass.from_scan(_ratio_scan(cols, dims, tol_angle,
                                          tol_residual, zero_thresh))


def peel_stacks(stacks, plan: FfastPlan, classify, samples_touched: int,
                max_rounds: int | None, cut: float, trace=None) -> DecodeReport:
    """Peels the plan's observation stacks with the given bin classifier.

    classify(stage_index, cols) takes a stage's (C, m) columns and returns
    (nonzero, singleton, u, v, value) arrays of length m, with singleton
    a subset of nonzero. Recovered coefficients at or below `cut` in
    magnitude are dropped from the spectrum. The stacks are consumed.
    """
    dims = plan.dims
    stages = plan.stages
    cols = [stack.reshape(stack.shape[0], -1) for stack in stacks]
    bins = [np.divmod(np.arange(st.bin_count), st.bins_y) for st in stages]
    scans = [None] * len(stages)

    def scan(si):
        # a scan stays valid until the next peel changes any stack
        if scans[si] is None:
            stage, (ii, jj) = stages[si], bins[si]
            nonzero, single, uu, vv, vals = classify(si, cols[si])
            single = (single & (uu % stage.bins_x == ii)
                      & (vv % stage.bins_y == jj))
            scans[si] = nonzero, single, uu, vv, vals
        return scans[si]

    bin_stats = []
    for si in range(len(stages)):
        nonzero, single = scan(si)[:2]
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
            _, single, uu, vv, vals = scan(si)
            found = np.flatnonzero(single)
            if not found.size:
                continue
            progressed = True
            scans[:] = [None] * len(stages)
            for b in found:
                u, v, value = int(uu[b]), int(vv[b]), complex(vals[b])
                recovered[(u, v)] = recovered.get((u, v), 0j) + value
                events += 1
                if trace is not None:
                    trace({"round": rounds, "stage": si,
                           "bin": divmod(int(b), stage.bins_y),
                           "location": (u, v), "value": value})
                for col, st in zip(cols, stages):
                    col[:, u % st.bins_x * st.bins_y + v % st.bins_y] -= (
                        value * chain_weights(dims, st, u, v))
        # a real peel drains (under noise, quiets) the bin it was detected
        # in, so genuine progress strictly shrinks the live-bin count; a
        # flat round is churn
        live = sum(int(scan(si)[0].sum()) for si in range(len(stages)))
        if not progressed or live >= prev_live:
            deadlock = True
            break
        prev_live = live
    residual = any(scan(si)[0].any() for si in range(len(stages)))
    entries = {loc: val for loc, val in recovered.items() if abs(val) > cut}
    if not residual and len(entries) == events:
        status = STATUS_SUCCESS
    elif deadlock and residual:
        status = STATUS_NOT_A_SINGLETON_LOOP
    else:
        status = STATUS_RESIDUAL_LEFT
    return DecodeReport(SparseSpectrum.from_entries(dims, entries),
                        samples_touched, rounds, status, bin_stats)


def decode(source, plan: FfastPlan, max_rounds: int | None = None,
           tol_angle: float = DEFAULT_TOL_ANGLE,
           tol_residual: float = DEFAULT_TOL_RESIDUAL,
           trace=None) -> DecodeReport:
    """Front end plus peeling: the full sparse transform, noiseless mode."""
    if plan.mode != MODE_NOISELESS:
        raise FfastError("decode() handles noiseless plans; "
                         "robust plans go through robust_decode()")
    plan.validate()
    before = source.access_count
    stacks = run_frontend(plan, source)
    touched = source.access_count - before
    zero_thresh = observation_zero_threshold(stacks)

    def classify(si, cols):
        return _ratio_scan(cols, plan.dims, tol_angle, tol_residual,
                           zero_thresh)

    return peel_stacks(stacks, plan, classify, touched, max_rounds,
                       zero_thresh, trace)
