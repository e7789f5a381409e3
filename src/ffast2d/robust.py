"""Noise-robust chain design and the robust bin classifier.

robust_decode runs the same worklist peeling engine as the noiseless
decoder (peeler.peel_stacks: same rounds, batched subtraction and status
rules); only the classifier and the shift design differ. The engine
hands the classifier only the bins a subtraction has touched since it
last read the stage. Each live column costs a ladder decode over many
chains, so this classifier stays vectorized across the columns it is
given, where the noiseless one is a scalar loop.

The ratio test breaks down once observations carry noise, so robust
stages use many chains: an anchor plus, per dimension and per bit level
j, repeated shift pairs (r, r + 2^j) with fresh random offsets r. The
phase difference of a pair's two observations isolates frac(2^j * u / n)
for a lone contributor at index u, independent of r, so a dyadic
unwrapping ladder rebuilds u level by level. Repetitions are combined by a median over the
per-repetition integer estimates, which equals the majority answer
whenever a strict majority agrees.

Energy thresholds against the per-bin noise variance sigma2/B replace the
exact zero test, and the value estimate is least squares across all
chains rather than the anchor alone. At sigma2 = 0 the classifier finds
the same singletons as the ratio test, so both decoders peel alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dims, FfastError, FfastPlan, MODE_ROBUST, DecodeReport,
                   RobustParams, bit_levels, robust_chain_count)
from .frontend import BinObservation, run_frontend
from .peeler import (BinClass, WrongShiftLayout, observation_zero_threshold,
                     peel_stacks)

__all__ = ["RobustParams", "design_shifts", "robust_classify", "robust_decode",
           "estimate_noise_variance"]


def design_shifts(dims: Dims, params: RobustParams, seed: int):
    """Anchor plus per-dimension dyadic offset pairs; deterministic in seed.

    Offsets are rejection-sampled for distinctness against all shifts so
    far; tiny grids that cannot avoid repeats fall back to duplicates.
    """
    rng = np.random.default_rng(seed)
    shifts = [(0, 0)]
    used = {(0, 0)}
    reps = params.chains_per_dim * params.reps
    for n, along_x in ((dims.nx, True), (dims.ny, False)):
        for j in range(bit_levels(n)):
            step = 1 << j
            for _ in range(reps):
                pair = None
                for _ in range(64):
                    r = int(rng.integers(n))
                    a, b = r, (r + step) % n
                    cand = ((a, 0), (b, 0)) if along_x else ((0, a), (0, b))
                    if cand[0] not in used and cand[1] not in used:
                        pair = cand
                        break
                    pair = pair or cand
                used.update(pair)
                shifts.extend(pair)
    return tuple(shifts)


@dataclass(frozen=True)
class _DimLadder:
    """Chain bookkeeping for one dimension: pairs[j*reps + rep] = (c1, c2)."""

    n: int
    levels: int
    reps: int
    pairs: tuple[tuple[int, int], ...]


def _parse_layout(shifts, dims: Dims, params: RobustParams):
    """Validates the design_shifts structure and indexes its pairs."""
    if len(shifts) != robust_chain_count(dims, params):
        raise WrongShiftLayout("expected %d chains, got %d"
                               % (robust_chain_count(dims, params), len(shifts)))
    if tuple(shifts[0]) != (0, 0):
        raise WrongShiftLayout("first chain must be the unshifted anchor")
    reps = params.chains_per_dim * params.reps
    ladders = []
    c = 1
    for n, along_x in ((dims.nx, True), (dims.ny, False)):
        pairs = []
        for j in range(bit_levels(n)):
            step = 1 << j
            for _ in range(reps):
                (a1, a2), (b1, b2) = shifts[c], shifts[c + 1]
                on, off = ((a1, b1), (a2, b2)) if along_x else ((a2, b2), (a1, b1))
                if off != (0, 0) or (on[1] - on[0]) % n != step:
                    raise WrongShiftLayout(
                        "chains %d,%d do not form a level-%d pair in %s"
                        % (c, c + 1, j, "x" if along_x else "y"))
                pairs.append((c, c + 1))
                c += 2
        ladders.append(_DimLadder(n, bit_levels(n), reps, tuple(pairs)))
    return ladders


def _ladder_decode(ys: np.ndarray, ladder: _DimLadder) -> np.ndarray:
    """Integer indices from pair phase differences, shape (m,) for (C, m) ys."""
    m = ys.shape[1]
    if ladder.levels == 0:
        return np.zeros(m, dtype=np.int64)
    frac = np.empty((ladder.levels, ladder.reps, m))
    for p, (c1, c2) in enumerate(ladder.pairs):
        j, rep = divmod(p, ladder.reps)
        frac[j, rep] = np.angle(ys[c2] * np.conj(ys[c1])) / (2 * np.pi) % 1.0
    est = frac[0]
    for j in range(1, ladder.levels):
        whole = np.rint(est * (1 << j) - frac[j])
        est = (whole + frac[j]) / (1 << j)
    ints = np.rint(est * ladder.n).astype(np.int64) % ladder.n
    return np.sort(ints, axis=0)[ladder.reps // 2]


def _estimate_bins(ys: np.ndarray, shifts_arr: np.ndarray, ladders,
                   dims: Dims):
    """Location, least-squares value and residual energy per column of ys."""
    uu = _ladder_decode(ys, ladders[0])
    vv = _ladder_decode(ys, ladders[1])
    ph = (uu[None, :] * shifts_arr[:, :1] / dims.nx
          + vv[None, :] * shifts_arr[:, 1:] / dims.ny)
    w = np.exp(2j * np.pi * ph)
    vals = (np.conj(w) * ys).sum(axis=0) / ys.shape[0]
    resid = (np.abs(ys - vals[None, :] * w) ** 2).sum(axis=0)
    return uu, vv, vals, resid


def _robust_scan(cols: np.ndarray, shifts_arr: np.ndarray, ladders,
                 dims: Dims, params: RobustParams, sigma2: float,
                 zero_thresh: float):
    """Energy test, then ladder estimates on the live columns of (C, m) cols."""
    chains, m = cols.shape
    floor = chains * zero_thresh ** 2
    energy = (np.abs(cols) ** 2).sum(axis=0)
    nonzero = energy > (1 + params.gamma_zero) * chains * sigma2 + floor
    single = np.zeros(m, dtype=bool)
    uu = np.zeros(m, dtype=np.int64)
    vv = np.zeros(m, dtype=np.int64)
    vals = np.zeros(m, dtype=np.complex128)
    live = np.flatnonzero(nonzero)
    if live.size:
        u, v, val, resid = _estimate_bins(cols[:, live], shifts_arr, ladders,
                                          dims)
        single[live] = ((resid <= (1 + params.gamma_single) * chains * sigma2
                         + floor) & (np.abs(val) > zero_thresh))
        uu[live], vv[live], vals[live] = u, v, val
    return nonzero, single, uu, vv, vals


def robust_classify(obs: BinObservation, dims: Dims, params: RobustParams,
                    noise_var: float | None = None,
                    zero_thresh: float | None = None) -> BinClass:
    """Classifies one robust-layout observation vector."""
    ladders = _parse_layout(obs.shifts, dims, params)
    ys = np.asarray(obs.values, dtype=np.complex128)[:, None]
    if ys.shape[0] != len(obs.shifts):
        raise WrongShiftLayout("expected %d chain values, got %d"
                               % (len(obs.shifts), ys.shape[0]))
    sigma2 = params.noise_var if noise_var is None else noise_var
    if zero_thresh is None:
        zero_thresh = observation_zero_threshold([ys])
    shifts_arr = np.asarray(obs.shifts, dtype=np.float64)
    return BinClass.from_scan(_robust_scan(ys, shifts_arr, ladders, dims,
                                           params, sigma2, zero_thresh))


def robust_decode(source, plan: FfastPlan, params: RobustParams | None = None,
                  min_magnitude: float = 0.0, max_rounds: int | None = None,
                  trace=None) -> DecodeReport:
    """Front end plus peeling with the robust classifier."""
    if plan.mode != MODE_ROBUST:
        raise FfastError("robust_decode() needs a robust-mode plan")
    if params is None:
        params = plan.robust_params
    if params is None:
        raise FfastError("no robust parameters on the plan or the call")
    plan.validate()
    dims = plan.dims
    ladders = [_parse_layout(s.shifts, dims, params) for s in plan.stages]
    shift_arrs = [np.asarray(s.shifts, dtype=np.float64) for s in plan.stages]
    sigma2_obs = [params.noise_var / s.bin_count for s in plan.stages]

    before = source.access_count
    stacks = run_frontend(plan, source)
    touched = source.access_count - before
    zero_thresh = observation_zero_threshold(stacks)

    def classify(si, cols):
        return _robust_scan(cols, shift_arrs[si], ladders[si], dims, params,
                            sigma2_obs[si], zero_thresh)

    return peel_stacks(stacks, plan, classify, touched, max_rounds,
                       max(min_magnitude, zero_thresh), trace)


def estimate_noise_variance(source, plan: FfastPlan) -> float:
    """Bootstrap per-sample noise variance from mostly-empty bins.

    Most bins hold no coefficient, so the median per-chain bin energy is a
    robust estimate of sigma2 / B; bins below 1.5x the median are averaged
    for the final figure and rescaled by B.
    """
    stacks = run_frontend(plan, source)
    per_stage = []
    for stack, stage in zip(stacks, plan.stages):
        e = (np.abs(stack) ** 2).mean(axis=0)
        med = float(np.median(e))
        quiet = e[e <= 1.5 * med] if med > 0 else e
        per_stage.append(float(quiet.mean()) * stage.bin_count)
    return float(np.mean(per_stage))
