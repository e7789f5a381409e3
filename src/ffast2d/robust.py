"""The noise-robust bin classifier.

A robust plan goes through the same peeler.decode as a noiseless one
(same front end, rounds, batched subtraction and status rules); only
the classifier built here and the shift design differ, and core owns
that design and its check (core.design_shifts, check_robust_layout).
After the first pass, the engine hands the classifier only the bins of
a stage that a step's subtraction touched, one call per stage, as the
classifier reads each stage's own lattice geometry. Each live column
costs a ladder decode over many chains, so this classifier stays
vectorized across the columns it is given, where the noiseless one is a
scalar loop for small batches.

The ratio test breaks down once observations carry noise, so robust
stages use many chains: an anchor plus, per dimension and per bit level
j, repeated shift pairs (r, r + 2^j) with fresh random offsets r. The
phase difference of a pair's two observations isolates frac(2^j * u / n)
for a lone contributor at index u, independent of r, so a dyadic
unwrapping ladder rebuilds u level by level. Repetitions are combined by
a median over the per-repetition integer estimates, which equals the
majority answer whenever a strict majority agrees.

The offsets are drawn modulo the grid size, not the stage period, so a
stage's chains sit on few distinct lattices: n_g chains on lattice g.
The front end keeps one plane per lattice; the classifier tests a bin's
energy on the planes and derives the chains of a live bin from them by
a phase ramp. Chains on one lattice carry one noise draw, so the energy
and value thresholds against the per-bin noise variance sigma2/B are
sized by the multiplicities n_g, not by the chain count alone (see
_robust_scan). The value estimate is least squares across all chains
rather than the anchor alone. At sigma2 = 0 the classifier finds the
same singletons as the ratio test, so both modes peel alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (GAMMA_SINGLE, GAMMA_ZERO, Dims, FfastPlan, PlanError,
                   RobustParams, StageConfig, bit_levels, check_robust_layout,
                   design_shifts, robust_pairs)
from .frontend import BinObservation, _frozen, stage_lattices
from .peeler import BinClass, decode, observation_zero_threshold
from .roots import unit_roots

# a singleton's least-squares value must stand this many standard
# deviations of its noise above zero
VALUE_SIGMAS = 4.0


@dataclass(frozen=True)
class _DimLadder:
    """Chain bookkeeping for one dimension: pair p = j*reps + rep, the
    repetition rep at bit level j, is chains c1[p] and c2[p] = c1[p] + 1."""

    n: int
    levels: int
    reps: int
    c1: np.ndarray
    c2: np.ndarray


@lru_cache(maxsize=16)
def _ladders(dims: Dims, params: RobustParams) -> tuple[_DimLadder, ...]:
    """The x and y ladders of the robust layout (core.robust_pairs)."""
    axes = np.array([axis for axis, _, _ in robust_pairs(dims, params)])
    ladders = []
    for axis, n in enumerate((dims.nx, dims.ny)):
        c1 = _frozen(1 + 2 * np.flatnonzero(axes == axis))
        ladders.append(_DimLadder(n, bit_levels(n), params.pairs_per_level,
                                  c1, _frozen(c1 + 1)))
    return tuple(ladders)


def _ladder_decode(ys: np.ndarray, ladder: _DimLadder) -> np.ndarray:
    """Integer indices from pair phase differences, shape (m,) for (C, m) ys."""
    m = ys.shape[1]
    if ladder.levels == 0:
        return np.zeros(m, dtype=np.int64)
    frac = (np.angle(ys[ladder.c2] * np.conj(ys[ladder.c1])) / (2 * np.pi)
            % 1.0).reshape(ladder.levels, ladder.reps, m)
    est = frac[0]
    for j in range(1, ladder.levels):
        whole = np.rint(est * (1 << j) - frac[j])
        est = (whole + frac[j]) / (1 << j)
    ints = np.rint(est * ladder.n).astype(np.int64) % ladder.n
    return np.sort(ints, axis=0)[ladder.reps // 2]


def _estimate_bins(ys: np.ndarray, shifts: np.ndarray, ladders, dims: Dims):
    """Location, least-squares value and residual energy per column of ys.

    shifts is the (C, 2) int64 chain shift table.
    """
    uu = _ladder_decode(ys, ladders[0])
    vv = _ladder_decode(ys, ladders[1])
    w = (unit_roots(dims.nx)[shifts[:, :1] * uu % dims.nx]
         * unit_roots(dims.ny)[shifts[:, 1:] * vv % dims.ny])
    vals = (np.conj(w) * ys).sum(axis=0) / ys.shape[0]
    resid = (np.abs(ys - vals[None, :] * w) ** 2).sum(axis=0)
    return uu, vv, vals, resid


@dataclass(frozen=True)
class _StageChains:
    """A robust stage's chains and the lattice planes they are derived from.

    Chain c is plane inv[c] times a phase ramp of dq[c] lattice steps over
    the (bins_x, bins_y) bin grid; sizes[g] counts the chains of plane g
    and spread is the sum of their squares.
    """

    ladders: tuple
    shifts: np.ndarray
    inv: np.ndarray
    dq: np.ndarray
    sizes: np.ndarray
    spread: float
    bins: tuple[int, int]

    def expand(self, planes: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """(C, m) chain columns from (G, m) plane columns at flat bins pos."""
        bx, by = self.bins
        i, j = np.divmod(pos, by)
        ramp = (unit_roots(bx)[self.dq[:, :1] * i % bx]
                * unit_roots(by)[self.dq[:, 1:] * j % by])
        return planes[self.inv] * ramp


@lru_cache(maxsize=16)
def _stage_chains(dims: Dims, stage: StageConfig,
                  params: RobustParams) -> _StageChains:
    lat = stage_lattices(dims, stage)
    return _StageChains(_ladders(dims, params),
                        _frozen(stage.shifts), lat.inv, lat.dq, lat.sizes,
                        float(lat.sizes @ lat.sizes),
                        (stage.bins_x, stage.bins_y))


def _robust_scan(cols: np.ndarray, pos: np.ndarray, chains: _StageChains,
                 dims: Dims, sigma2: float, zero_thresh: float):
    """Energy test on (G, m) lattice columns at flat bins pos, then ladder
    estimates on the chains of the live columns.

    With n_g chains on plane g and C chains in all, a noise-only bin's
    energy sum_g n_g |y_g|^2 has mean C sigma2 and standard deviation
    sqrt(sum_g n_g^2) sigma2, and the least-squares value has variance
    sigma2 sum_g n_g^2 / C^2; both thresholds follow. The energy threshold
    is (C + GAMMA_ZERO sqrt(C sum_g n_g^2)) sigma2, which is
    (1 + GAMMA_ZERO) C sigma2 for independent chains (every n_g = 1), and
    a singleton's fit residual may reach (1 + GAMMA_SINGLE) C sigma2; both
    slacks are fixed in core.
    """
    n = len(chains.inv)
    m = cols.shape[1]
    floor = n * zero_thresh ** 2
    energy = chains.sizes @ (np.abs(cols) ** 2)
    nonzero = energy > ((n + GAMMA_ZERO * math.sqrt(n * chains.spread))
                        * sigma2 + floor)
    single = np.zeros(m, dtype=bool)
    uu = np.zeros(m, dtype=np.int64)
    vv = np.zeros(m, dtype=np.int64)
    vals = np.zeros(m, dtype=np.complex128)
    live = np.flatnonzero(nonzero)
    if live.size:
        ys = chains.expand(cols[:, live], pos[live])
        u, v, val, resid = _estimate_bins(ys, chains.shifts, chains.ladders,
                                          dims)
        single[live] = ((resid <= (1 + GAMMA_SINGLE) * n * sigma2
                         + floor) & (np.abs(val) > zero_thresh)
                        & (np.abs(val) ** 2 > VALUE_SIGMAS ** 2 * sigma2
                           * chains.spread / n ** 2))
        uu[live], vv[live], vals[live] = u, v, val
    return nonzero, single, uu, vv, vals


def robust_classify(obs: BinObservation, dims: Dims, params: RobustParams,
                    noise_var: float | None = None) -> BinClass:
    """Classifies one robust-layout observation vector.

    A lone vector carries no lattice structure, so its chains count as
    independent: every chain is its own plane.
    """
    check_robust_layout(dims, obs.shifts, params)
    n = len(obs.shifts)
    chains = _StageChains(_ladders(dims, params),
                          np.asarray(obs.shifts, dtype=np.int64), np.arange(n),
                          np.zeros((n, 2), dtype=np.int64),
                          np.ones(n, dtype=np.int64), n, (1, 1))
    ys = np.asarray(obs.values, dtype=np.complex128)[:, None]
    if ys.shape[0] != n:
        raise PlanError("expected %d chain values, got %d" % (n, ys.shape[0]))
    sigma2 = params.noise_var if noise_var is None else noise_var
    return BinClass.from_scan(_robust_scan(ys, np.zeros(1, dtype=np.int64),
                                           chains, dims, sigma2,
                                           observation_zero_threshold([ys])))


def robust_classifier(plan: FfastPlan, zero_thresh: float, unit: float):
    """The robust plan's bin classifier, as peeler.peel_stacks calls it,
    on observations scaled by `unit`."""
    params, dims = plan.robust_params, plan.dims
    chains = [_stage_chains(dims, s, params) for s in plan.stages]
    positions = [np.arange(s.bin_count) for s in plan.stages]
    sigma2_obs = [params.noise_var / s.bin_count * unit * unit
                  for s in plan.stages]

    def classify(si, idx, cols):
        return _robust_scan(cols, positions[si][idx], chains[si], dims,
                            sigma2_obs[si], zero_thresh)

    return classify


# the one decode's other name, imported by criteria 5, 8, 9 and perfbench;
# design_shifts, from core, is imported from here by criterion 8
robust_decode = decode
