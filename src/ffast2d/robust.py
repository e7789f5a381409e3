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
a phase ramp, both read from the front end's lattice table
(frontend.stage_lattices). Chains on one lattice carry one noise draw, so
the energy and value thresholds against the per-bin noise variance
sigma2/B are sized by the multiplicities n_g, not by the chain count
alone (see _energy_test and _fit). A lone vector (robust_classify) has
independent chains and goes to the same energy test and the same fit.

Each axis's ladder reads its pairs as two strided views of the chain
axis, ys[a:b:2] and ys[a + 1:b:2], with [a, b) from core._robust_span,
the pair order design_shifts and check_robust_layout also follow. The
value estimate is least squares across all chains rather than the anchor
alone. At sigma2 = 0 the classifier finds the same singletons as the
ratio test, so both modes peel alike.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (GAMMA_SINGLE, GAMMA_ZERO, Dims, FfastPlan, PlanError,
                   RobustParams, _robust_span, check_robust_layout,
                   design_shifts, int_shifts)
from .frontend import BinObservation, NonFiniteSample, stage_lattices
from .peeler import BinClass, decode, observation_zero_threshold
from .roots import unit_roots

# a singleton's least-squares value must stand this many standard
# deviations of its noise above zero
VALUE_SIGMAS = 4.0


def _ladder_decode(ys: np.ndarray, n: int, span: tuple[int, int],
                   reps: int) -> np.ndarray:
    """Integer indices in [0, n) from the phase differences of the pairs in
    chains span = [a, b) (core._robust_span), shape (m,) for (C, m) ys."""
    a, b = span
    levels = (b - a) // (2 * reps)
    if levels == 0:
        return np.zeros(ys.shape[1], dtype=np.int64)
    frac = (np.angle(ys[a + 1:b:2] * np.conj(ys[a:b:2])) / (2 * np.pi)
            % 1.0).reshape(levels, reps, ys.shape[1])
    est = frac[0]
    for j in range(1, levels):
        whole = np.rint(est * (1 << j) - frac[j])
        est = (whole + frac[j]) / (1 << j)
    ints = np.rint(est * n).astype(np.int64) % n
    return np.sort(ints, axis=0)[reps // 2]


def _energy_test(energy, n: int, spread: float, sigma2: float,
                 zero_thresh: float) -> np.ndarray:
    """Which bins hold more than noise, from energy = sum_g n_g |y_g|^2.

    With n_g chains on plane g and n chains in all, spread = sum_g n_g^2,
    a noise-only bin's energy has mean n sigma2 and standard deviation
    sqrt(spread) sigma2. The threshold is (n + GAMMA_ZERO sqrt(n spread))
    sigma2, which is (1 + GAMMA_ZERO) n sigma2 for independent chains
    (every n_g = 1); the slack is fixed in core.
    """
    return energy > ((n + GAMMA_ZERO * math.sqrt(n * spread)) * sigma2
                     + n * zero_thresh ** 2)


def _fit(ys: np.ndarray, shifts: np.ndarray, dims: Dims,
         params: RobustParams, sigma2: float, spread: float,
         zero_thresh: float):
    """Singleton test, location and least-squares value per column of the
    (C, m) chain columns ys; shifts is the (C, 2) chain shift array.

    A singleton's fit residual may reach (1 + GAMMA_SINGLE) C sigma2, and
    its value, whose variance is sigma2 spread / C^2, must stand
    VALUE_SIGMAS deviations above zero.
    """
    n = ys.shape[0]
    uu, vv = (_ladder_decode(ys, size, _robust_span(dims, params, axis),
                             params.pairs_per_level)
              for axis, size in enumerate((dims.nx, dims.ny)))
    w = (unit_roots(dims.nx)[shifts[:, :1] * uu % dims.nx]
         * unit_roots(dims.ny)[shifts[:, 1:] * vv % dims.ny])
    vals = (np.conj(w) * ys).sum(axis=0) / n
    resid = (np.abs(ys - vals[None, :] * w) ** 2).sum(axis=0)
    single = ((resid <= (1 + GAMMA_SINGLE) * n * sigma2 + n * zero_thresh ** 2)
              & (np.abs(vals) > zero_thresh)
              & (np.abs(vals) ** 2 > VALUE_SIGMAS ** 2 * sigma2 * spread
                 / n ** 2))
    return single, uu, vv, vals


def robust_classify(obs: BinObservation, dims: Dims, params: RobustParams,
                    noise_var: float | None = None) -> BinClass:
    """Classifies one robust-layout observation vector.

    A lone vector carries no lattice structure, so its chains count as
    independent: its energy is sum_c |y_c|^2 and its spread is C. A
    noise_var override replaces params.noise_var through RobustParams,
    which refuses a NaN, negative or infinite one.
    """
    if noise_var is not None:
        params = dataclasses.replace(params, noise_var=noise_var)
    shifts = int_shifts(obs.shifts)
    check_robust_layout(dims, shifts, params)
    n = len(shifts)
    ys = np.asarray(obs.values, dtype=np.complex128)[:, None]
    if ys.shape[0] != n:
        raise PlanError("expected %d chain values, got %d" % (n, ys.shape[0]))
    if not np.isfinite(ys).all():
        raise NonFiniteSample("non-finite chain value in a robust vector")
    zero_thresh = observation_zero_threshold([ys])
    nonzero = _energy_test((np.abs(ys) ** 2).sum(axis=0), n, n,
                           params.noise_var, zero_thresh)
    fit = _fit(ys, np.asarray(shifts, dtype=np.int64), dims, params,
               params.noise_var, n, zero_thresh)
    return BinClass.from_scan((nonzero,) + fit)


def robust_classifier(plan: FfastPlan, zero_thresh: float, unit: float):
    """The robust plan's bin classifier, as peeler.peel_stacks calls it,
    on observations scaled by `unit`.

    Stage si's chain c is plane inv[c] of its lattice table
    (frontend.stage_lattices) times a phase ramp of dq[c] lattice steps
    over the bin grid. The energy test runs on the planes; only the live
    columns are expanded to chains and fitted.
    """
    params, dims = plan.robust_params, plan.dims
    lattices = [stage_lattices(dims, s) for s in plan.stages]
    spreads = [float(lat.sizes @ lat.sizes) for lat in lattices]
    sigma2_obs = [params.noise_var / s.bin_count * unit * unit
                  for s in plan.stages]

    def classify(si, idx, cols):
        lat, stage, sigma2 = lattices[si], plan.stages[si], sigma2_obs[si]
        nonzero = _energy_test(lat.sizes @ (np.abs(cols) ** 2), len(lat.inv),
                               spreads[si], sigma2, zero_thresh)
        single, uu, vv, vals = (np.zeros(cols.shape[1], dtype=t) for t in
                                (bool, np.int64, np.int64, np.complex128))
        live = np.flatnonzero(nonzero)
        if live.size:
            bx, by = stage.bins_x, stage.bins_y
            i, j = np.divmod(np.arange(stage.bin_count)[idx][live], by)
            ramp = (unit_roots(bx)[lat.dq[:, :1] * i % bx]
                    * unit_roots(by)[lat.dq[:, 1:] * j % by])
            single[live], uu[live], vv[live], vals[live] = _fit(
                cols[:, live][lat.inv] * ramp, lat.shifts, dims, params,
                sigma2, spreads[si], zero_thresh)
        return nonzero, single, uu, vv, vals

    return classify


# the one decode's other name, imported by criteria 5, 8, 9 and perfbench;
# design_shifts, from core, is imported from here by criterion 8
robust_decode = decode
