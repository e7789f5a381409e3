"""Subsampling front end: shifted decimation plus small dense DFTs.

Each stage samples the signal on a coarse lattice, shifted by each of the
stage's offsets, and takes a small 2D FFT of every shifted grid. With the
1/B normalization used here the resulting bin arrays obey the aliasing
identity: bin (i, j) holds the shift-weighted sum of all coefficients
X[u][v] with u = i (mod bins_x) and v = j (mod bins_y).

A stage is gathered in a few grid reads, not one per chain. Chains that
share a column offset read their row lattices back to back against that
one column lattice; the chains left alone are grouped by row offset.
Both the noiseless layout [(0,0), (1,0), (0,1)] and the robust dyadic
layout, whose offsets all lie on one axis, take two reads per stage.
A source evaluates each distinct row and column of a read once, so the
robust chains that repeat a lattice cost one evaluation, not one each.

The (chains, bins_x, bins_y) stack then takes one batched FFT, written in
place: the stack is the largest array of a decode, and a second copy of
it for the FFT output would set the decode's peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dims, FfastError, FfastPlan, StageConfig


class ShapeMismatch(FfastError, ValueError):
    """Source grid does not match the plan's grid."""


class NonFiniteSample(FfastError, ValueError):
    """The source returned a NaN or infinite sample."""


@dataclass(frozen=True)
class BinObservation:
    """One bin's per-chain outputs; values[c] belongs to shifts[c]."""

    stage: int
    bin: tuple[int, int]
    values: np.ndarray
    shifts: tuple[tuple[int, int], ...]


def _read_groups(shifts):
    """Chains that share one lattice offset, as (by_column, chain indices).

    Chains with a common column offset form one group; the chains left
    alone are grouped by row offset.
    """
    by_col: dict[int, list[int]] = {}
    for c, (_, s2) in enumerate(shifts):
        by_col.setdefault(s2, []).append(c)
    groups = [(True, cs) for cs in by_col.values() if len(cs) > 1]
    by_row: dict[int, list[int]] = {}
    for cs in by_col.values():
        if len(cs) == 1:
            by_row.setdefault(shifts[cs[0]][0], []).append(cs[0])
    return groups + [(False, cs) for cs in by_row.values()]


def stage_observations(source, dims: Dims, stage: StageConfig) -> np.ndarray:
    """All shifted aliased spectra of a stage, shape (shifts, bins_x, bins_y)."""
    bx, by = stage.bins_x, stage.bins_y
    shifts = np.asarray(stage.shifts, dtype=np.int64).reshape(-1, 2)
    rows = (shifts[:, :1] + stage.sub_x * np.arange(bx)) % dims.nx
    cols = (shifts[:, 1:] + stage.sub_y * np.arange(by)) % dims.ny
    out = np.empty((len(shifts), bx, by), dtype=np.complex128)
    for by_column, cs in _read_groups(stage.shifts):
        if by_column:
            grid = source.sample_grid(rows[cs].ravel(), cols[cs[0]])
            out[cs] = grid.reshape(len(cs), bx, by)
        else:
            grid = source.sample_grid(rows[cs[0]], cols[cs].ravel())
            out[cs] = grid.reshape(bx, len(cs), by).transpose(1, 0, 2)
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteSample("non-finite sample on the %dx%d lattice at "
                              "shift %r" % (bx, by, stage.shifts[
                                  int(np.argmin(finite))]))
    np.fft.fft2(out, out=out)
    out /= stage.bin_count
    return out


def run_frontend(plan: FfastPlan, source) -> list[np.ndarray]:
    """Observation stacks for every stage of the plan."""
    if source.dims != plan.dims:
        raise ShapeMismatch("source grid %s does not match plan grid %s"
                            % (source.dims, plan.dims))
    return [stage_observations(source, plan.dims, stage)
            for stage in plan.stages]


def alias_bin(dims: Dims, stage: StageConfig, u: int, v: int) -> tuple[int, int]:
    """Bin that coefficient (u, v) folds into at this stage."""
    return u % stage.bins_x, v % stage.bins_y


def chain_weights(dims: Dims, stage: StageConfig, u: int, v: int) -> np.ndarray:
    """Per-chain phase factors multiplying X[u][v] inside its bin."""
    s = np.asarray(stage.shifts, dtype=np.float64)
    ph = u * s[:, 0] / dims.nx + v * s[:, 1] / dims.ny
    return np.exp(2j * np.pi * ph)
