"""Subsampling front end: shifted decimation plus small dense DFTs.

Each stage samples the signal on a coarse lattice, shifted by each of the
stage's offsets, and takes a small 2D FFT of every shifted grid. With the
1/B normalization used here the resulting bin arrays obey the aliasing
identity: bin (i, j) holds the shift-weighted sum of all coefficients
X[u][v] with u = i (mod bins_x) and v = j (mod bins_y).
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


def _lattice(start: int, step: int, count: int, n: int) -> np.ndarray:
    return (start + step * np.arange(count, dtype=np.int64)) % n


def subsample_shifted(source, dims: Dims, stage: StageConfig,
                      shift: tuple[int, int]) -> np.ndarray:
    """Aliased spectrum of one shifted decimation, shape (bins_x, bins_y)."""
    s1, s2 = shift
    rows = _lattice(s1, stage.sub_x, stage.bins_x, dims.nx)
    cols = _lattice(s2, stage.sub_y, stage.bins_y, dims.ny)
    grid = source.sample_grid(rows, cols)
    if not np.isfinite(grid).all():
        raise NonFiniteSample("non-finite sample on the %dx%d lattice at "
                              "shift %r" % (stage.bins_x, stage.bins_y, shift))
    return np.fft.fft2(grid) / stage.bin_count


def stage_observations(source, dims: Dims, stage: StageConfig) -> np.ndarray:
    """All shifted aliased spectra of a stage, shape (shifts, bins_x, bins_y)."""
    out = np.empty((len(stage.shifts), stage.bins_x, stage.bins_y),
                   dtype=np.complex128)
    for c, shift in enumerate(stage.shifts):
        out[c] = subsample_shifted(source, dims, stage, shift)
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


def alias_support_map(dims: Dims, stage: StageConfig, u: int, v: int):
    """Edge-and-coefficient map: the bin of (u, v) plus its chain weights."""
    return alias_bin(dims, stage, u, v), chain_weights(dims, stage, u, v)


def support_bin_groups(stage: StageConfig, support) -> dict:
    """Groups coefficient positions by the stage bin they fold into."""
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (u, v) in support:
        groups.setdefault((u % stage.bins_x, v % stage.bins_y), []).append((u, v))
    return groups
