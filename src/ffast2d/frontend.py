"""Subsampling front end: shifted decimation plus small dense DFTs.

Each stage samples the signal on a coarse lattice, shifted by each of the
stage's offsets (its delay chains), and takes small 2D FFTs. With the 1/B
normalization used here the bin arrays obey the aliasing identity: bin
(i, j) of chain (s1, s2) holds the sum of X[u][v] *
exp(2j*pi*(u*s1/nx + v*s2/ny)) over the coefficients with u = i
(mod bins_x) and v = j (mod bins_y).

A stage's stack holds one plane per distinct lattice, not one per chain.
Chains whose offsets agree modulo the stage periods read the same cells,
cyclically rotated, so such a chain's spectrum is the plane of the
lattice's first chain times a phase ramp (StageLattices). Noiseless
chains always sit on distinct lattices; the robust design's 181 chains
per stage sit on 9 to 15.

A stage is gathered in a few grid reads, not one per chain or lattice,
and each lattice joins exactly one of them, chosen by its first chain
(its lead). Lattices whose leads share a column offset read their row
lattices back to back against that one column lattice; the lattices left
alone are grouped by their leads' row offset. Both the noiseless layout
[(0,0), (1,0), (0,1)] and the robust dyadic layout, whose offsets all lie
on one axis, take two reads per stage. A read charges every chain's
cells: a chain reads the cells of its lattice, so the read repeats its
lead's rows (or columns) once per chain on the lattice, and sample
accounting counts chains. But it returns each distinct cell once: the
grid of the read's distinct rows by its distinct columns, in first-seen
order.

A read's leads share one offset on one axis, and distinct lattices read
disjoint rows (or columns), so the grid comes back as one (bins_x,
bins_y) block per lattice of the read, in the read's lattice order and
as read by each lead: each block is its lattice's plane and fills it
straight from the reshaped grid. A read that returns any other shape is
refused. The (lattices, bins_x, bins_y) stack is then transformed in
place, one axis at a time: fft2's own two steps, without its per-call
set-up. All the stages' stacks are views of one buffer, allocated once
per decode: the largest single allocation a decode frees sets glibc's
heap trim threshold (twice its size), and one buffer for the stacks
lifts it above a robust decode's whole transient memory, so the heap is
kept between decodes rather than handed back and faulted in again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .core import Dims, FfastError, FfastPlan, StageConfig


class ShapeMismatch(FfastError, ValueError):
    """Source grid does not match the plan's grid."""


class NonFiniteSample(FfastError, ValueError):
    """The source returned a NaN or infinite sample, or a lattice's FFT
    overflowed."""


@dataclass(frozen=True)
class BinObservation:
    """One bin's per-chain outputs; values[c] belongs to shifts[c]."""

    stage: int
    bin: tuple[int, int]
    values: np.ndarray
    shifts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StageLattices:
    """How a stage's chains sit on its distinct sampling lattices.

    A chain with shift (s1, s2) reads the lattice keyed by
    (s1 mod sub_x, s2 mod sub_y); lattices are numbered in first-seen
    chain order, so lattice 0 holds the anchor. Chain c reads lattice
    inv[c] rotated by dq[c] = (dq_x, dq_y) lattice steps from that
    lattice's first chain, so its bin (i, j) is plane inv[c] times
    exp(2j*pi*(dq_x*i/bins_x + dq_y*j/bins_y)). sizes[g] counts the chains
    on lattice g and lead[g] is the shift of its first chain; shifts is the
    stage's (chains, 2) shift array.

    Each entry of reads is one grid read, (rows, cols, by_column,
    planes): the read's arguments; whether its lattices' leads share a
    column offset, so that its lattices come back stacked along the rows,
    or a row offset, stacked along the columns; and its lattices, in the
    order their blocks come back. Every lattice is in exactly one read.
    """

    inv: np.ndarray
    dq: np.ndarray
    sizes: np.ndarray
    lead: tuple[tuple[int, int], ...]
    shifts: np.ndarray
    reads: tuple


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def stage_lattices(dims: Dims, stage: StageConfig) -> StageLattices:
    """The stage's lattice table; built once per stage and shared, read-only.

    Reads follow the lattices' leads: lattices whose leads share a column
    offset read their row lattices back to back against that column
    lattice, and the lattices left alone are grouped by row offset. A read
    charges each chain by repeating its lead's rows (or columns) once per
    chain on the lattice. Both the noiseless layout and the robust dyadic
    layout, whose offsets all lie on one axis, take two reads per stage.
    """
    sx, sy, bx, by = stage.sub_x, stage.sub_y, stage.bins_x, stage.bins_y
    ids: dict = {}
    lead: list = []
    inv, dq = [], []
    for s1, s2 in stage.shifts:
        g = ids.setdefault((s1 % sx, s2 % sy), len(ids))
        if g == len(lead):
            lead.append((s1, s2))
        t1, t2 = lead[g]
        inv.append(g)
        dq.append((((s1 - t1) // sx) % bx, ((s2 - t2) // sy) % by))
    sizes = np.bincount(inv)

    # a lattice is read with the lattices whose leads share its lead's
    # column offset, stacked along the rows (axis 0); a lattice alone in
    # its column is read with those sharing its row offset (axis 1)
    column_leads = Counter(s2 for _, s2 in lead)
    groups: dict = {}
    for g, (s1, s2) in enumerate(lead):
        axis = int(column_leads[s2] == 1)
        groups.setdefault((axis, s1 if axis else s2), []).append(g)

    heads = np.asarray(lead, dtype=np.int64).reshape(-1, 2)
    runs = ((heads[:, :1] + sx * np.arange(bx)) % dims.nx,
            (heads[:, 1:] + sy * np.arange(by)) % dims.ny)
    reads = []
    # the by-column reads first; a stable sort keeps first-seen order
    for (axis, _), gs in sorted(groups.items(), key=lambda kv: kv[0][0]):
        read = [runs[0][gs[0]], runs[1][gs[0]]]
        # each chain is charged by reading its lattice's lead once more
        read[axis] = np.repeat(runs[axis][gs], sizes[gs], axis=0).ravel()
        reads.append((_frozen(read[0]), _frozen(read[1]), axis == 0,
                      _frozen(gs)))
    return StageLattices(_frozen(inv), _frozen(dq), _frozen(sizes),
                         tuple(lead), _frozen(stage.shifts).reshape(-1, 2),
                         tuple(reads))


@lru_cache(maxsize=16)
def distinct_cells(dims: Dims, stages: tuple[StageConfig, ...]) -> int:
    """Distinct grid cells the stages' reads cover; built once per plan.

    A read covers its rows times its columns, so columns covered by the
    same reads share one union of rows. The count needs one row mask and
    one column mask per read, never a grid-sized mask or a list of cells.
    """
    reads = [read[:2] for stage in stages
             for read in stage_lattices(dims, stage).reads]
    on_rows = np.zeros((len(reads), dims.nx), dtype=bool)
    on_cols = np.zeros((len(reads), dims.ny), dtype=bool)
    for r, (rows, cols) in enumerate(reads):
        on_rows[r, rows] = True
        on_cols[r, cols] = True
    covers, widths = np.unique(on_cols[:, on_cols.any(axis=0)].T, axis=0,
                               return_counts=True)
    rows_read = covers @ on_rows[:, on_rows.any(axis=0)]
    return int(np.count_nonzero(rows_read, axis=1) @ widths)


def stage_observations(source, dims: Dims, stage: StageConfig,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The stage's aliased spectra, one per lattice: (lattices, bins_x, bins_y),
    written into out when given."""
    lat = stage_lattices(dims, stage)
    bx, by = stage.bins_x, stage.bins_y
    if out is None:
        out = np.empty((len(lat.lead), bx, by), dtype=np.complex128)
    for rows, cols, by_column, planes in lat.reads:
        grid = source.sample_grid(rows, cols)
        blocks = len(planes)
        shape = (blocks * bx, by) if by_column else (bx, blocks * by)
        if grid.shape != shape:
            raise ShapeMismatch("a read of %d rows by %d columns returned "
                                "shape %r, not its distinct cells %r"
                                % (len(rows), len(cols), grid.shape, shape))
        out[planes] = (grid.reshape(blocks, bx, by) if by_column else
                       grid.reshape(bx, blocks, by).transpose(1, 0, 2))
        del grid                  # freed before the next read, not after
    # a NaN or infinite sample spreads to its whole plane, and a plane of
    # finite samples near the float maximum can overflow: one check after
    # the FFT refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        # fft2(out, out=out) as its two 1-D steps, last axis first
        np.fft.fft(out, axis=2, out=out)
        np.fft.fft(out, axis=1, out=out)
        out /= stage.bin_count
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < out.size:
        plane = int(np.argmin(finite.all(axis=(1, 2))))
        raise NonFiniteSample("non-finite sample or spectrum on the %dx%d "
                              "lattice at shift %r"
                              % (bx, by, lat.lead[plane]))
    return out


def run_frontend(plan: FfastPlan, source) -> list[np.ndarray]:
    """Observation stacks for every stage of the plan."""
    if source.dims != plan.dims:
        raise ShapeMismatch("source grid %s does not match plan grid %s"
                            % (source.dims, plan.dims))
    shapes = [(len(stage_lattices(plan.dims, stage).lead), stage.bins_x,
               stage.bins_y) for stage in plan.stages]
    ends = list(accumulate((math.prod(shape) for shape in shapes),
                           initial=0))
    buf = np.empty(ends[-1], dtype=np.complex128)
    return [stage_observations(source, plan.dims, stage,
                               buf[a:b].reshape(shape))
            for stage, a, b, shape in zip(plan.stages, ends, ends[1:],
                                          shapes)]
