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

A stage is gathered in a few grid reads, not one per chain. Chains that
share a column offset read their row lattices back to back against that
one column lattice; the chains left alone are grouped by row offset.
Both the noiseless layout [(0,0), (1,0), (0,1)] and the robust dyadic
layout, whose offsets all lie on one axis, take two reads per stage.
A read charges every chain's cells, so sample accounting counts chains,
but it returns each distinct cell once: the grid of the read's distinct
rows by its distinct columns, in first-seen order. A lattice that several
chains of one read share thus comes back once.

Only each lattice's first chain is kept from the reads: per read, a cached
selector says where its cells sit in the returned grid, and one gather
fills the planes. A read that returns any other shape than its distinct
rows by its distinct columns is refused. The (lattices, bins_x, bins_y)
stack then takes one batched FFT, in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Dims, FfastError, FfastPlan, StageConfig
from .oracle import _first_seen


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

    Each entry of reads is one grid read, (rows, cols, shape, cells,
    planes): the read's arguments, the shape of the grid it returns
    (distinct rows by distinct columns, in first-seen order), where each
    kept cell sits in that grid flattened, shape (kept chains, bins_x,
    bins_y), and the planes the kept chains fill.
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

    Reads follow the chains: chains with a common column offset read their
    row lattices back to back against that column lattice, and the chains
    left alone are grouped by row offset. Both the noiseless layout and
    the robust dyadic layout, whose offsets all lie on one axis, take two
    reads per stage.
    """
    sx, sy, bx, by = stage.sub_x, stage.sub_y, stage.bins_x, stage.bins_y
    ids: dict = {}
    lead: list = []
    inv, dq, first = [], [], []
    for s1, s2 in stage.shifts:
        g = ids.setdefault((s1 % sx, s2 % sy), len(ids))
        first.append(g == len(lead))
        if first[-1]:
            lead.append((s1, s2))
        t1, t2 = lead[g]
        inv.append(g)
        dq.append((((s1 - t1) // sx) % bx, ((s2 - t2) // sy) % by))
    inv, first = np.asarray(inv, dtype=np.int64), np.asarray(first)

    by_col: dict[int, list[int]] = {}
    for c, (_, s2) in enumerate(stage.shifts):
        by_col.setdefault(s2, []).append(c)
    groups = [(True, cs) for cs in by_col.values() if len(cs) > 1]
    by_row: dict[int, list[int]] = {}
    for cs in by_col.values():
        if len(cs) == 1:
            by_row.setdefault(stage.shifts[cs[0]][0], []).append(cs[0])
    groups += [(False, cs) for cs in by_row.values()]

    shifts = _frozen(stage.shifts).reshape(-1, 2)
    rows = (shifts[:, :1] + sx * np.arange(bx)) % dims.nx
    cols = (shifts[:, 1:] + sy * np.arange(by)) % dims.ny
    reads = []
    for by_column, cs in groups:
        keep = np.flatnonzero(first[cs])
        read_rows, read_cols = ((rows[cs].ravel(), cols[cs[0]]) if by_column
                                else (rows[cs[0]], cols[cs].ravel()))
        distinct_rows, row_at = _first_seen(read_rows, dims.nx)
        distinct_cols, col_at = _first_seen(read_cols, dims.ny)
        r = np.arange(len(read_rows)) if row_at is None else row_at
        c = np.arange(len(read_cols)) if col_at is None else col_at
        if by_column:
            r, c = r.reshape(-1, bx)[keep, :, None], c[None, None, :]
        else:
            r, c = r[None, :, None], c.reshape(-1, by)[keep, None, :]
        reads.append((_frozen(read_rows), _frozen(read_cols),
                      (len(distinct_rows), len(distinct_cols)),
                      _frozen(r * len(distinct_cols) + c),
                      _frozen(inv[cs][keep])))
    return StageLattices(_frozen(inv), _frozen(dq), _frozen(np.bincount(inv)),
                         tuple(lead), shifts, tuple(reads))


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


def stage_observations(source, dims: Dims, stage: StageConfig) -> np.ndarray:
    """The stage's aliased spectra, one per lattice: (lattices, bins_x, bins_y)."""
    lat = stage_lattices(dims, stage)
    bx, by = stage.bins_x, stage.bins_y
    out = np.empty((len(lat.lead), bx, by), dtype=np.complex128)
    for rows, cols, shape, cells, planes in lat.reads:
        grid = source.sample_grid(rows, cols)
        if grid.shape != shape:
            raise ShapeMismatch("a read of %d rows by %d columns returned "
                                "shape %r, not its distinct cells %r"
                                % (len(rows), len(cols), grid.shape, shape))
        out[planes] = grid.reshape(-1)[cells]
    # a NaN or infinite sample spreads to its whole plane, and a plane of
    # finite samples near the float maximum can overflow: one check after
    # the FFT refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.fft2(out, out=out)
        out /= stage.bin_count
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteSample("non-finite sample or spectrum on the %dx%d "
                              "lattice at shift %r"
                              % (bx, by, lat.lead[int(np.argmin(finite))]))
    return out


def run_frontend(plan: FfastPlan, source) -> list[np.ndarray]:
    """Observation stacks for every stage of the plan."""
    if source.dims != plan.dims:
        raise ShapeMismatch("source grid %s does not match plan grid %s"
                            % (source.dims, plan.dims))
    return [stage_observations(source, plan.dims, stage)
            for stage in plan.stages]
