"""Reference transforms, lazy signal sources and test-instance generation.

dense_dft_2d is the trusted slow reference: it evaluates the normalized
analysis sum X[u][v] = (1/n) * sum_{a,b} x[a][b] e^{-2j*pi*(a*u/nx + b*v/ny)}
directly from exponent matrices, independent of any FFT routine.

Signal sources expose the sampling contract used by the front end: every
read goes through sample_grid or sample_points and bumps an access
counter, so decoders can prove how many samples they touched. A grid read
is charged len(rows) * len(cols) cells, repeats included, and returns
each distinct cell once: the grid of its distinct rows by its distinct
columns, each in first-seen order (_first_seen). A read without repeats
returns exactly the rows x cols grid asked for. The sparse
exponential-sum source evaluates Eq-style synthesis
x[a][b] = sum_t X_t e^{+2j*pi*(a*u_t/nx + b*v_t/ny)} lazily in O(k) per
sample, which keeps grids like 2520x2520 virtual. Its phases come from
exact unit-root tables. A grid read of at most DIRECT_SYNTHESIS_MAX
(2^16) rows x cols x k terms is one matrix product of row and column
phases; a larger read of full progressions, as the front end makes them,
is folded onto its bin grid, which is the grid it returns, and inverse
transformed in place. Every read returns a new array that its caller may
write: the noisy source adds its noise into the inner read's grid in
place, NOISE_BLOCK cells at a time, so a read holds little beyond its
grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Constellation, Dims, FfastError, SparseSpectrum,
                   StageConfig, _index)
from .roots import unit_roots

VALUE_UNIT_CIRCLE = "unit-circle"
VALUE_COMPLEX_GAUSSIAN = "complex-gaussian"


class KTooLarge(FfastError, ValueError):
    """Requested sparsity exceeds the number of grid cells."""


class SignalSource:
    """Base sampling interface with access accounting.

    Subclasses implement two hooks on reduced int64 indices: _grid(rows,
    cols), the (rows, cols) product, and _points(aa, bb), the paired cells.
    The public readers take 1-D index arrays and bump access_count by the
    number of samples asked for. sample_grid hands _grid the distinct rows
    and distinct columns, each in first-seen order (_first_seen), and
    returns _grid's result as it is: a read with repeats is charged them
    but returns each distinct cell once. No map from the requested
    indices to the returned ones is kept; first-seen order alone places
    a repeated index. A read returns a new array, sharing no memory with
    the source, that the caller may write.
    """

    def __init__(self, dims: Dims):
        self.dims = dims
        self.access_count = 0

    def _grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _points(self, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_grid(self, rows, cols) -> np.ndarray:
        """Samples the distinct cells of rows x cols.

        Charges len(rows) * len(cols) samples. Returns shape (distinct
        rows, distinct cols), each in first-seen order (_first_seen); for
        a read without repeats that is the (rows, cols) grid.
        """
        rows = _indices(rows, self.dims.nx, "sample_grid")
        cols = _indices(cols, self.dims.ny, "sample_grid")
        self.access_count += len(rows) * len(cols)
        return self._grid(_first_seen(rows, self.dims.nx),
                          _first_seen(cols, self.dims.ny))

    def sample_points(self, aa, bb) -> np.ndarray:
        """Samples paired coordinates (aa[i], bb[i])."""
        aa = _indices(aa, self.dims.nx, "sample_points")
        bb = _indices(bb, self.dims.ny, "sample_points")
        if aa.shape != bb.shape:
            raise ValueError("paired index arrays differ in shape")
        self.access_count += len(aa)
        return self._points(aa, bb)


def _indices(idx, n: int, reader: str) -> np.ndarray:
    """idx as 1-D int64 reduced modulo n; a reader charges len(idx) per
    axis, so any other shape is refused, and so is a non-empty idx of
    other than integer dtype, such as 1.7 or "1", rather than cast.
    An unsigned idx is reduced while still unsigned, as a cast of 2^63
    or more to int64 would wrap to a negative index."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (len(idx) and idx.dtype.kind not in "iu"):
        raise ValueError("%s takes 1-D integer index arrays, not %s of "
                         "shape %r" % (reader, idx.dtype, idx.shape))
    if idx.dtype.kind == "u":
        idx = idx % np.uint64(n)
    return idx.astype(np.int64, copy=False) % n


def _first_seen(idx: np.ndarray, n: int) -> np.ndarray:
    """idx's distinct values in first-seen order.

    A mask over range(n) tells without sorting whether idx has repeats;
    without any, idx itself is returned. Otherwise one pass over idx finds
    each value's first position, and only those distinct starts are
    sorted.
    """
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == len(idx):
        return idx
    first = np.full(n, len(idx), dtype=np.intp)
    np.minimum.at(first, idx, np.arange(len(idx)))
    return idx[np.sort(first[seen])]


class ArraySource(SignalSource):
    """Source backed by a dense array, in memory or memory-mapped.

    The array is never copied: reads gather only the cells they return,
    so a read-only memory map stays read-only and mostly unread.
    """

    def __init__(self, signal: np.ndarray):
        signal = np.asarray(signal, dtype=np.complex128)
        if signal.ndim != 2:
            raise ValueError("signal must be 2D")
        super().__init__(Dims(signal.shape[0], signal.shape[1]))
        self._signal = signal

    def _grid(self, rows, cols):
        return self._signal[np.ix_(rows, cols)]

    def _points(self, aa, bb):
        return self._signal[aa, bb]


def _progression_length(idx: np.ndarray, n: int) -> int:
    """Run length m when idx is full progressions back to back, else 0.

    Each run is (a + (n // m) * arange(m)) % n for its own start a.
    """
    if len(idx) < 2:
        return len(idx)
    step = int(idx[1] - idx[0]) % n
    if step == 0 or n % step or len(idx) % (n // step):
        return 0
    m = n // step
    runs = idx.reshape(-1, m)
    if not np.array_equal(runs, (runs[:, :1] + step * np.arange(m)) % n):
        return 0
    return m


# A grid read of rows x cols cells from k coefficients is synthesized
# directly, as one (rows, k) by (k, cols) product, up to this many
# rows * cols * k terms; a larger read of full progressions is folded
# onto its bin grid and inverse transformed.
DIRECT_SYNTHESIS_MAX = 1 << 16


class ExponentialSumSource(SignalSource):
    """Lazy synthesis from a sparse coefficient set, O(k) per sample.

    Every phase exp(2j*pi*(a*u/nx + b*v/ny)) is the product of two
    entries of the exact unit-root tables, at (a*u) mod nx and (b*v) mod
    ny, so no read pays a complex exp. A grid read takes one of two
    paths. Up to DIRECT_SYNTHESIS_MAX terms (rows x cols x k) it is the
    product of a (rows, k) and a (k, cols) phase matrix: every read of a
    2520x2520 very-sparse decode at k = 100, and of criterion 6's
    k = 100 decodes, goes this way. A larger read made of full arithmetic
    progressions in both axes, as the front end makes them, folds the
    coefficients into the aliased bin grid of each pair of row and column
    progressions, and one batched inverse FFT reproduces exactly the
    requested spatial samples. Any other read is synthesized directly.

    The coefficients are held in sorted (u, v) order, whatever order the
    spectrum's entries were inserted in: the fold sums each cell in that
    order, so equal spectra give bit-identical samples.
    """

    def __init__(self, spectrum: SparseSpectrum):
        k = len(spectrum)
        uv = np.fromiter(itertools.chain.from_iterable(spectrum.entries),
                         dtype=np.int64, count=2 * k).reshape(k, 2)
        vals = np.fromiter(spectrum.entries.values(), dtype=np.complex128,
                           count=k)
        order = np.lexsort((uv[:, 1], uv[:, 0]))
        self._set(spectrum.dims, uv[order, 0], uv[order, 1], vals[order])

    @classmethod
    def _from_sorted(cls, dims: Dims, u: np.ndarray, v: np.ndarray,
                     vals: np.ndarray) -> "ExponentialSumSource":
        """A source over int64 u, v and complex vals already in sorted
        (u, v) order, with no zero value and no repeated location."""
        source = cls.__new__(cls)
        source._set(dims, u, v, vals)
        return source

    def _set(self, dims: Dims, u, v, vals) -> None:
        SignalSource.__init__(self, dims)
        self._u, self._v, self._vals = u, v, vals
        self._rx, self._ry = unit_roots(dims.nx), unit_roots(dims.ny)

    def _phases(self, rows, cols):
        """Row and column phase factors, shapes rows.shape + (k,) and
        cols.shape + (k,)."""
        er = self._rx[rows[..., None] * self._u % self.dims.nx]
        ec = self._ry[cols[..., None] * self._v % self.dims.ny]
        return er, ec

    def _points(self, aa, bb):
        er, ec = self._phases(aa, bb)
        return (er * ec) @ self._vals

    def _grid(self, rows, cols):
        k = len(self._vals)
        if len(rows) * len(cols) * k > DIRECT_SYNTHESIS_MAX:
            bx = _progression_length(rows, self.dims.nx)
            by = _progression_length(cols, self.dims.ny)
            if bx and by:
                return self._folded(rows, cols, bx, by)
        er, ec = self._phases(rows, cols)
        return er @ (self._vals[:, None] * ec.T)

    def _folded(self, rows, cols, bx: int, by: int):
        """A read of full progressions of lengths bx and by, by folding."""
        er, ec = self._phases(rows[::bx], cols[::by])
        w = self._vals * er[:, None, :] * ec[None, :, :]
        nr, nc = w.shape[:2]
        # the read's grid, viewed as (row run, bin row, column run, bin
        # column), is the fold's buffer: one add.at into it, zeroed, folds
        # every pair of runs and sums each cell in coefficient order
        flat = ((np.arange(nr)[:, None, None] * bx + self._u % bx) * nc
                + np.arange(nc)[:, None]) * by + self._v % by
        grid = np.zeros((nr * bx, nc * by), dtype=np.complex128)
        np.add.at(grid.reshape(-1), flat.ravel(), w.ravel())
        # ifft2 over each (bx, by) block as its two 1-D steps, last axis
        # first, each in place (ifft2 itself takes no out=), then the
        # scale: the values are ifft2's bit for bit
        blocks = grid.reshape(nr, bx, nc, by)
        np.fft.ifft(blocks, axis=3, out=blocks)
        np.fft.ifft(blocks, axis=1, out=blocks)
        grid *= bx * by
        return grid


# a noisy grid read draws its noise this many cells at a time, so its
# temporaries stay small however large the grid
NOISE_BLOCK = 4096


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place; uint64 arithmetic wraps, which is
    what we want."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _noise_at(seed: int, flat: np.ndarray, sigma2: float) -> np.ndarray:
    """Counter-based complex gaussian field, CN(0, sigma2) per index.

    Index i hashes 2i + 1 and 2i + 2 (plus the seed's base) into two
    uniforms, a magnitude and a phase (Box-Muller). Both hashes share one
    buffer, which then holds the result, and every step runs in place.
    """
    base = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    h = np.empty((2,) + flat.shape, dtype=np.uint64)
    np.left_shift(flat, 1, out=h[0], casting="unsafe")
    h[0] += base
    h[1] = h[0]
    h[0] += np.uint64(1)
    h[1] += np.uint64(2)
    _mix64(h)
    h >>= np.uint64(11)
    uni = h.astype(np.float64)
    uni += 0.5
    uni *= 2.0 ** -53
    mag, phase = uni
    np.log(mag, out=mag)
    mag *= -sigma2
    np.sqrt(mag, out=mag)
    phase *= 2 * np.pi
    # the hashes are spent: their buffer, 16 bytes per index, holds the result
    out = h.reshape(-1).view(np.complex128).reshape(flat.shape)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    out.real *= mag
    out.imag *= mag
    return out


class NoisySource(SignalSource):
    """Observation model y = x + z, z ~ CN(0, sigma2) i.i.d. per cell.

    The noise is a pure function of (seed, a, b): re-reading a cell returns
    the identical value, with no per-cell state kept anywhere. Reads go
    through sample_grid, so a grid read charges the inner source, and
    draws noise, for its distinct cells only. A grid read draws its noise
    NOISE_BLOCK cells at a time and adds each block in place into the
    grid the inner read returned, which is this read's own (the
    SignalSource contract), so it holds about one grid plus one block,
    not a noise field and a sum as large as the grid.

    The source owns the rules on its inputs: sigma2 must be finite and
    >= 0, so a NaN, negative or infinite variance raises ValueError, and
    seed must be an integer (core._index), so 1.5 is refused rather than
    read as 1.
    """

    def __init__(self, inner: SignalSource, sigma2: float, seed: int):
        if not 0 <= sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and >= 0, got %r"
                             % (sigma2,))
        super().__init__(inner.dims)
        self.inner = inner
        self.sigma2 = float(sigma2)
        self.seed = _index(seed, "seed")

    def _flat(self, aa, bb):
        return aa * self.dims.ny + bb

    def _grid(self, rows, cols):
        grid = self.inner.sample_grid(rows, cols)
        if self.sigma2 == 0 or grid.size == 0:
            return grid
        # the inner read is this read's own array: add the noise into it
        # at most NOISE_BLOCK cells at a time, in whole rows, or in pieces
        # of a row longer than that
        step = max(1, NOISE_BLOCK // len(cols))
        for r in range(0, len(rows), step):
            for c in range(0, len(cols), NOISE_BLOCK):
                block = grid[r:r + step, c:c + NOISE_BLOCK]
                block += _noise_at(self.seed, self._flat(
                    rows[r:r + step, None], cols[None, c:c + NOISE_BLOCK]),
                    self.sigma2)
        return grid

    def _points(self, aa, bb):
        clean = self.inner.sample_points(aa, bb)
        if self.sigma2 == 0:
            return clean
        return clean + _noise_at(self.seed, self._flat(aa, bb), self.sigma2)


def dense_dft_2d(signal: np.ndarray) -> np.ndarray:
    """Direct normalized 2D DFT, evaluated from explicit exponent matrices."""
    signal = np.asarray(signal, dtype=np.complex128)
    nx, ny = signal.shape
    fx = np.exp(-2j * np.pi * np.outer(np.arange(nx), np.arange(nx)) / nx)
    fy = np.exp(-2j * np.pi * np.outer(np.arange(ny), np.arange(ny)) / ny)
    return (fx @ signal @ fy.T) / (nx * ny)


def synthesize_dense(spectrum: SparseSpectrum) -> np.ndarray:
    """Dense spatial signal for a sparse spectrum (plus-sign synthesis)."""
    dims = spectrum.dims
    out = np.zeros((dims.nx, dims.ny), dtype=np.complex128)
    a = np.arange(dims.nx)
    b = np.arange(dims.ny)
    for (u, v), val in spectrum.items():
        out += val * np.outer(np.exp(2j * np.pi * a * u / dims.nx),
                              np.exp(2j * np.pi * b * v / dims.ny))
    return out


def alias_sum_oracle(spectrum: SparseSpectrum, stage: StageConfig,
                     shift: tuple[int, int]) -> np.ndarray:
    """Expected subsampled spectrum: shift-weighted fold onto the bin grid.

    Independent of the sampling front end; used to pin its output.
    """
    dims = spectrum.dims
    s1, s2 = shift
    out = np.zeros((stage.bins_x, stage.bins_y), dtype=np.complex128)
    for (u, v), val in spectrum.items():
        w = np.exp(2j * np.pi * (u * s1 / dims.nx + v * s2 / dims.ny))
        out[u % stage.bins_x, v % stage.bins_y] += val * w
    return out


@dataclass
class Instance:
    """A planted sparse-spectrum problem: truth plus a lazy source."""

    dims: Dims
    truth: SparseSpectrum
    source: ExponentialSumSource
    seed: int


def gen_instance(dims: Dims, k: int, value_model=VALUE_UNIT_CIRCLE,
                 seed: int = 0) -> Instance:
    """Plants k coefficients at uniform support without replacement.

    The seed fixes one random stream, read in this order: the support (one
    rng.choice, sorted by flat index u * ny + v), then each coefficient's
    value in support order. Per coefficient a value model takes one uniform
    (unit circle), two normals re, im (complex gaussian) or two integers,
    magnitude index then phase index (constellation). The draws are made
    as whole arrays but read the stream exactly as one call per value
    would, so an instance is bit-identical to the per-entry generator's.
    Values that come out exactly 0 are dropped.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > dims.n:
        raise KTooLarge("k = %d exceeds grid size %d" % (k, dims.n))
    rng = np.random.default_rng(seed)
    u, v = np.divmod(np.sort(rng.choice(dims.n, size=k, replace=False)),
                     dims.ny)
    vals = _draw_values(rng, value_model, k)
    keep = vals != 0
    u, v, vals = u[keep], v[keep], vals[keep]
    truth = SparseSpectrum(dims, dict(zip(zip(u.tolist(), v.tolist()),
                                          vals.tolist())))
    # the support is drawn sorted by u * ny + v, the source's (u, v) order
    source = ExponentialSumSource._from_sorted(dims, u, v, vals)
    return Instance(dims, truth, source, seed)


def _draw_values(rng: np.random.Generator, value_model, k: int) -> np.ndarray:
    if isinstance(value_model, Constellation):
        mags = np.array(value_model.magnitudes())
        # one (magnitude, phase) index pair per coefficient, interleaved
        idx = rng.integers([len(mags), value_model.m2] * k).reshape(k, 2)
        phase = 2 * np.pi * idx[:, 1] / value_model.m2
        return mags[idx[:, 0]] * np.exp(1j * phase)
    if value_model == VALUE_UNIT_CIRCLE:
        return np.exp(2j * np.pi * rng.uniform(size=k))
    if value_model == VALUE_COMPLEX_GAUSSIAN:
        # re and im each divided by sqrt(2), as CPython's complex / float does
        pairs = rng.normal(size=(k, 2)) / math.sqrt(2)
        return pairs.view(np.complex128)[:, 0]
    raise ValueError("unknown value model %r" % (value_model,))


def mean_power(spectrum: SparseSpectrum) -> float:
    """Mean coefficient power, sum of |X|^2 over k; 0.0 when empty."""
    if len(spectrum) == 0:
        return 0.0
    return float(np.mean([abs(val) ** 2 for _, val in spectrum.items()]))


def instance_snr(instance: Instance, sigma2: float) -> float:
    """Plug-in estimate: mean coefficient power over per-sample noise power."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return mean_power(instance.truth) / sigma2
