"""Reference transforms, lazy signal sources and test-instance generation.

dense_dft_2d is the trusted slow reference: it evaluates the normalized
analysis sum X[u][v] = (1/n) * sum_{a,b} x[a][b] e^{-2j*pi*(a*u/nx + b*v/ny)}
directly from exponent matrices, independent of any FFT routine.

Signal sources expose the sampling contract used by the front end: every
read goes through sample_grid or sample_points and bumps an access
counter, so decoders can prove how many samples they touched. A grid read
is charged every cell it returns, repeats included, but evaluates each
distinct row and column only once. The sparse
exponential-sum source evaluates Eq-style synthesis
x[a][b] = sum_t X_t e^{+2j*pi*(a*u_t/nx + b*v_t/ny)} lazily in O(k) per
sample, which keeps grids like 2520x2520 virtual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Constellation, Dims, FfastError, SparseSpectrum, StageConfig

VALUE_UNIT_CIRCLE = "unit-circle"
VALUE_COMPLEX_GAUSSIAN = "complex-gaussian"


class KTooLarge(FfastError, ValueError):
    """Requested sparsity exceeds the number of grid cells."""


class SignalSource:
    """Base sampling interface with access accounting.

    Subclasses implement two hooks on reduced int64 indices: _grid(rows,
    cols), the (rows, cols) product, and _points(aa, bb), the paired cells.
    The public readers sample_grid and sample_points bump access_count by
    exactly the number of samples served. _grid only ever sees distinct
    rows and distinct columns: sample_grid evaluates the distinct ones and
    gathers the repeats back.
    """

    def __init__(self, dims: Dims):
        self.dims = dims
        self.access_count = 0

    def _grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _points(self, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_grid(self, rows, cols) -> np.ndarray:
        """Samples the cartesian product rows x cols, shape (rows, cols).

        Charges len(rows) * len(cols) samples. Each distinct row and column
        is evaluated once, in first-seen order; repeated ones are copied.
        """
        rows = np.asarray(rows, dtype=np.int64) % self.dims.nx
        cols = np.asarray(cols, dtype=np.int64) % self.dims.ny
        self.access_count += len(rows) * len(cols)
        rows, row_at = _first_seen(rows, self.dims.nx)
        cols, col_at = _first_seen(cols, self.dims.ny)
        grid = self._grid(rows, cols)
        if row_at is not None:
            grid = grid[row_at]
        if col_at is not None:
            grid = grid[:, col_at]
        return grid

    def sample_points(self, aa, bb) -> np.ndarray:
        """Samples paired coordinates (aa[i], bb[i])."""
        aa = np.asarray(aa, dtype=np.int64) % self.dims.nx
        bb = np.asarray(bb, dtype=np.int64) % self.dims.ny
        if aa.shape != bb.shape:
            raise ValueError("paired index arrays differ in shape")
        self.access_count += len(aa)
        return self._points(aa, bb)


def _first_seen(idx: np.ndarray, n: int):
    """idx's distinct values in first-seen order, and where idx reads them.

    The second item is None when idx has no repeats, which a mask over
    range(n) tells without sorting. Otherwise one pass over idx finds each
    value's first position, and only those distinct starts are sorted.
    """
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == len(idx):
        return idx, None
    first = np.full(n, len(idx), dtype=np.intp)
    np.minimum.at(first, idx, np.arange(len(idx)))
    distinct = idx[np.sort(first[seen])]
    rank = np.empty(n, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[idx]


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


class ExponentialSumSource(SignalSource):
    """Lazy synthesis from a sparse coefficient set, O(k) per sample.

    sample_grid has a fast path for the subsampling patterns the front end
    produces (full arithmetic progressions, several back to back, in both
    axes): for each pair of row and column progressions the coefficients
    are folded into the aliased bin grid, and one batched inverse FFT
    reproduces exactly the requested spatial samples.

    The coefficients are held in sorted (u, v) order, whatever order the
    spectrum's entries were inserted in: the fold's bincount sums in that
    order, so equal spectra give bit-identical samples.
    """

    def __init__(self, spectrum: SparseSpectrum):
        super().__init__(spectrum.dims)
        k = len(spectrum)
        uv = np.fromiter(itertools.chain.from_iterable(spectrum.entries),
                         dtype=np.int64, count=2 * k).reshape(k, 2)
        vals = np.fromiter(spectrum.entries.values(), dtype=np.complex128,
                           count=k)
        order = np.lexsort((uv[:, 1], uv[:, 0]))
        self._u = uv[order, 0]
        self._v = uv[order, 1]
        self._vals = vals[order]

    def _points(self, aa, bb):
        ph = (np.outer(aa, self._u) / self.dims.nx
              + np.outer(bb, self._v) / self.dims.ny)
        return np.exp(2j * np.pi * ph) @ self._vals

    def _grid(self, rows, cols):
        nx, ny = self.dims.nx, self.dims.ny
        bx, by = _progression_length(rows, nx), _progression_length(cols, ny)
        if bx and by:
            r0 = rows[::bx, None, None]
            c0 = cols[None, ::by, None]
            w = self._vals * np.exp(2j * np.pi * (
                r0 * self._u / nx + c0 * self._v / ny))
            # fold every (row run, column run) pair with one flat bincount
            runs = w.shape[0] * w.shape[1]
            cell = (self._u % bx) * by + self._v % by
            flat = (np.arange(runs)[:, None] * (bx * by) + cell).ravel()
            folded = np.empty(runs * bx * by, dtype=np.complex128)
            folded.real = np.bincount(flat, w.real.ravel(), len(folded))
            folded.imag = np.bincount(flat, w.imag.ravel(), len(folded))
            folded = folded.reshape(w.shape[0], w.shape[1], bx, by)
            grid = np.fft.ifft2(folded) * (bx * by)
            return grid.transpose(0, 2, 1, 3).reshape(len(rows), len(cols))
        er = np.exp(2j * np.pi * np.outer(rows, self._u) / nx)
        ec = np.exp(2j * np.pi * np.outer(cols, self._v) / ny)
        return er @ (self._vals[:, None] * ec.T)


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps, which is what we want
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _noise_at(seed: int, flat: np.ndarray, sigma2: float) -> np.ndarray:
    """Counter-based complex gaussian field, CN(0, sigma2) per index."""
    base = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    idx = flat.astype(np.uint64)
    h1 = _mix64((idx << np.uint64(1)) + base + np.uint64(1))
    h2 = _mix64((idx << np.uint64(1)) + base + np.uint64(2))
    u1 = ((h1 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u2 = ((h2 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    mag = np.sqrt(-sigma2 * np.log(u1))
    return mag * np.exp(2j * np.pi * u2)


class NoisySource(SignalSource):
    """Observation model y = x + z, z ~ CN(0, sigma2) i.i.d. per cell.

    The noise is a pure function of (seed, a, b): re-reading a cell returns
    the identical value, with no per-cell state kept anywhere. Reads go
    through sample_grid, so a grid read charges the inner source, and
    draws noise, for its distinct cells only.
    """

    def __init__(self, inner: SignalSource, sigma2: float, seed: int):
        if sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        super().__init__(inner.dims)
        self.inner = inner
        self.sigma2 = float(sigma2)
        self.seed = int(seed)

    def _flat(self, aa, bb):
        return aa * self.dims.ny + bb

    def _grid(self, rows, cols):
        clean = self.inner.sample_grid(rows, cols)
        if self.sigma2 == 0:
            return clean
        flat = self._flat(rows[:, None], cols[None, :])
        return clean + _noise_at(self.seed, flat, self.sigma2)

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
    entries = dict(zip(zip(u[keep].tolist(), v[keep].tolist()),
                       vals[keep].tolist()))
    truth = SparseSpectrum(dims, entries)
    return Instance(dims, truth, ExponentialSumSource(truth), seed)


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


def instance_snr(instance: Instance, sigma2: float) -> float:
    """Plug-in estimate: mean coefficient power over per-sample noise power."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if len(instance.truth) == 0:
        return 0.0
    powers = [abs(val) ** 2 for _, val in instance.truth.items()]
    return float(np.mean(powers)) / sigma2
