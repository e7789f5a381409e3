"""Co-prime index remapping: a 2D DFT as a relabeled 1D DFT.

For co-prime grid extents the 2D DFT is a relabeled 1D DFT of length
n = nx * ny: reading the grid along the diagonal t -> (t mod nx, t mod ny)
turns the 2D analysis sum into the 1D one with frequency relabeling
f = (u * ny + v * nx) mod n, and no twiddle corrections. That equivalence
lets the general 2D decoder compute sparse 1D DFTs (through a 1-row view)
and vice versa.
"""

from __future__ import annotations

import math

import numpy as np

from .core import STATUS_SUCCESS, Dims, FfastError, FfastPlan, SparseSpectrum
from .oracle import SignalSource
from .peeler import decode


class DimsNotCoprime(FfastError, ValueError):
    """Grid extents share a common divisor, so the diagonal map is not 1:1."""


def _require_coprime(dims: Dims) -> None:
    if math.gcd(dims.nx, dims.ny) != 1:
        raise DimsNotCoprime("extents (%d, %d) are not co-prime"
                             % (dims.nx, dims.ny))


def diag_freq_pair(f: int, dims: Dims) -> tuple[int, int]:
    """The 2D coefficient (u, v) whose 1D frequency (u*ny + v*nx) mod n is f."""
    u = f * pow(dims.ny, -1, dims.nx) % dims.nx if dims.nx > 1 else 0
    v = f * pow(dims.nx, -1, dims.ny) % dims.ny if dims.ny > 1 else 0
    return u, v


def good_thomas_forward(signal2d: np.ndarray, dims: Dims) -> np.ndarray:
    """Diagonal readout vec[t] = x[t mod nx][t mod ny], length n."""
    _require_coprime(dims)
    signal2d = np.asarray(signal2d)
    if signal2d.shape != (dims.nx, dims.ny):
        raise ValueError("signal shape %r does not match dims (%d, %d)"
                         % (signal2d.shape, dims.nx, dims.ny))
    t = np.arange(dims.n)
    return signal2d[t % dims.nx, t % dims.ny]


def good_thomas_reverse(spectrum1d: np.ndarray, dims: Dims) -> np.ndarray:
    """Arranges the 1D spectrum into the 2D grid: out[u][v] = s1d[f(u,v)]."""
    _require_coprime(dims)
    spectrum1d = np.asarray(spectrum1d)
    if spectrum1d.shape != (dims.n,):
        raise ValueError("spectrum length %r does not match n = %d"
                         % (spectrum1d.shape, dims.n))
    u = np.arange(dims.nx)[:, None]
    v = np.arange(dims.ny)[None, :]
    return spectrum1d[(u * dims.ny + v * dims.nx) % dims.n]


class DiagonalView(SignalSource):
    """1-row view of a co-prime 2D source: view[0][t] = x[t mod nx][t mod ny].

    Its normalized 1D DFT equals the 2D DFT up to the relabeling
    f = (u*ny + v*nx) mod n, so the general decoder runs on it unchanged.
    """

    def __init__(self, inner: SignalSource):
        _require_coprime(inner.dims)
        super().__init__(Dims(1, inner.dims.n))
        self.inner = inner

    def _grid(self, rows, cols):
        d = self.inner.dims
        row = self.inner.sample_points(cols % d.nx, cols % d.ny)
        return np.broadcast_to(row, (len(rows), len(cols))).copy()

    def _points(self, aa, bb):
        d = self.inner.dims
        return self.inner.sample_points(bb % d.nx, bb % d.ny)


def coprime_sparse_dft(source: SignalSource, dims: Dims,
                       plan1d: FfastPlan) -> SparseSpectrum:
    """Sparse 2D DFT of a co-prime-extent grid via the 1-row pipeline.

    Decodes the diagonal view (DiagonalView) with plan1d and relabels each
    recovered frequency f as the pair (u, v) of diag_freq_pair. A decode
    that does not end in success raises FfastError, naming its status and
    how many entries it had recovered, rather than return part of the
    spectrum as if it were the whole.
    """
    _require_coprime(dims)
    if source.dims != dims:
        raise ValueError("source dims %r do not match %r" % (source.dims, dims))
    if plan1d.dims != Dims(1, dims.n):
        raise ValueError("plan dims %r are not the 1-row view of n = %d"
                         % (plan1d.dims, dims.n))
    report = decode(DiagonalView(source), plan1d)
    if report.status != STATUS_SUCCESS:
        raise FfastError("the 1-row decode ended %r with %d entries recovered"
                         % (report.status, len(report.spectrum)))
    remapped = {diag_freq_pair(f, dims): val
                for (_, f), val in report.spectrum.items()}
    return SparseSpectrum.from_entries(dims, remapped)
