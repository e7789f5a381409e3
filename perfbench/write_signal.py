"""Writes the dense signal of a sparse spectrum as an ffast2d .bin file.

  python3 perfbench/write_signal.py TRUTH.csv NX NY OUT.bin

The benchmark runs this in a child process: the dense grid (101 MB at
2520x2520) then never raises the benchmark's own peak memory, which every
child process it starts later would inherit in its ru_maxrss.
"""

import sys

import numpy as np

from ffast2d.cli import read_spectrum_csv, write_signal_bin
from ffast2d.core import Dims


def dense_signal(dims: Dims, spectrum) -> np.ndarray:
    """x[a][b] = sum X[u][v] e^{+2j*pi*(au/nx + bv/ny)}, via one inverse FFT."""
    spec = np.zeros((dims.nx, dims.ny), dtype=np.complex128)
    for (u, v), val in spectrum.items():
        spec[u, v] = val
    signal = np.fft.ifft2(spec)
    signal *= dims.n
    return signal


def main(argv) -> int:
    truth_csv, nx, ny, out = argv
    dims = Dims(int(nx), int(ny))
    write_signal_bin(out, dense_signal(dims, read_spectrum_csv(truth_csv, dims)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
