"""Sparse 2D DFT via co-prime subsampling, aliasing and peeling decoding."""

__version__ = "0.1.0"
