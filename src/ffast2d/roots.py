"""Exact tables of the n-th roots of unity, shared by synthesis and decoding.

A phase exp(2j*pi*a*u/n) with integer a and u is the table entry at
(a * u) mod n. Reducing the integer product first keeps the phase exact
however large a * u grows, where exp of the float a*u/n loses bits with
the size of its argument. Each table is built once per n and shared.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def unit_roots(n: int) -> np.ndarray:
    """exp(2j*pi*r/n) for r in range(n), read-only.

    Entry r equals cmath.exp(2j * math.pi * (r / n)) bit for bit.
    """
    roots = np.exp(2j * np.pi * (np.arange(n) / n))
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=32)
def unit_root_list(n: int) -> tuple:
    """unit_roots(n) as Python complex numbers, for scalar loops."""
    return tuple(unit_roots(n).tolist())
