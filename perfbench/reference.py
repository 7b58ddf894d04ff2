"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark times it next to every op and scales the op's time by
``REFERENCE_MS`` over the kernel's time, so that a host that slows every
process down (a busy neighbour on a shared core) does not show as a slower
program.  The kernel is a small fixed mix of the kinds of work the program
does: a genus-3 lattice sum in numpy, a batched modular elimination on int64
arrays, and a pure-Python loop over tuples and a dict.  It never imports
thetalab, so a change to the program does not change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on a quiet machine (2.1 GHz Xeon VM, Python 3.11,
# numpy 2.4), so scaled times read as milliseconds on that machine.
REFERENCE_MS = 3.0

_TAU = np.array(
    [
        [0.10 + 1.20j, 0.20 + 0.30j, -0.10 + 0.20j],
        [0.20 + 0.30j, -0.30 + 1.10j, 0.15 + 0.25j],
        [-0.10 + 0.20j, 0.15 + 0.25j, 0.05 + 1.30j],
    ]
)
_GRID = np.stack(np.meshgrid(*[np.arange(-6, 7)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
_MATS = np.random.default_rng(0).integers(0, 32749, (24, 12, 12))


def kernel():
    total = 0j
    for k in range(6):
        delta = np.array([k % 2, (k // 2) % 2, 0]) / 2
        u = _GRID + delta
        quad = np.einsum("ki,ij,kj->k", u, _TAU, u)
        total += np.exp(1j * math.pi * quad + 2j * math.pi * (u @ delta)).sum()
    a = _MATS.copy()
    for col in range(6):
        pivot = a[:, col, col] % 32749 + 1
        a = (a * pivot[:, None, None] - a[:, :, col : col + 1] * a[:, col : col + 1, :]) % 32749
    seen = {}
    for i in range(3000):
        key = tuple(sorted((i % 7, i % 11, i % 13)))
        seen[key] = seen.get(key, 0) + 1
    return total, int(a.sum()), len(seen)


def time_kernel() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
