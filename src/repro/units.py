"""Address-space constants and array helpers shared across the simulator.

The simulated address space is a flat 64-bit byte-addressed space. Pages are
4 KiB and cache lines 64 bytes unless a :class:`~repro.machine.machine.Machine`
is configured otherwise; the constants here are the defaults.
"""

from __future__ import annotations

import numpy as np

#: Default simulated page size in bytes (matches Linux x86-64 small pages).
PAGE_SIZE = 4096

#: Default cache line size in bytes.
CACHE_LINE = 64


def fast_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` with an O(n) fast path for already-sorted input.

    The simulator's hot path calls unique on page/line arrays derived
    from mostly-sorted sweep traces; checking sortedness is far
    cheaper than the sort inside ``np.unique``.
    """
    values = np.asarray(values)
    if values.size <= 1:
        return values.copy()
    # Compare neighbours rather than take ``np.diff``: an unsigned diff
    # wraps, so it never reads as descending.
    if not np.all(values[1:] >= values[:-1]):
        # Sort here rather than call ``np.unique``: its plain form
        # imports ``numpy.ma`` (~20 ms) on first use.
        values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def first_occurrence_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of each value's first occurrence, in order.

    O(n) for sorted inputs, and for unsorted integers spanning at most
    ``4 * n`` values (a scatter of each value's least index); falls back
    to ``np.unique`` otherwise.
    """
    values = np.asarray(values)
    mask = np.zeros(values.shape, dtype=bool)
    if values.size == 0:
        return mask
    # Compare neighbours rather than take ``np.diff``: an unsigned diff
    # wraps, so it never reads as descending.
    if np.all(values[1:] >= values[:-1]):
        mask[0] = True
        mask[1:] = values[1:] != values[:-1]
        return mask
    n = values.size
    if values.dtype.kind in "iu":
        lo = values.min()
        span = int(values.max()) - int(lo) + 1
        if span <= 4 * n:
            # Narrow types would wrap below: the span may exceed their range.
            key = values.astype(np.int64) if values.itemsize < 8 else values
            key = key - lo
            order = np.arange(n)
            first = np.full(span, n)
            np.minimum.at(first, key, order)
            return first[key] == order
    _, first_idx = np.unique(values, return_index=True)
    mask[first_idx] = True
    return mask


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment
