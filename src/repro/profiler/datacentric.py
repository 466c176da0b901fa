"""Data-centric address resolution: sample address -> program variable.

The real tool builds this map from two sources (paper Section 5.1):
symbols in the executable and shared libraries for static variables, and
tracked ``malloc``/``free`` extents for heap data. Here the registry is
fed by the allocator's ``on_alloc``/``on_free`` hooks and resolves sample
addresses against the recorded extents — the profiler deliberately
resolves through this map rather than trusting the chunk's ground-truth
variable, so the resolution path is exercised (and validated in tests
against the ground truth).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import InvalidAddressError
from repro.runtime.heap import Variable


class VariableRegistry:
    """Sorted-extent map from addresses to live variables."""

    def __init__(self) -> None:
        self._vars: dict[str, Variable] = {}
        self._bases = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._names: list[str] = []
        self._dirty = False
        #: name -> registration number; numbers are never reused.
        self._tickets: dict[str, int] = {}
        self._next_ticket = itertools.count()
        self._keys = np.empty(0, dtype=np.int64)

    def register(self, var: Variable) -> None:
        """Track a newly allocated variable."""
        self._vars[var.name] = var
        self._tickets[var.name] = next(self._next_ticket)
        self._dirty = True

    def unregister(self, var: Variable) -> None:
        """Drop a freed variable (later samples to it become unresolved)."""
        self._vars.pop(var.name, None)
        self._tickets.pop(var.name, None)
        self._dirty = True

    def _rebuild(self) -> None:
        ordered = sorted(self._vars.values(), key=lambda v: v.base)
        self._bases = np.array([v.base for v in ordered], dtype=np.int64)
        self._ends = np.array([v.end for v in ordered], dtype=np.int64)
        self._names = [v.name for v in ordered]
        self._keys = np.array(
            [self._tickets[v.name] for v in ordered], dtype=np.int64
        )
        self._dirty = False

    def resolve_addr(self, addr: int) -> Variable:
        """Resolve one address to its variable."""
        return self.resolve_addrs(np.array([addr]))

    def resolve_addrs(self, addrs: np.ndarray) -> Variable:
        """Resolve a batch of addresses known to share one variable.

        Sample batches from one chunk always fall inside a single access
        site's variable; resolving the minimum address and checking the
        maximum stays O(log n) while still detecting straddles.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        pos = self.resolve_ranges(
            addrs.min(keepdims=True), addrs.max(keepdims=True)
        )
        return self._vars[self._names[int(pos[0])]]

    def resolve_ranges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Resolve many batches at once, each given by its address range.

        Returns, per ``[lo[j], hi[j]]`` range, the position of its
        variable in :attr:`live_variables` (and :attr:`keys`): one
        ``searchsorted`` for all batches. Raises
        :class:`~repro.errors.InvalidAddressError` when a range starts
        outside every variable or straddles its variable's end.
        """
        if self._dirty:
            self._rebuild()
        idx = np.searchsorted(self._bases, lo, side="right") - 1
        bad = idx < 0
        if self._ends.size:
            bad |= lo >= self._ends[idx]
        if np.any(bad):
            addr = int(lo[np.flatnonzero(bad)[0]])
            raise InvalidAddressError(f"address {addr:#x} matches no variable")
        over = np.flatnonzero(hi >= self._ends[idx])
        if over.size:
            name = self._names[int(idx[over[0]])]
            raise InvalidAddressError(
                f"sample batch straddles variable {name!r}"
            )
        return idx

    @property
    def keys(self) -> np.ndarray:
        """Registration number per live variable, in base order.

        Equal keys mean the very same registration: a variable freed and
        allocated again under its name gets a new key.
        """
        if self._dirty:
            self._rebuild()
        return self._keys

    @property
    def live_variables(self) -> list[Variable]:
        """Currently tracked variables, ascending by base address."""
        if self._dirty:
            self._rebuild()
        return [self._vars[name] for name in self._names]
