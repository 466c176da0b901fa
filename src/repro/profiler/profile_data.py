"""Per-thread profile containers (what hpcrun writes to disk).

Each simulated thread gets a :class:`ThreadProfile` holding its CCT, its
per-variable records (metrics, bins, [min, max] access ranges per calling
context), its first-touch records, and whole-thread counters. The offline
analyzer (:mod:`repro.analysis`) merges these across threads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.profiler.addresscentric import bin_count_for
from repro.profiler.cct import CCT
from repro.runtime.callstack import CallPath
from repro.runtime.heap import Variable


@dataclass(eq=False, repr=False)
class FirstTouchRecord:
    """One protection-trap event: who first touched which pages where."""

    var_name: str
    tid: int
    cpu: int
    domain: int
    pages: np.ndarray
    path: CallPath

    @property
    def n_pages(self) -> int:
        """Pages bound by this trap."""
        return int(self.pages.size)


class BinRecord:
    """Metrics for one bin (synthetic sub-variable) of a variable."""

    __slots__ = ("index", "metrics")

    def __init__(self, index: int) -> None:
        self.index = index
        self.metrics: defaultdict[str, float] = defaultdict(float)


class VarRecord:
    """Per-thread data-centric record for one variable.

    ``ranges`` maps each calling context in which this thread touched the
    variable to a ``(n_bins + 1, 2)`` array of [min, max] byte addresses:
    row 0 covers the whole variable, rows ``1..n_bins`` the bins. Ranges
    start as [+inf, -inf] and tighten as samples arrive.
    """

    def __init__(self, var: Variable, n_bins: int | None = None) -> None:
        self.name = var.name
        self.kind = var.kind
        self.alloc_path = var.alloc_path
        self.base = var.base
        self.nbytes = var.nbytes
        self.n_bins = bin_count_for(var.nbytes, n_bins=n_bins)
        self.metrics: defaultdict[str, float] = defaultdict(float)
        self.bins = [BinRecord(i) for i in range(self.n_bins)]
        self.ranges: dict[CallPath, np.ndarray] = {}

    def range_for(self, path: CallPath | None = None) -> tuple[float, float] | None:
        """[min, max] for a context, or across all contexts when ``None``."""
        if path is not None:
            arr = self.ranges.get(path)
            if arr is None or not np.isfinite(arr[0, 0]):
                return None
            return float(arr[0, 0]), float(arr[0, 1])
        lo, hi = np.inf, -np.inf
        for arr in self.ranges.values():
            lo = min(lo, arr[0, 0])
            hi = max(hi, arr[0, 1])
        if not np.isfinite(lo):
            return None
        return float(lo), float(hi)


@dataclass(eq=False, repr=False)
class ThreadProfile:
    """Everything one thread's hpcrun-analogue collected."""

    tid: int
    cpu: int
    domain: int
    #: Code-centric CCT: every chunk's metrics attributed exactly once at
    #: its access call path. Whole-tree totals are whole-thread totals.
    cct: CCT = field(default_factory=CCT)
    #: Augmented (data-centric) CCT: variable costs under allocation paths
    #: behind dummy separator nodes. Kept separate from ``cct`` so the
    #: code-centric tree never double-counts samples.
    data_cct: CCT = field(default_factory=CCT)
    vars: dict[str, VarRecord] = field(default_factory=dict)
    first_touches: list[FirstTouchRecord] = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))
    #: Migration-Profiler-style page heat, populated only when the
    #: profiler runs with ``heatmap=True``:
    #: page number -> ``[sample_count, lat_sum, lat_min, lat_max]``
    #: (latency fields zero when the mechanism measures none).
    page_heat: dict[int, list[float]] = field(default_factory=dict)

    def var_record(self, var: Variable, n_bins: int | None = None) -> VarRecord:
        """Get or create the record for ``var``."""
        rec = self.vars.get(var.name)
        if rec is None:
            rec = VarRecord(var, n_bins=n_bins)
            self.vars[var.name] = rec
        return rec

    def footprint_bytes(self) -> int:
        """Rough in-memory footprint of this profile's data structures.

        Used to validate the paper's "< 40 MB aggregate runtime footprint"
        claim at simulation scale.
        """
        total = 0
        total += (self.cct.n_nodes() + self.data_cct.n_nodes()) * 256
        for rec in self.vars.values():
            total += 512  # record + metric dict overhead
            total += len(rec.metrics) * 64
            total += sum(len(b.metrics) * 64 + 64 for b in rec.bins)
            total += len(rec.ranges) * (rec.n_bins + 1) * 16
        total += len(self.first_touches) * 128
        total += sum(int(ft.pages.nbytes) for ft in self.first_touches)
        return total


@dataclass(eq=False, repr=False)
class ProfileArchive:
    """A full measurement: per-thread profiles plus run metadata."""

    program: str
    machine_desc: str
    n_domains: int
    mechanism_name: str
    capabilities: object
    profiles: dict[int, ThreadProfile] = field(default_factory=dict)
    run_result: object = None

    def thread(self, tid: int) -> ThreadProfile:
        """The profile for thread ``tid``."""
        return self.profiles[tid]

    @property
    def n_threads(self) -> int:
        """Number of profiled threads."""
        return len(self.profiles)

    def footprint_bytes(self) -> int:
        """Aggregate footprint across all thread profiles."""
        return sum(p.footprint_bytes() for p in self.profiles.values())

    def all_var_names(self) -> list[str]:
        """Names of every variable observed by any thread."""
        names: set[str] = set()
        for p in self.profiles.values():
            names.update(p.vars.keys())
        return sorted(names)
