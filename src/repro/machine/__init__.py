"""Simulated NUMA machine substrate.

This package models everything the paper's profiler observes from hardware
and the OS: the NUMA topology (domains, cores, distances), physical frame
allocation, the virtual page table with placement policies and protection
bits, a cache hierarchy, interconnect/memory-controller contention, and the
end-to-end latency model. :class:`~repro.machine.machine.Machine` is the
facade tying these together; :mod:`repro.machine.presets` provides the five
architectures from Table 1 of the paper.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".topology": "NumaTopology",
    ".pagetable": "PageTable PlacementPolicy",
    ".cache": "CacheConfig CacheHierarchy",
    ".interconnect": "ContentionModel",
    ".latency": "LatencyModel",
    ".machine": "Machine",
    ".": "presets",
})
