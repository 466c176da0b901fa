"""Simulated multithreaded execution substrate.

Programs are expressed as sequences of *regions* (serial or parallel);
each region's kernel emits vectorized :class:`~repro.runtime.chunks.AccessChunk`
streams per thread. The :class:`~repro.runtime.engine.ExecutionEngine`
drives the chunks through the machine's memory system in lockstep steps
(so contention is computed from the aggregate traffic of all concurrently
running threads), accounts simulated cycles, and invokes monitoring hooks
that the profiler attaches to.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".callstack": "SourceLoc CallStack",
    ".chunks": "AccessChunk",
    ".thread": "SimThread BindingPolicy bind_threads",
    ".heap": "HeapAllocator Variable VariableKind",
    ".program": "Program Region ProgramContext RegionKind",
    ".engine": "ExecutionEngine Monitor RunResult",
})
