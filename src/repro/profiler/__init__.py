"""The NUMA profiler: HPCToolkit-NUMA's online measurement side.

:class:`~repro.profiler.profiler.NumaProfiler` attaches to the execution
engine as a monitor. Per address sample it performs the three
attributions of paper Section 5 — code-centric (calling context tree),
data-centric (variables and their bins), address-centric (per-thread
[min, max] ranges per context) — computes the NUMA metrics of Section 4,
and pinpoints first touches via page-protection traps (Section 6).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cct": "CCT CCTNode DUMMY_ACCESS DUMMY_FIRST_TOUCH",
    ".metrics": "MetricNames lpi_numa remote_fraction",
    ".profile_data": """BinRecord FirstTouchRecord ProfileArchive
        ThreadProfile VarRecord""",
    ".addresscentric": "bin_count_for bin_edges bin_indices",
    ".profiler": "NumaProfiler",
    ".timeline": "CompositeMonitor TimelineRecorder",
})
