"""repro.obs — the reproduction's self-observability layer.

A zero-dependency telemetry subsystem answering the paper's Section-7
question about our own pipeline: where does the tool's time go, and
what does measurement cost? It provides

* a global :data:`TRACER` with nestable spans, counters, and gauges —
  no-op by default, so instrumented hot paths pay one attribute check
  when tracing is disabled;
* exporters — Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
  a JSONL structured-log sink, a plain-text summary table, and per-phase
  self-time breakdowns (:mod:`repro.obs.export`);
* a stdlib-logging bridge (:mod:`repro.obs.log`).

Usage::

    from repro import obs

    obs.enable()
    with obs.TRACER.span("my.phase", "harness"):
        ...
    obs.TRACER.count("things.done", 3)
    obs.write_chrome_trace(obs.TRACER, "out.trace.json")
    print(obs.summary_table(obs.TRACER))
    obs.disable()

Hot code reads ``obs.TRACER`` through the module attribute (never ``from
repro.obs import TRACER``) so tests and tools can swap the tracer with
:func:`set_tracer` — e.g. the no-op overhead guard's counting tracer.

Span categories are the overhead-attribution phases: ``engine``
(execution pipeline), ``sampling`` (mechanism selection), ``profiler``
(attribution + flush), ``analysis`` (merge/views/advice), ``harness``
(CLI and benchmarks). See ``docs/OBSERVABILITY.md`` for the taxonomy.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.obs.tracer import Tracer

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".tracer": """Tracer NOOP_SPAN FLAG_ITERATION FLAG_SCHEDULE FLAG_EPOCH
        FLAG_PHASE_BREAK FLAG_EXTRAPOLATED FLAG_FINAL""",
    ".stitch": "GAUGE_MERGE DEFAULT_GAUGE_MERGE",
    ".timeseries": "MetricsRecorder",
    ".export": """chrome_trace write_chrome_trace write_jsonl summary_table
        phase_breakdown validate_chrome_trace""",
    ".log": "configure_logging get_logger logger",
})
__all__ += ["TRACER", "enable", "disable", "get_tracer", "set_tracer"]

#: The process-global tracer every instrumented module consults.
TRACER = Tracer()


def enable(*, clear: bool = True) -> Tracer:
    """Enable the global tracer (clearing prior data by default)."""
    TRACER.enable(clear=clear)
    return TRACER


def disable() -> Tracer:
    """Disable the global tracer; collected data stays readable."""
    TRACER.disable()
    return TRACER


def get_tracer() -> Tracer:
    """The current global tracer."""
    return TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests, counting mode); returns the old one."""
    global TRACER
    old, TRACER = TRACER, tracer
    return old
