"""The tracer: nestable spans, counters, and gauges on a monotonic clock.

Design constraints (see ``docs/OBSERVABILITY.md``):

* **No-op by default.** The global tracer starts disabled; every public
  entry point bails out after a single ``self.enabled`` attribute check,
  so instrumented hot paths pay one boolean test per touch point. Hot
  loops that make several calls per step additionally guard on
  ``TRACER.enabled`` themselves to collapse the cost to one check.
* **Zero dependencies.** Only the standard library — the tracer must be
  importable from every layer (engine, sampling, profiler, analysis)
  without creating import cycles.
* **Host time, not simulated time.** Spans measure the *reproduction's
  own* cost on the host (``time.perf_counter_ns``), the paper-Section-7
  question ("what does the measurement cost?"), not the simulated
  machine's cycles.

Spans nest via an explicit stack (``begin``/``end`` or the ``span``
context manager); the tracer maintains per-(category, name) call counts,
total (inclusive) time, and *self* time — total minus time spent in
child spans — so a phase breakdown over all spans partitions the root
span's duration exactly.
"""

from __future__ import annotations

import time

__all__ = [
    "Tracer",
    "NOOP_SPAN",
    "FLAG_ITERATION",
    "FLAG_SCHEDULE",
    "FLAG_EPOCH",
    "FLAG_PHASE_BREAK",
    "FLAG_EXTRAPOLATED",
    "FLAG_FINAL",
]

# Metrics-plane sample flags (see repro.obs.timeseries). They live here,
# beside the tracer every run imports, because the engine tags each
# iteration with them whether or not a recorder is attached.

#: Sample was taken at a region-iteration boundary (one live iteration).
FLAG_ITERATION = 1
#: A policy schedule fired during this iteration (autotune action).
FLAG_SCHEDULE = 2
#: The page-table epoch bumped during this iteration (pages migrated).
FLAG_EPOCH = 4
#: The phase detector broke a steady phase during this iteration.
FLAG_PHASE_BREAK = 8
#: Sample marks a closed-form extrapolation skip (batch of iterations).
FLAG_EXTRAPOLATED = 16
#: Final snapshot at run end (run-level gauges are set by now).
FLAG_FINAL = 32

class _NoopSpan:
    """Shared inert context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _SpanCtx:
    """Context manager binding one ``begin``/``end`` pair to a ``with``."""

    __slots__ = ("_tracer", "_name", "_cat", "_args")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> None:
        self._tracer.begin(self._name, self._cat, **self._args)

    def __exit__(self, *exc) -> bool:
        self._tracer.end()
        return False


class Tracer:
    """Span/counter/gauge collector; disabled (no-op) unless enabled.

    Events are recorded as ``(ph, name, cat, track, ts_ns, args)`` tuples
    in the order they happen — ``ph`` is the Chrome trace-event phase
    (``B`` begin, ``E`` end, ``i`` instant). ``track`` is ``"harness"``
    for the reproduction's own pipeline or a simulated thread id for
    per-thread mirrors (see :meth:`pair`). Exporters live in
    :mod:`repro.obs.export`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._epoch_ns = 0
        #: Raw event tuples in emission order.
        self.events: list[tuple] = []
        #: name -> accumulated value (monotonic counts).
        self.counters: dict[str, float] = {}
        #: name -> last set value.
        self.gauges: dict[str, float] = {}
        #: (cat, name) -> nanoseconds excluding child spans.
        self.self_ns: dict[tuple[str, str], int] = {}
        #: (cat, name) -> nanoseconds including child spans.
        self.total_ns: dict[tuple[str, str], int] = {}
        #: (cat, name) -> number of completed spans.
        self.calls: dict[tuple[str, str], int] = {}
        #: Open-span stack: [name, cat, t0_ns, child_ns] entries.
        self._stack: list[list] = []
        #: Optional attached metrics-plane recorder
        #: (:class:`repro.obs.timeseries.MetricsRecorder`); ``None`` when
        #: the metrics plane is off. Travels with
        #: :func:`repro.obs.stitch.export_state`.
        self.metrics = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def enable(self, *, clear: bool = True) -> None:
        """Start recording; by default from a clean slate and a fresh epoch."""
        if clear:
            self.clear()
        if self._epoch_ns == 0:
            self._epoch_ns = time.perf_counter_ns()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; collected data stays readable."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all collected events, aggregates, counters, and gauges."""
        self.events.clear()
        self.counters.clear()
        self.gauges.clear()
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self._stack.clear()
        self._epoch_ns = 0
        self.metrics = None

    def now_ns(self) -> int:
        """Monotonic nanoseconds since this tracer's epoch."""
        return time.perf_counter_ns() - self._epoch_ns

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def begin(self, name: str, cat: str = "harness", **args) -> None:
        """Open a nested span on the harness track."""
        if not self.enabled:
            return
        ts = time.perf_counter_ns() - self._epoch_ns
        self.events.append(("B", name, cat, "harness", ts, args or None))
        self._stack.append([name, cat, ts, 0])

    def end(self) -> None:
        """Close the innermost open span."""
        if not self.enabled or not self._stack:
            return
        ts = time.perf_counter_ns() - self._epoch_ns
        name, cat, t0, child_ns = self._stack.pop()
        dur = ts - t0
        key = (cat, name)
        self.self_ns[key] = self.self_ns.get(key, 0) + (dur - child_ns)
        self.total_ns[key] = self.total_ns.get(key, 0) + dur
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1][3] += dur
        self.events.append(("E", name, cat, "harness", ts, None))

    def span(self, name: str, cat: str = "harness", **args):
        """``with tracer.span("engine.step", "engine"):`` — begin/end pair."""
        if not self.enabled:
            return NOOP_SPAN
        return _SpanCtx(self, name, cat, args)

    def pair(
        self, name: str, cat: str, track, t0_ns: int, t1_ns: int
    ) -> None:
        """Record a pre-timed B/E pair on an arbitrary track.

        Used for per-simulated-thread mirrors of harness work (e.g. each
        thread's region iterations); these are display-only and excluded
        from the self-time aggregates so phase breakdowns never double
        count.
        """
        if not self.enabled:
            return
        self.events.append(("B", name, cat, track, t0_ns, None))
        self.events.append(("E", name, cat, track, t1_ns, None))

    def instant(self, name: str, cat: str = "harness", **args) -> None:
        """Record a point event (Chrome ``i`` phase)."""
        if not self.enabled:
            return
        ts = time.perf_counter_ns() - self._epoch_ns
        self.events.append(("i", name, cat, "harness", ts, args or None))

    # ------------------------------------------------------------------ #
    # counters / gauges
    # ------------------------------------------------------------------ #

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a named monotonic counter."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to its latest value."""
        if not self.enabled:
            return
        self.gauges[name] = value

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #

    def category_self_seconds(self) -> dict[str, float]:
        """Self time per span category, in seconds."""
        out: dict[str, float] = {}
        for (cat, _name), ns in self.self_ns.items():
            out[cat] = out.get(cat, 0.0) + ns / 1e9
        return out

    def span_self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        out: dict[str, float] = {}
        for (_cat, name), ns in self.self_ns.items():
            out[name] = out.get(name, 0.0) + ns / 1e9
        return out
