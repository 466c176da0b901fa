"""A tracer that counts instrumentation touch points (the no-op guard)."""

from __future__ import annotations

from repro.obs.tracer import NOOP_SPAN, Tracer


class CountingTracer(Tracer):
    """A tracer that only counts touch points — no timing, no storage.

    Used by the no-op overhead test (``tests/checks.py``): running an
    instrumented workload under a ``CountingTracer`` reveals how many
    tracer calls the disabled path would have to absorb, without paying
    for event recording.
    """

    def __init__(self) -> None:
        super().__init__()
        self.enabled = True
        self.n_calls = 0

    def begin(self, name, cat="harness", **args) -> None:  # noqa: ARG002
        self.n_calls += 1

    def end(self) -> None:
        self.n_calls += 1

    def span(self, name, cat="harness", **args):  # noqa: ARG002
        self.n_calls += 2  # a span is a begin plus an end
        return NOOP_SPAN

    def pair(self, name, cat, track, t0_ns, t1_ns) -> None:  # noqa: ARG002
        self.n_calls += 1

    def instant(self, name, cat="harness", **args) -> None:  # noqa: ARG002
        self.n_calls += 1

    def count(self, name, n=1) -> None:  # noqa: ARG002
        self.n_calls += 1

    def gauge(self, name, value) -> None:  # noqa: ARG002
        self.n_calls += 1
