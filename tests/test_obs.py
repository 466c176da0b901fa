"""Unit tests for the repro.obs telemetry layer (tracer + exporters)."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.obs.stitch import absorb, export_state
from tests.checks import CountingTracer
from repro.obs import (
    NOOP_SPAN,
    Tracer,
    chrome_trace,
    configure_logging,
    phase_breakdown,
    summary_table,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture
def tracer() -> Tracer:
    tr = Tracer()
    tr.enable()
    return tr


class TestTracerDisabled:
    def test_disabled_by_default(self):
        assert not Tracer().enabled
        assert not obs.get_tracer().enabled

    def test_disabled_span_is_shared_noop(self):
        tr = Tracer()
        assert tr.span("x", "engine") is NOOP_SPAN
        assert tr.span("y", "profiler") is NOOP_SPAN

    def test_disabled_calls_record_nothing(self):
        tr = Tracer()
        tr.begin("a")
        tr.count("c", 5)
        tr.gauge("g", 1.0)
        tr.pair("p", "engine", 0, 0, 10)
        tr.instant("i")
        tr.end()
        assert tr.events == []
        assert tr.counters == {}
        assert tr.gauges == {}

    def test_global_swap(self):
        counting = CountingTracer()
        old = obs.set_tracer(counting)
        try:
            assert obs.TRACER is counting
        finally:
            obs.set_tracer(old)
        assert obs.TRACER is old


class TestTracerSpans:
    def test_nesting_and_self_time(self, tracer):
        with tracer.span("outer", "engine"):
            with tracer.span("inner", "sampling"):
                pass
        outer = ("engine", "outer")
        inner = ("sampling", "inner")
        assert tracer.calls[outer] == 1
        assert tracer.calls[inner] == 1
        # Self time excludes the child: outer self + inner total = outer
        # total (the partition property phase breakdowns rely on).
        assert tracer.self_ns[outer] + tracer.total_ns[inner] == pytest.approx(
            tracer.total_ns[outer]
        )
        assert tracer.self_ns[inner] == tracer.total_ns[inner]

    def test_events_are_balanced(self, tracer):
        with tracer.span("a", "engine"):
            with tracer.span("b", "engine"):
                pass
        phs = [ev[0] for ev in tracer.events]
        assert phs == ["B", "B", "E", "E"]

    def test_counters_and_gauges(self, tracer):
        tracer.count("n", 2)
        tracer.count("n", 3)
        tracer.gauge("g", 7)
        tracer.gauge("g", 9)
        assert tracer.counters["n"] == 5
        assert tracer.gauges["g"] == 9

    def test_phase_breakdown_partitions_root(self, tracer):
        with tracer.span("root", "harness"):
            with tracer.span("child", "engine"):
                pass
            with tracer.span("child2", "profiler"):
                pass
        pb = phase_breakdown(tracer)
        assert set(pb["by_category"]) == {"harness", "engine", "profiler"}
        root_total_s = tracer.total_ns[("harness", "root")] / 1e9
        assert pb["total_self_s"] == pytest.approx(root_total_s)

    def test_clear_resets_everything(self, tracer):
        with tracer.span("a"):
            tracer.count("c")
        tracer.clear()
        assert tracer.events == []
        assert tracer.self_ns == {}
        assert tracer.counters == {}


class TestCountingTracer:
    def test_counts_touch_points_without_storing(self):
        tr = CountingTracer()
        assert tr.enabled
        tr.begin("a")
        tr.end()
        with tr.span("b", "engine"):
            pass
        tr.count("c")
        tr.gauge("g", 1)
        tr.pair("p", "engine", 0, 0, 1)
        tr.instant("i")
        assert tr.n_calls == 8
        assert tr.events == []


class TestChromeExport:
    def test_valid_and_loadable(self, tracer, tmp_path):
        with tracer.span("run", "engine"):
            with tracer.span("step", "engine"):
                pass
        t0 = tracer.now_ns()
        tracer.pair("iter", "engine", 3, t0, t0 + 100)
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        assert validate_chrome_trace(path) == []
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {"thread_name"}
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert 0 in tids  # harness track
        assert 4 in tids  # simulated thread 3 -> tid 4

    def test_mirror_tracks_marked_in_metadata(self, tracer):
        with tracer.span("run", "engine"):
            pass
        t0 = tracer.now_ns()
        tracer.pair("iter", "engine", 3, t0, t0 + 100)
        doc = chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        meta = {
            e["tid"]: e["args"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert meta[4] == {"name": "thread 3", "mirror": True}
        assert meta[0] == {"name": "harness"}

    def test_pair_events_sorted_into_monotonic_order(self, tracer):
        # pair() appends pre-timed events late; the exporter re-sorts.
        t0 = tracer.now_ns()
        with tracer.span("outer", "engine"):
            pass
        tracer.pair("mirror", "engine", 0, t0, tracer.now_ns())
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_counters_in_other_data(self, tracer):
        tracer.count("k", 3)
        with tracer.span("s"):
            pass
        doc = chrome_trace(tracer)
        assert doc["otherData"]["counters"] == {"k": 3}


class TestValidator:
    def test_rejects_non_trace(self):
        assert validate_chrome_trace({"nope": 1})

    def test_rejects_decreasing_ts(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 5.0},
            {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0},
        ]}
        assert any("decreases" in p for p in validate_chrome_trace(doc))

    def test_rejects_unmatched_begin(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
        ]}
        assert any("open" in p for p in validate_chrome_trace(doc))

    def test_rejects_mismatched_end_name(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
            {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
        ]}
        assert any("closes open span" in p for p in validate_chrome_trace(doc))

    def test_rejects_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert any("unreadable" in p for p in validate_chrome_trace(bad))


class TestGaugeMerge:
    """``absorb`` gauge semantics: per-gauge merge policies, not
    last-write-wins (which silently depended on shard arrival order)."""

    def _state(self, gauges: dict) -> dict:
        tr = Tracer()
        tr.enable()
        for key, value in gauges.items():
            tr.gauge(key, value)
        return export_state(tr)

    def test_sum_policy_for_sharded_row_counts(self, tracer):
        assert obs.GAUGE_MERGE["profiler.code_rows"] == "sum"
        tracer.gauge("profiler.code_rows", 10)
        absorb(tracer, self._state({"profiler.code_rows": 7}), "w0")
        assert tracer.gauges["profiler.code_rows"] == 17

    def test_max_policy_for_epsilon(self, tracer):
        assert obs.GAUGE_MERGE["engine.phase.epsilon"] == "max"
        tracer.gauge("engine.phase.epsilon", 0.5)
        absorb(tracer, self._state({"engine.phase.epsilon": 0.2}), "w0")
        assert tracer.gauges["engine.phase.epsilon"] == 0.5
        absorb(tracer, self._state({"engine.phase.epsilon": 0.9}), "w1")
        assert tracer.gauges["engine.phase.epsilon"] == 0.9

    def test_unknown_gauges_default_to_max(self, tracer):
        assert obs.DEFAULT_GAUGE_MERGE == "max"
        tracer.gauge("custom.gauge", 5)
        absorb(tracer, self._state({"custom.gauge": 3}), "w0")
        assert tracer.gauges["custom.gauge"] == 5

    def test_absorb_order_independent(self):
        """Regression: with last-write-wins the merged value depended on
        shard arrival order; max/sum policies are commutative."""
        states = [
            self._state({"engine.phase.epsilon": e, "profiler.var_rows": r})
            for e, r in ((0.1, 3), (0.7, 5), (0.4, 2))
        ]

        def merge(order):
            tr = Tracer()
            tr.enable()
            for i in order:
                absorb(tr, states[i], f"w{i}")
            return dict(tr.gauges)

        assert merge([0, 1, 2]) == merge([2, 1, 0]) == merge([1, 0, 2])
        assert merge([0, 1, 2]) == {
            "engine.phase.epsilon": 0.7, "profiler.var_rows": 10,
        }

    def test_absent_key_copies_value(self, tracer):
        absorb(tracer, self._state({"profiler.bin_rows": 4}), "w0")
        assert tracer.gauges["profiler.bin_rows"] == 4


class TestJsonl:
    def test_round_trips_events_counters_gauges(self, tracer, tmp_path):
        with tracer.span("s", "engine", note=1):
            pass
        tracer.count("c", 2)
        tracer.gauge("g", 3)
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        types = [r["type"] for r in recs]
        assert types == ["event", "event", "counter", "gauge"]
        assert recs[0]["args"] == {"note": 1}
        assert recs[2] == {"type": "counter", "name": "c", "value": 2}

    def test_every_line_parses_and_sections_are_ordered(self, tracer, tmp_path):
        with tracer.span("outer", "engine"):
            with tracer.span("inner", "sampling"):
                pass
        tracer.count("c1", 1)
        tracer.count("c2", 2)
        tracer.gauge("g1", 3)
        tracer.gauge("g2", 4)
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        types = [r["type"] for r in recs]
        # The stream contract: all events, then counters, then gauges.
        first_counter = types.index("counter")
        first_gauge = types.index("gauge")
        assert all(t == "event" for t in types[:first_counter])
        assert all(t == "counter" for t in types[first_counter:first_gauge])
        assert all(t == "gauge" for t in types[first_gauge:])

    def test_absorbed_tracer_exports_valid_jsonl(self, tracer, tmp_path):
        worker = Tracer()
        worker.enable()
        with worker.span("shard.round", "shard"):
            pass
        worker.count("engine.chunks", 9)
        worker.gauge("profiler.code_rows", 2)
        with tracer.span("parent.round", "harness"):
            pass
        absorb(tracer, export_state(worker), "w0")
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        types = [r["type"] for r in recs]
        assert types == ["event"] * 4 + ["counter", "gauge"]
        # The worker's events landed on the remapped track.
        tracks = {r.get("track") for r in recs if r["type"] == "event"}
        assert "w0" in tracks


def _jsonl_self_ns(path) -> dict:
    """Per-(cat, name) self time from a JSONL file's non-mirror spans."""
    self_ns: dict = {}
    stacks: dict = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["type"] != "event" or rec["ph"] not in "BE":
            continue
        if rec["mirror"]:
            continue
        stack = stacks.setdefault(rec["track"], [])
        if rec["ph"] == "B":
            stack.append([rec["ts_ns"], 0])
            continue
        t0, child = stack.pop()
        dur = rec["ts_ns"] - t0
        key = (rec["cat"], rec["name"])
        self_ns[key] = self_ns.get(key, 0) + dur - child
        if stack:
            stack[-1][1] += dur
    return self_ns


class TestMirrorTracks:
    def test_non_mirror_span_sum_reproduces_self_ns(self, tmp_path):
        from repro.machine import presets
        from repro.runtime import ExecutionEngine
        from repro.spec import RunSpec

        tracer = Tracer()
        old = obs.set_tracer(tracer)
        try:
            tracer.enable()
            ExecutionEngine(
                presets.PRESETS["generic"](),
                RunSpec("lulesh", scale=0.02).program(), 8,
            ).run()
            worker = Tracer()
            worker.enable()
            with worker.span("shard.round", "shard"):
                with worker.span("engine.classify", "engine"):
                    pass
            absorb(tracer, export_state(worker), "w0")
        finally:
            obs.set_tracer(old)
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        mirrors = [r for r in recs if r["type"] == "event" and r["mirror"]]
        # One mirror pair per simulated thread per region iteration.
        assert mirrors and {type(r["track"]) for r in mirrors} == {int}
        assert _jsonl_self_ns(path) == tracer.self_ns


class TestSummaryTable:
    def test_mentions_spans_counters_gauges(self, tracer):
        with tracer.span("engine.run", "engine"):
            pass
        tracer.count("engine.steps", 4)
        tracer.gauge("profiler.code_rows", 7)
        text = summary_table(tracer)
        assert "engine.run" in text
        assert "engine.steps" in text
        assert "profiler.code_rows" in text


class TestLogging:
    def test_levels(self):
        configure_logging(verbosity=0)
        assert obs.logger.level == logging.WARNING
        configure_logging(verbosity=1)
        assert obs.logger.level == logging.INFO
        configure_logging(verbosity=2)
        assert obs.logger.level == logging.DEBUG
        configure_logging(quiet=True)
        assert obs.logger.level == logging.ERROR

    def test_idempotent_handlers(self):
        configure_logging(verbosity=0)
        configure_logging(verbosity=0)
        assert len(obs.logger.handlers) == 1

    def test_child_logger_namespaced(self):
        assert obs.get_logger("engine").name == "repro.engine"
