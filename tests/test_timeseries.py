"""Unit tests for the metrics plane (:mod:`repro.obs.timeseries`)."""

from __future__ import annotations

import math

import pytest

from repro.analysis import postmortem as analysis_io
from repro.obs import (
    FLAG_EXTRAPOLATED,
    FLAG_FINAL,
    FLAG_ITERATION,
    FLAG_SCHEDULE,
    MetricsRecorder,
    Tracer,
)
from repro.obs.stitch import absorb, export_state
from repro.obs.timeseries import FLAG_NAMES, SERIES_FORMAT


class FakeClockTracer(Tracer):
    """Tracer with a manually advanced clock, for exact rate math."""

    def __init__(self) -> None:
        super().__init__()
        self.t = 0
        self.enable()

    def now_ns(self) -> int:
        return self.t


@pytest.fixture
def tracer() -> Tracer:
    tr = Tracer()
    tr.enable()
    return tr


class TestRecording:
    def test_capacity_must_hold_two_rows(self):
        with pytest.raises(ValueError):
            MetricsRecorder(capacity=1)

    def test_sample_snapshots_counters_gauges_and_values(self, tracer):
        tracer.count("engine.steps", 4)
        tracer.gauge("profiler.code_rows", 7)
        mx = MetricsRecorder(capacity=8)
        mx.sample(
            tracer, flags=FLAG_ITERATION, region="compute", iteration=0,
            values={"engine.chunks": 1.5},
        )
        last = mx.last_values()
        assert last["engine.steps"] == 4
        assert last["profiler.code_rows"] == 7
        assert last["engine.chunks"] == 1.5
        assert mx.regions == ["compute"]

    def test_values_override_same_named_counters(self, tracer):
        tracer.count("engine.chunks", 10)
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, values={"engine.chunks": 99.0})
        assert mx.last_values()["engine.chunks"] == 99.0

    def test_late_series_is_nan_backfilled(self, tracer):
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, values={"a": 1.0})
        mx.sample(tracer, values={"a": 2.0, "late": 5.0})
        doc = mx.export()
        assert math.isnan(doc["series"]["late"][0])
        assert doc["series"]["late"][1] == 5.0
        # And absent-in-this-row cells go back to NaN too.
        mx.sample(tracer, values={"a": 3.0})
        doc = mx.export()
        assert math.isnan(doc["series"]["late"][2])

    def test_ring_wraps_and_counts_dropped(self, tracer):
        mx = MetricsRecorder(capacity=4)
        for i in range(10):
            mx.sample(tracer, iteration=i, values={"v": float(i)})
        assert mx.n_samples == 4
        assert mx.n_total == 10
        assert mx.dropped == 6
        doc = mx.export()
        assert doc["columns"]["iteration"] == [6, 7, 8, 9]
        assert doc["series"]["v"] == [6.0, 7.0, 8.0, 9.0]
        assert doc["dropped"] == 6

    def test_flags_recorded_and_named(self, tracer):
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, flags=FLAG_ITERATION | FLAG_SCHEDULE)
        mx.sample(tracer, flags=FLAG_FINAL)
        doc = mx.export()
        assert doc["columns"]["flags"] == [
            FLAG_ITERATION | FLAG_SCHEDULE, FLAG_FINAL
        ]
        # Every defined flag bit has a printable name.
        for flag in (FLAG_ITERATION, FLAG_SCHEDULE, FLAG_FINAL):
            assert flag in FLAG_NAMES


class TestDerivedSeries:
    def test_chunk_rate_is_delta_over_host_time(self):
        tr = FakeClockTracer()
        mx = MetricsRecorder(capacity=8)
        tr.t = 0
        mx.sample(tr, values={"engine.chunks": 0.0})
        tr.t = 1_000_000_000
        mx.sample(tr, values={"engine.chunks": 100.0})
        tr.t = 3_000_000_000
        mx.sample(tr, values={"engine.chunks": 200.0})
        rates = [v for _ts, v in mx.series_values("engine.rate.chunks_per_s")]
        # No rate on the first sample; then 100/1s and 100/2s.
        assert rates == [100.0, 50.0]

    def test_final_sample_reports_whole_window_mean(self):
        tr = FakeClockTracer()
        mx = MetricsRecorder(capacity=8)
        tr.t = 0
        mx.sample(tr, values={"engine.chunks": 0.0})
        tr.t = 1_000_000_000
        mx.sample(tr, values={"engine.chunks": 10.0})
        tr.t = 2_000_000_000
        mx.sample(tr, flags=FLAG_FINAL, values={"engine.chunks": 300.0})
        last = mx.last_values()
        # 300 chunks over the 2 s window, not the delta since the
        # previous sample (which would be a misleading spike).
        assert last["engine.rate.chunks_per_s"] == 150.0

    def test_memo_hit_rate(self, tracer):
        tracer.count("engine.memo.hits", 3)
        tracer.count("engine.memo.misses", 1)
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer)
        assert mx.last_values()["engine.memo.hit_rate"] == 0.75

    def test_phase_coverage_counts_live_and_extrapolated(self, tracer):
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, flags=FLAG_ITERATION)
        mx.sample(
            tracer, flags=FLAG_EXTRAPOLATED,
            values={"engine.phase.extrapolated_iterations": 3.0},
        )
        # 3 extrapolated of 4 total iterations seen so far.
        assert mx.last_values()["engine.phase.coverage_pct"] == 75.0


class TestExportAndAbsorb:
    def test_export_format_tag_matches_io_mirror(self, tracer):
        mx = MetricsRecorder(capacity=4)
        mx.sample(tracer)
        doc = mx.export()
        assert doc["format"] == SERIES_FORMAT
        assert analysis_io.SERIES_FORMAT == SERIES_FORMAT

    def test_absorb_remaps_tracks_shifts_time_preserves_order(self):
        worker = FakeClockTracer()
        wmx = MetricsRecorder(capacity=8)
        worker.t = 5
        wmx.sample(worker, iteration=1, values={"engine.chunks": 7.0})
        worker.t = 6
        wmx.sample(worker, iteration=2, values={"engine.chunks": 9.0})

        parent = FakeClockTracer()
        pmx = MetricsRecorder(capacity=8)
        parent.t = 100
        pmx.sample(parent, iteration=0, values={"engine.chunks": 1.0})
        pmx.absorb(wmx.export(), "w0", shift_ns=1000)

        assert pmx.tracks == ["main", "w0"]
        doc = pmx.export()
        assert doc["columns"]["track"] == [0, 1, 1]
        assert doc["columns"]["ts_ns"] == [100, 1005, 1006]
        assert pmx.series_values("engine.chunks", "w0") == [
            (1005, 7.0), (1006, 9.0)
        ]
        # Absorb is append-only: the parent's own rate bookkeeping must
        # not see foreign chunks (no cross-track rate artifacts).
        assert pmx.series_values("engine.rate.chunks_per_s", "main") == []

    def test_absorb_rides_tracer_export_state(self):
        worker = Tracer()
        worker.enable()
        worker.metrics = MetricsRecorder(capacity=8)
        worker.count("engine.chunks", 5)
        worker.metrics.sample(worker, flags=FLAG_ITERATION)

        parent = Tracer()
        parent.enable()
        parent.metrics = MetricsRecorder(capacity=8)
        absorb(parent, export_state(worker), "w3")
        assert parent.metrics.tracks == ["main", "w3"]
        assert parent.metrics.last_values("w3")["engine.chunks"] == 5

    def test_absorb_is_skipped_when_parent_has_no_recorder(self):
        worker = Tracer()
        worker.enable()
        worker.metrics = MetricsRecorder(capacity=8)
        worker.metrics.sample(worker)
        parent = Tracer()
        parent.enable()
        absorb(parent, export_state(worker), "w0")  # must not raise
        assert parent.metrics is None

    def test_deterministic_merge(self):
        def build():
            w1, w2 = FakeClockTracer(), FakeClockTracer()
            m1, m2 = MetricsRecorder(capacity=8), MetricsRecorder(capacity=8)
            w1.t, w2.t = 10, 20
            m1.sample(w1, values={"a": 1.0})
            m2.sample(w2, values={"a": 2.0})
            parent = MetricsRecorder(capacity=8)
            parent.absorb(m1.export(), "w0", shift_ns=0)
            parent.absorb(m2.export(), "w1", shift_ns=0)
            return parent.export()

        assert build() == build()


class TestSeriesRoundTrip:
    def test_save_load_restores_nan_cells(self, tracer, tmp_path):
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, values={"a": 1.0})
        mx.sample(tracer, values={"b": 2.0})
        path = analysis_io.save_series(mx.export(), tmp_path / "s.json")
        # Strict JSON on disk: no bare NaN literals.
        assert "NaN" not in path.read_text()
        doc = analysis_io.load_series(path)
        assert math.isnan(doc["series"]["b"][0])
        assert doc["series"]["b"][1] == 2.0
        assert doc["series"]["a"][0] == 1.0
        assert math.isnan(doc["series"]["a"][1])

    def test_save_rejects_foreign_format(self, tmp_path):
        with pytest.raises(ValueError):
            analysis_io.save_series({"format": "nope"}, tmp_path / "s.json")

    def test_loaded_doc_can_be_reabsorbed(self, tracer, tmp_path):
        mx = MetricsRecorder(capacity=8)
        mx.sample(tracer, values={"a": 1.0})
        mx.sample(tracer, values={"b": 2.0})
        path = analysis_io.save_series(mx.export(), tmp_path / "s.json")
        doc = analysis_io.load_series(path)
        back = MetricsRecorder(capacity=8)
        back.absorb(doc, "replay", shift_ns=0)
        assert back.last_values("replay") == {"b": 2.0}
