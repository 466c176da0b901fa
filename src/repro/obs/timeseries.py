"""The metrics plane: fixed-dtype ring-buffer time series for one run.

LIKWID's timeline mode showed that cheap periodic counter snapshots turn
a one-shot profiler into a monitoring tool. :class:`MetricsRecorder`
does that for this reproduction: at every region-iteration boundary (and
on schedule fires, page-table epoch bumps, and phase breaks, so autotune
actions are visible as timeline events) it snapshots every tracer
counter and gauge plus engine-computed rates into parallel numpy ring
buffers of fixed dtype. Memory is bounded by ``capacity`` rows; when a
run outlives the ring the oldest rows are overwritten and ``dropped``
counts them.

All timestamps are **host** nanoseconds on the owning tracer's epoch
(`Tracer.now_ns`), never simulated cycles — like the rest of
``repro.obs``, the metrics plane observes the reproduction, not the
simulated machine, and therefore can never perturb simulated results.

Sharded runs: each worker's recorder rides the existing
``repro.obs.stitch`` (``export_state`` / ``absorb``) stitching — the parent
absorbs worker series in shard order with epoch-shifted timestamps, so
the merged timeline is deterministic and byte-stable across runs.

Derived series (computed at sample time, from the *merged* row values so
serial and sharded-parent samples share one code path):

* ``engine.rate.chunks_per_s`` — Δ``engine.chunks`` over Δ host time
  since the previous sample on the same recorder.
* ``engine.memo.hit_rate`` — ``hits / (hits + misses)`` cumulative.
* ``engine.phase.coverage_pct`` — extrapolated iterations as a
  percentage of all iterations seen so far.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import (
    FLAG_EPOCH,
    FLAG_EXTRAPOLATED,
    FLAG_FINAL,
    FLAG_ITERATION,
    FLAG_PHASE_BREAK,
    FLAG_SCHEDULE,
)

__all__ = [
    "MetricsRecorder",
    "FLAG_ITERATION",
    "FLAG_SCHEDULE",
    "FLAG_EPOCH",
    "FLAG_PHASE_BREAK",
    "FLAG_EXTRAPOLATED",
    "FLAG_FINAL",
    "FLAG_NAMES",
]

#: Bit -> short name, for exports and the ``runs timeline`` renderer.
FLAG_NAMES = {
    FLAG_ITERATION: "iter",
    FLAG_SCHEDULE: "schedule",
    FLAG_EPOCH: "epoch",
    FLAG_PHASE_BREAK: "phase_break",
    FLAG_EXTRAPOLATED: "extrapolated",
    FLAG_FINAL: "final",
}

#: Serialized-series format tag (see ``analysis/postmortem.save_series``).
SERIES_FORMAT = "repro-series/v1"


class MetricsRecorder:
    """Bounded time-series store for one run's metric snapshots.

    Rows live in parallel fixed-dtype numpy arrays indexed modulo
    ``capacity``; every named series is a float64 column backfilled with
    NaN for rows recorded before the series first appeared (and for rows
    where it was absent). ``sample()`` is a read-only observer of the
    tracer — it never mutates counters or touches simulated state.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 2:
            raise ValueError("MetricsRecorder capacity must be >= 2")
        self.capacity = int(capacity)
        self._ts = np.zeros(self.capacity, dtype=np.int64)
        self._flags = np.zeros(self.capacity, dtype=np.uint16)
        self._region = np.full(self.capacity, -1, dtype=np.int32)
        self._iteration = np.full(self.capacity, -1, dtype=np.int64)
        self._track = np.zeros(self.capacity, dtype=np.int16)
        #: series name -> float64 column (NaN where unrecorded).
        self._series: dict[str, np.ndarray] = {}
        #: Region-name legend; ``_region`` stores indices into this.
        self.regions: list[str] = []
        #: Track-name legend; index 0 is always the recorder's own track.
        self.tracks: list[str] = ["main"]
        self._n = 0  # total rows ever appended (ring wraps at capacity)
        # Rate bookkeeping (per recorder, i.e. per process/track).
        self._prev_ts: int | None = None
        self._prev_chunks: float | None = None
        self._first_ts: int | None = None
        self._live_iters = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    @property
    def n_samples(self) -> int:
        """Rows currently held (≤ capacity)."""
        return min(self._n, self.capacity)

    @property
    def n_total(self) -> int:
        """Rows ever recorded, including overwritten ones."""
        return self._n

    @property
    def dropped(self) -> int:
        """Rows lost to ring wrap-around."""
        return max(0, self._n - self.capacity)

    def _region_id(self, region: str | None) -> int:
        if region is None:
            return -1
        try:
            return self.regions.index(region)
        except ValueError:
            self.regions.append(region)
            return len(self.regions) - 1

    def _track_id(self, track: str) -> int:
        try:
            return self.tracks.index(track)
        except ValueError:
            self.tracks.append(track)
            return len(self.tracks) - 1

    def _append(
        self,
        ts_ns: int,
        flags: int,
        region_id: int,
        iteration: int,
        track_id: int,
        values: dict[str, float],
    ) -> None:
        idx = self._n % self.capacity
        self._ts[idx] = ts_ns
        self._flags[idx] = flags
        self._region[idx] = region_id
        self._iteration[idx] = iteration
        self._track[idx] = track_id
        for col in self._series.values():
            col[idx] = np.nan
        for name, value in values.items():
            col = self._series.get(name)
            if col is None:
                col = np.full(self.capacity, np.nan, dtype=np.float64)
                self._series[name] = col
            col[idx] = float(value)
        self._n += 1

    def sample(
        self,
        tracer,
        *,
        flags: int = 0,
        region: str | None = None,
        iteration: int = -1,
        values: dict[str, float] | None = None,
    ) -> None:
        """Snapshot the tracer's counters/gauges plus caller values.

        ``values`` override same-named counters/gauges — in sharded runs
        the parent's tracer holds no engine counters (they accrue in the
        workers), so the parent passes the merged cumulative totals here
        and the derived rates come out identical to the serial path.
        """
        row: dict[str, float] = {}
        row.update(tracer.counters)
        row.update(tracer.gauges)
        if values:
            row.update(values)

        if flags & FLAG_ITERATION:
            self._live_iters += 1

        ts = tracer.now_ns()
        if self._first_ts is None:
            self._first_ts = ts
        # Derived: throughput since the previous sample on this recorder;
        # the final snapshot reports the whole observed window's mean
        # rate instead (its own delta would be a meaningless ~0).
        chunks = row.get("engine.chunks")
        if chunks is not None:
            if flags & FLAG_FINAL:
                if ts > self._first_ts:
                    row["engine.rate.chunks_per_s"] = (
                        chunks * 1e9 / (ts - self._first_ts)
                    )
            elif (
                self._prev_ts is not None
                and self._prev_chunks is not None
                and ts > self._prev_ts
            ):
                row["engine.rate.chunks_per_s"] = (
                    (chunks - self._prev_chunks) * 1e9 / (ts - self._prev_ts)
                )
            self._prev_ts = ts
            self._prev_chunks = chunks
        # Derived: cumulative memo hit rate.
        hits = row.get("engine.memo.hits", 0.0)
        misses = row.get("engine.memo.misses", 0.0)
        if hits + misses > 0:
            row["engine.memo.hit_rate"] = hits / (hits + misses)
        # Derived: phase coverage over all iterations seen so far.
        extrap = row.get("engine.phase.extrapolated_iterations", 0.0)
        total_iters = self._live_iters + extrap
        if total_iters > 0:
            row["engine.phase.coverage_pct"] = 100.0 * extrap / total_iters

        self._append(ts, flags, self._region_id(region), iteration, 0, row)

    # ------------------------------------------------------------------ #
    # export / stitching
    # ------------------------------------------------------------------ #

    def _order(self) -> list[int]:
        """Physical indices in logical (oldest → newest) order."""
        if self._n <= self.capacity:
            return list(range(self._n))
        return [i % self.capacity for i in range(self.dropped, self._n)]

    def export(self) -> dict:
        """Snapshot as plain lists, oldest row first.

        The result is JSON-friendly apart from NaN values, which
        ``analysis/postmortem.save_series`` sanitizes to ``null``; it is also the
        wire format :meth:`absorb` accepts from worker processes.
        """
        order = self._order()
        return {
            "format": SERIES_FORMAT,
            "capacity": self.capacity,
            "n_total": self._n,
            "dropped": self.dropped,
            "tracks": list(self.tracks),
            "regions": list(self.regions),
            "columns": {
                "ts_ns": [int(self._ts[i]) for i in order],
                "flags": [int(self._flags[i]) for i in order],
                "region": [int(self._region[i]) for i in order],
                "iteration": [int(self._iteration[i]) for i in order],
                "track": [int(self._track[i]) for i in order],
            },
            "series": {
                name: [float(col[i]) for i in order]
                for name, col in sorted(self._series.items())
            },
        }

    def absorb(self, state: dict, track_label: str, shift_ns: int) -> None:
        """Append a foreign recorder's exported rows onto this timeline.

        Called from ``repro.obs.stitch.absorb`` in shard order, so the merged
        series is deterministic. The foreign ``"main"`` track lands on
        ``track_label`` (e.g. ``"w0"``); other foreign tracks keep their
        labels. Timestamps shift onto this recorder's epoch. Derived
        series are NOT recomputed — foreign rows already carry theirs.
        """
        cols = state["columns"]
        track_map = {
            k: self._track_id(track_label if label == "main" else label)
            for k, label in enumerate(state["tracks"])
        }
        region_map = {
            k: self._region_id(name)
            for k, name in enumerate(state["regions"])
        }
        series = state["series"]
        names = list(series)
        for j in range(len(cols["ts_ns"])):
            values = {}
            for name in names:
                v = series[name][j]
                if v is not None and not (isinstance(v, float) and v != v):
                    values[name] = v
            self._append(
                cols["ts_ns"][j] + shift_ns,
                cols["flags"][j],
                region_map.get(cols["region"][j], -1),
                cols["iteration"][j],
                track_map[cols["track"][j]],
                values,
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def last_values(self, track: str = "main") -> dict[str, float]:
        """Series values of the newest row on ``track`` (NaN omitted).

        Used by ``--stats`` and the run registry to surface headline
        metrics without re-deriving them.
        """
        try:
            tid = self.tracks.index(track)
        except ValueError:
            return {}
        for i in reversed(self._order()):
            if self._track[i] == tid:
                out = {}
                for name, col in self._series.items():
                    v = col[i]
                    if not np.isnan(v):
                        out[name] = float(v)
                return out
        return {}

    def series_values(
        self, name: str, track: str = "main"
    ) -> list[tuple[int, float]]:
        """``(ts_ns, value)`` pairs for one series on one track."""
        col = self._series.get(name)
        if col is None:
            return []
        try:
            tid = self.tracks.index(track)
        except ValueError:
            return []
        out = []
        for i in self._order():
            if self._track[i] == tid and not np.isnan(col[i]):
                out.append((int(self._ts[i]), float(col[i])))
        return out
