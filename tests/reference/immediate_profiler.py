"""The profiler's per-chunk immediate attribution path.

``NumaProfiler`` accumulates a step's samples into flat tables and
flushes them into its CCTs and variable records at the end of a run.
:class:`ImmediateProfiler` is the reference it must reproduce:
it selects each chunk's samples with the mechanism's scalar ``select``
and attributes them straight into the CCTs, the variable records, their
bins and address ranges, one chunk at a time (see
``tests/test_profiler_batched.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProfileError
from repro.profiler import NumaProfiler
from repro.profiler.addresscentric import bin_indices
from repro.profiler.cct import DUMMY_ACCESS
from repro.profiler.metrics import MetricNames
from repro.profiler.profile_data import ThreadProfile
from repro.runtime.callstack import CallPath
from repro.runtime.chunks import AccessChunk
from tests.reference.access import ChunkView
from tests.reference.sampling import cost_cycles, select


def record_samples(rec, path: CallPath, addrs: np.ndarray) -> np.ndarray:
    """Tighten a ``VarRecord``'s [min, max] ranges for ``path`` with
    sampled addresses, whole variable and per bin.

    Returns each sample's bin index so the caller can attribute per-bin
    metrics without recomputing the mapping.
    """
    bins = bin_indices(addrs, rec.base, rec.nbytes, rec.n_bins)
    arr = rec.ranges.get(path)
    if arr is None:
        arr = np.empty((rec.n_bins + 1, 2), dtype=np.float64)
        arr[:, 0] = np.inf
        arr[:, 1] = -np.inf
        rec.ranges[path] = arr
    lo, hi = float(addrs.min()), float(addrs.max())
    arr[0, 0] = min(arr[0, 0], lo)
    arr[0, 1] = max(arr[0, 1], hi)
    np.minimum.at(arr[:, 0], bins + 1, addrs.astype(np.float64))
    np.maximum.at(arr[:, 1], bins + 1, addrs.astype(np.float64))
    return bins


class ImmediateProfiler(NumaProfiler):
    """One chunk at a time, attributed as it is observed.

    Immediate attribution leaves nothing to record or scale, and the
    phase layer has no adapter for it
    (``repro.runtime.phase.monitor_adapter`` goes by exact type), so its
    runs are never extrapolated.
    """

    def on_step(self, views):
        return [self._observe(v) for v in views]

    def _observe(self, view: ChunkView) -> float:
        """Sample one chunk and attribute code-, data-, address-centric."""
        chunk = view.chunk
        profile = self._profile(view.tid)
        batch = select(
            self.mechanism, view.tid, chunk, view.levels,
            view.target_domains, view.latencies,
        )
        caps = self.mechanism.capabilities

        profile.counters["instructions"] += chunk.n_instructions
        profile.counters["accesses"] += chunk.n_accesses
        profile.counters["samples"] += batch.n_samples
        profile.counters["sampled_instructions"] += batch.n_sampled_instructions
        profile.counters["events"] += batch.n_events_total

        metrics: dict[str, float] = {
            MetricNames.INSTR: float(chunk.n_instructions),
            MetricNames.SAMPLED_INSTR: float(batch.n_sampled_instructions),
        }

        # Absolute remote-event counter (conventional PMU counter running
        # alongside sampling; available on counting-capable mechanisms).
        if caps.counts_absolute_events and chunk.n_accesses:
            remote_events = int(
                np.count_nonzero(view.dram_mask & view.remote_mask)
            )
            metrics[MetricNames.EVENTS_NUMA] = float(remote_events)

        if batch.n_samples == 0:
            self._attribute_code(profile, view.path, metrics)
            return cost_cycles(self.mechanism, batch, chunk)

        idx = batch.indices
        s_addrs = chunk.addrs_at(idx)
        s_targets = view.target_domains[idx]
        s_lat = view.latencies[idx]
        remote = view.remote_mask[idx]

        metrics[MetricNames.SAMPLES] = float(batch.n_samples)
        metrics[MetricNames.NUMA_MATCH] = float(np.count_nonzero(~remote))
        metrics[MetricNames.NUMA_MISMATCH] = float(np.count_nonzero(remote))
        dom_counts = np.bincount(
            s_targets, minlength=self._engine.machine.n_domains
        )
        for d in np.nonzero(dom_counts)[0]:
            metrics[MetricNames.numa_node(int(d))] = float(dom_counts[d])
        lat_captured = caps.measures_latency and batch.latency_captured
        if lat_captured:
            metrics[MetricNames.LAT_TOTAL] = float(s_lat.sum())
            metrics[MetricNames.LAT_REMOTE] = float(s_lat[remote].sum())
        if self.heatmap:
            self._accumulate_heat(
                view.tid, s_addrs, s_lat if lat_captured else None
            )

        self._attribute_code(profile, view.path, metrics)
        self._attribute_data(
            profile, chunk, view.path, s_addrs, remote,
            s_lat if lat_captured else None, metrics,
        )
        return cost_cycles(self.mechanism, batch, chunk)


    def _attribute_code(
        self, profile: ThreadProfile, path: CallPath, metrics: dict[str, float]
    ) -> None:
        profile.cct.attribute(path, metrics)

    def _attribute_data(
        self,
        profile: ThreadProfile,
        chunk: AccessChunk,
        path: CallPath,
        s_addrs: np.ndarray,
        remote: np.ndarray,
        s_lat: np.ndarray | None,
        metrics: dict[str, float],
    ) -> None:
        # Resolve through the registry (the real tool's heap/symbol map);
        # ground truth (chunk.var) is only used as a consistency check.
        var = self.registry.resolve_addrs(s_addrs)
        if chunk.var is not None and var.name != chunk.var.name:
            raise ProfileError(
                f"data-centric resolution found {var.name!r} but ground truth "
                f"is {chunk.var.name!r}"
            )
        rec = profile.var_record(var, n_bins=self.n_bins)
        # Skip zero values like CCT.attribute does: rec.metrics is a
        # defaultdict, so key presence is unobservable to readers, and
        # staying sparse keeps the deferred flush path's output identical.
        for name, value in metrics.items():
            if value:
                rec.metrics[name] += value
        bins = record_samples(rec, path, s_addrs)
        self._attribute_bins(rec, bins, remote, s_lat)
        # Augmented CCT: variable costs under allocation path + dummy +
        # access path (mixed calling-context sequence, Section 7.1).
        mixed = var.alloc_path + (DUMMY_ACCESS,) + path
        profile.data_cct.attribute(mixed, metrics)

    def _attribute_bins(
        self,
        rec,
        bins: np.ndarray,
        remote: np.ndarray,
        s_lat: np.ndarray | None,
    ) -> None:
        """Attribute each sample's own metrics to its own bin.

        Section 5.2's hot-spot semantics: a bin full of remote samples
        must show all the mismatches and remote latency, not an average
        share — so every per-bin metric is a weighted bincount over the
        actual per-sample arrays, never a proportional split.
        """
        counts = np.bincount(bins, minlength=rec.n_bins)
        mismatch = np.bincount(
            bins, weights=remote.astype(np.float64), minlength=rec.n_bins
        )
        if s_lat is not None:
            lat_total = np.bincount(bins, weights=s_lat, minlength=rec.n_bins)
            lat_remote = np.bincount(
                bins, weights=np.where(remote, s_lat, 0.0), minlength=rec.n_bins
            )
        for b in np.nonzero(counts)[0]:
            bin_metrics = rec.bins[int(b)].metrics
            bin_metrics[MetricNames.SAMPLES] += float(counts[b])
            bin_metrics[MetricNames.NUMA_MATCH] += float(
                counts[b] - mismatch[b]
            )
            bin_metrics[MetricNames.NUMA_MISMATCH] += float(mismatch[b])
            if s_lat is not None:
                bin_metrics[MetricNames.LAT_TOTAL] += float(lat_total[b])
                bin_metrics[MetricNames.LAT_REMOTE] += float(lat_remote[b])
