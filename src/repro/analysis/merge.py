"""Merging per-thread profiles into one analysis-ready structure.

Paper Section 7.2: "Adapting HPCToolkit's hpcprof offline profile
analyzer for NUMA measurement was trivial. The only enhancement needed
was the ability to perform [min, max] range computations when merging
different thread profiles. Instead of accumulating metric values
associated with the same context, [min, max] merging requires a
customized reduction function."

Counters and metrics sum across threads; access ranges merge with the
[min, max] reduction; per-thread ranges are additionally preserved
verbatim because the address-centric view plots them per thread.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ProfileError
from repro.profiler.cct import CCT
from repro.profiler.profile_data import (
    FirstTouchRecord,
    ProfileArchive,
    VarRecord,
)
from repro.runtime.callstack import CallPath
from repro.runtime.heap import VariableKind


def merge_ranges(ranges: list[tuple[float, float]]) -> tuple[float, float] | None:
    """The customized [min, max] reduction over a set of ranges."""
    finite = [(lo, hi) for lo, hi in ranges if np.isfinite(lo)]
    if not finite:
        return None
    los, his = zip(*finite)
    return (min(los), max(his))


@dataclass(eq=False, repr=False)
class MergedVar:
    """Cross-thread data-centric record for one variable."""

    name: str
    kind: VariableKind
    alloc_path: CallPath
    base: int
    nbytes: int
    n_bins: int
    metrics: defaultdict = field(default_factory=lambda: defaultdict(float))
    bin_metrics: list = field(default_factory=list)
    #: path -> tid -> (lo, hi) absolute addresses (whole-variable row).
    thread_ranges: dict[CallPath, dict[int, tuple[float, float]]] = field(
        default_factory=dict
    )
    first_touches: list[FirstTouchRecord] = field(default_factory=list)

    def contexts(self) -> list[CallPath]:
        """All calling contexts in which this variable was sampled."""
        return list(self.thread_ranges.keys())

    def ranges_for(
        self, path: CallPath | None = None
    ) -> dict[int, tuple[float, float]]:
        """Per-thread [lo, hi] for one context, or [min,max]-merged over all.

        This is the data series behind the address-centric view.
        """
        if path is not None:
            return dict(self.thread_ranges.get(path, {}))
        out: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for per_tid in self.thread_ranges.values():
            for tid, r in per_tid.items():
                out[tid].append(r)
        return {
            tid: merged
            for tid, rs in out.items()
            if (merged := merge_ranges(rs)) is not None
        }

    def normalized_ranges(
        self, path: CallPath | None = None
    ) -> dict[int, tuple[float, float]]:
        """Per-thread ranges normalized to [0, 1] of the variable extent."""
        return {
            tid: ((lo - self.base) / self.nbytes, (hi - self.base + 1) / self.nbytes)
            for tid, (lo, hi) in self.ranges_for(path).items()
        }

    def first_touch_paths(self) -> dict[CallPath, int]:
        """Merged first-touch contexts -> pages bound there (postmortem merge)."""
        merged: defaultdict[CallPath, int] = defaultdict(int)
        for ft in self.first_touches:
            merged[ft.path] += ft.n_pages
        return dict(merged)


@dataclass(eq=False, repr=False)
class MergedProfile:
    """All threads merged: summed CCTs, merged variables, total counters."""

    program: str
    machine_desc: str
    n_domains: int
    mechanism_name: str
    capabilities: object
    n_threads: int
    cct: CCT
    data_cct: CCT
    vars: dict[str, MergedVar]
    counters: defaultdict
    run_result: object = None

    def var(self, name: str) -> MergedVar:
        """Look up a merged variable record."""
        try:
            return self.vars[name]
        except KeyError:
            raise ProfileError(f"no profile data for variable {name!r}") from None

    def totals(self) -> dict[str, float]:
        """Whole-program metric totals (from the code-centric tree)."""
        agg: defaultdict[str, float] = defaultdict(float)
        for node in self.cct.root.walk():
            for name, value in node.metrics.items():
                agg[name] += value
        return dict(agg)


def _merge_cct_into(dst: CCT, src: CCT) -> None:
    """Accumulate every node of ``src`` into ``dst`` by path."""

    def rec(src_node, dst_node):
        for name, value in src_node.metrics.items():
            dst_node.inc(name, value)
        for frame, child in src_node.children.items():
            rec(child, dst_node.child(frame))

    if src.root.frame != dst.root.frame:
        raise ProfileError("cannot merge CCTs with different root frames")
    rec(src.root, dst.root)


def _merge_var(merged: MergedVar, rec: VarRecord, tid: int) -> None:
    if (rec.base, rec.nbytes, rec.n_bins) != (
        merged.base,
        merged.nbytes,
        merged.n_bins,
    ):
        raise ProfileError(
            f"variable {rec.name!r} has inconsistent extent/binning across threads"
        )
    for name, value in rec.metrics.items():
        merged.metrics[name] += value
    for bin_rec, agg in zip(rec.bins, merged.bin_metrics):
        for name, value in bin_rec.metrics.items():
            agg[name] += value
    for path, arr in rec.ranges.items():
        if not np.isfinite(arr[0, 0]):
            continue
        per_tid = merged.thread_ranges.setdefault(path, {})
        lo, hi = float(arr[0, 0]), float(arr[0, 1])
        if tid in per_tid:  # same thread, same context: [min, max] reduce
            prev = per_tid[tid]
            per_tid[tid] = (min(prev[0], lo), max(prev[1], hi))
        else:
            per_tid[tid] = (lo, hi)


def assemble_shard_archive(
    shards: list[tuple[dict | None, dict]],
    run_result=None,
) -> ProfileArchive:
    """Reassemble one :class:`ProfileArchive` from shard payloads.

    ``shards`` holds each worker's ``(archive_meta, profiles)`` pair in
    shard order, where ``archive_meta`` is the metadata dict shipped by
    the worker's ``finish_run`` round and ``profiles`` maps owned tids to
    :class:`ThreadProfile` objects. Shards own disjoint thread sets, so
    the union is a plain dict update — duplicate tids mean the shard
    partition broke and raise. Metadata comes from the first shard that
    has any (all shards build identical simulated state, so it agrees
    everywhere); downstream merging orders by sorted tid, making the
    result independent of shard count.
    """
    meta = next((m for m, _ in shards if m is not None), None)
    if meta is None:
        raise ProfileError("no shard produced an archive")
    profiles: dict[int, "object"] = {}
    for _, shard_profiles in shards:
        for tid, profile in shard_profiles.items():
            if tid in profiles:
                raise ProfileError(
                    f"thread {tid} profiled by more than one shard"
                )
            profiles[tid] = profile
    return ProfileArchive(
        program=meta["program"],
        machine_desc=meta["machine_desc"],
        n_domains=meta["n_domains"],
        mechanism_name=meta["mechanism_name"],
        capabilities=meta["capabilities"],
        profiles=profiles,
        run_result=run_result,
    )


def merge_profiles(archive: ProfileArchive) -> MergedProfile:
    """Merge an archive's per-thread profiles (hpcprof's job)."""
    if not archive.profiles:
        raise ProfileError("archive contains no thread profiles")
    with obs.TRACER.span(
        "analysis.merge", "analysis", n_threads=len(archive.profiles)
    ):
        return _merge_profiles(archive)


def _merge_profiles(archive: ProfileArchive) -> MergedProfile:
    cct = CCT()
    data_cct = CCT()
    vars_merged: dict[str, MergedVar] = {}
    counters: defaultdict[str, float] = defaultdict(float)

    for tid in sorted(archive.profiles):
        profile = archive.profiles[tid]
        _merge_cct_into(cct, profile.cct)
        _merge_cct_into(data_cct, profile.data_cct)
        for name, value in profile.counters.items():
            counters[name] += value
        for rec in profile.vars.values():
            mv = vars_merged.get(rec.name)
            if mv is None:
                mv = MergedVar(
                    name=rec.name,
                    kind=rec.kind,
                    alloc_path=rec.alloc_path,
                    base=rec.base,
                    nbytes=rec.nbytes,
                    n_bins=rec.n_bins,
                    bin_metrics=[defaultdict(float) for _ in range(rec.n_bins)],
                )
                vars_merged[rec.name] = mv
            _merge_var(mv, rec, tid)
        for ft in profile.first_touches:
            if ft.var_name in vars_merged:
                vars_merged[ft.var_name].first_touches.append(ft)

    # First touches can precede any sample of a variable (and for variables
    # never sampled, records would be orphaned); attach leftovers.
    seen = {
        id(ft) for mv in vars_merged.values() for ft in mv.first_touches
    }
    for profile in archive.profiles.values():
        for ft in profile.first_touches:
            if id(ft) not in seen and ft.var_name in vars_merged:
                vars_merged[ft.var_name].first_touches.append(ft)

    return MergedProfile(
        program=archive.program,
        machine_desc=archive.machine_desc,
        n_domains=archive.n_domains,
        mechanism_name=archive.mechanism_name,
        capabilities=archive.capabilities,
        n_threads=archive.n_threads,
        cct=cct,
        data_cct=data_cct,
        vars=vars_merged,
        counters=counters,
        run_result=archive.run_result,
    )
