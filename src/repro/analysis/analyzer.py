"""Derived-metric analysis over a merged profile.

Computes the quantities the paper's case studies read off hpcviewer:
whole-program and per-variable lpi_NUMA, remote-latency shares, M_r/M_l
ratios, per-domain request balance, heap/static/stack latency breakdowns,
and per-context hot-spot ranking (which parallel region dominates a
variable's NUMA cost — the Fig. 4 vs Fig. 5 distinction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.merge import MergedProfile, MergedVar
from repro.profiler.metrics import (
    MetricNames,
    domain_request_counts,
    lpi_numa,
    mismatch_ratio,
    remote_fraction,
)
from repro.runtime.callstack import CallPath
from repro.runtime.heap import VariableKind


@dataclass(frozen=True, repr=False)
class VariableSummary:
    """One row of the data-centric ranking."""

    name: str
    kind: VariableKind
    lpi: float | None
    remote_latency: float
    remote_latency_share: float
    m_l: float
    m_r: float
    mismatch_ratio: float
    remote_access_share: float
    domain_counts: tuple[float, ...]
    samples: float


class NumaAnalysis:
    """Analysis facade over one merged profile."""

    def __init__(self, merged: MergedProfile) -> None:
        self.merged = merged
        self.caps = merged.capabilities
        self._totals = merged.totals()

    # ------------------------------------------------------------------ #
    # whole-program metrics
    # ------------------------------------------------------------------ #

    def program_lpi(self) -> float | None:
        """Whole-program NUMA latency per instruction (eq. 2 or 3)."""
        return lpi_numa(self._totals, self.caps)

    def program_remote_fraction(self) -> float:
        """Fraction of sampled accesses touching remote pages (M_r share).

        With MRK this is "the fraction of L3 misses that access remote
        memory" — the 66% / 86% numbers of the POWER7 studies.
        """
        return remote_fraction(self._totals)

    def total_remote_latency(self) -> float:
        """Whole-program sampled remote latency (l^s_NUMA)."""
        return self._totals.get(MetricNames.LAT_REMOTE, 0.0)

    def total_latency(self) -> float:
        """Whole-program sampled latency."""
        return self._totals.get(MetricNames.LAT_TOTAL, 0.0)

    def remote_latency_fraction(self) -> float:
        """Share of total sampled latency caused by remote accesses."""
        total = self.total_latency()
        if total <= 0:
            return 0.0
        return self.total_remote_latency() / total

    def domain_balance(self) -> np.ndarray:
        """Sampled request counts per domain across the whole program."""
        return np.array(
            domain_request_counts(self._totals, self.merged.n_domains)
        )

    # ------------------------------------------------------------------ #
    # per-kind and per-variable breakdowns
    # ------------------------------------------------------------------ #

    def _var_cost(self, mv: MergedVar, metric: str) -> float:
        return mv.metrics.get(metric, 0.0)

    def _ranking_metric(self) -> str:
        """Latency when the mechanism has it, M_r otherwise (MRK path)."""
        if getattr(self.caps, "measures_latency", False):
            return MetricNames.LAT_REMOTE
        return MetricNames.NUMA_MISMATCH

    def kind_share(self, kind: VariableKind, metric: str | None = None) -> float:
        """Share of a metric attributable to heap/static/stack variables.

        E.g. "heap-allocated variables account for 61.8% of the total
        memory latency caused by remote accesses" (AMG2006 study).
        """
        metric = metric or self._ranking_metric()
        total = sum(self._var_cost(mv, metric) for mv in self.merged.vars.values())
        if total <= 0:
            return 0.0
        mine = sum(
            self._var_cost(mv, metric)
            for mv in self.merged.vars.values()
            if mv.kind is kind
        )
        return mine / total

    def variable_summary(self, name: str) -> VariableSummary:
        """Full metric row for one variable."""
        mv = self.merged.var(name)
        metric = self._ranking_metric()
        program_total = self._totals.get(metric, 0.0)
        lat_total = self._totals.get(MetricNames.LAT_REMOTE, 0.0)
        mr_total = self._totals.get(MetricNames.NUMA_MISMATCH, 0.0)
        return VariableSummary(
            name=mv.name,
            kind=mv.kind,
            lpi=lpi_numa(mv.metrics, self.caps),
            remote_latency=mv.metrics.get(MetricNames.LAT_REMOTE, 0.0),
            remote_latency_share=(
                mv.metrics.get(MetricNames.LAT_REMOTE, 0.0) / lat_total
                if lat_total > 0
                else 0.0
            ),
            m_l=mv.metrics.get(MetricNames.NUMA_MATCH, 0.0),
            m_r=mv.metrics.get(MetricNames.NUMA_MISMATCH, 0.0),
            mismatch_ratio=mismatch_ratio(mv.metrics),
            remote_access_share=(
                mv.metrics.get(MetricNames.NUMA_MISMATCH, 0.0) / mr_total
                if mr_total > 0
                else 0.0
            ),
            domain_counts=tuple(
                domain_request_counts(mv.metrics, self.merged.n_domains)
            ),
            samples=mv.metrics.get(MetricNames.SAMPLES, 0.0),
        )

    def hot_variables(
        self, top: int | None = None, metric: str | None = None
    ) -> list[VariableSummary]:
        """Variables ranked by remote cost (latency or M_r)."""
        metric = metric or self._ranking_metric()
        ranked = sorted(
            self.merged.vars.values(),
            key=lambda mv: self._var_cost(mv, metric),
            reverse=True,
        )
        if top is not None:
            ranked = ranked[:top]
        return [self.variable_summary(mv.name) for mv in ranked]

    # ------------------------------------------------------------------ #
    # per-context analysis
    # ------------------------------------------------------------------ #

    def imbalanced_variables(
        self, threshold: float = 2.0, top: int | None = None
    ) -> list[tuple[str, float]]:
        """Variables whose sampled requests concentrate on few domains.

        Section 2's first tool requirement: "pinpoint the variables
        suffering from uneven memory requests, so one can use different
        allocation methods (e.g., interleaved allocation) to balance the
        memory requests." Returns (name, imbalance) pairs where imbalance
        is the max/mean ratio of per-domain request counts (1.0 =
        perfectly balanced; ``n_domains`` = fully centralized), for
        variables above ``threshold``.
        """
        out = []
        for mv in self.merged.vars.values():
            counts = np.array(
                domain_request_counts(mv.metrics, self.merged.n_domains)
            )
            mean = counts.mean()
            if mean <= 0:
                continue
            imbalance = float(counts.max() / mean)
            if imbalance >= threshold:
                out.append((mv.name, imbalance))
        out.sort(key=lambda kv: kv[1], reverse=True)
        return out[:top] if top is not None else out

    def hot_contexts(
        self, name: str, metric: str | None = None
    ) -> list[tuple[CallPath, float]]:
        """A variable's calling contexts ranked by cost share.

        Implements Section 5.2's guidance: "use aggregate latency
        measurements attributed to a context as a guide to identify what
        program contexts are important to consider", then read that
        context's access ranges. Cost per context is taken from the
        augmented data-centric CCT under the variable's allocation path.
        """
        mv = self.merged.var(name)
        metric = metric or self._ranking_metric()
        costs: dict[CallPath, float] = {}
        for path in mv.contexts():
            node = self._data_node(mv, path)
            costs[path] = node.metrics.get(metric, 0.0) if node else 0.0
        total = sum(costs.values())
        ranked = sorted(costs.items(), key=lambda kv: kv[1], reverse=True)
        if total <= 0:
            return [(path, 0.0) for path, _ in ranked]
        return [(path, cost / total) for path, cost in ranked]

    def context_share(self, name: str, region_func: str) -> float:
        """Share of a variable's cost incurred in contexts containing
        ``region_func`` (the 74.2% / 73.6% numbers of the AMG study)."""
        share = 0.0
        for path, s in self.hot_contexts(name):
            if any(frame.func == region_func for frame in path):
                share += s
        return share

    def _data_node(self, mv: MergedVar, path: CallPath):
        from repro.profiler.cct import DUMMY_ACCESS

        full = mv.alloc_path + (DUMMY_ACCESS,) + path
        node = self.merged.data_cct.root
        frames = list(full)
        if frames and frames[0] == node.frame:
            frames = frames[1:]
        for frame in frames:
            node = node.children.get(frame)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------ #
    # region-level metrics (code-centric)
    # ------------------------------------------------------------------ #

    def region_metrics(self, region_func: str) -> dict[str, float]:
        """Summed metrics over all CCT nodes under frames named ``region_func``."""
        agg: dict[str, float] = {}
        for node in self.merged.cct.find(region_func):
            for sub in node.walk():
                for k, v in sub.metrics.items():
                    agg[k] = agg.get(k, 0.0) + v
        return agg

    def region_lpi(self, region_func: str) -> float | None:
        """lpi_NUMA restricted to one code region."""
        return lpi_numa(self.region_metrics(region_func), self.caps)
