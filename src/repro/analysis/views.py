"""Presentation views (the hpcviewer analogue), paper Sections 5 and 7.2.

Three text-rendered views over a merged profile:

* :func:`code_centric_view` — the CCT annotated with NUMA metrics;
* :func:`data_centric_view` — the variable table (name, M_l/M_r,
  per-domain counts, latency shares, lpi);
* :func:`address_centric_view` — per-thread normalized [min, max] access
  ranges for one variable in one calling context, rendered as an ASCII
  strip chart (the plot in the paper's Figures 3–8), plus the raw series
  for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.analyzer import NumaAnalysis
from repro.analysis.merge import MergedProfile
from repro.profiler.cct import CCTNode
from repro.profiler.metrics import MetricNames
from repro.runtime.callstack import CallPath


def _fmt(value: float) -> str:
    if value == 0:
        return "."
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}K"
    return f"{value:.0f}"


def code_centric_view(
    merged: MergedProfile,
    *,
    metric: str = MetricNames.NUMA_MISMATCH,
    max_depth: int = 6,
    min_share: float = 0.01,
) -> str:
    """Render the code-centric CCT, pruned to significant nodes."""
    total = merged.totals().get(metric, 0.0)
    lines = [f"code-centric view — metric {metric} (total {_fmt(total)})"]

    def walk(node: CCTNode, depth: int) -> None:
        if depth > max_depth:
            return
        value = node.subtree_metric(metric)
        if total > 0 and value / total < min_share:
            return
        share = f" [{value / total:.1%}]" if total > 0 else ""
        lines.append(f"{'  ' * depth}{node.frame.func}: {_fmt(value)}{share}")
        for child in sorted(
            node.children.values(),
            key=lambda c: c.subtree_metric(metric),
            reverse=True,
        ):
            walk(child, depth + 1)

    walk(merged.cct.root, 0)
    return "\n".join(lines)


def data_centric_view(
    merged: MergedProfile, *, top: int = 12
) -> str:
    """Render the variable table of the data-centric view."""
    analysis = NumaAnalysis(merged)
    rows = analysis.hot_variables(top=top)
    header = (
        f"{'variable':<18}{'kind':<8}{'M_l':>10}{'M_r':>10}{'M_r/M_l':>9}"
        f"{'rem.lat%':>10}{'lpi':>8}  domains"
    )
    lines = [f"data-centric view — {merged.program}", header, "-" * len(header)]
    for row in rows:
        ratio = (
            "inf" if row.mismatch_ratio == float("inf") else f"{row.mismatch_ratio:.1f}"
        )
        lpi_txt = "n/a" if row.lpi is None else f"{row.lpi:.2f}"
        dom = " ".join(_fmt(c) for c in row.domain_counts)
        lines.append(
            f"{row.name:<18}{row.kind.value:<8}{_fmt(row.m_l):>10}"
            f"{_fmt(row.m_r):>10}{ratio:>9}{row.remote_latency_share:>9.1%}"
            f"{lpi_txt:>8}  [{dom}]"
        )
    return "\n".join(lines)


@dataclass(eq=False, repr=False)
class AddressCentricSeries:
    """Raw data behind one address-centric plot."""

    var_name: str
    context: CallPath | None
    tids: np.ndarray
    lo: np.ndarray  # normalized [0, 1]
    hi: np.ndarray  # normalized [0, 1]

    def as_dict(self) -> dict[int, tuple[float, float]]:
        """tid -> (lo, hi) mapping."""
        return {
            int(t): (float(l), float(h))
            for t, l, h in zip(self.tids, self.lo, self.hi)
        }

    def to_csv(self, path) -> None:
        """Write the plot series (tid, lo, hi) as CSV — the raw data
        behind the paper's Figures 3-8 plots, ready for any plotter."""
        import csv
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            ctx = (
                self.context[-2].func
                if self.context and len(self.context) >= 2
                else "all"
            )
            writer.writerow(["# variable", self.var_name, "context", ctx])
            writer.writerow(["tid", "lo_normalized", "hi_normalized"])
            for t, l, h in zip(self.tids, self.lo, self.hi):
                writer.writerow([int(t), float(l), float(h)])


def address_centric_series(
    merged: MergedProfile,
    var_name: str,
    context: CallPath | None = None,
) -> AddressCentricSeries:
    """Per-thread normalized ranges for one variable (plot data)."""
    mv = merged.var(var_name)
    normalized = mv.normalized_ranges(context)
    tids = np.array(sorted(normalized), dtype=np.int64)
    lo = np.array([normalized[t][0] for t in tids])
    hi = np.array([normalized[t][1] for t in tids])
    return AddressCentricSeries(var_name, context, tids, lo, hi)


def address_centric_view(
    merged: MergedProfile,
    var_name: str,
    context: CallPath | None = None,
    *,
    width: int = 60,
) -> str:
    """ASCII strip chart: one row per thread, bar spanning [lo, hi].

    The x axis is the variable's address range normalized to [0, 1]
    (paper Section 7.2); each bar shows where that thread's sampled
    accesses fell.
    """
    series = address_centric_series(merged, var_name, context)
    ctx_txt = (
        f" in {context[-2].func}" if context and len(context) >= 2 else " (all contexts)"
    )
    lines = [
        f"address-centric view — {var_name}{ctx_txt}",
        f"{'tid':>4} 0{'-' * (width - 2)}1",
    ]
    for tid, lo, hi in zip(series.tids, series.lo, series.hi):
        start = int(np.clip(lo, 0, 1) * (width - 1))
        end = max(int(np.ceil(np.clip(hi, 0, 1) * (width - 1))), start + 1)
        bar = " " * start + "#" * (end - start)
        lines.append(f"{int(tid):>4} {bar}")
    return "\n".join(lines)


def region_table_view(merged: MergedProfile) -> str:
    """Per-parallel-region metric table (the code-region analysis of
    paper Section 4: lpi_NUMA "can be computed for the whole program or
    any code region").

    Lists every ``._omp`` region frame in the code-centric CCT with its
    sampled M_l / M_r, remote fraction, and region lpi when available.
    """
    analysis = NumaAnalysis(merged)
    regions = sorted(
        {
            node.frame.func
            for node in merged.cct.root.walk()
            if node.frame.func.endswith("._omp")
        }
    )
    header = (
        f"{'region':<36}{'M_l':>10}{'M_r':>10}{'remote%':>9}{'lpi':>8}"
    )
    lines = ["per-region view", header, "-" * len(header)]
    for region in regions:
        metrics = analysis.region_metrics(region)
        m_l = metrics.get(MetricNames.NUMA_MATCH, 0.0)
        m_r = metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
        total = m_l + m_r
        remote = f"{m_r / total:.0%}" if total else "-"
        lpi = analysis.region_lpi(region)
        lpi_txt = "n/a" if lpi is None else f"{lpi:.3f}"
        lines.append(
            f"{region:<36}{_fmt(m_l):>10}{_fmt(m_r):>10}{remote:>9}"
            f"{lpi_txt:>8}"
        )
    return "\n".join(lines)


def traffic_matrix_view(result) -> str:
    """Render a run's accessor-domain x target-domain DRAM traffic matrix.

    The interconnect picture behind the paper's Figure 1: a centralized
    distribution concentrates a whole column; balanced distributions
    spread mass; co-location concentrates the diagonal.
    """
    matrix = np.asarray(result.domain_traffic)
    n = matrix.shape[0]
    total = max(matrix.sum(), 1)
    diag = np.trace(matrix)
    lines = [
        "domain traffic matrix — DRAM fetches (rows: accessor, cols: target)",
        "       " + "".join(f"d{j:<8}" for j in range(n)),
    ]
    for i in range(n):
        cells = "".join(f"{_fmt(matrix[i, j]):<9}" for j in range(n))
        lines.append(f"  d{i:<3} {cells}")
    lines.append(
        f"  local (diagonal) share: {diag / total:.1%}; "
        f"cross-domain: {1 - diag / total:.1%}"
    )
    return "\n".join(lines)


def first_touch_view(merged: MergedProfile, var_name: str) -> str:
    """Render merged first-touch contexts for a variable (Section 6)."""
    mv = merged.var(var_name)
    lines = [f"first-touch view — {var_name}"]
    merged_paths = mv.first_touch_paths()
    if not merged_paths:
        lines.append("  (no first-touch records)")
        return "\n".join(lines)
    touch_tids = sorted({ft.tid for ft in mv.first_touches})
    lines.append(f"  touched first by threads: {touch_tids}")
    for path, pages in sorted(
        merged_paths.items(), key=lambda kv: kv[1], reverse=True
    ):
        where = " > ".join(f.func for f in path)
        lines.append(f"  {pages:>8} pages @ {where}")
    return "\n".join(lines)
