"""Figure 3 + Section 8.1: the LULESH case study on AMD Magny-Cours / IBS.

Reproduces the complete workflow of the paper's flagship case study:

1. profile LULESH with IBS on the 48-core / 8-domain AMD machine;
2. read the whole-program lpi_NUMA against the 0.1 threshold
   (paper: 0.466);
3. drill into the heap variables' allocation call paths, identify the
   hot nodal arrays (paper: z at 11.3% of remote latency, M_r ~ 7x M_l,
   all accesses targeting NUMA domain 0);
4. identify the stack variable nodelist as the single hottest variable
   (paper: 20.3% of remote latency);
5. render the address-centric view for z (Fig. 3's plot: thread 0 spans
   everything, workers hold ascending blocks);
6. locate the first-touch context;
7. apply the advisor's block-wise distribution and compare against the
   prior-work interleaving fix (paper: +25% vs +13%).

The sampling period is reduced below Table 1's 64K (the analysis run
needs enough samples at simulated scale); Table 2's overhead bench uses
the paper periods.
"""

import numpy as np
import pytest

from repro.analysis import (
    address_centric_series,
    address_centric_view,
    advise,
    classify_ranges,
    first_touch_view,
)
from repro.analysis.patterns import AccessPattern
from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.optim import apply_advice, interleave_all
from repro.profiler.metrics import LPI_THRESHOLD
from repro.runtime.heap import VariableKind
from repro.sampling import IBS
from repro.workloads import Lulesh
from repro.workloads.lulesh import NODAL_ARRAYS

from benchmarks.conftest import run_once

THREADS = 48
ALL_VARS = list(NODAL_ARRAYS) + ["nodelist"]


def _case_study():
    monitored = run_workload(
        presets.magny_cours, Lulesh(), THREADS, IBS(period=4096)
    )
    baseline = monitored.result.unmonitored()
    analysis = monitored.analysis
    advice = advise(analysis, thread_domains=monitored.thread_domains)
    tuning = apply_advice(advice, 8)
    optimized = run_workload(presets.magny_cours, Lulesh(tuning), THREADS)
    interleaved = run_workload(
        presets.magny_cours, Lulesh(interleave_all(ALL_VARS, 8)), THREADS
    )
    return baseline, monitored, analysis, advice, optimized, interleaved


@pytest.fixture(scope="module")
def study(request):
    return _case_study()


def test_fig3_case_study(benchmark):
    baseline, monitored, analysis, advice, optimized, interleaved = run_once(
        benchmark, _case_study
    )
    merged = analysis.merged

    lpi = analysis.program_lpi()
    z = analysis.variable_summary("z")
    nodelist = analysis.variable_summary("nodelist")
    bw_gain = baseline.wall_seconds / optimized.result.wall_seconds - 1
    il_gain = baseline.wall_seconds / interleaved.result.wall_seconds - 1

    rows = [
        ["program lpi_NUMA", "0.466", f"{lpi:.3f}"],
        ["z remote-latency share", "11.3%", f"{z.remote_latency_share:.1%}"],
        ["z M_r / M_l", "~7", f"{z.mismatch_ratio:.1f}"],
        ["nodelist remote-lat share", "20.3%", f"{nodelist.remote_latency_share:.1%}"],
        ["remote-latency fraction", "74.2% (heap)", f"{analysis.remote_latency_fraction():.1%}"],
        ["block-wise speedup", "+25%", f"{bw_gain:+.1%}"],
        ["interleave speedup", "+13%", f"{il_gain:+.1%}"],
    ]
    table = fmt_table(
        ["Quantity", "Paper", "Measured"],
        rows,
        title="Section 8.1 — LULESH on Magny-Cours / IBS",
    )
    address_centric_series(merged, "z").to_csv("results/fig3_z_series.csv")
    view = address_centric_view(merged, "z", width=60)
    ft = first_touch_view(merged, "z")
    print("\n" + table + "\n\n" + view + "\n\n" + ft)
    record_experiment(
        "fig3_lulesh",
        {
            "lpi": lpi,
            "z_share": z.remote_latency_share,
            "z_ratio": z.mismatch_ratio,
            "nodelist_share": nodelist.remote_latency_share,
            "blockwise_gain": bw_gain,
            "interleave_gain": il_gain,
        },
        table + "\n\n" + view + "\n\n" + ft,
    )

    # --- shape assertions -------------------------------------------- #
    # lpi well above the 0.1 threshold, same order as the paper's 0.466.
    assert LPI_THRESHOLD < lpi < 5.0
    # Every nodal array shows M_r roughly seven times M_l.
    for name in NODAL_ARRAYS:
        ratio = analysis.variable_summary(name).mismatch_ratio
        assert 4.0 < ratio < 11.0, f"{name}: M_r/M_l = {ratio}"
    # All sampled accesses target NUMA domain 0.
    balance = analysis.domain_balance()
    assert balance[0] == balance.sum()
    # nodelist (stack) is the hottest single variable; z leads the heap.
    hot = analysis.hot_variables()
    assert hot[0].name == "nodelist"
    assert hot[0].kind is VariableKind.STACK
    heap_hot = [s for s in hot if s.kind is VariableKind.HEAP]
    assert {s.name for s in heap_hot[:3]} <= set(NODAL_ARRAYS)
    # Three heap variables above 8% of remote latency (paper's drill-down).
    assert sum(1 for s in heap_hot if s.remote_latency_share > 0.08) >= 3
    # Fig. 3 plot: workers' ranges ascend in blocks.
    series = address_centric_series(merged, "z")
    rep = classify_ranges(merged.var("z").normalized_ranges())
    assert rep.pattern is AccessPattern.BLOCKED
    worker_mids = ((series.lo + series.hi) / 2)[1:]
    assert np.all(np.diff(worker_mids) > 0)
    # First touch pinpointed in the serial init.
    ft_paths = merged.var("z").first_touch_paths()
    assert any(any("init" in f.func for f in p) for p in ft_paths)
    # Advisor recommends block-wise for the nodal arrays and nodelist.
    recs = {r.var_name: r.action.name for r in advice.recommendations}
    assert recs.get("z") == "BLOCKWISE"
    assert recs.get("nodelist") == "BLOCKWISE"
    # Optimization ordering: block-wise > interleave > baseline.
    assert bw_gain > il_gain > 0
    assert bw_gain > 0.10  # paper: +25%
    # Remote traffic eliminated by the fix.
    assert optimized.result.remote_dram_fraction < 0.2
