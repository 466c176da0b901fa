"""Figure 10 + Section 8.4: the UMT2013 case study on POWER7 / MRK.

The paper runs UMT2013 with 32 threads bound across the four POWER7 NUMA
domains, sampling L3-miss events with MRK (no latency — the analysis is
M_l / M_r only). Targets:

* 86% of L3 cache misses access remote memory;
* 47% of remote accesses come from heap variables (the rest from the
  static workspace);
* ``STime`` — the Fig. 10 loop's three-dimensional array whose angle
  planes are assigned round-robin to threads — accounts for 18.2% of
  remote accesses and shows a staggered per-thread pattern "similar to
  the variable buffer in BlackScholes";
* parallelizing STime's initialization loop, so each thread first-touches
  the planes it sweeps, yields a 7% whole-program speedup.
"""

from repro.analysis import address_centric_view, classify_ranges
from repro.analysis.patterns import AccessPattern
from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.optim.policies import NumaTuning
from repro.runtime.heap import VariableKind
from repro.runtime.thread import BindingPolicy
from repro.sampling import MRK
from repro.workloads import UMT2013

from benchmarks.conftest import run_once

THREADS = 32


def _study():
    monitored = run_workload(
        presets.power7, UMT2013(), THREADS, MRK(max_rate=2e6),
        binding=BindingPolicy.SCATTER,
    )
    baseline = monitored.result.unmonitored()
    tuning = NumaTuning(parallel_init={"STime"})
    optimized = run_workload(
        presets.power7, UMT2013(tuning), THREADS,
        binding=BindingPolicy.SCATTER,
    )
    return baseline, monitored, optimized


def test_fig10_umt(benchmark):
    baseline, monitored, optimized = run_once(benchmark, _study)
    analysis = monitored.analysis
    merged = analysis.merged

    remote = analysis.program_remote_fraction()
    heap_share = analysis.kind_share(VariableKind.HEAP)
    stime = analysis.variable_summary("STime")
    rep = classify_ranges(merged.var("STime").normalized_ranges())
    gain = baseline.wall_seconds / optimized.result.wall_seconds - 1

    rows = [
        ["remote fraction of L3 misses", "86%", f"{remote:.0%}"],
        ["heap share of remote accesses", "47%", f"{heap_share:.0%}"],
        ["STime share of remote accesses", "18.2%", f"{stime.remote_access_share:.1%}"],
        ["STime pattern", "staggered (like Fig 8)", rep.pattern.value],
        ["speedup from parallel init", "+7%", f"{gain:+.1%}"],
    ]
    table = fmt_table(
        ["Quantity", "Paper", "Measured"],
        rows,
        title="Section 8.4 — UMT2013 on POWER7 / MRK (32 threads, scattered)",
    )
    from repro.analysis import address_centric_series

    address_centric_series(merged, "STime").to_csv(
        "results/fig10_stime_series.csv"
    )
    view = address_centric_view(merged, "STime", width=60)
    print("\n" + table + "\n\n[Fig 10 var] " + view)
    record_experiment(
        "fig10_umt",
        {
            "remote_fraction": remote,
            "heap_share": heap_share,
            "stime_share": stime.remote_access_share,
            "pattern": rep.pattern.value,
            "parallel_init_gain": gain,
        },
        table + "\n\n" + view,
    )

    # --- shape assertions -------------------------------------------- #
    # MRK: no latency, analysis via M_l / M_r.
    assert analysis.program_lpi() is None
    # Most L3 misses remote (paper: 86%).
    assert remote > 0.6
    # Heap variables only partially responsible (paper: 47%).
    assert 0.3 < heap_share < 0.7
    # STime a significant single contributor (paper: 18.2%).
    assert 0.08 < stime.remote_access_share < 0.35
    # Staggered round-robin plane pattern, monotone in thread id.
    assert rep.pattern is AccessPattern.STAGGERED_OVERLAP
    assert rep.midpoint_monotonicity > 0.8
    # Co-locating planes with their sweeping threads pays off (paper +7%).
    assert 0.02 < gain < 0.30
