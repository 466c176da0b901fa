#!/usr/bin/env python
"""LULESH case study (paper Section 8.1, Figure 3).

Profiles the simulated LULESH on the 48-core / 8-NUMA-domain AMD
Magny-Cours machine with IBS address sampling, walks the same analysis
the paper narrates — whole-program lpi_NUMA, heap variable drill-down,
the z array's M_r/M_l ratio and domain concentration, the address-centric
plot, the stack variable nodelist, first-touch pinpointing — then applies
the advisor's block-wise distribution and compares it with the
interleaving fix suggested by prior work.

Run:  python examples/lulesh_case_study.py        (~30 s)
"""

from repro import (
    ExecutionEngine,
    IBS,
    NumaAnalysis,
    NumaProfiler,
    advise,
    apply_advice,
    address_centric_view,
    first_touch_view,
    interleave_all,
    merge_profiles,
    presets,
)
from repro.profiler.metrics import MetricNames
from repro.runtime.heap import VariableKind
from repro.workloads import Lulesh
from repro.workloads.lulesh import NODAL_ARRAYS

THREADS = 48


def main() -> None:
    print("== LULESH on AMD Magny-Cours (8 NUMA domains, 48 cores) ==\n")

    profiler = NumaProfiler(IBS(period=4096))
    engine = ExecutionEngine(
        presets.magny_cours(), Lulesh(), THREADS, monitor=profiler
    )
    baseline = engine.run().unmonitored()
    merged = merge_profiles(profiler.archive)
    analysis = NumaAnalysis(merged)

    # --- the paper's investigation, step by step ---------------------- #
    lpi = analysis.program_lpi()
    print(f"whole-program lpi_NUMA = {lpi:.3f}  (paper: 0.466; "
          f"rule of thumb: optimize if > 0.1)")
    print(f"remote share of sampled latency = "
          f"{analysis.remote_latency_fraction():.1%}  (paper: 74.2% for heap)")
    print(f"heap variables' share of remote latency = "
          f"{analysis.kind_share(VariableKind.HEAP):.1%}\n")

    print("hot variables (the paper finds three heap arrays above 8%):")
    for s in analysis.hot_variables(top=7):
        print(f"  {s.name:<9} {s.kind.value:<6} remote-lat share "
              f"{s.remote_latency_share:5.1%}  M_r/M_l {s.mismatch_ratio:4.1f}  "
              f"lpi {s.lpi:5.2f}")
    z = analysis.variable_summary("z")
    print(f"\nz: NUMA_MISMATCH is {z.mismatch_ratio:.1f}x NUMA_MATCH and all "
          f"{sum(z.domain_counts):.0f} samples target domain 0\n  -> pages "
          "allocated in domain 0 but accessed by threads in other domains\n")

    print(address_centric_view(merged, "z", width=60))
    print("\n(thread 0 spans the array — it ran the serial init; workers")
    print(" hold ascending blocks: distribute pages block-wise)\n")
    print(first_touch_view(merged, "z"))

    nodelist = analysis.variable_summary("nodelist")
    print(f"\nstack variable nodelist: {nodelist.remote_latency_share:.1%} of "
          "remote latency (paper: 20.3%) — the hottest single variable\n")

    # --- fix it -------------------------------------------------------- #
    advice = advise(
        analysis, thread_domains={t.tid: t.domain for t in engine.threads}
    )
    tuning = apply_advice(advice, 8)
    print("advisor recommendations:")
    for rec in advice.recommendations:
        print(f"  -> {rec.rationale}")

    optimized = ExecutionEngine(
        presets.magny_cours(), Lulesh(tuning), THREADS
    ).run()
    il_vars = list(NODAL_ARRAYS) + ["nodelist"]
    interleaved = ExecutionEngine(
        presets.magny_cours(), Lulesh(interleave_all(il_vars, 8)), THREADS
    ).run()

    bw = baseline.wall_seconds / optimized.wall_seconds - 1
    il = baseline.wall_seconds / interleaved.wall_seconds - 1
    print(f"\nblock-wise distribution: {bw:+.1%}  (paper: +25%)")
    print(f"interleaving (prior work): {il:+.1%}  (paper: +13%)")
    print(f"remote DRAM fraction: {baseline.remote_dram_fraction:.0%} -> "
          f"{optimized.remote_dram_fraction:.0%}")


if __name__ == "__main__":
    main()
