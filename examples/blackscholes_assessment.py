#!/usr/bin/env python
"""Blackscholes assessment (paper Section 8.3, Figures 8-9).

The negative control: Blackscholes *looks* NUMA-sick — its five-section
``buffer`` is allocated in a single domain by the master thread, the
M_r/M_l ratio is high, and the address-centric view shows the staggered
overlapped pattern of Fig. 8. But the lpi_NUMA severity metric says the
losses are too small to matter (paper: 0.035 < 0.1) — and optimizing
anyway (regrouping the sections into an array of structures, Fig. 9,
plus parallel first-touch initialization) confirms it: remote traffic
vanishes, runtime barely moves.

"One can estimate potential gains from NUMA optimization by examining
lpi_NUMA."

Run:  python examples/blackscholes_assessment.py        (~15 s)
"""

from repro import (
    ExecutionEngine,
    IBS,
    NumaAnalysis,
    NumaProfiler,
    NumaTuning,
    SoftIBS,
    advise,
    address_centric_view,
    merge_profiles,
    presets,
)
from repro.workloads import Blackscholes

THREADS = 48


def main() -> None:
    print("== Blackscholes on AMD Magny-Cours (severity assessment) ==\n")

    profiler = NumaProfiler(IBS(period=4096))
    engine = ExecutionEngine(
        presets.magny_cours(), Blackscholes(), THREADS, monitor=profiler
    )
    baseline = engine.run().unmonitored()
    analysis = NumaAnalysis(merge_profiles(profiler.archive))

    # The symptoms look alarming...
    buf = analysis.variable_summary("buffer")
    print("symptoms:")
    print(f"  buffer holds {buf.remote_latency_share:.1%} of remote latency "
          "(paper: 51.6%)")
    print(f"  M_r/M_l = {buf.mismatch_ratio:.1f}; all samples target "
          "domain 0 (master-thread allocation)")

    # ... the Fig. 8 pattern (dense software sampling for a crisp plot):
    dense_prof = NumaProfiler(SoftIBS(period=16))
    ExecutionEngine(
        presets.magny_cours(), Blackscholes(steps=4), THREADS,
        monitor=dense_prof,
    ).run()
    dense = merge_profiles(dense_prof.archive)
    print("\n[Figure 8]")
    print(address_centric_view(dense, "buffer", width=56))
    print("(every thread reads its options in all five sections: ascending")
    print(" sub-ranges with heavy overlap — co-location needs a layout change)")

    # ... but the severity metric says don't bother:
    lpi = analysis.program_lpi()
    print(f"\nlpi_NUMA = {lpi:.4f}  (paper: 0.035) — BELOW the 0.1 threshold")
    advice = advise(analysis)
    print(f"advisor: {advice.rationale}")
    assert not advice.worth_optimizing

    # Validate the verdict: apply the full fix anyway.
    tuning = NumaTuning(
        regroup={"buffer"}, parallel_init={"buffer", "prices"}
    )
    optimized = ExecutionEngine(
        presets.magny_cours(), Blackscholes(tuning), THREADS
    ).run()
    gain = baseline.wall_seconds / optimized.wall_seconds - 1
    print(f"\noptimizing anyway (Fig. 9 regroup + parallel init):")
    print(f"  remote DRAM fraction: {baseline.remote_dram_fraction:.1%} -> "
          f"{optimized.remote_dram_fraction:.1%}")
    print(f"  runtime change: {gain:+.2%}  (paper: < 0.1%)")
    print("\nthe metric told the truth: no payoff available.")


if __name__ == "__main__":
    main()
