#!/usr/bin/env python
"""Quickstart: find and fix a NUMA bottleneck in five minutes.

This walks the complete HPCToolkit-NUMA workflow on the smallest
interesting program — one array, initialized by the master thread
(Linux first-touch pins every page to NUMA domain 0), then processed in
parallel by threads spread across four domains:

1. run the program under the profiler (IBS address sampling);
2. merge the per-thread profiles and check lpi_NUMA against the paper's
   0.1 cycles/instruction rule of thumb;
3. look at the three views — code-centric, data-centric, and the
   address-centric per-thread range plot;
4. ask the advisor what to change, apply it, re-run, and compare.

Run:  python examples/quickstart.py
"""

from repro import (
    ExecutionEngine,
    IBS,
    NumaAnalysis,
    NumaProfiler,
    advise,
    apply_advice,
    address_centric_view,
    code_centric_view,
    data_centric_view,
    first_touch_view,
    merge_profiles,
    presets,
)
from repro.workloads import PartitionedSweep

N_THREADS = 16


def main() -> None:
    # ---- 1. profile the baseline ------------------------------------ #
    machine = presets.generic(n_domains=4, cores_per_domain=4)
    print(f"machine: {machine.describe()}\n")

    # A monitored run for the analysis; without its monitoring overhead
    # it is the unmonitored baseline (the time we want to improve).
    profiler = NumaProfiler(IBS(period=512))
    program = PartitionedSweep(n_elems=800_000, steps=4)
    engine = ExecutionEngine(machine, program, N_THREADS, monitor=profiler)
    monitored = engine.run()
    baseline = monitored.unmonitored()
    overhead = monitored.wall_seconds / baseline.wall_seconds - 1
    print(f"baseline run: {baseline.wall_seconds * 1e3:.2f} ms simulated, "
          f"{baseline.remote_dram_fraction:.0%} of DRAM traffic remote")
    print(f"monitored run: {monitored.wall_seconds * 1e3:.2f} ms "
          f"({overhead:+.0%} monitoring overhead at this dense period)\n")

    # ---- 2. analyze --------------------------------------------------- #
    merged = merge_profiles(profiler.archive)
    analysis = NumaAnalysis(merged)
    lpi = analysis.program_lpi()
    print(f"lpi_NUMA = {lpi:.3f} cycles/instruction "
          f"({'ABOVE' if lpi >= 0.1 else 'below'} the 0.1 threshold)\n")

    # ---- 3. the three views ------------------------------------------ #
    print(code_centric_view(merged, max_depth=3), "\n")
    print(data_centric_view(merged), "\n")
    print(address_centric_view(merged, "data", width=56), "\n")
    print(first_touch_view(merged, "data"), "\n")

    # ---- 4. advise, apply, re-run ------------------------------------- #
    advice = advise(
        analysis, thread_domains={t.tid: t.domain for t in engine.threads}
    )
    print(f"advisor: {advice.rationale}")
    for rec in advice.recommendations:
        print(f"  -> {rec.rationale}")
    tuning = apply_advice(advice, machine.n_domains)
    print(f"\napplied tuning: {tuning.describe()}\n")

    machine2 = presets.generic(n_domains=4, cores_per_domain=4)
    optimized = ExecutionEngine(
        machine2, PartitionedSweep(tuning, n_elems=800_000, steps=4), N_THREADS
    ).run()
    gain = baseline.wall_seconds / optimized.wall_seconds - 1
    print(f"optimized run: {optimized.wall_seconds * 1e3:.2f} ms simulated, "
          f"{optimized.remote_dram_fraction:.0%} remote "
          f"-> {gain:+.1%} speedup")


if __name__ == "__main__":
    main()
