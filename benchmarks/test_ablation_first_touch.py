"""Ablation: page-protection trapping vs. instrumentation for first touch.

Paper Section 6: "Our strategy does not require any instrumentation of
memory accesses, so it has low runtime overhead." The alternative design
— identifying first touches from an instrumented access stream (what a
Soft-IBS-based tool would do) — pays for every access executed.

This ablation measures both designs on the same workload and checks the
claim: trap cost scales with *pages* (one fault each), instrumentation
cost scales with *accesses*, and the former is far cheaper on any
workload that touches its data more than once.
"""

import pytest

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.sampling import IBS, SoftIBS
from repro.workloads import PartitionedSweep

from benchmarks.conftest import run_once

THREADS = 16
N_ELEMS = 800_000


def _program():
    return PartitionedSweep(n_elems=N_ELEMS, steps=4)


def _study():
    machine = lambda: presets.generic(n_domains=4, cores_per_domain=4)
    # Design A (the paper's): hardware sampling + page-protection traps.
    traps = run_workload(
        machine, _program(), THREADS, IBS(period=4096),
        profiler_kwargs={"protect_heap": True},
    )
    # Design A without first-touch support, isolating the trap cost.
    no_traps = run_workload(
        machine, _program(), THREADS, IBS(period=4096),
        profiler_kwargs={"protect_heap": False},
    )
    # Design B: software instrumentation of every access (Soft-IBS). Its
    # stream sees first touches for free but charges every access.
    instrumented = run_workload(
        machine, _program(), THREADS, SoftIBS(period=4096),
        profiler_kwargs={"protect_heap": False},
    )

    w = traps.result.unmonitored().wall_seconds
    return {
        "trap_overhead": traps.result.wall_seconds / w - 1,
        "sampling_only_overhead": no_traps.result.wall_seconds / w - 1,
        "instrumentation_overhead": instrumented.result.wall_seconds / w - 1,
        "first_touches_found": sum(
            len(p.first_touches)
            for p in traps.profiler.archive.profiles.values()
        ),
        "pages": N_ELEMS * 8 // 4096,
        "accesses": traps.result.total_accesses,
    }


def test_ablation_first_touch_mechanism(benchmark):
    data = run_once(benchmark, _study)
    trap_cost = data["trap_overhead"] - data["sampling_only_overhead"]
    rows = [
        ["page-protection traps (paper §6)", f"{data['trap_overhead']:+.1%}",
         f"isolated trap cost {trap_cost:+.1%}"],
        ["sampling only (no first touch)",
         f"{data['sampling_only_overhead']:+.1%}", ""],
        ["full instrumentation (Soft-IBS)",
         f"{data['instrumentation_overhead']:+.1%}",
         f"{data['accesses'] / data['pages']:.0f} accesses per page"],
    ]
    table = fmt_table(
        ["Design", "Overhead", "Note"],
        rows,
        title="Ablation — first-touch identification mechanisms",
    )
    print("\n" + table)
    record_experiment("ablation_first_touch", data, table)

    # The traps found the first touches...
    assert data["first_touches_found"] >= 1
    # ... at a cost far below instrumenting every access (the paper's
    # "low runtime overhead" claim, quantified).
    assert trap_cost < 0.2 * data["instrumentation_overhead"]
    assert data["trap_overhead"] < data["instrumentation_overhead"]
