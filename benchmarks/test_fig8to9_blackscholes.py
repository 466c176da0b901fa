"""Figures 8-9 + Section 8.3: the Blackscholes case study.

The negative control for the lpi_NUMA metric: Blackscholes shows heavy
*relative* NUMA symptoms (buffer holds 51.6% of the remote latency, all
of it allocated in one domain by the master thread, M_r >> M_l) — yet
its whole-program lpi_NUMA (paper: 0.035) sits far below the 0.1
threshold, so the tool predicts NUMA optimization will not pay off.

The paper validates the verdict by optimizing anyway: regrouping the
five buffer sections into an array of structures (Fig. 9) and
parallelizing the initialization removes essentially all remote
accesses but improves runtime by less than 0.1%.
"""

import pytest

from repro.analysis import address_centric_view, advise, classify_ranges
from repro.analysis.patterns import AccessPattern
from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.optim import apply_advice
from repro.optim.policies import NumaTuning
from repro.profiler.metrics import LPI_THRESHOLD
from repro.sampling import IBS, SoftIBS
from repro.workloads import Blackscholes

from benchmarks.conftest import run_once

THREADS = 48


def _study():
    monitored = run_workload(
        presets.magny_cours, Blackscholes(), THREADS, IBS(period=4096)
    )
    baseline = monitored.result.unmonitored()
    analysis = monitored.analysis
    advice = advise(analysis, thread_domains=monitored.thread_domains)
    # Optimize anyway, as the paper does, to validate the verdict:
    # regroup to array-of-structures + parallel first-touch init.
    tuning = NumaTuning(
        regroup={"buffer"}, parallel_init={"buffer", "prices"}
    )
    optimized = run_workload(
        presets.magny_cours, Blackscholes(tuning), THREADS
    )
    # Dense address capture for the Fig. 8 pattern.
    dense = run_workload(
        presets.magny_cours,
        Blackscholes(steps=4),
        THREADS,
        SoftIBS(period=16),
    )
    return baseline, analysis, advice, optimized, dense


def test_fig8to9_blackscholes(benchmark):
    baseline, analysis, advice, optimized, dense = run_once(benchmark, _study)
    merged = analysis.merged

    lpi = analysis.program_lpi()
    buffer_summary = analysis.variable_summary("buffer")
    gain = baseline.wall_seconds / optimized.result.wall_seconds - 1
    dense_merged = dense.analysis.merged
    rep = classify_ranges(dense_merged.var("buffer").normalized_ranges())

    rows = [
        ["program lpi_NUMA", "0.035", f"{lpi:.4f}"],
        ["below 0.1 threshold?", "yes", str(lpi < LPI_THRESHOLD)],
        ["buffer remote-latency share", "51.6%", f"{buffer_summary.remote_latency_share:.1%}"],
        ["buffer pattern", "staggered overlap (Fig 8)", rep.pattern.value],
        ["optimize-anyway gain", "< 0.1%", f"{gain:+.2%}"],
        ["remote traffic after fix", "~none", f"{optimized.result.remote_dram_fraction:.1%}"],
    ]
    table = fmt_table(
        ["Quantity", "Paper", "Measured"],
        rows,
        title="Section 8.3 — Blackscholes on Magny-Cours / IBS",
    )
    from repro.analysis import address_centric_series

    address_centric_series(dense_merged, "buffer").to_csv(
        "results/fig8_buffer_series.csv"
    )
    view = address_centric_view(dense_merged, "buffer", width=60)
    print("\n" + table + "\n\n[Fig 8] " + view)
    record_experiment(
        "fig8to9_blackscholes",
        {
            "lpi": lpi,
            "buffer_share": buffer_summary.remote_latency_share,
            "pattern": rep.pattern.value,
            "optimize_anyway_gain": gain,
            "optimized_remote_fraction": optimized.result.remote_dram_fraction,
        },
        table + "\n\n" + view,
    )

    # --- shape assertions -------------------------------------------- #
    # The headline: lpi below the threshold; the tool says don't bother.
    assert lpi < LPI_THRESHOLD
    assert not advice.worth_optimizing
    assert advice.recommendations == []
    assert apply_advice(advice, 8).describe() == "(baseline, no tuning)"
    # Yet the relative symptoms look alarming: buffer dominates, and its
    # pages sit in one remote-to-most-threads domain.
    assert buffer_summary.remote_latency_share > 0.5
    assert buffer_summary.mismatch_ratio > 4.0
    # Fig. 8: staggered, heavily overlapped per-thread ranges.
    assert rep.pattern is AccessPattern.STAGGERED_OVERLAP
    assert rep.mean_overlap > 0.5
    # Optimizing anyway removes the remote traffic but gains (almost)
    # nothing — the metric told the truth.
    assert optimized.result.remote_dram_fraction < 0.05
    assert abs(gain) < 0.02
