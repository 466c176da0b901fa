"""Figures 4-7 + Section 8.2: the AMG2006 case study.

Reproduces the paper's central methodological point: the address-centric
view of ``RAP_diag_data`` over the *whole program* shows no usable
pattern (Fig. 4), but scoped to the dominant parallel region
``hypre_boomerAMGRelax._omp`` — identified by its attributed cost share
(paper: 74.2% of the variable's NUMA latency) — the per-thread ranges are
cleanly blocked (Fig. 5), licensing a block-wise distribution despite
the indirect indexing (``RAP_diag_data[A_diag_i[i]]``). ``RAP_diag_j``
behaves identically (Figs. 6-7). Two further hot vectors show uniform
all-thread access, for which the advisor recommends interleaving.

Section 8.2 numbers: program lpi_NUMA > 0.92 (more severe than LULESH);
RAP_diag_data at 18.6% of total latency; solver-phase time reduced 51%
by the tool-guided optimization vs 36% by interleaving everything
(prior work's fix).
"""

import pytest

from repro.analysis import (
    address_centric_view,
    advise,
    classify_ranges,
)
from repro.analysis.advisor import Action
from repro.analysis.patterns import AccessPattern
from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.optim import apply_advice, interleave_all
from repro.sampling import IBS
from repro.workloads import AMG2006, Lulesh

from benchmarks.conftest import run_once

THREADS = 48
HOT_REGION = "hypre_boomerAMGRelax._omp"
ALL_VARS = ["RAP_diag_data", "RAP_diag_j", "u", "f"]


def _study():
    monitored = run_workload(
        presets.magny_cours, AMG2006(), THREADS, IBS(period=4096)
    )
    baseline = monitored.result.unmonitored()
    analysis = monitored.analysis
    advice = advise(analysis, thread_domains=monitored.thread_domains)
    tuning = apply_advice(advice, 8)
    optimized = run_workload(presets.magny_cours, AMG2006(tuning), THREADS)
    interleaved = run_workload(
        presets.magny_cours, AMG2006(interleave_all(ALL_VARS, 8)), THREADS
    )
    return baseline, monitored, analysis, advice, optimized, interleaved


def test_fig4to7_amg(benchmark):
    baseline, monitored, analysis, advice, optimized, interleaved = run_once(
        benchmark, _study
    )
    merged = analysis.merged
    mv = merged.var("RAP_diag_data")

    # Figure 4: whole-program view — no usable pattern.
    whole_rep = classify_ranges(mv.normalized_ranges())
    # Figure 5: scoped to the hot region — blocked.
    relax_ctx = next(
        p for p in mv.contexts() if any(f.func == HOT_REGION for f in p)
    )
    relax_rep = classify_ranges(mv.normalized_ranges(relax_ctx))
    relax_share = analysis.context_share("RAP_diag_data", HOT_REGION)
    # Figures 6/7 for RAP_diag_j.
    mj = merged.var("RAP_diag_j")
    j_relax_ctx = next(
        p for p in mj.contexts() if any(f.func == HOT_REGION for f in p)
    )
    j_whole = classify_ranges(mj.normalized_ranges())
    j_relax = classify_ranges(mj.normalized_ranges(j_relax_ctx))
    j_share = analysis.context_share("RAP_diag_j", HOT_REGION)

    lpi = analysis.program_lpi()
    rap = analysis.variable_summary("RAP_diag_data")
    solver_base = AMG2006.solver_seconds(baseline)
    solver_opt = 1 - AMG2006.solver_seconds(optimized.result) / solver_base
    solver_il = 1 - AMG2006.solver_seconds(interleaved.result) / solver_base

    rows = [
        ["program lpi_NUMA", "> 0.92", f"{lpi:.3f}"],
        ["RAP_diag_data latency share", "18.6%", f"{rap.remote_latency_share:.1%}"],
        ["RAP_diag_data M_r share", "8.1%", f"{rap.remote_access_share:.1%}"],
        ["relax share of its latency", "74.2%", f"{relax_share:.1%}"],
        ["whole-program pattern", "irregular (Fig 4)", whole_rep.pattern.value],
        ["relax-region pattern", "regular blocked (Fig 5)", relax_rep.pattern.value],
        ["RAP_diag_j relax share", "73.6%", f"{j_share:.1%}"],
        ["solver reduction (advice)", "-51%", f"-{solver_opt:.1%}"],
        ["solver reduction (interleave)", "-36%", f"-{solver_il:.1%}"],
    ]
    table = fmt_table(
        ["Quantity", "Paper", "Measured"],
        rows,
        title="Section 8.2 — AMG2006 on Magny-Cours / IBS",
    )
    from repro.analysis import address_centric_series

    address_centric_series(merged, "RAP_diag_data").to_csv(
        "results/fig4_rap_diag_data_series.csv"
    )
    address_centric_series(merged, "RAP_diag_data", relax_ctx).to_csv(
        "results/fig5_rap_diag_data_relax_series.csv"
    )
    address_centric_series(merged, "RAP_diag_j").to_csv(
        "results/fig6_rap_diag_j_series.csv"
    )
    address_centric_series(merged, "RAP_diag_j", j_relax_ctx).to_csv(
        "results/fig7_rap_diag_j_relax_series.csv"
    )
    fig4 = address_centric_view(merged, "RAP_diag_data", width=60)
    fig5 = address_centric_view(merged, "RAP_diag_data", relax_ctx, width=60)
    print("\n" + table + "\n\n[Fig 4] " + fig4 + "\n\n[Fig 5] " + fig5)
    record_experiment(
        "fig4to7_amg",
        {
            "lpi": lpi,
            "rap_latency_share": rap.remote_latency_share,
            "relax_share": relax_share,
            "whole_pattern": whole_rep.pattern.value,
            "relax_pattern": relax_rep.pattern.value,
            "j_relax_share": j_share,
            "solver_reduction_advice": solver_opt,
            "solver_reduction_interleave": solver_il,
        },
        table + "\n\n" + fig4 + "\n\n" + fig5,
    )

    # --- shape assertions -------------------------------------------- #
    # More severe NUMA problems than LULESH, well above threshold.
    assert lpi > 0.4
    # Fig 4 vs Fig 5: irregular whole-program, blocked in the hot region.
    assert whole_rep.pattern is not AccessPattern.BLOCKED
    assert relax_rep.pattern is AccessPattern.BLOCKED
    # The hot region dominates the variable's cost (paper: 74.2% / 73.6%).
    assert relax_share > 0.6
    assert j_share > 0.6
    assert j_relax.pattern is AccessPattern.BLOCKED
    # Advisor: block-wise for the RAP arrays (via region re-scoping),
    # interleave for at least one uniform-access vector.
    recs = {r.var_name: r for r in advice.recommendations}
    assert recs["RAP_diag_data"].action is Action.BLOCKWISE
    assert recs["RAP_diag_data"].scoped_to is not None
    assert recs["RAP_diag_j"].action is Action.BLOCKWISE
    assert any(r.action is Action.INTERLEAVE for r in advice.recommendations)
    # Solver-phase ordering: advice > interleave > 0 (paper: 51% vs 36%).
    assert solver_opt > solver_il > 0
    assert solver_opt > 0.10


def test_amg_more_severe_than_lulesh(benchmark):
    """Paper: AMG's lpi (0.92+) exceeds LULESH's (0.466)."""

    def both():
        amg = run_workload(
            presets.magny_cours, AMG2006(), THREADS, IBS(period=4096)
        ).analysis.program_lpi()
        lul = run_workload(
            presets.magny_cours, Lulesh(), THREADS, IBS(period=4096)
        ).analysis.program_lpi()
        return amg, lul

    amg_lpi, lul_lpi = run_once(benchmark, both)
    print(f"\nlpi_NUMA: AMG2006 {amg_lpi:.3f} vs LULESH {lul_lpi:.3f}")
    record_experiment(
        "amg_vs_lulesh_lpi", {"amg": amg_lpi, "lulesh": lul_lpi}
    )
    assert amg_lpi > lul_lpi > 0.1
