#!/usr/bin/env python
"""AMG2006 case study (paper Section 8.2, Figures 4-7).

Demonstrates the paper's central methodological insight: indirect
accesses (``RAP_diag_data[A_diag_i[i]]``) make the whole-program
address-centric view useless (Fig. 4) — but scoping the view to the
dominant calling context, chosen by attributed cost, reveals a clean
blocked pattern (Fig. 5) that licenses block-wise page distribution.
"Without our address-centric analysis, one cannot determine where data
layout changes are needed."

Run:  python examples/amg_case_study.py        (~20 s)
"""

from repro import (
    ExecutionEngine,
    IBS,
    NumaAnalysis,
    NumaProfiler,
    advise,
    apply_advice,
    address_centric_view,
    classify_ranges,
    interleave_all,
    merge_profiles,
    presets,
)
from repro.workloads import AMG2006

THREADS = 48
HOT_REGION = "hypre_boomerAMGRelax._omp"


def main() -> None:
    print("== AMG2006 on AMD Magny-Cours (solver phase study) ==\n")

    profiler = NumaProfiler(IBS(period=4096))
    engine = ExecutionEngine(
        presets.magny_cours(), AMG2006(), THREADS, monitor=profiler
    )
    baseline = engine.run().unmonitored()
    merged = merge_profiles(profiler.archive)
    analysis = NumaAnalysis(merged)

    lpi = analysis.program_lpi()
    print(f"whole-program lpi_NUMA = {lpi:.3f}  (paper: > 0.92, worse than "
          "LULESH -> investigate)\n")

    rap = analysis.variable_summary("RAP_diag_data")
    print(f"RAP_diag_data: {rap.remote_latency_share:.1%} of remote latency, "
          f"lpi {rap.lpi:.1f}")
    mv = merged.var("RAP_diag_data")
    whole = classify_ranges(mv.normalized_ranges())
    print(f"whole-program pattern: {whole.pattern.value}  "
          "(Fig. 4: 'no obvious access pattern')\n")
    print("[Figure 4]", address_centric_view(merged, "RAP_diag_data", width=56),
          sep="\n")

    # Scope to the hottest calling context, chosen by attributed cost.
    contexts = analysis.hot_contexts("RAP_diag_data")
    hot_ctx, share = contexts[0]
    region = next(f.func for f in hot_ctx if f.func.endswith("._omp"))
    print(f"\nhottest context: {region} with {share:.1%} of the variable's "
          "cost (paper: 74.2%)")
    scoped = classify_ranges(mv.normalized_ranges(hot_ctx))
    print(f"pattern inside it: {scoped.pattern.value}  (Fig. 5: regular)\n")
    print("[Figure 5]",
          address_centric_view(merged, "RAP_diag_data", hot_ctx, width=56),
          sep="\n")

    # Fix per the advisor vs. the prior-work interleave-everything fix.
    advice = advise(
        analysis, thread_domains={t.tid: t.domain for t in engine.threads}
    )
    print("\nadvisor recommendations:")
    for rec in advice.recommendations:
        scope = f" [scoped to {rec.scoped_to[-2].func}]" if rec.scoped_to else ""
        print(f"  -> {rec.rationale}{scope}")
    tuning = apply_advice(advice, 8)

    optimized = ExecutionEngine(
        presets.magny_cours(), AMG2006(tuning), THREADS
    ).run()
    interleaved = ExecutionEngine(
        presets.magny_cours(),
        AMG2006(interleave_all(["RAP_diag_data", "RAP_diag_j", "u", "f"], 8)),
        THREADS,
    ).run()

    base_solver = AMG2006.solver_seconds(baseline)
    print(f"\nsolver-phase time reduction:")
    print(f"  tool-guided (block-wise + interleave mix): "
          f"{1 - AMG2006.solver_seconds(optimized) / base_solver:.1%}  "
          "(paper: 51%)")
    print(f"  interleave everything (prior work):        "
          f"{1 - AMG2006.solver_seconds(interleaved) / base_solver:.1%}  "
          "(paper: 36%)")


if __name__ == "__main__":
    main()
