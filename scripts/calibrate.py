#!/usr/bin/env python
"""Calibration harness: prints every paper-target quantity for the four
case studies so model constants can be tuned against Section 8.

Not part of the test suite — a development tool (its outputs feed
EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
import time

from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.optim.policies import NumaTuning, PlacementSpec, interleave_all
from repro.profiler import NumaProfiler
from repro.profiler.metrics import verdict
from repro.runtime import ExecutionEngine
from repro.runtime.heap import VariableKind
from repro.sampling import IBS, MRK
from repro.analysis import merge_profiles, NumaAnalysis, advise
from repro.optim import apply_advice
from repro.workloads import AMG2006, Blackscholes, Lulesh, UMT2013


def run(machine_factory, program_factory, n_threads, mech=None, binding=None, seed=0):
    from repro.runtime.thread import BindingPolicy

    machine = machine_factory()
    monitor = NumaProfiler(mech) if mech else None
    kwargs = {}
    if binding:
        kwargs["binding"] = BindingPolicy[binding]
    eng = ExecutionEngine(
        machine, program_factory(), n_threads, monitor=monitor, seed=seed, **kwargs
    )
    t0 = time.time()
    res = eng.run()
    elapsed = time.time() - t0
    return eng, res, monitor, elapsed


def lulesh_amd():
    print("=" * 70)
    print("LULESH on Magny-Cours / IBS (targets: lpi 0.466, z ~11.3% remote")
    print("lat & Mr/Ml ~7, nodelist 20.3%, +25% blockwise vs +13% interleave)")
    eng, mon_res, prof, wt = run(
        presets.magny_cours, lambda: Lulesh(), 48, IBS(period=4096)
    )
    base = mon_res.unmonitored()
    print(f"  baseline: {base.wall_seconds:.3f}s sim, "
          f"remote dram {base.remote_dram_fraction:.2f}")
    ovh = mon_res.wall_seconds / base.wall_seconds - 1
    merged = merge_profiles(prof.archive)
    an = NumaAnalysis(merged)
    print(f"  IBS-monitored ({wt:.1f}s real): overhead {ovh:+.1%}")
    print(f"  program lpi = {an.program_lpi():.3f}  remote-lat frac = "
          f"{an.remote_latency_fraction():.2f}")
    print(f"  heap share = {an.kind_share(VariableKind.HEAP):.2f}, "
          f"stack share = {an.kind_share(VariableKind.STACK):.2f}")
    for s in an.hot_variables(top=7):
        print(f"    {s.name:<9} remlat%={s.remote_latency_share:5.1%} "
              f"Mr/Ml={s.mismatch_ratio:5.1f} lpi={s.lpi:7.2f} n={s.samples:.0f}")

    tdom = {t.tid: t.domain for t in eng.threads}
    advice = advise(an, thread_domains=tdom)
    tuning = apply_advice(advice, 8)
    _, opt, _, _ = run(presets.magny_cours, lambda: Lulesh(tuning), 48)
    vars_ = ["x", "y", "z", "xd", "yd", "zd", "nodelist"]
    _, il, _, _ = run(
        presets.magny_cours, lambda: Lulesh(interleave_all(vars_, 8)), 48
    )
    print(f"  speedup blockwise(advice): {base.wall_seconds / opt.wall_seconds - 1:+.1%}"
          f"  interleave: {base.wall_seconds / il.wall_seconds - 1:+.1%}")


def lulesh_power7():
    print("=" * 70)
    print("LULESH on POWER7 / MRK (targets: 66% L3-miss remote, arrays 65%,")
    print("nodelist 31%, +7.5% blockwise, -16.4% interleave)")
    mk = lambda: Lulesh(partial_init_vars=("xd", "yd", "zd"))
    eng, res, prof, wt = run(presets.power7, mk, 128, MRK(max_rate=2e6))
    base = res.unmonitored()
    merged = merge_profiles(prof.archive)
    an = NumaAnalysis(merged)
    print(f"  remote fraction of sampled L3 misses: {an.program_remote_fraction():.2f}")
    arr_share = sum(an.variable_summary(v).remote_access_share
                    for v in ("x", "y", "z", "xd", "yd", "zd"))
    nl_share = an.variable_summary("nodelist").remote_access_share
    print(f"  nodal arrays share of remote = {arr_share:.2f}, nodelist = {nl_share:.2f}")
    tdom = {t.tid: t.domain for t in eng.threads}
    advice = advise(an, thread_domains=tdom)
    tuning = apply_advice(advice, 4)
    for v in ("x", "y", "z", "xd", "yd", "zd", "nodelist"):
        tuning.placement.setdefault(
            v, PlacementSpec(PlacementPolicy.BLOCKWISE, tuple(range(4))))
    _, opt, _, _ = run(presets.power7, lambda: Lulesh(tuning, partial_init_vars=()), 128)
    vars_ = ["x", "y", "z", "xd", "yd", "zd", "nodelist"]
    _, il, _, _ = run(presets.power7,
                      lambda: Lulesh(interleave_all(vars_, 4)), 128)
    print(f"  speedup blockwise: {base.wall_seconds/opt.wall_seconds-1:+.1%} "
          f" interleave: {base.wall_seconds/il.wall_seconds-1:+.1%}")


def amg():
    print("=" * 70)
    print("AMG2006 on Magny-Cours / IBS (targets: lpi>0.92, RAP_diag_data")
    print("18.6% lat lpi 15.9 8.1% Mr, relax 74.2%; solver -51% vs -36%)")
    eng, res, prof, wt = run(presets.magny_cours, AMG2006, 48, IBS(period=4096))
    solver_base = AMG2006.solver_seconds(res.unmonitored())
    merged = merge_profiles(prof.archive)
    an = NumaAnalysis(merged)
    print(f"  program lpi = {an.program_lpi():.3f} "
          f"heap share = {an.kind_share(VariableKind.HEAP):.2f}")
    for s in an.hot_variables(top=5):
        print(f"    {s.name:<14} remlat%={s.remote_latency_share:5.1%} "
              f"Mr%={s.remote_access_share:5.1%} lpi={s.lpi:7.2f} n={s.samples:.0f}")
    print(f"  relax share of RAP_diag_data: "
          f"{an.context_share('RAP_diag_data', 'hypre_boomerAMGRelax._omp'):.2f}")
    from repro.analysis.patterns import classify_ranges
    mv = merged.var("RAP_diag_data")
    whole = classify_ranges(mv.normalized_ranges())
    print(f"  whole-program pattern: {whole.pattern.value} (mono "
          f"{whole.midpoint_monotonicity:.2f}, cov {whole.mean_coverage:.2f})")
    tdom = {t.tid: t.domain for t in eng.threads}
    advice = advise(an, thread_domains=tdom)
    for r in advice.recommendations:
        print(f"    advice: {r.rationale}")
    tuning = apply_advice(advice, 8)
    _, opt, _, _ = run(presets.magny_cours, lambda: AMG2006(tuning), 48)
    _, il, _, _ = run(
        presets.magny_cours,
        lambda: AMG2006(interleave_all(["RAP_diag_data", "RAP_diag_j", "u", "f"], 8)),
        48,
    )
    print(f"  solver phase: baseline {solver_base:.3f}s; advice "
          f"{1 - AMG2006.solver_seconds(opt)/solver_base:+.1%} reduction; "
          f"interleave {1 - AMG2006.solver_seconds(il)/solver_base:+.1%}")


def blackscholes():
    print("=" * 70)
    print("Blackscholes on Magny-Cours / IBS (targets: lpi 0.035 < 0.1,")
    print("buffer 51.6% of remote lat, heap 66.8%, opt gain < 0.1%)")
    eng, res, prof, _ = run(presets.magny_cours, Blackscholes, 48, IBS(period=4096))
    base = res.unmonitored()
    merged = merge_profiles(prof.archive)
    an = NumaAnalysis(merged)
    print(f"  program lpi = {an.program_lpi():.4f} (warrants: "
          f"{verdict(an.program_lpi())})  heap share = "
          f"{an.kind_share(VariableKind.HEAP):.2f}")
    for s in an.hot_variables(top=3):
        print(f"    {s.name:<9} remlat%={s.remote_latency_share:5.1%} "
              f"Mr/Ml={s.mismatch_ratio:5.1f} n={s.samples:.0f}")
    from repro.analysis.patterns import classify_ranges
    mv = merged.var("buffer")
    rep = classify_ranges(mv.normalized_ranges())
    print(f"  buffer pattern: {rep.pattern.value} (cov {rep.mean_coverage:.2f}, "
          f"overlap {rep.mean_overlap:.2f})")
    # Apply the full fix anyway (regroup + parallel init) to verify the
    # tool's "don't bother" verdict.
    tuning = NumaTuning(regroup={"buffer"}, parallel_init={"buffer", "prices"})
    _, opt, _, _ = run(presets.magny_cours, lambda: Blackscholes(tuning), 48)
    print(f"  optimized-anyway gain: {base.wall_seconds/opt.wall_seconds-1:+.2%} "
          f"(paper: < 0.1%)")


def umt():
    print("=" * 70)
    print("UMT2013 on POWER7(32 scattered)/MRK (targets: 86% misses remote,")
    print("heap 47%, STime 18.2% remote, staggered, +7% after parallel init)")
    mk = lambda: UMT2013()
    _, res, prof, _ = run(presets.power7, mk, 32, MRK(max_rate=2e6), binding="SCATTER")
    base = res.unmonitored()
    merged = merge_profiles(prof.archive)
    an = NumaAnalysis(merged)
    print(f"  remote fraction of L3 misses: {an.program_remote_fraction():.2f}  "
          f"heap share = {an.kind_share(VariableKind.HEAP):.2f}")
    for s in an.hot_variables(top=4):
        print(f"    {s.name:<15} Mr%={s.remote_access_share:5.1%} n={s.samples:.0f}")
    from repro.analysis.patterns import classify_ranges
    mv = merged.var("STime")
    rep = classify_ranges(mv.normalized_ranges())
    print(f"  STime pattern: {rep.pattern.value} (cov {rep.mean_coverage:.2f}, "
          f"overlap {rep.mean_overlap:.2f}, mono {rep.midpoint_monotonicity:.2f})")
    tuning = NumaTuning(parallel_init={"STime"})
    _, opt, _, _ = run(presets.power7, lambda: UMT2013(tuning), 32, binding="SCATTER")
    print(f"  speedup after parallel STime init: "
          f"{base.wall_seconds/opt.wall_seconds-1:+.1%} (paper: +7%)")


if __name__ == "__main__":
    which = sys.argv[1:] or ["lulesh_amd", "lulesh_power7", "amg", "blackscholes", "umt"]
    for name in which:
        globals()[name]()
