"""Ablation: the 0.1 cycles/instruction lpi_NUMA threshold (Section 4.2).

"Experimentally, we have found that if lpi_NUMA is larger than 0.1 cycle
per instruction, the NUMA losses for a program or important code region
are significant enough to warrant optimization."

This ablation measures, for each of the four benchmarks, (a) the
whole-program lpi_NUMA and (b) the actual speedup obtained by applying
the full co-location fix — then checks that the 0.1 threshold separates
the programs whose fix pays off (LULESH, AMG; UMT is measured on the
latency-free MRK path in its own bench) from the one whose fix does not
(Blackscholes).
"""

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.optim.policies import NumaTuning, PlacementSpec
from repro.sampling import IBS
from repro.workloads import AMG2006, Blackscholes, Lulesh
from repro.workloads.lulesh import NODAL_ARRAYS

from benchmarks.conftest import run_once

THREADS = 48


def _fix_for(name):
    bw = lambda names: NumaTuning(
        placement={
            v: PlacementSpec(PlacementPolicy.BLOCKWISE, tuple(range(8)))
            for v in names
        },
        parallel_init=set(names),
    )
    if name == "LULESH":
        return bw(list(NODAL_ARRAYS) + ["nodelist"])
    if name == "AMG2006":
        return bw(["RAP_diag_data", "RAP_diag_j", "u", "f"])
    return NumaTuning(regroup={"buffer"}, parallel_init={"buffer", "prices"})


WORKLOADS = {
    "LULESH": lambda t=None: Lulesh(t),
    "AMG2006": lambda t=None: AMG2006(t),
    "Blackscholes": lambda t=None: Blackscholes(t),
}


def _one(name):
    factory = WORKLOADS[name]
    mon = run_workload(
        presets.magny_cours, factory(), THREADS, IBS(period=4096)
    )
    lpi = mon.analysis.program_lpi()
    opt = run_workload(presets.magny_cours, factory(_fix_for(name)), THREADS)
    base = mon.result.unmonitored()
    gain = base.wall_seconds / opt.result.wall_seconds - 1
    return lpi, gain


def test_ablation_lpi_threshold(benchmark):
    data = run_once(benchmark, lambda: {n: _one(n) for n in WORKLOADS})
    rows = [
        [n, f"{lpi:.3f}", "yes" if lpi > 0.1 else "no", f"{gain:+.1%}"]
        for n, (lpi, gain) in data.items()
    ]
    table = fmt_table(
        ["Program", "lpi_NUMA", "above 0.1?", "speedup from full fix"],
        rows,
        title="Ablation — the 0.1 lpi threshold predicts optimization payoff",
    )
    print("\n" + table)
    record_experiment(
        "ablation_lpi_threshold",
        {n: {"lpi": l, "gain": g} for n, (l, g) in data.items()},
        table,
    )
    # The threshold separates payers from non-payers.
    for name, (lpi, gain) in data.items():
        if lpi > 0.1:
            assert gain > 0.05, f"{name}: above threshold but no payoff"
        else:
            assert abs(gain) < 0.02, f"{name}: below threshold yet paid off"
    # And the ordering matches the paper: AMG > LULESH > 0.1 > Blackscholes.
    assert data["AMG2006"][0] > data["LULESH"][0] > 0.1 > data["Blackscholes"][0]
