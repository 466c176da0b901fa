"""Section 8.1 (POWER7 part): LULESH with MRK on the 128-thread POWER7.

Paper targets: 66% of L3 cache misses access remote memory; the nodal
heap arrays and the stack variable nodelist together account for nearly
all remote accesses (paper: 65% + 31%); block-wise page distribution
improves execution time (+7.5%), while interleaved allocation — the fix
suggested by prior work — *degrades* it (−16.4%).

MRK provides no latency, so the analysis runs entirely on M_l / M_r —
the paper's demonstration that the derived-metric workflow works without
latency support. The MRK rate cap is raised in proportion to the
shortened simulated runtime (see Table 1 bench).
"""

import pytest

from repro.analysis import advise, merge_profiles
from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.optim import apply_advice, interleave_all
from repro.optim.policies import PlacementSpec
from repro.runtime.heap import VariableKind
from repro.sampling import MRK
from repro.workloads import Lulesh
from repro.workloads.lulesh import NODAL_ARRAYS

from benchmarks.conftest import run_once

THREADS = 128
ALL_VARS = list(NODAL_ARRAYS) + ["nodelist"]
#: The POWER7 baseline first-touches the velocity arrays inside an OpenMP
#: loop (partial co-location) — the configuration under which interleaving
#: everything destroys locality it cannot give back.
PARTIAL = ("xd", "yd", "zd")


def _study():
    mk = lambda tuning=None: Lulesh(tuning, partial_init_vars=PARTIAL)
    monitored = run_workload(
        presets.power7, mk(), THREADS, MRK(max_rate=2e6)
    )
    baseline = monitored.result.unmonitored()
    analysis = monitored.analysis

    advice = advise(analysis, thread_domains=monitored.thread_domains)
    tuning = apply_advice(advice, 4)
    # The paper distributes all seven variables block-wise.
    for v in ALL_VARS:
        tuning.placement.setdefault(
            v, PlacementSpec(PlacementPolicy.BLOCKWISE, tuple(range(4)))
        )
        tuning.parallel_init.add(v)
    optimized = run_workload(
        presets.power7, Lulesh(tuning, partial_init_vars=()), THREADS
    )
    interleaved = run_workload(
        presets.power7,
        Lulesh(interleave_all(ALL_VARS, 4), partial_init_vars=()),
        THREADS,
    )
    return baseline, monitored, analysis, optimized, interleaved


def test_lulesh_power7(benchmark):
    baseline, monitored, analysis, optimized, interleaved = run_once(
        benchmark, _study
    )
    remote = analysis.program_remote_fraction()
    arrays_share = sum(
        analysis.variable_summary(v).remote_access_share for v in NODAL_ARRAYS
    )
    nodelist_share = analysis.variable_summary("nodelist").remote_access_share
    bw = baseline.wall_seconds / optimized.result.wall_seconds - 1
    il = baseline.wall_seconds / interleaved.result.wall_seconds - 1

    rows = [
        ["remote fraction of L3 misses", "66%", f"{remote:.0%}"],
        ["nodal arrays' share of remote", "65%", f"{arrays_share:.0%}"],
        ["nodelist share of remote", "31%", f"{nodelist_share:.0%}"],
        ["block-wise speedup", "+7.5%", f"{bw:+.1%}"],
        ["interleave speedup", "-16.4%", f"{il:+.1%}"],
    ]
    table = fmt_table(
        ["Quantity", "Paper", "Measured"],
        rows,
        title="Section 8.1 — LULESH on POWER7 / MRK",
    )
    print("\n" + table)
    record_experiment(
        "lulesh_power7",
        {
            "remote_fraction": remote,
            "arrays_share": arrays_share,
            "nodelist_share": nodelist_share,
            "blockwise_gain": bw,
            "interleave_gain": il,
        },
        table,
    )

    # --- shape assertions -------------------------------------------- #
    # MRK path: no latency metrics, M_l/M_r analysis only.
    assert analysis.program_lpi() is None
    # Majority of L3 misses are remote (paper: 66%).
    assert 0.5 < remote < 0.95
    # Arrays + nodelist account for all remote accesses.
    assert arrays_share + nodelist_share == pytest.approx(1.0, abs=0.05)
    # Block-wise helps; interleaving REGRESSES (the headline result).
    assert bw > 0.03
    assert il < -0.03
