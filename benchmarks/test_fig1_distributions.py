"""Figure 1: three data distributions on a NUMA architecture.

The paper's Figure 1 contrasts (a) everything allocated in NUMA domain 1
— locality *and* bandwidth problems; (b) data interleaved across domains
— balanced bandwidth, limited locality; (c) data co-located with
computation — low latency and balanced bandwidth.

This bench runs the same blocked-parallel workload under the three
distributions and reports remote-access fraction, per-domain request
imbalance, average memory latency, and wall-clock time.

Shape targets: centralized is the slowest with maximal imbalance;
interleaved balances requests but stays mostly remote; co-located is the
fastest with a near-zero remote fraction.
"""

import pytest

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.optim.policies import NumaTuning, PlacementSpec
from repro.workloads import PartitionedSweep

from benchmarks.conftest import run_once

N_ELEMS = 800_000
STEPS = 4
THREADS = 16


def machine():
    return presets.generic(n_domains=4, cores_per_domain=4)


DISTRIBUTIONS = {
    # (a) all data in one domain: serial init under first-touch.
    "centralized": NumaTuning(),
    # (b) page-interleaved across all domains.
    "interleaved": NumaTuning(
        placement={"data": PlacementSpec(PlacementPolicy.INTERLEAVE, (0, 1, 2, 3))}
    ),
    # (c) co-located: parallel first-touch init by the owning threads.
    "co-located": NumaTuning(parallel_init={"data"}),
}


def _run(name):
    tuning = DISTRIBUTIONS[name]
    bundle = run_workload(
        machine, PartitionedSweep(tuning, n_elems=N_ELEMS, steps=STEPS), THREADS
    )
    res = bundle.result
    req = res.domain_dram_requests
    imbalance = req.max() / max(req.mean(), 1e-9)
    return {
        "name": name,
        "wall_seconds": res.wall_seconds,
        "remote_fraction": res.remote_dram_fraction,
        "imbalance": imbalance,
    }


@pytest.mark.parametrize("name", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
def test_fig1_distribution(benchmark, name):
    stats = run_once(benchmark, lambda: _run(name))
    record_experiment(f"fig1_{stats['name'].replace('-', '_')}", stats)


def test_fig1_comparison(benchmark):
    def build():
        return {name: _run(name) for name in DISTRIBUTIONS}

    stats = run_once(benchmark, build)
    rows = [
        [s["name"], f"{s['wall_seconds'] * 1e3:.2f} ms",
         f"{s['remote_fraction']:.0%}", f"{s['imbalance']:.2f}x"]
        for s in stats.values()
    ]
    table = fmt_table(
        ["Distribution", "Wall time", "Remote fraction", "Request imbalance"],
        rows,
        title="Figure 1 — data distributions (simulated)",
    )
    print("\n" + table)
    record_experiment("fig1_comparison", stats, table)

    cent, inter, coloc = (
        stats["centralized"], stats["interleaved"], stats["co-located"]
    )
    # (a) centralized: locality AND bandwidth problems.
    assert cent["imbalance"] > 3.0
    assert cent["remote_fraction"] > 0.5
    assert cent["wall_seconds"] == max(s["wall_seconds"] for s in stats.values())
    # (b) interleaved: balanced requests, still mostly remote.
    assert inter["imbalance"] < 1.5
    assert inter["remote_fraction"] > 0.5
    assert inter["wall_seconds"] < cent["wall_seconds"]
    # (c) co-located: local, balanced, fastest.
    assert coloc["remote_fraction"] < 0.1
    assert coloc["imbalance"] < 1.5
    assert coloc["wall_seconds"] == min(s["wall_seconds"] for s in stats.values())
