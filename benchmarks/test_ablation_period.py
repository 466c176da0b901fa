"""Ablation: sampling period vs overhead and metric stability.

The sampling period trades measurement overhead against statistical
quality. The paper chooses periods giving 100-1000 samples/second/thread;
this ablation sweeps the IBS period on LULESH and reports monitoring
overhead, sample count, and the stability of the two key derived
metrics (program lpi_NUMA and the hot variable's M_r/M_l ratio) relative
to a dense-sampling reference.
"""

import pytest

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.sampling import IBS
from repro.workloads import Lulesh

from benchmarks.conftest import run_once

THREADS = 48
PERIODS = [1024, 4096, 16384, 65536]


def _sweep():
    factory = lambda: Lulesh(n_nodes=600_000, steps=6)
    out = {}
    for period in PERIODS:
        mech = IBS(period=period)
        bundle = run_workload(presets.magny_cours, factory(), THREADS, mech)
        an = bundle.analysis
        out[period] = {
            "overhead": bundle.result.wall_seconds
            / bundle.result.unmonitored().wall_seconds - 1,
            "samples": mech.total_samples,
            "lpi": an.program_lpi(),
            "z_ratio": an.variable_summary("z").mismatch_ratio
            if "z" in an.merged.vars else float("nan"),
        }
    return out


def test_ablation_period(benchmark):
    data = run_once(benchmark, _sweep)
    rows = [
        [p, f"{d['overhead']:+.1%}", d["samples"], f"{d['lpi']:.3f}",
         f"{d['z_ratio']:.1f}"]
        for p, d in data.items()
    ]
    table = fmt_table(
        ["IBS period", "Overhead", "Samples", "lpi_NUMA", "z M_r/M_l"],
        rows,
        title="Ablation — IBS sampling period sweep on LULESH",
    )
    print("\n" + table)
    record_experiment("ablation_period", {str(k): v for k, v in data.items()}, table)

    dense = data[PERIODS[0]]
    # Overhead decreases monotonically with the period.
    overheads = [data[p]["overhead"] for p in PERIODS]
    assert all(a >= b - 0.01 for a, b in zip(overheads, overheads[1:]))
    # Sample counts scale inversely with the period.
    assert data[1024]["samples"] > 10 * data[65536]["samples"]
    # The lpi estimate stays stable across two orders of magnitude of
    # sampling rate (eq. 2 is unbiased under uniform sampling).
    for p in PERIODS[:-1]:  # the sparsest period is allowed to wobble
        assert data[p]["lpi"] == pytest.approx(dense["lpi"], rel=0.25)
    # The M_r/M_l diagnosis survives even sparse sampling.
    for p in PERIODS:
        assert data[p]["z_ratio"] > 3.0
