"""Table 2: runtime overhead of HPCToolkit-NUMA per sampling mechanism.

For each Table 1 row, runs LULESH, AMG2006, and Blackscholes on that
mechanism's host architecture (inputs adjusted to the machine's thread
count, as the paper does) with and without monitoring, and reports the
monitoring overhead percentage. Mechanisms use their full paper periods
(overhead percentages are run-length invariant).

Paper shape targets (Table 2):

* Soft-IBS has by far the highest overhead (30-200%): per-access
  instrumentation;
* PEBS is second (25-52%): online binary analysis corrects the off-by-1
  skid at a high per-sample cost;
* IBS is third (6-37%): high sampling rate of all instruction types;
* MRK, DEAR, and PEBS-LL stay low (3-12%);
* Blackscholes (compute-bound) shows the lowest Soft-IBS overhead of the
  three programs;
* the profiler's aggregate data-structure footprint stays under 40 MB.
"""

import pytest

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.sampling import create_mechanism
from repro.sampling.registry import TABLE1
from repro.workloads import AMG2006, Blackscholes, Lulesh

from benchmarks.conftest import run_once

#: Per-architecture workload inputs ("we adjust the benchmark inputs
#: according to the number of cores in the system").
def _programs(threads):
    if threads >= 48:
        return {
            "LULESH": lambda: Lulesh(n_nodes=600_000, steps=6),
            "AMG2006": lambda: AMG2006(n_rows=200_000, solve_iters=12),
            "Blacksholes": lambda: Blackscholes(n_options=20_000, steps=50),
        }
    return {
        "LULESH": lambda: Lulesh(n_nodes=250_000, steps=5),
        "AMG2006": lambda: AMG2006(n_rows=100_000, solve_iters=12),
        "Blacksholes": lambda: Blackscholes(n_options=20_000, steps=50),
    }


def _overhead_row(row):
    """One Table 2 row: overhead % on all three workloads."""
    out = {}
    footprints = {}
    for wl_name, factory in _programs(row.threads).items():
        mech = create_mechanism(row.mechanism)  # paper period
        bundle = run_workload(
            presets.PRESETS[row.preset], factory(), row.threads, mech
        )
        result = bundle.result
        out[wl_name] = (
            result.wall_seconds / result.unmonitored().wall_seconds - 1.0
        )
        footprints[wl_name] = bundle.profiler.archive.footprint_bytes()
    return out, footprints


@pytest.mark.parametrize("row", TABLE1, ids=[r.mechanism for r in TABLE1])
def test_table2_row(benchmark, row):
    overheads, footprints = run_once(benchmark, lambda: _overhead_row(row))
    for wl, ovh in overheads.items():
        assert ovh >= -0.001, f"{row.mechanism} sped the program up?"
    # Paper: aggregate runtime footprint < 40 MB for any mechanism.
    assert max(footprints.values()) < 40 * 1024 * 1024
    record_experiment(
        f"table2_{row.mechanism.replace('-', '_')}",
        {
            "mechanism": row.mechanism,
            "processor": row.processor,
            "overheads": {k: f"{v:+.1%}" for k, v in overheads.items()},
            "footprint_bytes": footprints,
        },
    )
    _overheads_by_mech[row.mechanism] = overheads


_overheads_by_mech: dict = {}


def test_table2_summary(benchmark):
    def build():
        # Reuse rows measured by test_table2_row when available.
        for row in TABLE1:
            if row.mechanism not in _overheads_by_mech:
                _overheads_by_mech[row.mechanism], _ = _overhead_row(row)
        return dict(_overheads_by_mech)

    data = run_once(benchmark, build)
    rows = [
        [m, f"{v['LULESH']:+.0%}", f"{v['AMG2006']:+.0%}",
         f"{v['Blacksholes']:+.0%}"]
        for m, v in data.items()
    ]
    table = fmt_table(
        ["Method", "LULESH", "AMG2006", "Blacksholes"],
        rows,
        title="Table 2 — monitoring overhead (simulated)",
    )
    print("\n" + table)
    record_experiment(
        "table2_summary",
        {m: {k: f"{x:+.1%}" for k, x in v.items()} for m, v in data.items()},
        table,
    )

    # Shape assertions: the paper's overhead ordering on LULESH.
    lul = {m: v["LULESH"] for m, v in data.items()}
    assert lul["Soft-IBS"] == max(lul.values())
    assert lul["PEBS"] > lul["IBS"]
    assert lul["IBS"] > lul["MRK"]
    assert lul["IBS"] > lul["PEBS-LL"]
    # Soft-IBS hurts the access-heavy codes far more than Blackscholes.
    soft = data["Soft-IBS"]
    assert soft["LULESH"] > 1.5 * soft["Blacksholes"]
    assert soft["AMG2006"] > 1.5 * soft["Blacksholes"]
