"""Table 1: configurations of the six sampling mechanisms.

Runs each mechanism at its paper configuration (event, period, host
architecture, thread count) on a common workload and reports the
configuration together with the achieved sampling rate per thread.

**Time scaling.** The paper's runs execute for minutes (10^11+
instructions per thread); the simulated runs here are ~``SIM_SCALE``
times shorter. Sampling periods and the MRK hardware rate cap are scaled
by the same factor, so the *paper-equivalent* sampling rates (reported
below) are directly comparable to the paper's "100-1000 samples per
second per thread" statement.

Paper shape targets: every mechanism collects usable address samples at
its (scaled) Table 1 period; MRK's hardware rate cap keeps it below 100
paper-equivalent samples/second/thread (footnote 2) while the others
land above.
"""

import pytest

from repro.bench.harness import fmt_table, record_experiment, run_workload
from repro.machine import presets
from repro.sampling import create_mechanism
from repro.sampling.registry import TABLE1
from repro.workloads import PartitionedSweep

from benchmarks.conftest import run_once

#: How much shorter the simulated executions are than the paper's runs.
SIM_SCALE = 1024


def _scaled_mechanism(row):
    period = max(row.period // SIM_SCALE, 1)
    if row.mechanism == "MRK":
        return create_mechanism(
            "MRK", period, max_rate=100.0 * SIM_SCALE
        )
    return create_mechanism(row.mechanism, period)


def _run_row(row):
    mech = _scaled_mechanism(row)
    bundle = run_workload(
        presets.PRESETS[row.preset],
        PartitionedSweep(n_elems=1_200_000, steps=4),
        row.threads,
        mech,
    )
    samples = mech.total_samples
    # Paper-equivalent rate: samples per (scaled) second of *program*
    # execution per thread — the denominator the paper's "100-1000
    # samples per second per thread" statement refers to. The unmonitored
    # wall time is used so that densified-period monitoring overhead
    # does not distort the rate.
    wall = bundle.result.unmonitored().wall_seconds
    rate = samples / max(wall * SIM_SCALE, 1e-12) / row.threads
    return bundle, samples, rate


@pytest.mark.parametrize("row", TABLE1, ids=[r.mechanism for r in TABLE1])
def test_table1_row(benchmark, row):
    bundle, samples, rate = run_once(benchmark, lambda: _run_row(row))
    assert samples > 0, f"{row.mechanism} collected no samples at Table 1 config"
    if row.mechanism == "MRK":
        # Footnote 2: MRK yields < 100 samples/second/thread.
        assert rate < 100.0
    record_experiment(
        f"table1_{row.mechanism.replace('-', '_')}",
        {
            "mechanism": row.mechanism,
            "processor": row.processor,
            "threads": row.threads,
            "event": row.event,
            "paper_period": row.period,
            "sim_scale": SIM_SCALE,
            "samples": samples,
            "paper_equivalent_rate_per_thread": rate,
        },
    )


def test_table1_summary(benchmark):
    def build():
        rows = []
        for row in TABLE1:
            _, samples, rate = _run_row(row)
            rows.append(
                [row.mechanism, row.processor, row.threads, row.event,
                 row.period, samples, f"{rate:.0f}/s"]
            )
        return rows

    rows = run_once(benchmark, build)
    table = fmt_table(
        ["Mechanism", "Processor", "Threads", "Event", "Period",
         "Samples", "Rate/thread (paper-equiv)"],
        rows,
        title=(
            "Table 1 — sampling mechanism configurations "
            f"(simulated, periods scaled 1/{SIM_SCALE})"
        ),
    )
    print("\n" + table)
    record_experiment("table1_summary", {"rows": rows}, table)
    by_name = {r[0]: r for r in rows}
    mrk_rate = float(by_name["MRK"][6].rstrip("/s"))
    ibs_rate = float(by_name["IBS"][6].rstrip("/s"))
    # MRK is rate-capped far below the instruction-sampling mechanisms
    # (paper footnote 2: under 100 samples/s/thread vs 100-1000 for others).
    assert mrk_rate < 100.0
    assert ibs_rate > 10 * mrk_rate
