"""One simulated run gives both sides of the overhead ratio.

A monitor charges cycles (protection traps, sampling and attribution
costs) but changes nothing the engine simulates: instructions, accesses,
chunks, DRAM counts and the request and traffic matrices are the same
with or without it. The engine therefore accumulates a second cycle
column without that overhead, and :meth:`RunResult.unmonitored` must
equal a separate unmonitored run of the same program, field for field
(``==`` / ``array_equal``, no tolerance): for every Table 1 mechanism,
with extrapolation on (including ε-mode runs, whose monitored cycles
are folded within ε) and off, serially and across two workers.
"""

from dataclasses import fields
from functools import cache

import numpy as np
import pytest

from repro.parallel import sharding_supported
from repro.runtime import ExecutionEngine
from repro.runtime.driver import RunResult
from repro.sampling.registry import TABLE1
from repro.spec import RunSpec, profile

SCALE = 0.05
WORKLOADS = ("lulesh", "amg", "blackscholes", "umt")
MECHANISMS = [row.mechanism for row in TABLE1]


@cache
def _reference(workload: str, extrapolate: bool) -> RunResult:
    """The separate unmonitored run, as the CLI once made it."""
    spec = RunSpec(workload, scale=SCALE, extrapolate=extrapolate)
    return ExecutionEngine(
        spec.machine_factory()(), spec.program(), spec.threads,
        extrapolate=extrapolate, **spec.engine_kwargs(),
    ).run()


def _assert_same_result(a: RunResult, b: RunResult) -> None:
    for f in fields(RunResult):
        if f.name == "free_cycles":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "sharded"])
@pytest.mark.parametrize(
    "extrapolate", [False, True], ids=["simulated", "extrapolated"]
)
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_unmonitored_equals_a_separate_run(
    workload, mechanism, extrapolate, workers
):
    if workers > 1 and not sharding_supported():
        pytest.skip("platform cannot fork worker pools")
    spec = RunSpec(
        workload, scale=SCALE, mechanism=mechanism, workers=workers,
        extrapolate=extrapolate,
    )
    run = profile(spec)
    ref = _reference(workload, extrapolate)
    assert run.result.monitor_overhead_cycles > 0
    assert run.result.wall_cycles > ref.wall_cycles
    _assert_same_result(run.result.unmonitored(), ref)


def test_an_unmonitored_run_is_its_own_baseline():
    ref = _reference("lulesh", False)
    _assert_same_result(ref.unmonitored(), ref)
