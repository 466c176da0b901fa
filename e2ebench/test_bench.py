"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import run  # e2ebench/run.py: pytest puts this directory on sys.path

#: Small enough for a quick run; the workloads' size floors keep it real.
TINY = 0.05
#: The smallest round scale at which lulesh's advisor still says optimize,
#: so the headline check covers the optimized re-run too.
HEADLINE_SCALE = 0.5

#: The report lines ``python -m repro`` and the pipeline must agree on:
#: simulated baseline and overhead, lpi or remote fraction, the advisor.
HEADLINES = ("baseline ", "lpi_NUMA", "advisor:", "  -> ", "optimized run:")

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _headlines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith(HEADLINES)]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_pipeline_headlines_match_cli(workload, tmp_path):
    argv = [*run.WORKLOADS[workload], "--scale", str(HEADLINE_SCALE)]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))

    def stdout(*cmd: str) -> str:
        return subprocess.run(
            [sys.executable, *cmd], cwd=run.ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout

    cli = stdout("-m", "repro", *argv, "--no-save")
    pipe = stdout(
        str(run.BENCH / "pipeline.py"), *argv,
        "--seed", "0", "--result", str(tmp_path / "result.json"),
    )
    assert _headlines(cli), cli
    assert _headlines(pipe) == _headlines(cli)


def test_benchmark_json_names_and_units():
    spec = run.benchmark_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    # The gated workloads are a subset of the full run's, in its order.
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in run.WORKLOADS if w in gated]
    for m in spec["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def _doc(metric: str, runs: list[float]) -> dict:
    return {"workloads": {"w": {"e2e": {metric: run.summarize(runs)}}}}


@pytest.mark.parametrize(
    ("runs_a", "runs_b", "status"),
    [
        ([1.00, 1.01, 1.02, 1.01, 1.00], [1.00, 1.01, 1.02, 1.01, 1.00], "ok"),
        ([1.00, 1.01, 1.02, 1.01, 1.00], [1.05, 1.06, 1.07, 1.06, 1.05], "ok"),
        ([1.00, 1.01, 1.02, 1.01, 1.00], [1.20, 1.21, 1.22, 1.21, 1.20],
         "REGRESSION"),
        # Quartile spread wider than the 10% bound: the delta is noise.
        ([1.00, 1.30, 0.80, 1.20, 0.90], [1.20, 1.50, 1.00, 1.40, 1.10],
         "unresolved"),
        # Every run of B beats every run of A, however wide the spread.
        ([1.00, 1.30, 0.80, 1.20, 0.90], [0.50, 0.70, 0.40, 0.60, 0.45],
         "better"),
    ],
)
def test_compare_statuses(runs_a, runs_b, status):
    rows, regressed = run.compare(
        _doc("e2e_wall_s", runs_a), _doc("e2e_wall_s", runs_b),
        {"e2e_wall_s": 0.1},
    )
    assert [r[-1] for r in rows] == [status]
    assert regressed == (status == "REGRESSION")


@pytest.mark.parametrize(
    ("a", "b", "status"), [(0.0, 0.0, "ok"), (0.0, 0.05, "REGRESSION")]
)
def test_compare_fail_rate_may_not_rise(a, b, status):
    rows, _ = run.compare(
        _doc("fail_rate", [a]), _doc("fail_rate", [b]),
        {"fail_rate": run.FAIL_RATE_BOUND},
    )
    assert rows[0][-1] == status


def test_compare_exit_code(tmp_path):
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    fast.write_text(json.dumps(_doc("e2e_wall_s", [1.0, 1.01, 1.0])))
    slow.write_text(json.dumps(_doc("e2e_wall_s", [2.0, 2.01, 2.0])))
    assert run.main(["--compare", str(fast), str(slow)]) == 1
    assert run.main(["--compare", str(slow), str(fast)]) == 0


def test_digest_check_tolerances():
    expected = {"chunks": 10, "monitored_wall_cycles": 100.0,
                "program_lpi": 1.0}
    eps_run = {
        "digest": {"chunks": 10, "monitored_wall_cycles": 104.0,
                   "program_lpi": 1.2},
        "eps_fields": ["monitored_wall_cycles", "program_lpi"],
        "epsilon": 0.05,
    }
    assert run.digest_mismatch(eps_run, expected) == []
    eps_run["digest"].update(monitored_wall_cycles=106.0, program_lpi=1.4)
    assert run.digest_mismatch(eps_run, expected) == [
        "monitored_wall_cycles: 106.0 != 100.0", "program_lpi: 1.4 != 1.0",
    ]
    exact_run = {"digest": dict(expected, chunks=11, program_lpi=1.01),
                 "eps_fields": [], "epsilon": 0.0}
    assert run.digest_mismatch(exact_run, expected) == [
        "chunks: 11 != 10", "program_lpi: 1.01 != 1.0",
    ]


@pytest.mark.parametrize("workload", ["lulesh-optimize", "amg-sharded"])
def test_traced_self_times_fit_in_traced_wall(workload):
    result = run.run_pipeline(workload, 0, trace=True, scale=TINY)
    assert result["ok"], result.get("error")
    layers = result["layers"]
    # This process's named self-times, import, start-up and exit add up
    # to at most the spawn-to-exit wall (worker tracks are excluded).
    assert 0.0 < layers["obs.self_coverage_pct"] <= 100.0
    produced = set(layers) | {"obs.trace_overhead_pct"}
    for metric in run.benchmark_spec()["per_layer"]:
        assert metric["name"] in produced
