"""Experiment runner and reporting utilities for the benchmark suite."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import NumaAnalysis, merge_profiles
from repro.machine.machine import Machine
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine, RunResult
from repro.runtime.thread import BindingPolicy
from repro.sampling.base import SamplingMechanism

#: Where experiment outputs are recorded (JSON per experiment id), the
#: same ``results/`` the benches write their CSVs to.
RESULTS_DIR = Path("results")


@dataclass
class RunBundle:
    """Everything one monitored (or plain) run produced."""

    engine: ExecutionEngine
    result: RunResult
    profiler: NumaProfiler | None

    @property
    def analysis(self) -> NumaAnalysis:
        """Merged-profile analysis (monitored runs only)."""
        if self.profiler is None or self.profiler.archive is None:
            raise ValueError("run was not monitored")
        return NumaAnalysis(merge_profiles(self.profiler.archive))

    @property
    def thread_domains(self) -> dict[int, int]:
        """tid -> domain map for the run's binding."""
        return {t.tid: t.domain for t in self.engine.threads}


def run_workload(
    machine_factory,
    program,
    n_threads: int,
    mechanism: SamplingMechanism | None = None,
    *,
    binding: BindingPolicy = BindingPolicy.COMPACT,
    seed: int = 0,
    profiler_kwargs: dict | None = None,
) -> RunBundle:
    """Build a fresh machine, run ``program`` on it, return the bundle."""
    machine: Machine = machine_factory()
    profiler = (
        NumaProfiler(mechanism, **(profiler_kwargs or {}))
        if mechanism is not None
        else None
    )
    engine = ExecutionEngine(
        machine, program, n_threads, monitor=profiler, binding=binding,
        seed=seed,
    )
    result = engine.run()
    return RunBundle(engine=engine, result=result, profiler=profiler)


def fmt_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width text table (the benches' paper-style output)."""
    cols = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(c) for h, c in zip(headers, cols)))
    lines.append("  ".join("-" * c for c in cols))
    for row in rows:
        lines.append("  ".join(str(v).ljust(c) for v, c in zip(row, cols)))
    return "\n".join(lines)


def record_experiment(exp_id: str, data: dict, text: str = "") -> None:
    """Persist an experiment's measured values under ``results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{exp_id}.json", "w") as fh:
        json.dump(data, fh, indent=2, default=str)
    if text:
        with open(RESULTS_DIR / f"{exp_id}.txt", "w") as fh:
            fh.write(text + "\n")


def pct(x: float) -> str:
    """Format a ratio as a signed percentage."""
    return f"{x:+.1%}"
