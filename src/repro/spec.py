"""One run's specification: the workload table, its defaults, and the run.

``python -m repro`` and ``python -m repro autotune`` both drive the
paper's profile → analyze → advise pipeline (Section 8) from here: a
frozen :class:`RunSpec` resolves and validates its defaults when it is
built (a bad value raises :class:`~repro.errors.UsageError` before the
run prints anything), :func:`profile` is the one monitored run, serial
or sharded, and :func:`profile_manifest` records it. Importing this
module loads no numpy and no run stack; the functions import what they
build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import UsageError


#: name -> (class in :mod:`repro.workloads`, {size keyword: (Table-2
#: size, floor that keeps small ``--scale`` runs meaningful)}, default
#: preset, threads and mechanism). Classes are looked up when a program
#: is built, so only the workload that runs is imported.
WORKLOADS = {
    "lulesh": ("Lulesh", {"n_nodes": (600_000, 8_000)}, "magny_cours", 48, "IBS"),
    "amg": ("AMG2006", {"n_rows": (200_000, 4_000)}, "magny_cours", 48, "IBS"),
    "blackscholes": (
        "Blackscholes", {"n_options": (20_000, 500)}, "magny_cours", 48, "IBS"
    ),
    "umt": (
        "UMT2013", {"plane_elems": (8_192, 512), "n_angles": (96, 8)},
        "power7", 32, "MRK",
    ),
    "sweep": ("PartitionedSweep", {"n_elems": (400_000, 8_000)}, "generic", 16, "IBS"),
    "hotspot": ("CentralHotspot", {"n_elems": (250_000, 8_000)}, "generic", 16, "IBS"),
}

#: Analysis-density sampling periods per mechanism (simulated runs are
#: far shorter than the paper's; see EXPERIMENTS.md).
ANALYSIS_PERIODS = {
    "IBS": 4096, "PEBS": 4096, "DEAR": 64, "PEBS-LL": 64,
    "Soft-IBS": 256, "MRK": 1,
}

#: MRK's per-second sample cap for analysis runs (period 1 would
#: otherwise mark every access).
MRK_MAX_RATE = 2e6

#: Largest accepted ``--scale``: 100x the paper sizes is the documented
#: ceiling for full-size studies; one more order of magnitude of slack
#: still allocates, anything beyond is a typo (1e18 node counts).
MAX_SCALE = 1000.0

BINDINGS = ("compact", "scatter")


@dataclass(frozen=True)
class RunSpec:
    """Everything that decides what one run simulates.

    ``None`` for ``machine``, ``threads``, ``mechanism`` or ``period``
    takes the workload's default; after construction every field holds
    a concrete, validated value.
    """

    workload: str
    scale: float = 1.0
    machine: str | None = None
    threads: int | None = None
    mechanism: str | None = None
    period: int | None = None
    binding: str = "compact"
    workers: int = 1
    seed: int = 0
    extrapolate: bool = False

    def __post_init__(self) -> None:
        _check_choice("workload", self.workload, WORKLOADS)
        _, _, machine, threads, mechanism = WORKLOADS[self.workload]
        mechanism = self.mechanism or mechanism
        _check_choice("mechanism", mechanism, ANALYSIS_PERIODS)
        defaults = {
            "machine": machine, "threads": threads, "mechanism": mechanism,
            "period": ANALYSIS_PERIODS[mechanism],
        }
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise UsageError(
                f"--scale must be a positive number, got {self.scale!r}"
            )
        if self.scale > MAX_SCALE:
            raise UsageError(
                f"--scale {self.scale:g} is out of range (max "
                f"{MAX_SCALE:g}: workload sizes are multiples of the "
                f"paper's Table 2 sizes)"
            )
        for name in ("threads", "period", "workers"):
            if getattr(self, name) < 1:
                raise UsageError(
                    f"--{name} must be at least 1, got {getattr(self, name)}"
                )
        _check_choice("binding", self.binding, BINDINGS)
        # Last: the preset table imports the machine model (and numpy).
        from repro.machine import presets

        _check_choice("machine preset", self.machine, presets.PRESETS)

    @classmethod
    def from_args(cls, args, **extra) -> RunSpec:
        """The spec of :func:`add_run_arguments`' options in ``args``;
        ``extra`` sets the fields a command adds options for itself."""
        return cls(
            workload=args.workload, scale=args.scale, machine=args.machine,
            threads=args.threads, mechanism=args.mechanism,
            period=args.period, binding=args.binding, workers=args.workers,
            **extra,
        )

    def machine_factory(self):
        """The preset's factory: every engine builds its own machine."""
        from repro.machine import presets

        return presets.PRESETS[self.machine]

    def program(self, tuning=None):
        """The workload at Table-2 sizes times ``scale``; ``tuning`` (a
        :class:`~repro.optim.policies.NumaTuning`) applies the advisor's
        fixes."""
        from repro import workloads

        cls, sizes = WORKLOADS[self.workload][:2]
        return getattr(workloads, cls)(tuning, **{
            k: max(int(size * self.scale), floor)
            for k, (size, floor) in sizes.items()
        })

    def sampling_mechanism(self):
        """A fresh sampling mechanism at this spec's period."""
        from repro.sampling import create_mechanism

        kwargs = {"max_rate": MRK_MAX_RATE} if self.mechanism == "MRK" else {}
        return create_mechanism(self.mechanism, self.period, **kwargs)

    @property
    def memo_bytes(self) -> int:
        """Memo budget: the memo stores per-step classification arrays
        whose size tracks the workload footprint, so the budget grows
        with ``scale`` (an LRU that thrashes also starves phase
        detection)."""
        from repro.runtime.memo import DEFAULT_MEMO_BYTES

        return int(DEFAULT_MEMO_BYTES * max(1.0, self.scale))

    def engine_kwargs(self) -> dict:
        """Keywords every engine of this run takes (extrapolation is left
        to the caller: re-runs of a tuned program simulate exactly)."""
        from repro.runtime.thread import BindingPolicy

        return {
            "binding": BindingPolicy[self.binding.upper()],
            "seed": self.seed, "memo_bytes": self.memo_bytes,
        }


def _check_choice(what: str, value, choices) -> None:
    if value not in choices:
        raise UsageError(
            f"unknown {what} {value!r} "
            f"(available: {', '.join(sorted(choices))})"
        )


def add_run_arguments(parser) -> None:
    """Add the options :meth:`RunSpec.from_args` reads to ``parser``."""
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--machine", default=None,
                        help="machine preset (default: workload's paper host)")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--mechanism", default=None,
                        choices=list(ANALYSIS_PERIODS))
    parser.add_argument("--binding", default="compact", choices=BINDINGS)
    parser.add_argument("--workers", type=int, default=1,
                        help="shard monitored runs across N worker "
                        "processes (bit-identical results; falls back to "
                        "in-process when N=1 or the platform cannot fork)")
    parser.add_argument("--period", type=int, default=None,
                        help="sampling period override")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0 = "
                        "paper sizes; small floors keep runs meaningful)")


class Profile(NamedTuple):
    """What one monitored run leaves behind."""

    result: object
    archive: object
    threads: list
    applied_actions: list
    phase_report: dict | None
    #: Host seconds of the run itself (engine construction excluded).
    host_wall_s: float


def profile(spec: RunSpec, *, schedule=None, heatmap: bool = False) -> Profile:
    """Run ``spec``'s workload once under the profiler.

    ``spec.workers > 1`` shards the run across worker processes
    (bit-identical results); ``schedule`` is a live-migration
    :class:`~repro.optim.schedule.PolicySchedule`; ``heatmap`` collects
    the per-page heatmap the autotune loop exports.
    """
    from repro.profiler.profiler import NumaProfiler

    def monitor_factory():
        return NumaProfiler(spec.sampling_mechanism(), heatmap=heatmap)

    kwargs = {
        **spec.engine_kwargs(), "schedule": schedule,
        "extrapolate": spec.extrapolate,
    }
    if spec.workers > 1:
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(
            spec.machine_factory(), spec.program, spec.threads,
            n_workers=spec.workers, monitor_factory=monitor_factory,
            **kwargs,
        )
    else:
        from repro.runtime.engine import ExecutionEngine

        monitor = monitor_factory()
        engine = ExecutionEngine(
            spec.machine_factory()(), spec.program(), spec.threads,
            monitor=monitor, **kwargs,
        )
    host_t0 = time.perf_counter()
    result = engine.run()
    host_wall_s = time.perf_counter() - host_t0
    archive = engine.archive if spec.workers > 1 else monitor.archive
    return Profile(
        result, archive, engine.threads, engine.applied_actions,
        engine.phase_report, host_wall_s,
    )


def manifest_fields(spec: RunSpec, *, config=None, **flags) -> dict:
    """``workload``, ``machine``, ``config`` and ``flags`` of a run
    manifest (:func:`repro.registry.build_manifest`) for ``spec``;
    ``config`` and ``flags`` add command-specific entries."""
    return {
        "workload": spec.workload,
        "machine": spec.machine,
        "config": {
            "mechanism": spec.mechanism, "period": spec.period,
            "scale": spec.scale, "threads": spec.threads,
            "workers": spec.workers, "binding": spec.binding,
            "seed": spec.seed, **(config or {}),
        },
        "flags": {"memoize": True, "extrapolate": spec.extrapolate, **flags},
    }


def profile_manifest(
    spec: RunSpec, run: Profile, analysis, *, config=None, **flags
) -> dict:
    """The registry manifest of one :func:`profile` run (unrecorded)."""
    from repro.registry import build_manifest

    return build_manifest(
        kind="profile",
        **manifest_fields(spec, config=config, **flags),
        host_wall_s=run.host_wall_s,
        headline={
            "lpi_numa": analysis.program_lpi(),
            "remote_fraction": analysis.program_remote_fraction(),
            "chunks": run.result.total_chunks,
            "accesses": run.result.total_accesses,
        },
        simulated={
            "wall_cycles": run.result.wall_cycles,
            "wall_seconds": run.result.wall_seconds,
        },
    )
