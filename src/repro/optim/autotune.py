"""Closed-loop autotuning: profile → advise → live-migrate → re-verify.

The paper's case studies (Section 8) apply the three views' findings *by
hand*: read the profile, change the allocation code, re-run, re-measure.
This module closes that loop mechanically, in the style of online
migration profilers:

1. **profile window** — run the workload untouched under the profiler;
   this baseline run doubles as the profiling window *and* the diff
   baseline, so the loop needs exactly two runs;
2. **advise** — feed the merged profile through
   :func:`repro.analysis.advisor.advise` and convert each
   recommendation into a live :class:`~repro.optim.policies.MigrationStep`
   (:func:`repro.optim.transforms.plan_migrations`);
3. **live-migrate** — schedule the steps at a region-iteration boundary
   (:class:`~repro.optim.policies.PolicySchedule`) and re-run: the
   engine applies them mid-run via the atomic
   ``PageTable.migrate_segment``, the page-table epoch bump invalidates
   memoized classification, and the run continues on the new placement;
4. **re-verify** — diff the two merged profiles
   (:func:`repro.analysis.diff.diff_profiles`) and report the realized
   movement in remote fraction and lpi_NUMA, plus per-page×thread
   access/latency heatmap CSVs
   (:func:`repro.analysis.io.export_heatmap_csvs`).

Determinism: the schedule is pure data fixed before the second run
starts, and the engine applies it at the top of the scheduled region
iteration before any thread enters the region — identically in the
serial loop and in every shard of a sharded run. Given the same seed,
the :class:`AutotuneReport` is bit-identical at any worker count.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.analysis.advisor import advise
from repro.analysis.analyzer import NumaAnalysis
from repro.analysis.diff import ProfileDiff, diff_profiles
from repro.analysis.io import export_heatmap_csvs
from repro.analysis.merge import merge_profiles
from repro.optim.policies import MigrationStep, PolicySchedule
from repro.optim.transforms import plan_migrations
from repro.profiler.profiler import NumaProfiler
from repro.runtime.engine import ExecutionEngine
from repro.runtime.heap import HeapAllocator
from repro.runtime.program import ProgramContext, RegionKind
from repro.runtime.thread import BindingPolicy, bind_threads
from repro.sampling import create_mechanism


@dataclass
class AutotuneConfig:
    """Everything one closed-loop autotune needs.

    Factories, not instances: each of the two runs (and every worker in
    a sharded run) builds its own machine/program, exactly like
    :class:`~repro.parallel.engine.ParallelEngine`.
    """

    machine_factory: object
    program_factory: object
    n_threads: int
    binding: BindingPolicy = BindingPolicy.COMPACT
    mechanism_name: str = "IBS"
    period: int = 4096
    mechanism_kwargs: dict = field(default_factory=dict)
    seed: int = 0
    profiler_seed: int = 0x1B5
    n_workers: int = 1
    #: Iterations of the target region that run before migration fires —
    #: the profiling window measured in region iterations.
    window_iterations: int = 2
    #: False runs the engines with a zero memo budget (``--no-memo``).
    memoize: bool = True
    #: Where to write the report JSON and heatmap CSVs (None: no files).
    out_dir: str | Path | None = None
    #: Run-registry root to record the loop's runs in (None: no
    #: registration). The CLI sets this by default; see ``--no-save``.
    runs_dir: str | Path | None = None

    def make_mechanism(self):
        return create_mechanism(
            self.mechanism_name, self.period, **self.mechanism_kwargs
        )


@dataclass
class AutotuneReport:
    """Machine-readable outcome of one closed-loop autotune."""

    program: str
    mechanism: str
    n_threads: int
    n_workers: int
    seed: int
    window_iterations: int
    #: ``(region_idx, iteration)`` boundary the schedule fired at
    #: (None when nothing was scheduled).
    boundary: tuple[int, int] | None
    advice_rationale: str
    planned: list[str]
    #: One dict per scheduled migration the engine attempted
    #: (``AppliedAction`` fields; ``ok`` False = atomic abort).
    applied: list[dict]
    lpi_before: float | None
    lpi_after: float | None
    remote_before: float
    remote_after: float
    wall_seconds_before: float
    wall_seconds_after: float
    #: Did the loop realize an improvement on its own metrics?
    improved: bool
    diff_text: str
    heatmap_files: list[str] = field(default_factory=list)
    report_file: str | None = None
    #: Run-registry ids recorded for this loop (baseline/tuned/autotune),
    #: empty when registration is disabled.
    run_ids: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        """Human-readable summary."""
        lines = [
            f"autotune — {self.program} ({self.mechanism}, "
            f"{self.n_threads} threads, {self.n_workers} worker(s))",
            f"  advice: {self.advice_rationale}",
        ]
        if not self.planned:
            lines.append("  plan: nothing to migrate — baseline kept")
            if self.run_ids:
                lines.append(self._registry_line())
            return "\n".join(lines)
        lines.append(
            f"  plan ({len(self.planned)} step(s) @ region "
            f"{self.boundary[0]} iteration {self.boundary[1]}):"
        )
        for step in self.planned:
            lines.append(f"    {step}")
        ok = sum(1 for a in self.applied if a["ok"])
        lines.append(
            f"  applied: {ok}/{len(self.applied)} migrations succeeded"
        )
        for a in self.applied:
            if not a["ok"]:
                lines.append(
                    f"    FAILED {a['var_name']} -> {a['policy']}: "
                    f"{a['error']}"
                )
        if self.lpi_before is not None and self.lpi_after is not None:
            lines.append(
                f"  lpi_NUMA: {self.lpi_before:.3f} -> {self.lpi_after:.3f}"
            )
        lines.append(
            f"  remote sample fraction: {self.remote_before:.1%} -> "
            f"{self.remote_after:.1%}"
        )
        lines.append(
            f"  wall: {self.wall_seconds_before * 1e3:.2f} ms -> "
            f"{self.wall_seconds_after * 1e3:.2f} ms "
            f"({self.wall_seconds_before / max(self.wall_seconds_after, 1e-12) - 1:+.1%})"
        )
        lines.append(f"  verdict: {'improved' if self.improved else 'no improvement'}")
        for f in self.heatmap_files:
            lines.append(f"  heatmap: {f}")
        if self.report_file:
            lines.append(f"  report: {self.report_file}")
        if self.run_ids:
            lines.append(self._registry_line())
        return "\n".join(lines)

    def _registry_line(self) -> str:
        ids = " ".join(f"{k}={v}" for k, v in sorted(self.run_ids.items()))
        return f"  registry: {ids}"


# ---------------------------------------------------------------------- #
# the loop
# ---------------------------------------------------------------------- #


def _profiled_run(cfg: AutotuneConfig, schedule: PolicySchedule | None):
    """One profiled run (serial or sharded) with an optional schedule.

    Returns ``(result, archive, applied_actions, threads)``. The
    heatmap is always collected — it is the re-verify artifact.
    """
    def monitor_factory():
        return NumaProfiler(
            cfg.make_mechanism(),
            seed=cfg.profiler_seed,
            heatmap=True,
        )

    if cfg.n_workers > 1:
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(
            cfg.machine_factory, cfg.program_factory, cfg.n_threads,
            n_workers=cfg.n_workers,
            binding=cfg.binding,
            monitor_factory=monitor_factory,
            seed=cfg.seed,
            force_sharded=True,
            memoize=cfg.memoize,
            schedule=schedule,
        )
        result = engine.run()
        return result, engine.archive, engine.applied_actions, engine.threads

    profiler = monitor_factory()
    engine = ExecutionEngine(
        cfg.machine_factory(), cfg.program_factory(), cfg.n_threads,
        binding=cfg.binding,
        monitor=profiler,
        seed=cfg.seed,
        memoize=cfg.memoize,
        schedule=schedule,
    )
    result = engine.run()
    return result, profiler.archive, engine.applied_actions, engine.threads


def pick_boundary(
    cfg: AutotuneConfig, window_iterations: int
) -> tuple[int, int] | None:
    """The ``(region_idx, iteration)`` where migration should fire.

    The repeated parallel region with the most iterations (ties go to
    the earliest), so the run has room to both open a profiling window
    and execute on the migrated placement afterwards; the window
    shrinks to fit short regions (at least one iteration runs on each
    side of the boundary). ``None`` when no parallel region repeats.
    """
    machine = cfg.machine_factory()
    program = cfg.program_factory()
    threads = bind_threads(machine.topology, cfg.n_threads, cfg.binding)
    ctx = ProgramContext(
        machine, HeapAllocator(machine), threads, None, cfg.seed
    )
    program.setup(ctx)
    regions = program.regions(ctx)
    best: tuple[int, int] | None = None
    for region_idx, region in enumerate(regions):
        if region.kind is not RegionKind.PARALLEL or region.repeat < 2:
            continue
        iteration = min(max(window_iterations, 1), region.repeat - 1)
        if best is None or region.repeat > regions[best[0]].repeat:
            best = (region_idx, iteration)
    return best


def build_schedule(
    steps: list[MigrationStep], boundary: tuple[int, int]
) -> PolicySchedule:
    """A one-shot schedule firing every step at ``boundary``."""
    schedule = PolicySchedule()
    for step in steps:
        schedule.add(boundary[0], boundary[1], step)
    return schedule


def autotune(cfg: AutotuneConfig) -> AutotuneReport:
    """Run the full closed loop and return the report.

    Two runs total: the untouched baseline (profiling window + diff
    baseline) and the autotuned run with the live-migration schedule.
    When the advisor finds nothing worth doing, the second run is
    skipped and the report carries the baseline on both sides.
    """
    tr = obs.TRACER
    log = obs.get_logger("optim")

    host_t0 = time.perf_counter()
    with tr.span("autotune.profile_window", "optim"):
        base_result, base_archive, _, threads = _profiled_run(cfg, None)
    base_wall_s = time.perf_counter() - host_t0
    merged_base = merge_profiles(base_archive)
    analysis = NumaAnalysis(merged_base)

    with tr.span("autotune.advise", "optim"):
        advice = advise(
            analysis,
            thread_domains={t.tid: t.domain for t in threads},
        )
        n_domains = merged_base.n_domains
        steps = plan_migrations(advice, n_domains)
    tr.count("autotune.migrations_planned", len(steps))
    log.info("advisor planned %d migration step(s)", len(steps))

    boundary = pick_boundary(cfg, cfg.window_iterations) if steps else None
    if boundary is None:
        steps = []

    if not steps:
        report = _report_from(
            cfg, merged_base, advice, [], None, [],
            base_result, base_result,
            diff_profiles(merged_base, merged_base),
        )
        _write_artifacts(cfg, report, base_archive, base_archive)
        _register_runs(
            cfg, report, base_archive, base_archive,
            merged_base, merged_base, base_result, base_result,
            base_wall_s, 0.0,
        )
        return report

    schedule = build_schedule(steps, boundary)
    log.info("schedule: %s", schedule.describe())

    host_t0 = time.perf_counter()
    with tr.span("autotune.reverify", "optim"):
        tuned_result, tuned_archive, applied, _ = _profiled_run(cfg, schedule)
    tuned_wall_s = time.perf_counter() - host_t0
    merged_tuned = merge_profiles(tuned_archive)

    with tr.span("autotune.diff", "optim"):
        diff = diff_profiles(merged_base, merged_tuned)

    report = _report_from(
        cfg, merged_base, advice, steps, boundary, applied,
        base_result, tuned_result, diff,
    )
    _write_artifacts(cfg, report, base_archive, tuned_archive)
    _register_runs(
        cfg, report, base_archive, tuned_archive,
        merged_base, merged_tuned, base_result, tuned_result,
        base_wall_s, tuned_wall_s,
    )
    return report


def _report_from(
    cfg, merged_base, advice, steps, boundary, applied,
    base_result, tuned_result, diff: ProfileDiff,
) -> AutotuneReport:
    lpi_b, lpi_a = diff.lpi_before, diff.lpi_after
    remote_improved = diff.remote_after < diff.remote_before
    lpi_improved = (
        lpi_b is not None and lpi_a is not None and lpi_a < lpi_b
    )
    return AutotuneReport(
        program=merged_base.program,
        mechanism=cfg.mechanism_name,
        n_threads=cfg.n_threads,
        n_workers=cfg.n_workers,
        seed=cfg.seed,
        window_iterations=cfg.window_iterations,
        boundary=boundary,
        advice_rationale=advice.rationale,
        planned=[s.describe() for s in steps],
        applied=[asdict(a) for a in applied],
        lpi_before=lpi_b,
        lpi_after=lpi_a,
        remote_before=diff.remote_before,
        remote_after=diff.remote_after,
        wall_seconds_before=base_result.wall_seconds,
        wall_seconds_after=tuned_result.wall_seconds,
        improved=bool(steps) and remote_improved and (
            lpi_improved or lpi_b is None
        ),
        diff_text=diff.render(),
    )


def _register_runs(
    cfg, report, base_archive, tuned_archive,
    merged_base, merged_tuned, base_result, tuned_result,
    base_wall_s: float, tuned_wall_s: float,
) -> None:
    """Record the loop's runs in the run registry.

    Three entries: the baseline profile, the tuned profile (same as the
    baseline when no migration was planned), and a ``kind="autotune"``
    report manifest referencing both via ``refs.baseline``/``refs.tuned``
    — so ``repro runs diff <baseline> <tuned>`` reproduces the loop's
    headline deltas postmortem.
    """
    if cfg.runs_dir is None:
        return
    from repro.registry import RunRegistry, build_manifest

    registry = RunRegistry(cfg.runs_dir)
    machine = getattr(cfg.machine_factory, "__name__", "custom")
    config = {
        "mechanism": cfg.mechanism_name,
        "period": cfg.period,
        "threads": cfg.n_threads,
        "workers": cfg.n_workers,
        "binding": cfg.binding.name.lower(),
        "seed": cfg.seed,
        "window_iterations": cfg.window_iterations,
    }
    flags = {"memoize": cfg.memoize}

    def _profile_manifest(merged, result, wall_s, role):
        analysis = NumaAnalysis(merged)
        return build_manifest(
            kind="profile",
            workload=merged.program,
            machine=machine,
            config={**config, "autotune_role": role},
            flags=flags,
            host_wall_s=wall_s,
            headline={
                "lpi_numa": analysis.program_lpi(),
                "remote_fraction": analysis.program_remote_fraction(),
                "chunks": result.total_chunks,
                "accesses": result.total_accesses,
            },
            simulated={
                "wall_cycles": result.wall_cycles,
                "wall_seconds": result.wall_seconds,
            },
        )

    base_id = registry.record(
        _profile_manifest(merged_base, base_result, base_wall_s, "baseline"),
        archive=base_archive,
    )
    if tuned_archive is base_archive:
        tuned_id = base_id
    else:
        tuned_id = registry.record(
            _profile_manifest(
                merged_tuned, tuned_result, tuned_wall_s, "tuned"
            ),
            archive=tuned_archive,
        )
    auto_id = registry.record(
        build_manifest(
            kind="autotune",
            workload=merged_base.program,
            machine=machine,
            config=config,
            flags=flags,
            host_wall_s=base_wall_s + tuned_wall_s,
            headline={
                "lpi_before": report.lpi_before,
                "lpi_after": report.lpi_after,
                "remote_before": report.remote_before,
                "remote_after": report.remote_after,
                "improved": report.improved,
                "migrations_planned": len(report.planned),
            },
            refs={"baseline": base_id, "tuned": tuned_id},
        )
    )
    report.run_ids = {
        "baseline": base_id, "tuned": tuned_id, "autotune": auto_id,
    }


def _write_artifacts(cfg, report, base_archive, tuned_archive) -> None:
    """Persist the report JSON and the before/after heatmap CSVs."""
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with obs.TRACER.span("autotune.export", "optim"):
        for label, archive in (
            ("baseline", base_archive), ("autotuned", tuned_archive)
        ):
            try:
                paths = export_heatmap_csvs(archive, out / label)
            except ValueError:
                continue
            report.heatmap_files.extend(str(p) for p in paths)
        report_path = out / "autotune_report.json"
        report.report_file = str(report_path)
        with open(report_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)


# ---------------------------------------------------------------------- #
# CLI: ``python -m repro autotune <workload>``
# ---------------------------------------------------------------------- #


def build_parser():
    import argparse

    from repro.__main__ import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro autotune",
        description="Closed-loop NUMA autotuning: profile, advise, "
        "live-migrate mid-run, re-verify with a profile diff.",
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--machine", default=None,
                        help="machine preset (default: workload's paper host)")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--mechanism", default=None,
                        choices=["IBS", "MRK", "PEBS", "DEAR", "PEBS-LL",
                                 "Soft-IBS"])
    parser.add_argument("--binding", default="compact",
                        choices=["compact", "scatter"])
    parser.add_argument("--period", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workers", type=int, default=1,
                        help="shard both runs across N worker processes "
                        "(the report is bit-identical at any N)")
    parser.add_argument("--window", type=int, default=2,
                        help="profiled iterations of the target region "
                        "before migration fires (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-memo", action="store_true")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write autotune_report.json and heatmap CSVs "
                        "under DIR")
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="run-registry root for the loop's runs "
                        "(default: $REPRO_RUNS_DIR or ./runs)")
    parser.add_argument("--no-save", action="store_true",
                        help="do not record the runs in the run registry")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    import sys

    from repro import presets
    from repro.__main__ import ANALYSIS_PERIODS, WORKLOADS, _builders
    from repro.errors import NumaProfError, UsageError

    args = build_parser().parse_args(argv)
    obs.configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        default_preset, default_threads, default_mech = WORKLOADS[args.workload]
        preset_name = args.machine or default_preset
        mech_name = args.mechanism or default_mech
        machine_factory = presets.PRESETS.get(preset_name)
        if machine_factory is None:
            raise UsageError(
                f"unknown machine preset {preset_name!r} "
                f"(available: {', '.join(sorted(presets.PRESETS))})"
            )
        if args.scale <= 0:
            raise UsageError(f"--scale must be positive, got {args.scale}")
        if args.window < 1:
            raise UsageError(f"--window must be >= 1, got {args.window}")
        cfg = AutotuneConfig(
            machine_factory=machine_factory,
            program_factory=_builders(args.scale)[args.workload],
            n_threads=args.threads or default_threads,
            binding=BindingPolicy[args.binding.upper()],
            mechanism_name=mech_name,
            period=args.period or ANALYSIS_PERIODS[mech_name],
            mechanism_kwargs={"max_rate": 2e6} if mech_name == "MRK" else {},
            seed=args.seed,
            n_workers=args.workers,
            window_iterations=args.window,
            memoize=not args.no_memo,
            out_dir=args.out,
        )
        if not args.no_save:
            from repro.registry import RunRegistry

            # Resolve --runs-dir / $REPRO_RUNS_DIR / ./runs here so the
            # config carries a concrete root (None = no registration).
            cfg.runs_dir = RunRegistry(args.runs_dir).root
        report = autotune(cfg)
    except NumaProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        print()
        print(report.diff_text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
