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
   recommendation into a live :class:`~repro.optim.schedule.MigrationStep`
   (:func:`repro.optim.schedule.plan_migrations`);
3. **live-migrate** — schedule the steps at a region-iteration boundary
   (:class:`~repro.optim.schedule.PolicySchedule`) and re-run: the
   engine applies them mid-run via the atomic
   ``PageTable.migrate_segment``, the page-table epoch bump invalidates
   memoized classification, and the run continues on the new placement;
4. **re-verify** — diff the two merged profiles
   (:func:`repro.analysis.diff.diff_profiles`) and report the realized
   movement in remote fraction and lpi_NUMA, plus per-page×thread
   access/latency heatmap CSVs
   (:func:`repro.analysis.postmortem.export_heatmap_csvs`).

Determinism: the schedule is pure data fixed before the second run
starts, and the engine applies it at the top of the scheduled region
iteration before any thread enters the region — identically in the
serial loop and in every shard of a sharded run. Given the same seed,
the :class:`AutotuneReport` is bit-identical at any worker count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.analysis.advisor import advise
from repro.analysis.analyzer import NumaAnalysis
from repro.analysis.diff import ProfileDiff, diff_profiles
from repro.analysis.postmortem import export_heatmap_csvs
from repro.analysis.merge import merge_profiles
from repro.optim.schedule import MigrationStep, PolicySchedule, plan_migrations
from repro.runtime.heap import HeapAllocator
from repro.runtime.program import ProgramContext, RegionKind
from repro.runtime.thread import BindingPolicy, bind_threads
from repro.spec import (
    Profile,
    RunSpec,
    add_run_arguments,
    manifest_fields,
    profile,
    profile_manifest,
)


@dataclass
class AutotuneConfig:
    """Everything one closed-loop autotune needs: the run both of its
    profiles simulate, and where the loop's outputs go."""

    spec: RunSpec
    #: Iterations of the target region that run before migration fires —
    #: the profiling window measured in region iterations.
    window_iterations: int = 2
    #: Where to write the report JSON and heatmap CSVs (None: no files).
    out_dir: str | Path | None = None
    #: Run-registry root to record the loop's runs in (None: no
    #: registration). The CLI sets this by default; see ``--no-save``.
    runs_dir: str | Path | None = None


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


def pick_boundary(
    spec: RunSpec, window_iterations: int
) -> tuple[int, int] | None:
    """The ``(region_idx, iteration)`` where migration should fire.

    The repeated parallel region with the most iterations (ties go to
    the earliest), so the run has room to both open a profiling window
    and execute on the migrated placement afterwards; the window
    shrinks to fit short regions (at least one iteration runs on each
    side of the boundary). ``None`` when no parallel region repeats.
    """
    machine = spec.machine_factory()()
    program = spec.program()
    threads = bind_threads(
        machine.topology, spec.threads, BindingPolicy[spec.binding.upper()]
    )
    ctx = ProgramContext(machine, HeapAllocator(machine), threads, spec.seed)
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

    with tr.span("autotune.profile_window", "optim"):
        base = profile(cfg.spec, heatmap=True)
    merged_base = merge_profiles(base.archive)
    analysis = NumaAnalysis(merged_base)

    with tr.span("autotune.advise", "optim"):
        advice = advise(
            analysis,
            thread_domains={t.tid: t.domain for t in base.threads},
        )
        n_domains = merged_base.n_domains
        steps = plan_migrations(advice, n_domains)
    tr.count("autotune.migrations_planned", len(steps))
    log.info("advisor planned %d migration step(s)", len(steps))

    boundary = (
        pick_boundary(cfg.spec, cfg.window_iterations) if steps else None
    )
    if boundary is None:
        steps = []

    if not steps:
        report = _report_from(
            cfg, merged_base, advice, [], None, base, base,
            diff_profiles(merged_base, merged_base),
        )
        _write_artifacts(cfg, report, base, base)
        _register_runs(cfg, report, base, base, merged_base, merged_base)
        return report

    schedule = build_schedule(steps, boundary)
    log.info("schedule: %s", schedule.describe())

    with tr.span("autotune.reverify", "optim"):
        tuned = profile(cfg.spec, schedule=schedule, heatmap=True)
    merged_tuned = merge_profiles(tuned.archive)

    with tr.span("autotune.diff", "optim"):
        diff = diff_profiles(merged_base, merged_tuned)

    report = _report_from(
        cfg, merged_base, advice, steps, boundary, base, tuned, diff,
    )
    _write_artifacts(cfg, report, base, tuned)
    _register_runs(cfg, report, base, tuned, merged_base, merged_tuned)
    return report


def _report_from(
    cfg, merged_base, advice, steps, boundary, base: Profile,
    tuned: Profile, diff: ProfileDiff,
) -> AutotuneReport:
    lpi_b, lpi_a = diff.lpi_before, diff.lpi_after
    remote_improved = diff.remote_after < diff.remote_before
    lpi_improved = (
        lpi_b is not None and lpi_a is not None and lpi_a < lpi_b
    )
    return AutotuneReport(
        program=merged_base.program,
        mechanism=cfg.spec.mechanism,
        n_threads=cfg.spec.threads,
        n_workers=cfg.spec.workers,
        seed=cfg.spec.seed,
        window_iterations=cfg.window_iterations,
        boundary=boundary,
        advice_rationale=advice.rationale,
        planned=[s.describe() for s in steps],
        applied=[asdict(a) for a in tuned.applied_actions],
        lpi_before=lpi_b,
        lpi_after=lpi_a,
        remote_before=diff.remote_before,
        remote_after=diff.remote_after,
        wall_seconds_before=base.result.wall_seconds,
        wall_seconds_after=tuned.result.wall_seconds,
        improved=bool(steps) and remote_improved and (
            lpi_improved or lpi_b is None
        ),
        diff_text=diff.render(),
    )


def _register_runs(
    cfg, report, base: Profile, tuned: Profile, merged_base, merged_tuned,
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
    config = {"window_iterations": cfg.window_iterations}

    def record(run: Profile, merged, role: str) -> str:
        manifest = profile_manifest(
            cfg.spec, run, NumaAnalysis(merged),
            config={**config, "autotune_role": role},
        )
        return registry.record(manifest, archive=run.archive)

    base_id = record(base, merged_base, "baseline")
    tuned_id = base_id if tuned is base else record(
        tuned, merged_tuned, "tuned"
    )
    auto_id = registry.record(
        build_manifest(
            kind="autotune",
            **manifest_fields(cfg.spec, config=config),
            host_wall_s=base.host_wall_s
            + (0.0 if tuned is base else tuned.host_wall_s),
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


def _write_artifacts(cfg, report, base: Profile, tuned: Profile) -> None:
    """Persist the report JSON and the before/after heatmap CSVs."""
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with obs.TRACER.span("autotune.export", "optim"):
        for label, archive in (
            ("baseline", base.archive), ("autotuned", tuned.archive)
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

    parser = argparse.ArgumentParser(
        prog="python -m repro autotune",
        description="Closed-loop NUMA autotuning: profile, advise, "
        "live-migrate mid-run, re-verify with a profile diff.",
    )
    add_run_arguments(parser)
    parser.add_argument("--window", type=int, default=2,
                        help="profiled iterations of the target region "
                        "before migration fires (default 2)")
    parser.add_argument("--seed", type=int, default=0)
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

    from repro.errors import NumaProfError, UsageError

    args = build_parser().parse_args(argv)
    obs.configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        if args.window < 1:
            raise UsageError(f"--window must be >= 1, got {args.window}")
        cfg = AutotuneConfig(
            RunSpec.from_args(args, seed=args.seed),
            window_iterations=args.window, out_dir=args.out,
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
