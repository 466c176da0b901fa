"""Command-line interface: ``python -m repro``.

Profiles one of the bundled workloads on a chosen machine preset, prints
the three analysis views and the advisor's recommendations, and
optionally applies them and reports the speedup — the whole paper
workflow from one command.

Examples::

    python -m repro lulesh                      # Section 8.1 on Magny-Cours
    python -m repro amg --optimize              # Section 8.2 + apply fixes
    python -m repro umt --machine power7 --mechanism MRK --threads 32 \\
        --binding scatter
    python -m repro sweep --threads 16 --machine generic
    python -m repro lulesh --trace out.trace.json --stats   # self-telemetry
    python -m repro autotune lulesh --out results/autotune   # closed loop
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.errors import NumaProfError, UsageError
from repro.spec import RunSpec, add_run_arguments, profile, profile_manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NUMA-bottleneck analysis of a bundled workload "
        "(HPCToolkit-NUMA reproduction).",
    )
    add_run_arguments(parser)
    parser.add_argument("--extrapolate", action="store_true",
                        help="phase-adaptive extrapolation: detect steady "
                        "region iterations and skip them, reconstructing "
                        "their metrics from recorded deltas (exact for "
                        "deterministic sampling; jittered mechanisms get "
                        "a declared-ε report)")
    parser.add_argument("--top", type=int, default=6,
                        help="variables to show in the data-centric view")
    parser.add_argument("--var", default=None,
                        help="variable for the address-centric view "
                        "(default: hottest)")
    parser.add_argument("--optimize", action="store_true",
                        help="apply the advisor's tuning and re-run")
    parser.add_argument("--report", action="store_true",
                        help="print the combined four-pane report instead "
                        "of individual views")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans/counters and write a Chrome "
                        "trace-event JSON (open in Perfetto)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="also write the telemetry stream as JSONL")
    parser.add_argument("--stats", action="store_true",
                        help="print the span/counter summary table")
    parser.add_argument("--metrics", action="store_true",
                        help="record the metrics plane: per-iteration "
                        "time-series snapshots of counters, gauges, and "
                        "engine rates (implies telemetry; view with "
                        "'repro runs timeline')")
    parser.add_argument("--runs-dir", metavar="DIR", default=None,
                        help="run-registry root to archive this run in "
                        "(default: $REPRO_RUNS_DIR or ./runs)")
    parser.add_argument("--no-save", action="store_true",
                        help="do not archive this run in the run registry")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="diagnostic logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only on the log stream")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "autotune":
        from repro.optim.autotune import main as autotune_main

        return autotune_main(argv[1:])
    if argv and argv[0] == "runs":
        from repro.registry.cli import main as runs_main

        return runs_main(argv[1:])
    args = build_parser().parse_args(argv)
    obs.configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        if args.top < 1:
            raise UsageError(f"--top must be at least 1, got {args.top}")
        return _run(args, RunSpec.from_args(args, extrapolate=args.extrapolate))
    except NumaProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_phase_summary(report: dict | None) -> None:
    """One-line phase/ε accounting for the monitored run."""
    if not report:
        return
    skipped = report["extrapolated_exact"] + report["extrapolated_eps"]
    line = (
        f"phase extrapolation: {skipped}/{report['iterations']} iterations "
        f"skipped ({report['coverage_pct']:.1f}% coverage; "
        f"{report['extrapolated_exact']} exact, "
        f"{report['extrapolated_eps']} within-ε)"
    )
    if report["extrapolated_eps"]:
        line += f"; declared eps = {report['epsilon']:.3g}"
    if report["breaks"]:
        line += f"; {report['breaks']} phase break(s)"
    if report.get("disarms"):
        line += f"; detector disarmed {report['disarms']}x"
    print(line + "\n")


def _run(args: argparse.Namespace, spec: RunSpec) -> int:
    # The run stack is imported here, not at module top, so --help, the
    # runs subcommand and usage errors load none of it.
    from repro import (
        NumaAnalysis,
        address_centric_view,
        code_centric_view,
        data_centric_view,
        first_touch_view,
        merge_profiles,
    )
    from repro.profiler.metrics import LPI_THRESHOLD, verdict

    log = obs.get_logger("cli")
    tracing = (
        bool(args.trace) or bool(args.trace_jsonl) or args.stats
        or args.metrics
    )
    if tracing:
        obs.enable()
        log.info("telemetry enabled (trace=%s stats=%s metrics=%s)",
                 args.trace or args.trace_jsonl, args.stats, args.metrics)
    tr = obs.TRACER

    if args.metrics:
        # The metrics plane rides the tracer and covers the monitored
        # run. Samples are host-time-only observations, so simulated
        # results stay bit-identical.
        tr.metrics = obs.MetricsRecorder()
    with tr.span("cli.monitored_run", "harness"):
        # A bad --threads fails here, before anything is printed.
        run = profile(spec)
    merged = merge_profiles(run.archive)
    if args.var:
        # An unknown --var fails here, before anything is printed.
        merged.var(args.var)
    # No second simulation: the baseline is this run without overhead.
    baseline = run.result.unmonitored()
    scale_txt = f", scale {spec.scale:g}" if spec.scale != 1.0 else ""
    print(f"workload {spec.workload} on {spec.machine} with "
          f"{spec.threads} threads, {spec.mechanism} period "
          f"{spec.period}{scale_txt}\n")
    if spec.extrapolate:
        _print_phase_summary(run.phase_report)
    print(f"baseline {baseline.wall_seconds * 1e3:.2f} ms simulated; "
          f"monitoring overhead "
          f"{run.result.wall_seconds / baseline.wall_seconds - 1:+.1%}; "
          f"remote DRAM fraction {baseline.remote_dram_fraction:.0%}\n")

    analysis = NumaAnalysis(merged)
    if not args.no_save:
        _record_run(args, spec, run, analysis, baseline, tracer=tr)
    if args.report:
        from repro.analysis import full_report

        print(full_report(merged, focus_var=args.var, top=args.top))
    else:
        lpi = analysis.program_lpi()
        if lpi is not None:
            action = "optimize" if verdict(lpi) else "not worth optimizing"
            print(f"lpi_NUMA = {lpi:.3f} ({action}; "
                  f"threshold {LPI_THRESHOLD})\n")
        else:
            print(f"lpi_NUMA unavailable ({spec.mechanism} measures no "
                  f"latency); remote fraction of sampled accesses = "
                  f"{analysis.program_remote_fraction():.0%}\n")

        print(code_centric_view(merged, max_depth=3))
        print()
        print(data_centric_view(merged, top=args.top))
        print()
        hot = analysis.hot_variables(top=1)
        var = args.var or (hot[0].name if hot else None)
        if var:
            print(address_centric_view(merged, var, width=56))
            print()
            print(first_touch_view(merged, var))
            print()

    _advise_and_optimize(args, spec, run, analysis, baseline)
    _export_telemetry(args, tracing)
    return 0


def _record_run(
    args: argparse.Namespace, spec: RunSpec, run, analysis, baseline,
    tracer,
) -> None:
    """Archive the run in the registry (manifest + profile + series)."""
    from repro.registry import RunRegistry

    manifest = profile_manifest(
        spec, run, analysis, metrics=bool(args.metrics),
        optimize=bool(args.optimize), report=bool(args.report),
    )
    headline = manifest["headline"]
    if run.phase_report:
        # Headline coverage whenever extrapolation ran, so
        # ``repro runs timeline`` can sparkline it across runs with or
        # without the metrics plane.
        headline["phase_coverage_pct"] = run.phase_report.get(
            "coverage_pct", 0.0
        )
    metrics = getattr(tracer, "metrics", None)
    if args.metrics and metrics is not None and metrics.n_samples:
        last = metrics.last_values()
        for key, name in (
            ("engine.memo.hit_rate", "memo_hit_rate"),
            ("engine.phase.coverage_pct", "phase_coverage_pct"),
            ("engine.rate.chunks_per_s", "chunks_per_s"),
        ):
            if key in last:
                headline[name] = last[key]
    manifest["simulated"].update(
        baseline_wall_seconds=baseline.wall_seconds,
        overhead_pct=100.0
        * (run.result.wall_seconds / baseline.wall_seconds - 1.0),
    )
    registry = RunRegistry(args.runs_dir)
    series = metrics.export() if args.metrics and metrics else None
    run_id = registry.record(manifest, archive=run.archive, series=series)
    print(f"run recorded: {run_id} -> {registry.root / run_id}\n")


def _export_telemetry(args: argparse.Namespace, tracing: bool) -> None:
    """Flush the run's telemetry to the requested sinks."""
    if not tracing:
        return
    tr = obs.disable()
    if args.trace:
        obs.write_chrome_trace(tr, args.trace)
        print(f"chrome trace written to {args.trace} "
              f"({len(tr.events)} events; open in Perfetto)")
    if args.trace_jsonl:
        obs.write_jsonl(tr, args.trace_jsonl)
        print(f"telemetry JSONL written to {args.trace_jsonl}")
    if args.stats:
        print()
        print(obs.summary_table(tr))


def _advise_and_optimize(args, spec: RunSpec, run, analysis, baseline):
    from repro import ExecutionEngine, advise, apply_advice

    advice = advise(
        analysis, thread_domains={t.tid: t.domain for t in run.threads}
    )
    print(f"advisor: {advice.rationale}")
    for rec in advice.recommendations:
        print(f"  -> {rec.rationale}")

    if args.optimize and advice.worth_optimizing:
        machine_factory = spec.machine_factory()
        tuning = apply_advice(advice, machine_factory().n_domains)
        # Detach the metrics plane for the re-run: the recorded series
        # (and the --stats snapshot) describe the monitored run only.
        mx_saved = getattr(obs.TRACER, "metrics", None)
        obs.TRACER.metrics = None
        try:
            with obs.TRACER.span("cli.optimized_run", "harness"):
                optimized = ExecutionEngine(
                    machine_factory(), spec.program(tuning), spec.threads,
                    **spec.engine_kwargs(),
                ).run()
        finally:
            obs.TRACER.metrics = mx_saved
        gain = baseline.wall_seconds / optimized.wall_seconds - 1
        print(f"\napplied: {tuning.describe()}")
        print(f"optimized run: {optimized.wall_seconds * 1e3:.2f} ms "
              f"({gain:+.1%}); remote DRAM fraction "
              f"{optimized.remote_dram_fraction:.0%}")
    elif args.optimize:
        print("\nadvisor found nothing worth applying — baseline kept.")


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``). Point stdout at
        # devnull so the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
