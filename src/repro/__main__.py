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
    python -m repro bench-perf --scale 0.25   # hot-path perf regression check
    python -m repro autotune lulesh --out results/autotune   # closed loop
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro import obs
from repro.errors import NumaProfError, UsageError


#: Largest accepted ``--scale``: 100x the paper sizes is the documented
#: ceiling for full-size studies; one more order of magnitude of slack
#: still allocates, anything beyond is a typo (1e18 node counts).
MAX_SCALE = 1000.0


def _validate_scale(scale: float) -> None:
    """Reject non-positive, NaN, and absurd ``--scale`` values up front
    with a one-line usage error instead of a deep allocator traceback."""
    if not math.isfinite(scale) or scale <= 0:
        raise UsageError(f"--scale must be a positive number, got {scale!r}")
    if scale > MAX_SCALE:
        raise UsageError(
            f"--scale {scale:g} is out of range (max {MAX_SCALE:g}: "
            f"workload sizes are multiples of the paper's Table 2 sizes)"
        )


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(int(value * scale), floor)


def _builders(scale: float) -> dict:
    """Workload factories at Table-2 sizes scaled by ``scale``.

    Each takes an optional :class:`NumaTuning` so the ``--optimize`` path
    can rebuild the program with the advisor's fixes applied. A factory
    looks its class up when called, so only the workload that runs is
    imported.
    """
    from repro import workloads as w

    n = _scaled
    return {
        "lulesh": lambda tuning=None: w.Lulesh(
            tuning, n_nodes=n(600_000, scale, 8_000)
        ),
        "amg": lambda tuning=None: w.AMG2006(
            tuning, n_rows=n(200_000, scale, 4_000)
        ),
        "blackscholes": lambda tuning=None: w.Blackscholes(
            tuning, n_options=n(20_000, scale, 500)
        ),
        "umt": lambda tuning=None: w.UMT2013(
            tuning,
            plane_elems=n(8_192, scale, 512),
            n_angles=n(96, scale, 8),
        ),
        "sweep": lambda tuning=None: w.PartitionedSweep(
            tuning, n_elems=n(400_000, scale, 8_000)
        ),
        "hotspot": lambda tuning=None: w.CentralHotspot(
            tuning, n_elems=n(250_000, scale, 8_000)
        ),
    }


#: name -> (default preset, default threads, default mechanism).
WORKLOADS = {
    "lulesh": ("magny_cours", 48, "IBS"),
    "amg": ("magny_cours", 48, "IBS"),
    "blackscholes": ("magny_cours", 48, "IBS"),
    "umt": ("power7", 32, "MRK"),
    "sweep": ("generic", 16, "IBS"),
    "hotspot": ("generic", 16, "IBS"),
}

#: Analysis-density sampling periods per mechanism (simulated runs are
#: far shorter than the paper's; see EXPERIMENTS.md).
ANALYSIS_PERIODS = {
    "IBS": 4096, "PEBS": 4096, "DEAR": 64, "PEBS-LL": 64,
    "Soft-IBS": 256, "MRK": 1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NUMA-bottleneck analysis of a bundled workload "
        "(HPCToolkit-NUMA reproduction).",
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
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the monitored run across N worker "
                        "processes (bit-identical results; falls back to "
                        "in-process when N=1 or the platform cannot fork)")
    parser.add_argument("--period", type=int, default=None,
                        help="sampling period override")
    parser.add_argument("--no-memo", action="store_true",
                        help="zero memo budget: retain nothing across "
                        "iterations (every step runs the same pipeline "
                        "into transient records); results are "
                        "bit-identical either way — this is a debugging "
                        "switch")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0 = "
                        "paper sizes; small floors keep runs meaningful)")
    phase = parser.add_mutually_exclusive_group()
    phase.add_argument("--extrapolate", action="store_true",
                       help="phase-adaptive extrapolation: detect steady "
                       "region iterations and skip them, reconstructing "
                       "their metrics from recorded deltas (exact for "
                       "deterministic sampling; jittered mechanisms get "
                       "a declared-ε report)")
    phase.add_argument("--exact", action="store_true",
                       help="simulate every iteration (the default; "
                       "spelled out to pin it against --extrapolate)")
    parser.add_argument("--extrap-warmup", type=int, default=2,
                        metavar="K",
                        help="steady iterations observed before "
                        "extrapolation arms (default 2)")
    parser.add_argument("--extrap-disarm", type=int, default=3,
                        metavar="M",
                        help="non-converging detection windows before "
                        "the phase detector disarms to a cheap epoch "
                        "check (default 3; 0 = never disarm)")
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
    if argv and argv[0] == "bench-perf":
        from repro.bench.perf import main as bench_perf_main

        return bench_perf_main(argv[1:])
    if argv and argv[0] == "autotune":
        from repro.optim.autotune import main as autotune_main

        return autotune_main(argv[1:])
    if argv and argv[0] == "runs":
        from repro.registry.cli import main as runs_main

        return runs_main(argv[1:])
    args = build_parser().parse_args(argv)
    obs.configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        return _run(args)
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


def _run(args: argparse.Namespace) -> int:
    # The run stack is imported here, not at module top, so --help, the
    # runs subcommand and usage errors load none of it.
    from repro import (
        ExecutionEngine,
        NumaAnalysis,
        NumaProfiler,
        address_centric_view,
        code_centric_view,
        create_mechanism,
        data_centric_view,
        first_touch_view,
        merge_profiles,
        presets,
    )
    from repro.profiler.metrics import LPI_THRESHOLD, verdict
    from repro.runtime.memo import DEFAULT_MEMO_BYTES
    from repro.runtime.thread import BindingPolicy

    log = obs.get_logger("cli")
    default_preset, default_threads, default_mech = WORKLOADS[args.workload]
    build = _builders(args.scale)[args.workload]
    preset_name = args.machine or default_preset
    threads = args.threads or default_threads
    mech_name = args.mechanism or default_mech
    period = args.period or ANALYSIS_PERIODS[mech_name]
    binding = BindingPolicy[args.binding.upper()]
    machine_factory = presets.PRESETS.get(preset_name)
    if machine_factory is None:
        raise UsageError(
            f"unknown machine preset {preset_name!r} "
            f"(available: {', '.join(sorted(presets.PRESETS))})"
        )
    _validate_scale(args.scale)
    if args.extrap_warmup < 1:
        raise UsageError(
            f"--extrap-warmup must be at least 1, got {args.extrap_warmup}"
        )
    if args.extrap_disarm < 0:
        raise UsageError(
            f"--extrap-disarm must be >= 0, got {args.extrap_disarm}"
        )

    kwargs = {"max_rate": 2e6} if mech_name == "MRK" else {}
    mechanism = create_mechanism(mech_name, period, **kwargs)

    tracing = (
        bool(args.trace) or bool(args.trace_jsonl) or args.stats
        or args.metrics
    )
    if tracing:
        obs.enable()
        log.info("telemetry enabled (trace=%s stats=%s metrics=%s)",
                 args.trace or args.trace_jsonl, args.stats, args.metrics)
    tr = obs.TRACER

    scale_txt = f", scale {args.scale:g}" if args.scale != 1.0 else ""
    print(f"workload {args.workload} on {preset_name} with {threads} "
          f"threads, {mech_name} period {period}{scale_txt}\n")
    log.debug("binding=%s mechanism kwargs=%s", binding.name, kwargs)

    memoize = not args.no_memo
    extrapolate = bool(args.extrapolate)
    # The memo stores per-step classification arrays whose size tracks the
    # workload footprint; keep the budget proportional to --scale so large
    # runs don't thrash the LRU (which would also starve phase detection).
    memo_bytes = int(DEFAULT_MEMO_BYTES * max(1.0, args.scale))
    extrap_kwargs = {
        "extrapolate": extrapolate, "extrap_warmup": args.extrap_warmup,
        "extrap_disarm": args.extrap_disarm,
        "memo_bytes": memo_bytes,
    }
    with tr.span("cli.baseline_run", "harness"):
        baseline = ExecutionEngine(
            machine_factory(), build(), threads, binding=binding,
            memoize=memoize, **extrap_kwargs,
        ).run()
    if args.metrics:
        # The metrics plane rides the tracer and covers the monitored
        # run only (installed after the baseline so its iterations do
        # not pollute the series). Samples are host-time-only
        # observations, so simulated results stay bit-identical.
        tr.metrics = obs.MetricsRecorder()
    if args.workers > 1:
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(
            machine_factory, build, threads,
            n_workers=args.workers, binding=binding,
            monitor_factory=lambda: NumaProfiler(
                create_mechanism(mech_name, period, **kwargs)
            ),
            memoize=memoize,
            **extrap_kwargs,
        )
        host_t0 = time.perf_counter()
        with tr.span("cli.monitored_run", "harness"):
            monitored = engine.run()
        host_wall_s = time.perf_counter() - host_t0
        archive = engine.archive
    else:
        profiler = NumaProfiler(mechanism)
        engine = ExecutionEngine(
            machine_factory(), build(), threads, monitor=profiler,
            binding=binding, memoize=memoize, **extrap_kwargs,
        )
        host_t0 = time.perf_counter()
        with tr.span("cli.monitored_run", "harness"):
            monitored = engine.run()
        host_wall_s = time.perf_counter() - host_t0
        archive = profiler.archive
    if extrapolate:
        _print_phase_summary(getattr(engine, "phase_report", None))
    print(f"baseline {baseline.wall_seconds * 1e3:.2f} ms simulated; "
          f"monitoring overhead "
          f"{monitored.wall_seconds / baseline.wall_seconds - 1:+.1%}; "
          f"remote DRAM fraction {baseline.remote_dram_fraction:.0%}\n")

    merged = merge_profiles(archive)
    analysis = NumaAnalysis(merged)
    if not args.no_save:
        _record_run(
            args, preset_name=preset_name, threads=threads,
            mech_name=mech_name, period=period, archive=archive,
            analysis=analysis, baseline=baseline, monitored=monitored,
            host_wall_s=host_wall_s, tracer=tr,
            phase_report=getattr(engine, "phase_report", None),
        )
    if args.report:
        from repro.analysis import full_report

        print(full_report(merged, focus_var=args.var, top=args.top))
        rc = _advise_and_optimize(args, machine_factory, build, threads,
                                  binding, engine, analysis, baseline)
        _export_telemetry(args, tracing)
        return rc
    lpi = analysis.program_lpi()
    if lpi is not None:
        action = "optimize" if verdict(lpi) else "not worth optimizing"
        print(f"lpi_NUMA = {lpi:.3f} ({action}; threshold {LPI_THRESHOLD})\n")
    else:
        print(f"lpi_NUMA unavailable ({mech_name} measures no latency); "
              f"remote fraction of sampled accesses = "
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

    rc = _advise_and_optimize(
        args, machine_factory, build, threads, binding, engine,
        analysis, baseline,
    )
    _export_telemetry(args, tracing)
    return rc


def _record_run(
    args: argparse.Namespace, *, preset_name: str, threads: int,
    mech_name: str, period: int, archive, analysis, baseline, monitored,
    host_wall_s: float, tracer, phase_report=None,
) -> None:
    """Archive the run in the registry (manifest + profile + series)."""
    from repro.registry import RunRegistry, build_manifest

    headline = {
        "lpi_numa": analysis.program_lpi(),
        "remote_fraction": analysis.program_remote_fraction(),
        "chunks": monitored.total_chunks,
        "accesses": monitored.total_accesses,
    }
    if phase_report:
        # Headline coverage whenever extrapolation ran, so
        # ``repro runs timeline`` can sparkline it across runs with or
        # without the metrics plane.
        headline["phase_coverage_pct"] = phase_report.get(
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
    manifest = build_manifest(
        kind="profile",
        workload=args.workload,
        machine=preset_name,
        config={
            "mechanism": mech_name,
            "period": period,
            "scale": args.scale,
            "threads": threads,
            "workers": args.workers,
            "binding": args.binding,
            "seed": 0,
        },
        flags={
            "memoize": not args.no_memo,
            "extrapolate": bool(args.extrapolate),
            "metrics": bool(args.metrics),
            "optimize": bool(args.optimize),
            "report": bool(args.report),
        },
        host_wall_s=host_wall_s,
        headline=headline,
        simulated={
            "wall_cycles": monitored.wall_cycles,
            "wall_seconds": monitored.wall_seconds,
            "baseline_wall_seconds": baseline.wall_seconds,
            "overhead_pct": 100.0
            * (monitored.wall_seconds / baseline.wall_seconds - 1.0),
        },
    )
    registry = RunRegistry(args.runs_dir)
    series = (
        metrics.export()
        if args.metrics and metrics is not None
        else None
    )
    run_id = registry.record(manifest, archive=archive, series=series)
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


def _advise_and_optimize(
    args, machine_factory, build, threads, binding, engine, analysis,
    baseline,
) -> int:
    from repro import ExecutionEngine, advise, apply_advice

    advice = advise(
        analysis, thread_domains={t.tid: t.domain for t in engine.threads}
    )
    print(f"advisor: {advice.rationale}")
    for rec in advice.recommendations:
        print(f"  -> {rec.rationale}")

    if args.optimize and advice.worth_optimizing:
        tuning = apply_advice(advice, machine_factory().n_domains)
        # Detach the metrics plane for the re-run: the recorded series
        # (and the --stats snapshot) describe the monitored run only.
        mx_saved = getattr(obs.TRACER, "metrics", None)
        obs.TRACER.metrics = None
        try:
            with obs.TRACER.span("cli.optimized_run", "harness"):
                optimized = ExecutionEngine(
                    machine_factory(), build(tuning), threads,
                    binding=binding, memoize=not args.no_memo,
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
