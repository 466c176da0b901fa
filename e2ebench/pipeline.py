"""One run of the ``python -m repro`` pipeline, measured from inside.

Usage (from the repository root)::

    PYTHONPATH=src python e2ebench/pipeline.py lulesh --optimize --scale 4 \\
        --seed 0 --result out.json [--trace] [--reference]

The positional workload and the ``--workers/--extrapolate/--report/
--optimize/--scale`` flags mean what they mean to ``python -m repro``,
and the run takes the same steps in the same order, through the
package's public API only: import, machine and workload construction,
the baseline run, the monitored run (serial or sharded), merge,
analysis, the run-registry write, the views or the full report, advice,
and the optional optimized re-run. Stdout carries the CLI's report
lines; the measurements go to the JSON file named by ``--result``.

``--seed S`` seeds the engine (``ExecutionEngine(seed=S)``) and the
sampling jitter (``NumaProfiler(seed=<default> + S)``), so seed 0 is
exactly what ``python -m repro`` computes.

``--trace`` wraps every step in a ``bench.<layer>`` span and adds
per-layer self-times and counters to the result. ``--reference`` takes
the slow, obviously correct path instead: memoization off, serial,
every iteration simulated. Its digest is what the measured runs are
checked against.
"""

import time

#: Taken before anything else is imported: the benchmark's spawn-to-here
#: gap is interpreter start-up.
T_START = time.monotonic()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: app -> (workload class in ``repro.workloads``, {size kwarg: (size at
#: scale 1, floor)}, machine preset, threads, mechanism, sampling
#: period). These are the values ``python -m repro`` uses; the
#: self-tests compare the two programs' report lines.
APPS = {
    "lulesh": ("Lulesh", {"n_nodes": (600_000, 8_000)},
               "magny_cours", 48, "IBS", 4096),
    "amg": ("AMG2006", {"n_rows": (200_000, 4_000)},
            "magny_cours", 48, "IBS", 4096),
    "blackscholes": ("Blackscholes", {"n_options": (20_000, 500)},
                     "magny_cours", 48, "IBS", 4096),
    "umt": ("UMT2013", {"plane_elems": (8_192, 512), "n_angles": (96, 8)},
            "power7", 32, "MRK", 1),
}

#: ``python -m repro`` passes this to MRK only.
MRK_MAX_RATE = 2e6

#: Span name -> per-layer self-time bucket. Every span the program or
#: this script emits is listed, so the buckets partition a traced run.
SELF_BUCKETS = {
    "bench.build": "workloads.build_s",
    "bench.baseline": "bench.harness_self_s",
    "bench.monitored": "bench.harness_self_s",
    "bench.optimized": "bench.harness_self_s",
    "bench.merge": "analysis.merge_s",
    "analysis.merge": "analysis.merge_s",
    "bench.analyze": "analysis.analyze_s",
    "bench.record": "registry.record_s",
    "bench.render": "analysis.render_s",
    "analysis.report": "analysis.render_s",
    "bench.advise": "analysis.advise_s",
    "analysis.advise": "analysis.advise_s",
    "engine.run": "runtime.dispatch_self_s",
    "engine.setup": "runtime.dispatch_self_s",
    "engine.step": "runtime.dispatch_self_s",
    "engine.monitor": "runtime.dispatch_self_s",
    "engine.migrate": "runtime.dispatch_self_s",
    "engine.region": "runtime.region_self_s",
    "engine.classify": "runtime.classify_self_s",
    "engine.latency": "runtime.latency_self_s",
    "engine.page_traps": "runtime.page_traps_self_s",
    "engine.phase.extrapolate": "runtime.phase_extrapolate_self_s",
    "sampling.select_step": "sampling.select_step_self_s",
    "profiler.on_step": "profiler.on_step_self_s",
    "profiler.attribute": "profiler.attribute_self_s",
    "profiler.flush": "profiler.flush_self_s",
    "parallel.run": "parallel.run_self_s",
    "shard.start": "parallel.shard_start_self_s",
    "shard.gen_iteration": "parallel.shard_gen_self_s",
    "shard.classify_iteration": "parallel.shard_classify_self_s",
    "shard.finish_iteration": "parallel.shard_finish_self_s",
    "shard.extrapolate_iterations": "runtime.phase_extrapolate_self_s",
}

#: Bench span -> inclusive wall metric (the call timed from outside).
INCLUSIVE = {
    "bench.baseline": "runtime.baseline_run_s",
    "bench.monitored": "runtime.monitored_run_s",
    "bench.optimized": "optim.optimized_run_s",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("app", choices=sorted(APPS))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--extrapolate", action="store_true")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--optimize", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--result", required=True,
                        help="JSON file the measurements are written to; "
                        "the run registry goes to runs/ beside it")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    return parser


def self_seconds(events) -> dict:
    """Self seconds per ``(process track, span name)`` from B/E events.

    ``"harness"`` is this process, ``"w<k>"`` a sharded run's worker k.
    Integer tracks are per-simulated-thread mirrors of harness work and
    are skipped, as the tracer's own aggregates skip them.
    """
    stacks: dict = {}
    out: dict = {}
    for ph, name, _cat, track, ts_ns, _args in events:
        if ph not in ("B", "E") or not isinstance(track, str):
            continue
        stack = stacks.setdefault(track, [])
        if ph == "B":
            stack.append([name, ts_ns, 0])
            continue
        span_name, t0, child_ns = stack.pop()
        dur = ts_ns - t0
        key = (track, span_name)
        out[key] = out.get(key, 0.0) + (dur - child_ns) / 1e9
        if stack:
            stack[-1][2] += dur
    return out


def run(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    import repro
    from repro import (
        ExecutionEngine,
        NumaAnalysis,
        NumaProfiler,
        address_centric_view,
        advise,
        apply_advice,
        code_centric_view,
        create_mechanism,
        data_centric_view,
        first_touch_view,
        merge_profiles,
        obs,
        presets,
    )
    from repro.analysis import full_report
    from repro.registry import RunRegistry, build_manifest
    from repro.runtime.memo import DEFAULT_MEMO_BYTES
    import repro.workloads
    import_s = time.perf_counter() - t0

    cls_name, sizes, preset, threads, mech, period = APPS[args.app]
    reference = args.reference
    memoize = not reference
    workers = 1 if reference else args.workers
    extrapolate = args.extrapolate and not reference
    mech_kwargs = {"max_rate": MRK_MAX_RATE} if mech == "MRK" else {}
    profiler_seed = (
        inspect.signature(NumaProfiler).parameters["seed"].default + args.seed
    )
    engine_kwargs = {
        "seed": args.seed,
        "memoize": memoize,
        "extrapolate": extrapolate,
        "memo_bytes": int(DEFAULT_MEMO_BYTES * max(1.0, args.scale)),
    }

    if args.trace:
        obs.enable()
    tr = obs.TRACER

    def make_profiler():
        return NumaProfiler(
            create_mechanism(mech, period, **mech_kwargs),
            memoize=memoize, seed=profiler_seed,
        )

    with tr.span("bench.build", "bench"):
        machine_factory = presets.PRESETS[preset]
        cls = getattr(repro.workloads, cls_name)
        size_kwargs = {
            k: max(int(v * args.scale), floor)
            for k, (v, floor) in sizes.items()
        }

        def build(tuning=None):
            return cls(tuning, **size_kwargs)

        base_parts = (machine_factory(), build())
        mon_parts = (machine_factory(), build()) if workers == 1 else None
    t_setup = time.monotonic()

    scale_txt = f", scale {args.scale:g}" if args.scale != 1.0 else ""
    print(f"workload {args.app} on {preset} with {threads} threads, "
          f"{mech} period {period}{scale_txt}\n")

    with tr.span("bench.baseline", "bench"):
        baseline = ExecutionEngine(
            *base_parts, threads, **engine_kwargs
        ).run()
    host_t0 = time.perf_counter()
    if workers > 1:
        with tr.span("bench.monitored", "bench"):
            # Imported here, as python -m repro does: it costs ~30 ms.
            from repro.parallel import ParallelEngine

            engine = ParallelEngine(
                machine_factory, build, threads, n_workers=workers,
                monitor_factory=make_profiler, **engine_kwargs,
            )
            monitored = engine.run()
            archive = engine.archive
    else:
        with tr.span("bench.monitored", "bench"):
            profiler = make_profiler()
            engine = ExecutionEngine(
                *mon_parts, threads, monitor=profiler, **engine_kwargs
            )
            monitored = engine.run()
            archive = profiler.archive
    host_wall_s = time.perf_counter() - host_t0
    phase_report = engine.phase_report
    if phase_report:
        skipped = (phase_report["extrapolated_exact"]
                   + phase_report["extrapolated_eps"])
        print(f"phase extrapolation: {skipped}/{phase_report['iterations']} "
              f"iterations skipped ({phase_report['coverage_pct']:.1f}% "
              f"coverage)\n")
    print(f"baseline {baseline.wall_seconds * 1e3:.2f} ms simulated; "
          f"monitoring overhead "
          f"{monitored.wall_seconds / baseline.wall_seconds - 1:+.1%}; "
          f"remote DRAM fraction {baseline.remote_dram_fraction:.0%}\n")

    with tr.span("bench.merge", "bench"):
        merged = merge_profiles(archive)
    with tr.span("bench.analyze", "bench"):
        analysis = NumaAnalysis(merged)
        lpi = analysis.program_lpi()
        remote = analysis.program_remote_fraction()

    runs_dir = Path(args.result).parent / "runs"
    with tr.span("bench.record", "bench"):
        manifest = build_manifest(
            kind="profile",
            workload=args.app,
            machine=preset,
            config={
                "mechanism": mech, "period": period, "scale": args.scale,
                "threads": threads, "workers": workers,
                "binding": "compact", "seed": args.seed,
            },
            flags={
                "memoize": memoize, "extrapolate": extrapolate,
                "metrics": False, "optimize": args.optimize,
                "report": args.report,
            },
            host_wall_s=host_wall_s,
            headline={
                "lpi_numa": lpi, "remote_fraction": remote,
                "chunks": monitored.total_chunks,
                "accesses": monitored.total_accesses,
            },
            simulated={
                "wall_cycles": monitored.wall_cycles,
                "wall_seconds": monitored.wall_seconds,
                "baseline_wall_seconds": baseline.wall_seconds,
            },
        )
        run_id = RunRegistry(runs_dir).record(manifest, archive=archive)
    print(f"run recorded: {run_id} -> {runs_dir / run_id}\n")

    with tr.span("bench.render", "bench"):
        if args.report:
            text = full_report(merged, top=6)
        else:
            if lpi is not None:
                verdict = "optimize" if lpi >= 0.1 else "not worth optimizing"
                head = f"lpi_NUMA = {lpi:.3f} ({verdict}; threshold 0.1)\n"
            else:
                head = (f"lpi_NUMA unavailable ({mech} measures no "
                        f"latency); remote fraction of sampled accesses = "
                        f"{remote:.0%}\n")
            panes = [head, code_centric_view(merged, max_depth=3),
                     data_centric_view(merged, top=6)]
            hot = analysis.hot_variables(top=1)
            if hot:
                panes += [address_centric_view(merged, hot[0].name, width=56),
                          first_touch_view(merged, hot[0].name)]
            text = "\n\n".join(panes) + "\n"
        print(text)

    with tr.span("bench.advise", "bench"):
        advice = advise(
            analysis, thread_domains={t.tid: t.domain for t in engine.threads}
        )
    print(f"advisor: {advice.rationale}")
    for rec in advice.recommendations:
        print(f"  -> {rec.rationale}")

    optimized = None
    if args.optimize and advice.worth_optimizing:
        with tr.span("bench.optimized", "bench"):
            tuning = apply_advice(advice, machine_factory().n_domains)
            optimized = ExecutionEngine(
                machine_factory(), build(tuning), threads,
                memoize=memoize, seed=args.seed,
            ).run()
        gain = baseline.wall_seconds / optimized.wall_seconds - 1
        print(f"\napplied: {tuning.describe()}")
        print(f"optimized run: {optimized.wall_seconds * 1e3:.2f} ms "
              f"({gain:+.1%}); remote DRAM fraction "
              f"{optimized.remote_dram_fraction:.0%}")
    sys.stdout.flush()

    eps_mode = bool(phase_report and phase_report["extrapolated_eps"])
    result = {
        "t_start": T_START,
        "t_setup": t_setup,
        "import_s": import_s,
        "digest": {
            "chunks": monitored.total_chunks,
            "accesses": monitored.total_accesses,
            "baseline_wall_cycles": baseline.wall_cycles,
            "monitored_wall_cycles": monitored.wall_cycles,
            "optimized_wall_cycles": (
                optimized.wall_cycles if optimized is not None else None
            ),
            "remote_dram_fraction": baseline.remote_dram_fraction,
            "program_lpi": lpi,
            "program_remote_fraction": remote,
            "recommendations": len(advice.recommendations),
        },
        # Jittered sampling makes extrapolated iterations a declared-ε
        # estimate; these fields then match the reference only within a
        # tolerance (see run.py).
        "eps_fields": (
            ["monitored_wall_cycles", "program_lpi",
             "program_remote_fraction"] if eps_mode else []
        ),
        "epsilon": phase_report["epsilon"] if eps_mode else 0.0,
    }
    if args.trace:
        obs.disable()
        result["layers"] = _layers(
            tr, workers, monitored, phase_report,
            getattr(engine, "shm_used", False), runs_dir,
        )
    return result


def _layers(tr, workers, monitored, phase_report, shm_used, runs_dir) -> dict:
    """Per-layer numbers of one traced run (see ``e2ebench/README.md``)."""
    layers = {name: 0.0 for name in set(SELF_BUCKETS.values())}
    layers["other_self_s"] = 0.0
    parent_self = 0.0
    for (track, name), sec in self_seconds(tr.events).items():
        bucket = SELF_BUCKETS.get(name, "other_self_s")
        layers[bucket] += sec
        if track == "harness" and bucket != "other_self_s":
            parent_self += sec
    for span, metric in INCLUSIVE.items():
        layers[metric] = tr.total_ns.get(("bench", span), 0) / 1e9
    # The monitored run is the sharded engine's when there are workers.
    monitored_s = layers["runtime.monitored_run_s"]
    if workers > 1:
        layers["runtime.monitored_run_s"] = 0.0
    layers["parallel.monitored_run_s"] = monitored_s if workers > 1 else 0.0
    # Named self-times of this process, for the coverage check.
    layers["bench.parent_self_s"] = parent_self

    c = tr.counters
    hits = c.get("engine.memo.hits", 0)
    lookups = hits + c.get("engine.memo.misses", 0)
    steps = c.get("engine.steps", 0)
    selected = c.get("sampling.samples.selected", 0)
    dropped = c.get("sampling.samples.dropped", 0)
    report = phase_report or {}
    layers.update({
        "runtime.accesses": monitored.total_accesses,
        "runtime.chunks": monitored.total_chunks,
        "runtime.ns_per_access": monitored_s * 1e9 / monitored.total_accesses,
        "runtime.memo_hit_rate": hits / lookups if lookups else 0.0,
        "runtime.memo_evictions": c.get("engine.memo.evicted", 0),
        "runtime.steps_batched_frac": (
            c.get("engine.steps_batched", 0) / steps if steps else 0.0
        ),
        "runtime.phase_coverage_pct": report.get("coverage_pct", 0.0),
        "runtime.phase_disarms": report.get("disarms", 0),
        "runtime.phase_breaks": report.get("breaks", 0),
        "sampling.samples_selected": selected,
        "sampling.samples_dropped_frac": (
            dropped / (selected + dropped) if selected + dropped else 0.0
        ),
        "profiler.first_touch_pages": c.get("profiler.first_touch_pages", 0),
        "parallel.shm_used": int(bool(shm_used)),
        "registry.bytes_written": sum(
            p.stat().st_size for p in runs_dir.rglob("*") if p.is_file()
        ),
    })
    return layers


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = run(args)
    result["t_end"] = time.monotonic()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
