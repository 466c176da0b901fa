"""End-to-end benchmark of ``python -m repro`` on four paper workloads.

Usage, from the repository root::

    python3 e2ebench/run.py                       # every workload, seed 0
    python3 e2ebench/run.py --seed 1 --workloads amg-sharded --out r.json
    python3 e2ebench/run.py --workload amg-sharded --seed 3 --seconds 20 \\
        --trace 1                                 # one workload, JSON line
    python3 e2ebench/run.py --compare A.json B.json
    python3 e2ebench/run.py --bless               # rewrite expected/

Each workload is a closed loop with one client: fresh subprocesses of
``e2ebench/pipeline.py`` run one after another for ``--seconds``. The
first run of each loop takes the reference path (memoization off,
serial, every iteration simulated); it warms the host up, is not timed,
and its digest of simulated results is what every timed run must
reproduce. End-to-end metrics come from untraced runs. Per-layer
metrics come from the traced runs that follow, each the median over
those runs. See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"
HISTORY = BENCH / "results" / "history.jsonl"

#: Workload -> the ``python -m repro`` arguments it runs.
WORKLOADS = {
    "lulesh-optimize": ["lulesh", "--optimize", "--scale", "4"],
    "amg-sharded": ["amg", "--workers", "2", "--scale", "16"],
    "umt-mrk-extrap": ["umt", "--extrapolate", "--scale", "2"],
    "blackscholes-extrap": [
        "blackscholes", "--extrapolate", "--report", "--scale", "4",
    ],
}

#: End-to-end metric -> unit; ``fail_rate`` may not rise at all.
E2E_UNITS = {
    "e2e_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "fail_rate": "ratio",
}
FAIL_RATE_BOUND = 0.0

#: Timed runs per loop even when ``--seconds`` is shorter than they take.
MIN_RUNS = 3
#: Traced runs per workload that give the per-layer medians.
TRACED_RUNS = 3
#: A pipeline run still going after this long is killed, with any
#: workers it forked, and fails. The slowest run (lulesh's reference)
#: takes ~10 s.
RUN_TIMEOUT_S = 60.0
#: An ε-mode field always passes within this (relative), because at a
#: declared ε of 0 the two paths still add the same floats in a
#: different order.
FLOAT_ORDER_TOL = 1e-9
#: The declared ε bounds the monitor's cycle accounting. lpi and remote
#: fraction in ε mode are sampled estimates that stray further whatever
#: ε is: blackscholes seeds 0-15 put lpi up to 16% (6.2 ε) off the
#: reference. They pass within this relative tolerance instead.
ESTIMATE_FIELDS = ("program_lpi", "program_remote_fraction")
ESTIMATE_TOL = 0.3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------- #
# one pipeline run
# ---------------------------------------------------------------------- #


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    """Whether a process group has a member that is not a zombie."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp ...": comm may hold spaces.
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of a run's group has ended.

    Helpers a run starts can outlive it briefly (multiprocessing's
    resource tracker exits only after its parent); the next run must not
    share the host with them. Whatever is left after ``timeout`` is
    killed.
    """
    deadline = time.monotonic() + timeout
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            _kill_group(pgid)
            return
        time.sleep(0.01)


def run_pipeline(
    workload: str, seed: int, *, trace: bool = False,
    reference: bool = False, scale: float | None = None,
) -> dict:
    """Spawn one ``pipeline.py`` process and measure it from outside.

    Returns ``ok`` (exit code 0 and a result file), the wall from spawn
    to exit, set-up time, peak RSS of the process tree, and the
    pipeline's own result (digest, and layers when traced).
    """
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        result_path = tmp / "result.json"
        argv = list(WORKLOADS[workload])
        if scale is not None:
            argv += ["--scale", f"{scale:g}"]
        cmd = [
            sys.executable, str(BENCH / "pipeline.py"), *argv,
            "--seed", str(seed), "--result", str(result_path),
        ]
        if trace:
            cmd.append("--trace")
        if reference:
            cmd.append("--reference")
        env = dict(os.environ, TMPDIR=str(tmp))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        with open(tmp / "stderr.txt", "w+") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
            watchdog = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t_exit = time.monotonic()
            _wait_group_gone(proc.pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        run = {
            "ok": proc.returncode == 0 and result_path.is_file(),
            "rc": proc.returncode,
            "wall_s": t_exit - t_spawn,
            # ru_maxrss is in KiB on Linux and covers waited-for children.
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        if not run["ok"]:
            run["error"] = stderr.strip().splitlines()[-1:] or ["no result"]
            return run
        res = json.loads(result_path.read_text())
    run["setup_s"] = res["t_setup"] - t_spawn
    run["digest"] = res["digest"]
    run["eps_fields"] = res["eps_fields"]
    run["epsilon"] = res["epsilon"]
    if "layers" in res:
        layers = res["layers"]
        layers["repro.import_s"] = res["import_s"]
        layers["python.startup_s"] = res["t_start"] - t_spawn
        layers["python.exit_s"] = t_exit - res["t_end"]
        named = layers.pop("bench.parent_self_s") + sum(
            layers[k] for k in
            ("repro.import_s", "python.startup_s", "python.exit_s")
        )
        layers["obs.self_coverage_pct"] = 100.0 * named / run["wall_s"]
        run["layers"] = layers
    return run


def digest_mismatch(run: dict, expected: dict) -> list[str]:
    """Fields of ``run``'s digest that do not reproduce ``expected``.

    Fields the run computed in ε mode pass within its declared ε
    (relative), or ``ESTIMATE_TOL`` for sampled estimates; every other
    field must be equal.
    """
    bad = []
    for key, want in expected.items():
        got = run["digest"].get(key)
        if key in run["eps_fields"] and want and got is not None:
            tol = max(run["epsilon"], FLOAT_ORDER_TOL)
            if key in ESTIMATE_FIELDS:
                tol = max(tol, ESTIMATE_TOL)
            if abs(got - want) <= tol * abs(want):
                continue
        elif got == want:
            continue
        bad.append(f"{key}: {got!r} != {want!r}")
    return bad


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED / f"{workload}.seed{seed}.json"


# ---------------------------------------------------------------------- #
# one workload's closed loop
# ---------------------------------------------------------------------- #


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count; a tail percentile only when at least
    ten samples lie beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    else:
        out["q1"] = out["q3"] = values[0]
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    out["runs"] = list(values)
    return out


def measure(workload: str, seed: int, seconds: float, traced: int) -> dict:
    """Reference run, then ``seconds`` of timed runs, then ``traced``
    traced runs; every run's digest is checked."""
    ref = run_pipeline(workload, seed, reference=True)
    if not ref["ok"]:
        raise BenchError(
            f"{workload}: reference run failed (exit {ref['rc']}): "
            f"{ref['error'][0]}"
        )
    problems = []
    exp_file = expected_path(workload, seed)
    if exp_file.is_file():
        bad = digest_mismatch(ref, json.loads(exp_file.read_text()))
        problems += [f"reference vs {exp_file.name}: {b}" for b in bad]
    failed = int(bool(problems))
    first_digest = None

    def check(run: dict) -> dict:
        nonlocal failed, first_digest
        if run["ok"]:
            bad = digest_mismatch(run, ref["digest"])
            first_digest = first_digest or run["digest"]
            if run["digest"] != first_digest:
                bad.append("digest differs between repeats")
            if bad:
                run["ok"] = False
                run["error"] = bad
        if not run["ok"]:
            failed += 1
            problems.append(run["error"][0])
        return run

    runs = []
    t0 = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - t0 < seconds:
        runs.append(check(run_pipeline(workload, seed)))
    traced_runs = [
        check(run_pipeline(workload, seed, trace=True)) for _ in range(traced)
    ]
    ok = [r for r in runs if r["ok"]]
    attempted = 1 + len(runs) + len(traced_runs)
    out = {
        "argv": WORKLOADS[workload],
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": ref["digest"],
        "e2e": {},
        "layers": {},
    }
    if ok:
        out["e2e"] = {
            "e2e_wall_s": summarize([r["wall_s"] for r in ok]),
            "setup_s": summarize([r["setup_s"] for r in ok]),
            "peak_rss_mb": summarize([r["rss_mb"] for r in ok]),
        }
    out["e2e"]["fail_rate"] = summarize([failed / attempted])
    layer_runs = [r["layers"] for r in traced_runs if r["ok"]]
    if layer_runs:
        out["layers"] = {
            name: statistics.median(lr[name] for lr in layer_runs)
            for name in layer_runs[0]
        }
        if ok:
            out["layers"]["obs.trace_overhead_pct"] = 100.0 * (
                statistics.median(r["wall_s"] for r in traced_runs if r["ok"])
                / out["e2e"]["e2e_wall_s"]["median"] - 1.0
            )
    return out


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_access"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_fingerprint() -> dict:
    def git(*args: str) -> str | None:
        # The ceiling keeps git from reporting an enclosing repository
        # when this tree is a plain copy.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_tables(doc: dict) -> None:
    for name, w in doc["workloads"].items():
        print(f"\n{name}  (python -m repro {' '.join(w['argv'])}; "
              f"seed {w['seed']}; {w['attempted']} runs, "
              f"{w['failed']} failed)")
        print(f"  {'metric':<14} {'unit':<6} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'n':>4}")
        for metric, s in w["e2e"].items():
            print(f"  {metric:<14} {E2E_UNITS[metric]:<6} "
                  f"{_fmt(s['median']):>10} {_fmt(s['q1']):>10} "
                  f"{_fmt(s['q3']):>10} {s['n']:>4}")
        for p in w["problems"]:
            print(f"  FAILED: {p}")
    names = list(doc["workloads"])
    layers = sorted({k for w in doc["workloads"].values() for k in w["layers"]})
    if not layers:
        return
    print(f"\nper-layer medians over {TRACED_RUNS} traced runs")
    print(f"  {'layer metric':<34} {'unit':<6}"
          + "".join(f" {n[:20]:>20}" for n in names))
    for layer in layers:
        cells = "".join(
            f" {_fmt(doc['workloads'][n]['layers'].get(layer, '-')):>20}"
            for n in names
        )
        print(f"  {layer:<34} {layer_unit(layer):<6}{cells}")


def append_history(doc: dict) -> None:
    line = {
        "time": doc["time"],
        "git_sha": doc["host"]["git_sha"],
        "git_dirty": doc["host"]["git_dirty"],
        "nproc": doc["host"]["nproc"],
        "seconds": doc["seconds"],
        "workloads": {
            name: {
                "seed": w["seed"],
                **{m: s["median"] for m, s in w["e2e"].items()},
            }
            for name, w in doc["workloads"].items()
        },
    }
    HISTORY.parent.mkdir(exist_ok=True)
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def _spread(runs: list[float]) -> float:
    s = summarize(runs)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(runs_a: list[float], runs_b: list[float], bound: float):
    """``(delta, status)`` of B against A for a lower-is-better metric.

    ``better`` when every run of B beats every run of A; otherwise
    ``unresolved`` when either side's quartile spread exceeds the bound,
    ``REGRESSION`` when B's median is worse by more than the bound, and
    ``ok`` otherwise.
    """
    ma, mb = statistics.median(runs_a), statistics.median(runs_b)
    delta = (mb - ma) / ma if ma else (0.0 if mb == ma else math.inf)
    if max(runs_b) < min(runs_a):
        return delta, "better"
    if max(_spread(runs_a), _spread(runs_b)) > bound:
        return delta, "unresolved"
    if delta > bound:
        return delta, "REGRESSION"
    return delta, "ok"


def compare(doc_a: dict, doc_b: dict, bounds: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, A, B, delta, bound, status)`` and
    whether any row is a regression."""
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        for metric, bound in bounds.items():
            if metric not in wa["e2e"] or metric not in wb["e2e"]:
                continue
            sa, sb = wa["e2e"][metric], wb["e2e"][metric]
            delta, status = verdict(sa["runs"], sb["runs"], bound)
            rows.append((name, metric, sa, sb, delta, bound, status))
    return rows, any(r[-1] == "REGRESSION" for r in rows)


def run_compare(path_a: str, path_b: str) -> int:
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    bounds["fail_rate"] = FAIL_RATE_BOUND
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rows, regressed = compare(doc_a, doc_b, bounds)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"  {'workload':<20} {'metric':<12} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'delta':>8} {'bound':>6}  status")
    for name, metric, sa, sb, delta, bound, status in rows:
        def cell(s):
            return (f"{_fmt(s['median'])} [{_fmt(s['q1'])}, "
                    f"{_fmt(s['q3'])}]")
        print(f"  {name:<20} {metric:<12} {cell(sa):>28} {cell(sb):>28} "
              f"{delta:>+8.1%} {bound:>6.0%}  {status}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


def contract_line(w: dict, trace: bool) -> dict:
    """The one-line result for a single workload: end-to-end metrics, or
    the per-layer ones with ``trace``, as ``BENCHMARK.json`` lists them."""
    spec = benchmark_spec()
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if trace:
            value = w["layers"].get(m["name"])
        else:
            value = w["e2e"].get(m["name"], {}).get("median")
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": w["failed"] == 0 and len(metrics) == len(
            spec["per_layer" if trace else "end_to_end"]
        ),
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }


def bless() -> None:
    """Rewrite ``expected/`` from reference runs of seeds 0 and 1."""
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in (0, 1):
            ref = run_pipeline(workload, seed, reference=True)
            if not ref["ok"]:
                raise BenchError(f"{workload} seed {seed}: {ref['error'][0]}")
            path = expected_path(workload, seed)
            path.write_text(json.dumps(ref["digest"], indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of python -m repro "
        "(see e2ebench/README.md)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print its result as "
                        "one JSON line")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS),
                        help="workloads of a full run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed loop (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 1 reports the per-layer "
                        "metrics instead of the end-to-end ones")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result documents")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite expected/ digests for seeds 0 and 1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.bless:
            bless()
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        names = [args.workload] if args.workload else args.workloads
        traced = TRACED_RUNS if args.workload is None or args.trace else 0
        doc = {
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "host": host_fingerprint(),
            "seconds": seconds,
            "workloads": {
                name: measure(name, args.seed, seconds, traced)
                for name in names
            },
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    append_history(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print_tables(doc)
    failed = any(w["failed"] for w in doc["workloads"].values())
    if args.workload:
        line = contract_line(doc["workloads"][args.workload], bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
