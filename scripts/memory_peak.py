#!/usr/bin/env python
"""Where one run's memory peak sits: the function and the allocations.

Runs one command in this interpreter under ``tracemalloc`` and a
``sys.setprofile`` hook, then prints JSON to stdout (the command's own
stdout goes to stderr):

* ``ru_maxrss_mb``: the process's peak resident set, from
  ``getrusage`` — it includes the interpreter, numpy and tracemalloc's
  own bookkeeping, so it reads above ``python -m repro`` alone;
* ``traced_peak_mb``: the peak of the Python heap tracemalloc saw;
* ``at_peak``: the Python function running when that peak was last
  raised, with its call stack (innermost first);
* ``snapshot_mb`` and ``top``: the 10 allocation sites (``file:line``,
  ``bytes``, ``blocks``) live at the highest heap the hook saw between
  two calls. That heap lies within a few percent of the peak, below it
  by the temporaries a single numpy expression holds. A site is the
  innermost ``repro`` line of the allocation's stack, so an array a
  numpy function builds is charged to the simulator line calling it.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/memory_peak.py lulesh --scale 0.05 --no-save --quiet
    PYTHONPATH=src python scripts/memory_peak.py \\
        e2ebench/pipeline.py lulesh --optimize --scale 4 --result /tmp/r.json

Arguments are those of ``python -m repro``, or a script path and its
arguments. The hook slows the run several-fold. See
``docs/OBSERVABILITY.md``, "Memory".
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import resource
import runpy
import sys
import sysconfig
import tracemalloc
from pathlib import Path

#: A snapshot is taken when the heap seen between calls first exceeds
#: the last snapshot by this fraction, so a run takes a few dozen.
SNAPSHOT_STEP = 0.02
TOP = 10
#: Stack depth kept per allocation, enough to reach the simulator
#: line below numpy's Python wrappers.
FRAMES = 12
MB = 1024 * 1024
STDLIB = Path(sysconfig.get_paths()["stdlib"])
REPRO = f"{os.sep}repro{os.sep}"


def _where(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)
    return f"{frame.f_globals.get('__name__', '?')}:{name}:{frame.f_lineno}"


def _stack(frame, depth: int = 8) -> list[str]:
    out = []
    while frame is not None and len(out) < depth:
        out.append(_where(frame))
        frame = frame.f_back
    return out


def _short(path: str) -> str:
    """A file path relative to the package tree that holds it."""
    parts = Path(path).parts
    for anchor in ("site-packages", "src", "e2ebench", "scripts"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor) + 1:])
    if Path(path).is_relative_to(STDLIB):
        return f"stdlib/{Path(path).relative_to(STDLIB)}"
    return path


def _site(traceback) -> str:
    """``file:line`` of the innermost ``repro`` frame, else the innermost."""
    # A tracemalloc traceback runs from the oldest frame to the newest.
    frame = next(
        (f for f in reversed(traceback) if REPRO in f.filename),
        traceback[-1],
    )
    return f"{_short(frame.filename)}:{frame.lineno}"


def _top(snapshot) -> list[dict]:
    """The ``TOP`` largest sites of a snapshot's live allocations."""
    size, blocks = collections.Counter(), collections.Counter()
    for trace in snapshot.traces:
        site = _site(trace.traceback)
        size[site] += trace.size
        blocks[site] += 1
    return [
        {"site": site, "bytes": n, "blocks": blocks[site]}
        for site, n in size.most_common(TOP)
    ]


def run(argv: list[str]) -> dict:
    """Run ``argv`` under tracemalloc; returns the peak's report."""
    state = {"peak": 0, "stack": [], "snap": None, "snap_bytes": 0}

    def profile(frame, event, _arg):
        current, peak = tracemalloc.get_traced_memory()
        if peak > state["peak"]:
            # The peak rose since the last event; a "call" event's frame
            # is the callee, so the allocation was its caller's.
            state["peak"] = peak
            state["stack"] = _stack(frame.f_back if event == "call" else frame)
        if current > state["snap_bytes"] * (1 + SNAPSHOT_STEP):
            state["snap"] = tracemalloc.take_snapshot()
            state["snap_bytes"] = current

    if argv and argv[0].endswith(".py"):
        target, run_it = argv[0], runpy.run_path
    else:
        target, run_it = "repro", runpy.run_module
        argv = ["repro", *argv]
    saved = sys.argv
    sys.argv = list(argv)
    tracemalloc.start(FRAMES)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run_it(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sys.argv = saved
    snap = state["snap"].filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    return {
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced_peak_mb": peak / MB,
        "at_peak": {"function": state["stack"][0], "stack": state["stack"]},
        "snapshot_mb": state["snap_bytes"] / MB,
        "top": _top(snap),
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(run(argv), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
