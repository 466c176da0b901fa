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
  numpy function builds is charged to the simulator line calling it;
* ``rss_peak_phase`` and ``rss_phases``: the top-level phase in which
  the resident high-water mark (``VmHWM``) last rose, and every phase
  in which it rose with the mark (MB) at the phase's end. The hook
  reads ``VmHWM`` as each phase starts and ends: the workload build,
  each engine run, the profiler's flush, the merge and the registry
  record; time outside them is ``start-up`` or ``after <phase>``.
  The heap peak and the RSS high-water can sit in different phases.
* ``rss_startup`` and ``rss_at_peak``: the resident set split into
  ``anon_mb`` (``RssAnon``: heap and arrays) and ``file_mb``
  (``RssFile``: mapped files, such as OpenSSL's ``libcrypto`` once
  ``hashlib`` is imported), read as start-up ends (when the first
  phase opens) and at the phase boundary where ``VmHWM`` last rose.
  These fields and the two above are ``null`` where
  ``/proc/self/status`` is unreadable (off Linux).

Usage (from the repository root)::

    PYTHONPATH=src python scripts/memory_peak.py lulesh --scale 0.05 --no-save --quiet
    PYTHONPATH=src python scripts/memory_peak.py \\
        e2ebench/pipeline.py lulesh --optimize --scale 4 --result /tmp/r.json

Arguments are those of ``python -m repro``, or a script path and its
arguments. The command runs twice, untraced and then traced, with all
its side effects each time: without ``--no-save`` (or with a scratch
``--runs-dir``) the registry gets two records, and a ``--result`` file
is written twice. The traced run is several times slower than the bare
command. See ``docs/OBSERVABILITY.md``, "Memory".
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
#: (module, function name) -> the top-level phase it runs; a
#: workload's ``__init__`` is the build. Keyed on ``co_name``, which
#: every supported Python has (``co_qualname`` is 3.11+); each name is
#: unique in its module.
PHASES = {
    ("repro.runtime.engine", "run"): "engine run",
    ("repro.parallel.engine", "run"): "engine run",
    ("repro.profiler.profiler", "_flush"): "flush",
    ("repro.analysis.merge", "merge_profiles"): "merge",
    ("repro.registry.store", "record"): "record",
}
STATUS = Path("/proc/self/status")


def _status_mb(*keys: str) -> list[float] | None:
    """The ``/proc/self/status`` fields ``keys`` in MB, or None."""
    try:
        text = STATUS.read_text()
    except OSError:
        return None
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in keys:
            found[key] = int(value.split()[0]) / 1024
    if len(found) < len(keys):
        return None
    return [found[k] for k in keys]


def _hwm_mb() -> float | None:
    """The process's resident high-water mark (``VmHWM``), or None."""
    got = _status_mb("VmHWM")
    return None if got is None else got[0]


def _rss_split_mb() -> dict | None:
    """Resident memory now, split into anonymous pages (``RssAnon``:
    heap and arrays) and file pages (``RssFile``: mapped libraries such
    as OpenSSL's ``libcrypto``), or None."""
    got = _status_mb("RssAnon", "RssFile")
    return None if got is None else {"anon_mb": got[0], "file_mb": got[1]}


def _phase(frame) -> str | None:
    """The phase ``frame``'s function runs, or None."""
    module = frame.f_globals.get("__name__", "")
    if not module.startswith("repro."):
        return None
    name = frame.f_code.co_name
    if name == "__init__" and module.startswith("repro.workloads."):
        return "build"
    return PHASES.get((module, name))


class _RssPhases:
    """``VmHWM`` at each phase boundary, and where it rose; the
    ``RssAnon``/``RssFile`` split as start-up ends and where ``VmHWM``
    last rose."""

    def __init__(self) -> None:
        self.open: list[tuple[object, str]] = []
        self.last: str | None = None
        self.runs = 0
        self.hwm = _hwm_mb()
        self.rises: list[dict] = []
        self.startup: dict | None = None
        self.at_peak: dict | None = None

    def _label(self) -> str:
        """The phase now running."""
        if self.open:
            return self.open[-1][1]
        return "start-up" if self.last is None else f"after {self.last}"

    def _read(self, label: str) -> None:
        """Close the segment ``label`` at the current ``VmHWM``."""
        hwm = _hwm_mb()
        if label == "start-up":
            self.startup = _rss_split_mb()
        if hwm is not None and hwm > self.hwm:
            if self.rises and self.rises[-1]["phase"] == label:
                self.rises[-1]["hwm_mb"] = hwm
            else:
                self.rises.append({"phase": label, "hwm_mb": hwm})
            self.hwm = hwm
            self.at_peak = _rss_split_mb()

    def event(self, frame, event: str) -> None:
        if event == "call":
            phase = _phase(frame)
            if phase is None:
                return
            self._read(self._label())
            if phase == "engine run":
                self.runs += 1
                phase = f"engine run {self.runs}"
            elif self.open and phase == "build":
                phase = self.open[-1][1]
            self.open.append((frame, phase))
        elif event == "return" and self.open and self.open[-1][0] is frame:
            self._read(self._label())
            self.last = self.open.pop()[1]

    def report(self) -> dict:
        self._read(self._label())
        return {
            "rss_hwm_mb": self.hwm,
            "rss_peak_phase": self.rises[-1]["phase"] if self.rises else None,
            "rss_phases": self.rises,
            "rss_startup": self.startup,
            "rss_at_peak": self.at_peak,
        }


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


def _run_command(argv: list[str], out) -> None:
    """Run ``argv`` in this interpreter, its stdout going to ``out``."""
    if argv and argv[0].endswith(".py"):
        target, run_it = argv[0], runpy.run_path
    else:
        target, run_it = "repro", runpy.run_module
        argv = ["repro", *argv]
    saved = sys.argv
    sys.argv = list(argv)
    try:
        with contextlib.redirect_stdout(out):
            run_it(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sys.argv = saved


def rss_phases(argv: list[str]) -> dict:
    """Run ``argv`` once with only the phase hook, in a forked child.

    Untraced, so ``VmHWM`` is the command's own: tracemalloc's
    bookkeeping would add tens of MB that grow with the live objects.
    """
    none = {
        "rss_hwm_mb": None, "rss_peak_phase": None, "rss_phases": None,
        "rss_startup": None, "rss_at_peak": None,
    }
    if _hwm_mb() is None or not hasattr(os, "fork"):
        return none
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            phases = _RssPhases()
            sys.setprofile(lambda frame, event, _arg: phases.event(frame, event))
            try:
                with open(os.devnull, "w") as null:
                    _run_command(argv, null)
            finally:
                sys.setprofile(None)
            with os.fdopen(write, "w") as fh:
                json.dump(phases.report(), fh)
            code = 0
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"the untraced run failed (wait status {status})")
    return json.loads(text)


def run(argv: list[str]) -> dict:
    """Run ``argv`` untraced, then under tracemalloc; returns the report."""
    rss = rss_phases(argv)
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

    tracemalloc.start(FRAMES)
    sys.setprofile(profile)
    try:
        _run_command(argv, sys.stderr)
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    snap = state["snap"].filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    return {
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced_peak_mb": peak / MB,
        "at_peak": {"function": state["stack"][0], "stack": state["stack"]},
        "snapshot_mb": state["snap_bytes"] / MB,
        "top": _top(snap),
        **rss,
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
