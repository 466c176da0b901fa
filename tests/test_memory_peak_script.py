"""``scripts/memory_peak.py`` names the phase that set the RSS high-water.

The script reads ``VmHWM`` at each top-level phase boundary (workload
build, engine runs, flush, merge, registry record) of an untraced run
and reports every phase in which the mark rose, with the anonymous and
file-backed resident set as start-up ends and where the mark last rose.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "memory_peak.py"


@pytest.fixture(scope="module")
def mp():
    spec = importlib.util.spec_from_file_location("memory_peak", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rises_are_charged_to_the_phase_running(mp, monkeypatch):
    hwm = iter([30.0, 31.0, 31.0, 32.0, 40.0, 41.0, 41.0, 41.0, 45.0, 45.0])
    monkeypatch.setattr(mp, "_hwm_mb", lambda: next(hwm))
    # The split is read as start-up ends and at every rise.
    reads = iter(range(1, 100))
    monkeypatch.setattr(mp, "_rss_split_mb", lambda: {
        "anon_mb": float(next(reads)), "file_mb": 9.0,
    })
    monkeypatch.setattr(mp, "_phase", lambda frame: frame.phase)
    build, run, flush, record = (
        types.SimpleNamespace(phase=p)
        for p in ("build", "engine run", "flush", "record")
    )
    phases = mp._RssPhases()                 # 30
    phases.event(build, "call")              # 31: start-up
    phases.event(build, "return")            # 31
    phases.event(run, "call")                # 32: after build
    phases.event(flush, "call")              # 40: engine run 1
    phases.event(flush, "return")            # 41: flush
    phases.event(run, "return")              # 41
    phases.event(record, "call")             # 41
    phases.event(record, "return")           # 45: record
    assert phases.report() == {               # 45
        "rss_hwm_mb": 45.0,
        "rss_peak_phase": "record",
        "rss_phases": [
            {"phase": "start-up", "hwm_mb": 31.0},
            {"phase": "after build", "hwm_mb": 32.0},
            {"phase": "engine run 1", "hwm_mb": 40.0},
            {"phase": "flush", "hwm_mb": 41.0},
            {"phase": "record", "hwm_mb": 45.0},
        ],
        # Read 1 ends start-up; reads 2-6 follow the five rises.
        "rss_startup": {"anon_mb": 1.0, "file_mb": 9.0},
        "rss_at_peak": {"anon_mb": 6.0, "file_mb": 9.0},
    }


def test_status_fields_are_parsed_and_null_when_unreadable(
    mp, monkeypatch, tmp_path
):
    status = tmp_path / "status"
    status.write_text(
        "Name:\tpython\nVmHWM:\t  51200 kB\nRssAnon:\t   20480 kB\n"
        "RssFile:\t   15360 kB\nRssShmem:\t       0 kB\n"
    )
    monkeypatch.setattr(mp, "STATUS", status)
    assert mp._hwm_mb() == 50.0
    assert mp._rss_split_mb() == {"anon_mb": 20.0, "file_mb": 15.0}
    status.write_text("Name:\tpython\nVmHWM:\t  51200 kB\n")
    assert mp._rss_split_mb() is None
    monkeypatch.setattr(mp, "STATUS", tmp_path / "missing")
    assert mp._hwm_mb() is None and mp._rss_split_mb() is None
    phases = mp._RssPhases()
    assert phases.report() == {
        "rss_hwm_mb": None, "rss_peak_phase": None, "rss_phases": [],
        "rss_startup": None, "rss_at_peak": None,
    }


def test_phase_functions_are_recognised(mp, monkeypatch, tmp_path):
    # A mark that rises at every read makes every segment a rise, so
    # the report lists each phase the hook opened.
    hwm = iter(range(10**6))
    monkeypatch.setattr(mp, "_hwm_mb", lambda: float(next(hwm)))
    phases = mp._RssPhases()
    sys.setprofile(lambda frame, event, _arg: phases.event(frame, event))
    try:
        with open(os.devnull, "w") as null:
            mp._run_command([
                "lulesh", "--scale", "0.02", "--threads", "4",
                "--runs-dir", str(tmp_path / "runs"), "--quiet",
            ], null)
    finally:
        sys.setprofile(None)
    seen = [r["phase"] for r in phases.report()["rss_phases"]]
    assert not phases.open and phases.last == "record"
    for phase in ("build", "engine run 1", "flush", "merge", "record"):
        assert phase in seen, (phase, seen)
    # The baseline comes from the monitored run: one engine run.
    assert "engine run 2" not in seen, seen


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc")
def test_untraced_run_reports_its_phases(tmp_path):
    # A fresh interpreter, as in real use: a child forked from the test
    # process would start from that process's high-water.
    code = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('mp', {str(SCRIPT)!r})\n"
        "mp = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mp)\n"
        "print(json.dumps(mp.rss_phases(sys.argv[1:])))\n"
    )
    src = str(SCRIPT.parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
    out = subprocess.run(
        [sys.executable, "-c", code, "lulesh", "--scale", "0.02",
         "--threads", "4", "--runs-dir", str(tmp_path / "runs"), "--quiet"],
        capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    rises = got["rss_phases"]
    marks = [r["hwm_mb"] for r in rises]
    assert marks == sorted(marks) and marks[0] > 0
    assert got["rss_peak_phase"] == rises[-1]["phase"]
    assert got["rss_hwm_mb"] == marks[-1]
    # The monitored run alone raises the mark by several MB.
    assert any(r["phase"].startswith("engine run") for r in rises)
    # The resident set at start-up holds the interpreter's and numpy's
    # mapped files; anonymous memory grows into the run.
    start, peak = got["rss_startup"], got["rss_at_peak"]
    assert start["anon_mb"] > 0 and start["file_mb"] > 0
    assert peak["anon_mb"] > start["anon_mb"]
    assert peak["anon_mb"] + peak["file_mb"] <= got["rss_hwm_mb"] + 1.0
    assert (tmp_path / "runs").is_dir()
