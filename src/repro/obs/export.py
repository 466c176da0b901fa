"""Exporters for collected telemetry: Chrome trace, JSONL, text summary.

Three consumers, three formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``B``/``E`` duration pairs plus ``M``
  metadata), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``. One track per simulated thread plus a
  ``harness`` track for the reproduction's own pipeline.
* :func:`write_jsonl` — a structured-log sink: one JSON object per line,
  events first, then counters and gauges. Greppable, diffable.
* :func:`summary_table` — a fixed-width run summary of span self-times
  and counter values for terminal output (``--stats``).

:func:`validate_chrome_trace` is the schema check CI runs against the
smoke trace: well-formed JSON, monotonic timestamps, matched ``B``/``E``
pairs per track.

Simulated-thread tracks are *mirrors* (:meth:`Tracer.pair`): display
copies of harness work, already counted on the harness track. Both
trace formats mark them — ``"mirror": true`` in the Chrome
``thread_name`` metadata args and a ``mirror`` field on every JSONL
event — so an external span sum can skip them and match
:attr:`Tracer.self_ns`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace",
    "is_mirror_track",
    "write_chrome_trace",
    "write_jsonl",
    "summary_table",
    "phase_breakdown",
    "validate_chrome_trace",
]

#: Chrome pid used for every event (one simulated process).
_PID = 1

#: Chrome tid of the harness track; simulated thread ``t`` maps to
#: ``t + 1 + _HARNESS_TID`` so thread tracks sort below the harness.
_HARNESS_TID = 0

#: Chrome tid base for stitched worker-process harness tracks
#: (``"w<k>"`` from sharded runs) — far above any simulated thread id
#: so worker tracks sort at the bottom.
_WORKER_TID_BASE = 100_000


def _track_tid(track) -> int:
    if track == "harness":
        return _HARNESS_TID
    if isinstance(track, str) and track[:1] == "w" and track[1:].isdigit():
        return _WORKER_TID_BASE + int(track[1:])
    return int(track) + 1 + _HARNESS_TID


def is_mirror_track(track) -> bool:
    """Whether ``track`` is a simulated thread's mirror track.

    Harness work lands on ``"harness"`` or a stitched worker's
    ``"w<k>"``; every numeric track is a simulated thread id.
    """
    return not isinstance(track, str)


def _track_name(track) -> str:
    if track == "harness":
        return "harness"
    if isinstance(track, str) and track[:1] == "w" and track[1:].isdigit():
        return f"worker {track[1:]}"
    return f"thread {track}"


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer's events as a Chrome trace-event document.

    Events are sorted by timestamp (stable, so same-timestamp nesting
    keeps emission order) which makes ``ts`` monotonic in file order —
    a property :func:`validate_chrome_trace` checks.
    """
    tracks = sorted(
        {ev[3] for ev in tracer.events},
        key=_track_tid,
    )
    events: list[dict] = []
    for track in tracks:
        meta = {"name": _track_name(track)}
        if is_mirror_track(track):
            meta["mirror"] = True
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID,
            "tid": _track_tid(track), "ts": 0, "args": meta,
        })
    for ph, name, cat, track, ts_ns, args in sorted(
        tracer.events, key=lambda ev: ev[4]
    ):
        ev = {
            "name": name, "cat": cat, "ph": ph, "pid": _PID,
            "tid": _track_tid(track), "ts": ts_ns / 1000.0,
        }
        if args:
            ev["args"] = args
        events.append(ev)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": dict(tracer.counters),
            "gauges": dict(tracer.gauges),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh)
    return path


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write events + counters + gauges as one JSON object per line."""
    path = Path(path)
    with open(path, "w") as fh:
        for ph, name, cat, track, ts_ns, args in tracer.events:
            rec = {
                "type": "event", "ph": ph, "name": name, "cat": cat,
                "track": track, "ts_ns": ts_ns,
                "mirror": is_mirror_track(track),
            }
            if args:
                rec["args"] = args
            fh.write(json.dumps(rec) + "\n")
        for name, value in sorted(tracer.counters.items()):
            fh.write(json.dumps(
                {"type": "counter", "name": name, "value": value}
            ) + "\n")
        for name, value in sorted(tracer.gauges.items()):
            fh.write(json.dumps(
                {"type": "gauge", "name": name, "value": value}
            ) + "\n")
    return path


def phase_breakdown(tracer: Tracer) -> dict:
    """Per-phase self-time accounting for overhead attribution.

    Returns ``{"by_category": {...}, "by_span": {...}, "total_self_s"}``
    where self-times over all spans partition the root span's duration —
    the paper-Section-7 view of where the tool's own time goes (engine
    vs. sampling vs. attribution vs. flush).
    """
    by_cat = tracer.category_self_seconds()
    return {
        "by_category": by_cat,
        "by_span": tracer.span_self_seconds(),
        "total_self_s": sum(by_cat.values()),
    }


def summary_table(tracer: Tracer) -> str:
    """Fixed-width text summary of spans, counters, and gauges."""
    lines = ["telemetry summary — spans"]
    header = f"  {'span':<34} {'cat':<10} {'calls':>8} {'total ms':>10} {'self ms':>10}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for (cat, name), total in sorted(
        tracer.total_ns.items(), key=lambda kv: -kv[1]
    ):
        lines.append(
            f"  {name:<34} {cat:<10} {tracer.calls[(cat, name)]:>8} "
            f"{total / 1e6:>10.2f} {tracer.self_ns[(cat, name)] / 1e6:>10.2f}"
        )
    if tracer.counters:
        lines.append("")
        lines.append("telemetry summary — counters")
        for name, value in sorted(tracer.counters.items()):
            lines.append(f"  {name:<46} {value:>14,.0f}")
    if tracer.gauges:
        lines.append("")
        lines.append("telemetry summary — gauges")
        for name, value in sorted(tracer.gauges.items()):
            lines.append(f"  {name:<46} {value:>14,.0f}")
    metrics = getattr(tracer, "metrics", None)
    if metrics is not None and metrics.n_samples:
        last = metrics.last_values()
        lines.append("")
        lines.append(
            f"telemetry summary — metrics plane "
            f"({metrics.n_samples} samples, {metrics.dropped} dropped)"
        )
        for label, key, fmt in (
            ("memo hit-rate", "engine.memo.hit_rate", "{:>14.1%}"),
            ("phase coverage %", "engine.phase.coverage_pct", "{:>14.1f}"),
            ("chunks/s", "engine.rate.chunks_per_s", "{:>14,.0f}"),
        ):
            if key in last:
                lines.append(
                    f"  {label:<46} " + fmt.format(last[key])
                )
    return "\n".join(lines)


def validate_chrome_trace(doc: dict | str | Path) -> list[str]:
    """Check a Chrome trace-event document; returns a list of problems.

    Accepts a parsed document or a path to a JSON file. Checks:

    * top level is an object with a ``traceEvents`` list;
    * every event has ``name``/``ph``/``pid``/``tid`` and (except ``M``
      metadata) a numeric non-negative ``ts``;
    * ``ts`` is monotonically non-decreasing in file order;
    * per (pid, tid) track, ``B``/``E`` events match like brackets with
      matching names (well-nested spans), and nothing is left open.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        path = Path(doc)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable trace {path}: {exc}"]
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        return ["top level must be an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not events:
        problems.append("traceEvents is empty")
    last_ts = None
    stacks: dict[tuple, list[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        missing = [k for k in ("name", "ph", "pid", "tid") if k not in ev]
        if missing:
            problems.append(f"event {i} missing {missing}")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has invalid ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i} ts {ts} decreases (previous {last_ts})"
            )
        last_ts = ts
        track = (ev["pid"], ev["tid"])
        stack = stacks.setdefault(track, [])
        if ph == "B":
            stack.append(ev["name"])
        elif ph == "E":
            if not stack:
                problems.append(f"event {i}: E without open B on {track}")
            elif stack[-1] != ev["name"]:
                problems.append(
                    f"event {i}: E {ev['name']!r} closes open span "
                    f"{stack[-1]!r} on {track}"
                )
                stack.pop()
            else:
                stack.pop()
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track} left spans open: {stack}")
    return problems
