"""Profile archive serialization: the write side.

The real tool's measurement side (hpcrun) writes one profile file per
thread; the analyzer (hpcprof) reads them back postmortem. This module
provides the same separation for the simulated tool: a
:class:`~repro.profiler.profile_data.ProfileArchive` round-trips through
a single JSON document (human-inspectable, dependency-free), so
measurement and analysis can run in different processes or sessions.
The reader is :func:`repro.analysis.postmortem.load_archive`.

Capabilities are stored field-by-field; CCTs are stored as flattened
(path, metrics) rows; per-variable range arrays keep their (n_bins+1, 2)
shape. ``load_archive(save_archive(a))`` reproduces every quantity the
analyzer consumes — validated by the round-trip tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.profiler.cct import CCT
from repro.profiler.profile_data import FirstTouchRecord, ProfileArchive, VarRecord
from repro.runtime.callstack import SourceLoc

FORMAT_VERSION = 1


# ---------------------------------------------------------------------- #
# encoding helpers
# ---------------------------------------------------------------------- #

def _loc(frame: SourceLoc) -> list:
    return [frame.func, frame.file, frame.line]


def _path(path) -> list:
    return [_loc(f) for f in path]


def _cct(cct: CCT) -> list:
    rows = []
    for node in cct.root.walk():
        if node.metrics:
            rows.append([_path(node.path()), dict(node.metrics)])
    return rows


def _var_record(rec: VarRecord) -> dict:
    return {
        "name": rec.name,
        "kind": rec.kind.value,
        "alloc_path": _path(rec.alloc_path),
        "base": rec.base,
        "nbytes": rec.nbytes,
        "n_bins": rec.n_bins,
        "metrics": dict(rec.metrics),
        "bins": [dict(b.metrics) for b in rec.bins],
        "ranges": [
            [_path(path), arr.tolist()] for path, arr in rec.ranges.items()
        ],
    }


def _first_touch(ft: FirstTouchRecord) -> dict:
    return {
        "var_name": ft.var_name,
        "tid": ft.tid,
        "cpu": ft.cpu,
        "domain": ft.domain,
        "pages": ft.pages.tolist(),
        "path": _path(ft.path),
    }


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #

def save_archive(archive: ProfileArchive, path: str | Path) -> Path:
    """Write an archive as one JSON document; returns the path."""
    doc = {
        "format_version": FORMAT_VERSION,
        "program": archive.program,
        "machine_desc": archive.machine_desc,
        "n_domains": archive.n_domains,
        "mechanism_name": archive.mechanism_name,
        "capabilities": asdict(archive.capabilities)
        if archive.capabilities is not None
        else None,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, which json.dump to a file never
        # does; encoding one profile at a time bounds its token buffer.
        fh.write(json.dumps(doc)[:-1] + ', "profiles": {')
        for i, (tid, p) in enumerate(archive.profiles.items()):
            profile = {
                "tid": p.tid,
                "cpu": p.cpu,
                "domain": p.domain,
                "cct": _cct(p.cct),
                "data_cct": _cct(p.data_cct),
                "vars": {name: _var_record(r) for name, r in p.vars.items()},
                "first_touches": [_first_touch(ft) for ft in p.first_touches],
                "counters": dict(p.counters),
                "page_heat": {
                    str(page): row for page, row in p.page_heat.items()
                },
            }
            fh.write(f'{", " if i else ""}"{tid}": {json.dumps(profile)}')
        fh.write("}}")
    return path
