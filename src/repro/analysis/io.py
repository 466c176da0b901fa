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
from itertools import islice
from pathlib import Path

from repro.profiler.cct import CCT
from repro.profiler.profile_data import (
    FirstTouchRecord,
    ProfileArchive,
    ThreadProfile,
    VarRecord,
)
from repro.runtime.callstack import SourceLoc

FORMAT_VERSION = 1
#: Entries of a page-sized list that are Python objects at once while
#: it is written.
SLICE = 2048


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


def _array(fh, arr) -> None:
    """Write ``json.dumps(arr.tolist())`` one bounded slice at a time.

    Only ``SLICE`` values are Python objects at once, whatever the
    array's length; the slices' encodings join with the encoder's
    ``", "``.
    """
    fh.write("[")
    for i in range(0, len(arr), SLICE):
        if i:
            fh.write(", ")
        fh.write(json.dumps(arr[i:i + SLICE].tolist())[1:-1])
    fh.write("]")


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


def _first_touch(fh, ft: FirstTouchRecord) -> None:
    head = {
        "var_name": ft.var_name,
        "tid": ft.tid,
        "cpu": ft.cpu,
        "domain": ft.domain,
    }
    fh.write(json.dumps(head)[:-1] + ', "pages": ')
    _array(fh, ft.pages)
    fh.write(f', "path": {json.dumps(_path(ft.path))}}}')


def _page_heat(fh, heat: dict) -> None:
    """``heat`` as a JSON object, ``SLICE`` pages at a time."""
    fh.write("{")
    items = iter(heat.items())
    sep = ""
    while part := {str(page): row for page, row in islice(items, SLICE)}:
        fh.write(sep + json.dumps(part)[1:-1])
        sep = ", "
    fh.write("}")


def _profile(fh, p: ThreadProfile) -> None:
    """One thread's profile, section by section in the dict form's key order."""
    head = {
        "tid": p.tid,
        "cpu": p.cpu,
        "domain": p.domain,
        "cct": _cct(p.cct),
        "data_cct": _cct(p.data_cct),
        "vars": {name: _var_record(r) for name, r in p.vars.items()},
    }
    fh.write(json.dumps(head)[:-1] + ', "first_touches": [')
    for i, ft in enumerate(p.first_touches):
        if i:
            fh.write(", ")
        _first_touch(fh, ft)
    fh.write(f'], "counters": {json.dumps(dict(p.counters))}, "page_heat": ')
    _page_heat(fh, p.page_heat)
    fh.write("}")


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #

def save_archive(archive: ProfileArchive, path: str | Path) -> Path:
    """Write an archive as one JSON document; returns the path.

    The document is what ``json.dumps`` makes of the archive's dict form,
    byte for byte, but it is written piece by piece, so no profile's
    object tree or token list is ever held whole. The lists whose length
    follows the data — first-touch pages and page heat, one entry per
    page — go a bounded slice at a time. The rest of a profile goes
    through ``json.dumps`` (the C encoder, which ``json.dump`` to a file
    never runs) in a few calls: its CCTs and variable records grow with
    calling contexts and bins (``n_bins + 1`` range rows per context,
    as many as the record's bin metrics), not with pages.
    """
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
        fh.write(json.dumps(doc)[:-1] + ', "profiles": {')
        for i, (tid, p) in enumerate(archive.profiles.items()):
            fh.write(f'{", " if i else ""}"{tid}": ')
            _profile(fh, p)
        fh.write("}}")
    return path
