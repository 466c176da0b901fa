"""Postmortem file access: reading archives back, series, heatmap CSVs.

The write path a profiling run takes is :func:`repro.analysis.io.save_archive`;
everything that reads a run's files back, or exports them, lives here
and loads only when used: :func:`load_archive` (the analyzer's side of
the hpcrun/hpcprof split), the metrics-plane series documents
(:func:`save_series` / :func:`load_series`), and the page x thread
heatmap CSVs (:func:`export_heatmap_csvs`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.analysis.io import FORMAT_VERSION
from repro.profiler.cct import CCT
from repro.profiler.profile_data import (
    BinRecord,
    FirstTouchRecord,
    ProfileArchive,
    ThreadProfile,
    VarRecord,
)
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import VariableKind
from repro.sampling.base import MechanismCapabilities


# ---------------------------------------------------------------------- #
# profile archives
# ---------------------------------------------------------------------- #

def _unloc(row: list) -> SourceLoc:
    return SourceLoc(row[0], row[1], row[2])

def _unpath(rows) -> tuple:
    return tuple(_unloc(r) for r in rows)

def _uncct(rows) -> CCT:
    cct = CCT()
    for path_rows, metrics in rows:
        cct.attribute(_unpath(path_rows), metrics)
    return cct

def _unvar_record(data: dict) -> VarRecord:
    rec = VarRecord.__new__(VarRecord)
    rec.name = data["name"]
    rec.kind = VariableKind(data["kind"])
    rec.alloc_path = _unpath(data["alloc_path"])
    rec.base = data["base"]
    rec.nbytes = data["nbytes"]
    rec.n_bins = data["n_bins"]
    rec.metrics = defaultdict(float, data["metrics"])
    rec.bins = []
    for i, metrics in enumerate(data["bins"]):
        b = BinRecord(i)
        b.metrics.update(metrics)
        rec.bins.append(b)
    rec.ranges = {
        _unpath(p): np.array(arr, dtype=np.float64)
        for p, arr in data["ranges"]
    }
    return rec

def _unfirst_touch(data: dict) -> FirstTouchRecord:
    return FirstTouchRecord(
        var_name=data["var_name"],
        tid=data["tid"],
        cpu=data["cpu"],
        domain=data["domain"],
        pages=np.array(data["pages"], dtype=np.int64),
        path=_unpath(data["path"]),
    )


def load_archive(path: str | Path) -> ProfileArchive:
    """Read an archive written by :func:`repro.analysis.io.save_archive`."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported archive format {doc.get('format_version')!r}"
        )
    caps = (
        MechanismCapabilities(**doc["capabilities"])
        if doc["capabilities"] is not None
        else None
    )
    archive = ProfileArchive(
        program=doc["program"],
        machine_desc=doc["machine_desc"],
        n_domains=doc["n_domains"],
        mechanism_name=doc["mechanism_name"],
        capabilities=caps,
    )
    for tid_str, pdoc in doc["profiles"].items():
        profile = ThreadProfile(
            tid=pdoc["tid"], cpu=pdoc["cpu"], domain=pdoc["domain"]
        )
        profile.cct = _uncct(pdoc["cct"])
        profile.data_cct = _uncct(pdoc["data_cct"])
        profile.vars = {
            name: _unvar_record(r) for name, r in pdoc["vars"].items()
        }
        profile.first_touches = [
            _unfirst_touch(ft) for ft in pdoc["first_touches"]
        ]
        profile.counters.update(pdoc["counters"])
        # Absent in archives written before the heatmap existed.
        profile.page_heat = {
            int(page): row
            for page, row in pdoc.get("page_heat", {}).items()
        }
        archive.profiles[int(tid_str)] = profile
    return archive


# ---------------------------------------------------------------------- #
# metrics-plane time series
# ---------------------------------------------------------------------- #

#: Serialized time-series format tag (mirrors
#: ``repro.obs.timeseries.SERIES_FORMAT``; kept in sync by tests).
SERIES_FORMAT = "repro-series/v1"


def _sanitize_series(values: list) -> list:
    """NaN -> None, so the document is strict JSON (``json.dumps``
    would otherwise emit the non-standard ``NaN`` literal)."""
    return [
        None if isinstance(v, float) and v != v else v for v in values
    ]


def save_series(state: dict, path: str | Path) -> Path:
    """Write a ``MetricsRecorder.export()`` snapshot as strict JSON.

    NaN cells (rows recorded before a series appeared) become ``null``;
    :func:`load_series` restores them to NaN so a loaded snapshot can be
    re-absorbed by a recorder.
    """
    if state.get("format") != SERIES_FORMAT:
        raise ValueError(
            f"unsupported series format {state.get('format')!r}"
        )
    doc = dict(state)
    doc["series"] = {
        name: _sanitize_series(values)
        for name, values in state["series"].items()
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    return path


def load_series(path: str | Path) -> dict:
    """Read a series document written by :func:`save_series`.

    ``null`` cells come back as NaN, matching the recorder's export.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != SERIES_FORMAT:
        raise ValueError(
            f"unsupported series format {doc.get('format')!r}"
        )
    doc["series"] = {
        name: [float("nan") if v is None else v for v in values]
        for name, values in doc["series"].items()
    }
    return doc


# ---------------------------------------------------------------------- #
# heatmap export
# ---------------------------------------------------------------------- #

#: Column-0 header of both heatmap CSVs (golden-tested schema).
HEATMAP_PAGE_COLUMN = "page"


def export_heatmap_csvs(archive: ProfileArchive, out_dir: str | Path) -> list[Path]:
    """Write Migration-Profiler-style page × thread heatmap CSVs.

    Two wide-format files, one row per page touched by any thread, one
    column per thread:

    * ``heatmap_access.csv`` — sample counts;
    * ``heatmap_latency.csv`` — mean sampled latency in cycles
      (``lat_sum / count``, 0 where a thread never sampled the page or
      the mechanism measures no latency).

    Requires profiles collected with ``NumaProfiler(heatmap=True)``;
    raises ``ValueError`` when no profile carries heat (an empty heatmap
    artifact would silently read as "no remote traffic").
    """
    tids = sorted(archive.profiles)
    if not any(archive.profiles[tid].page_heat for tid in tids):
        raise ValueError(
            "no page heat in archive — profile with NumaProfiler(heatmap=True)"
        )
    pages = sorted(
        {page for tid in tids for page in archive.profiles[tid].page_heat}
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join([HEATMAP_PAGE_COLUMN] + [f"t{tid}" for tid in tids])

    access_path = out_dir / "heatmap_access.csv"
    latency_path = out_dir / "heatmap_latency.csv"
    with open(access_path, "w") as acc_fh, open(latency_path, "w") as lat_fh:
        acc_fh.write(header + "\n")
        lat_fh.write(header + "\n")
        for page in pages:
            acc_row = [str(page)]
            lat_row = [str(page)]
            for tid in tids:
                heat = archive.profiles[tid].page_heat.get(page)
                if heat is None or heat[0] <= 0:
                    acc_row.append("0")
                    lat_row.append("0")
                else:
                    count, lat_sum = heat[0], heat[1]
                    acc_row.append(f"{int(count)}")
                    lat_row.append(f"{lat_sum / count:.2f}")
            acc_fh.write(",".join(acc_row) + "\n")
            lat_fh.write(",".join(lat_row) + "\n")
    return [access_path, latency_path]
