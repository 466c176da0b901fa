"""Run-registry storage: content-addressed run directories + manifests.

A manifest is one strict-JSON document describing a run's provenance
(workload, machine preset, mechanism, scale, policy, seed, workers,
flags, git describe), its costs (host wall seconds, simulated wall
cycles), and its headline metrics (program lpi, remote fraction, memo
hit-rate, phase coverage, chunks/s). The profile archive and the
metrics-plane series ride alongside as separate artifacts so ``runs
list`` stays cheap — it reads only manifests.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from pathlib import Path

from repro._hashing import sha256
from repro.analysis.io import save_archive
from repro.errors import NumaProfError

MANIFEST_FORMAT = "repro-run/v1"

#: Hex digits of the SHA-256 content hash used as the run id.
ID_LENGTH = 12

#: Environment variable overriding the default registry root.
ROOT_ENV = "REPRO_RUNS_DIR"

#: Manifest keys every valid document must carry (see
#: :func:`repro.registry.read.validate_manifest` for the per-key type
#: checks).
REQUIRED_KEYS = (
    "format",
    "id",
    "created",
    "kind",
    "workload",
    "machine",
    "config",
    "flags",
    "host_wall_s",
    "headline",
    "artifacts",
)

KINDS = ("profile", "autotune")


class RegistryError(NumaProfError):
    """Raised for malformed registries, unknown or ambiguous run ids."""


def git_describe(cwd: str | Path | None = None) -> str | None:
    """Best-effort ``git describe --always --dirty`` of the source tree.

    Returns ``None`` outside a work tree or without a git binary — the
    registry must work from an installed package too.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def content_id(manifest: dict) -> str:
    """Content hash of a manifest, minus its identity/timestamp fields."""
    doc = {
        k: v for k, v in manifest.items() if k not in ("id", "created")
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:ID_LENGTH]


def build_manifest(
    *,
    kind: str = "profile",
    workload: str,
    machine: str,
    config: dict,
    flags: dict,
    host_wall_s: float,
    headline: dict,
    simulated: dict | None = None,
    refs: dict | None = None,
) -> dict:
    """Assemble an (unaddressed) manifest; ``record()`` fills id/created.

    ``config`` carries the reproducible run parameters (mechanism,
    period, scale, threads, workers, binding, policy, seed); ``flags``
    the boolean toggles (memoize, extrapolate, metrics); ``headline``
    the end-of-run metrics; ``refs`` other run ids this one references
    (autotune reports point at their baseline/tuned runs).
    """
    if kind not in KINDS:
        raise RegistryError(f"unknown run kind {kind!r}; expected {KINDS}")
    return {
        "format": MANIFEST_FORMAT,
        "id": None,
        "created": None,
        "kind": kind,
        "workload": workload,
        "machine": machine,
        "config": dict(config),
        "flags": dict(flags),
        "git": git_describe(),
        "host_wall_s": float(host_wall_s),
        "simulated": dict(simulated) if simulated else {},
        "headline": dict(headline),
        "refs": dict(refs) if refs else {},
        "artifacts": {},
    }


class RunRegistry:
    """Reads and writes a directory of content-addressed runs.

    Recording a run is this module's job; the read side
    (:mod:`repro.registry.read`) loads only when a run is read back.
    """

    MANIFEST = "manifest.json"
    PROFILE = "profile.json"
    SERIES = "series.json"

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(ROOT_ENV, "runs")
        self.root = Path(root)

    # -------------------------------------------------------------- #
    # writing
    # -------------------------------------------------------------- #

    def record(
        self,
        manifest: dict,
        *,
        archive=None,
        series: dict | None = None,
        extra_files: dict[str, str | Path] | None = None,
    ) -> str:
        """Write one run directory; returns the assigned run id.

        ``archive`` is a ``ProfileArchive`` (saved via ``save_archive``),
        ``series`` a ``MetricsRecorder.export()`` snapshot (saved via
        ``save_series``). ``extra_files`` maps artifact names to existing
        files that are copied into the run directory (e.g. a trace).
        The artifact names land in ``manifest["artifacts"]`` before the
        content id is computed, so the id covers what was stored.
        """
        manifest = dict(manifest)
        artifacts = dict(manifest.get("artifacts") or {})
        if archive is not None:
            artifacts["profile"] = self.PROFILE
        if series is not None:
            artifacts["series"] = self.SERIES
        for name, src in (extra_files or {}).items():
            artifacts[name] = Path(src).name
        manifest["artifacts"] = artifacts

        run_id = content_id(manifest)
        manifest["id"] = run_id
        manifest["created"] = (
            datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")
            .replace("+00:00", "Z")
        )
        run_dir = self.root / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        if archive is not None:
            save_archive(archive, run_dir / self.PROFILE)
        if series is not None:
            from repro.analysis.postmortem import save_series

            save_series(series, run_dir / self.SERIES)
        for _name, src in (extra_files or {}).items():
            src = Path(src)
            (run_dir / src.name).write_bytes(src.read_bytes())
        with open(run_dir / self.MANIFEST, "w") as fh:
            json.dump(manifest, fh, indent=1)
        return run_id

    # -------------------------------------------------------------- #
    # reading (repro.registry.read)
    # -------------------------------------------------------------- #

    def list_runs(self) -> list[dict]:
        """All manifests, oldest first (by created, then id)."""
        from repro.registry.read import list_runs

        return list_runs(self)

    def resolve(self, id_or_prefix: str) -> str:
        """Resolve a (possibly abbreviated) run id to the full id."""
        from repro.registry.read import resolve

        return resolve(self, id_or_prefix)

    def manifest(self, id_or_prefix: str) -> dict:
        """Load one run's manifest (validated)."""
        from repro.registry.read import manifest

        return manifest(self, id_or_prefix)

    def load_profile(self, id_or_prefix: str):
        """Load one run's ``ProfileArchive``."""
        from repro.registry.read import load_profile

        return load_profile(self, id_or_prefix)

    def load_series(self, id_or_prefix: str) -> dict:
        """Load one run's metrics-plane series document."""
        from repro.registry.read import load_series

        return load_series(self, id_or_prefix)
