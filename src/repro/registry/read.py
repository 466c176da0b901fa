"""The run registry's read side: listing, resolving and loading runs.

Recording a run (:meth:`repro.registry.store.RunRegistry.record`) never
loads this module; ``python -m repro runs``, the registry's read
methods and ``scripts/validate_manifest.py`` do.
"""

from __future__ import annotations

import json

from repro.analysis import postmortem
from repro.registry.store import (
    ID_LENGTH,
    KINDS,
    MANIFEST_FORMAT,
    REQUIRED_KEYS,
    RegistryError,
    content_id,
)


def validate_manifest(doc: dict) -> list[str]:
    """Schema-check one manifest document; returns a problem list.

    Checked by ``scripts/validate_manifest.py`` in CI and by
    :func:`manifest` before trusting a directory.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["manifest is not an object"]
    for key in REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if doc["format"] != MANIFEST_FORMAT:
        problems.append(
            f"format is {doc['format']!r}, expected {MANIFEST_FORMAT!r}"
        )
    if doc["kind"] not in KINDS:
        problems.append(f"kind {doc['kind']!r} not in {KINDS}")
    rid = doc["id"]
    if (
        not isinstance(rid, str)
        or len(rid) != ID_LENGTH
        or any(c not in "0123456789abcdef" for c in rid)
    ):
        problems.append(f"id {rid!r} is not {ID_LENGTH} lowercase hex digits")
    elif content_id(doc) != rid:
        problems.append(
            f"id {rid} does not match manifest content hash {content_id(doc)}"
        )
    if not isinstance(doc["created"], str) or not doc["created"]:
        problems.append("created must be a non-empty ISO-8601 string")
    for key in ("config", "flags", "headline", "artifacts"):
        if not isinstance(doc[key], dict):
            problems.append(f"{key} must be an object")
    if not isinstance(doc["host_wall_s"], (int, float)):
        problems.append("host_wall_s must be a number")
    if doc["kind"] == "autotune":
        refs = doc.get("refs", {})
        for ref in ("baseline", "tuned"):
            if ref not in refs:
                problems.append(f"autotune manifest missing refs.{ref}")
    return problems


def list_runs(registry) -> list[dict]:
    """All manifests under ``registry.root``, oldest first (by created,
    then id)."""
    out = []
    if not registry.root.is_dir():
        return out
    for entry in sorted(registry.root.iterdir()):
        mpath = entry / registry.MANIFEST
        if not mpath.is_file():
            continue
        try:
            with open(mpath) as fh:
                out.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"unreadable manifest {mpath}: {exc}")
    out.sort(key=lambda m: (m.get("created") or "", m.get("id") or ""))
    return out


def resolve(registry, id_or_prefix: str) -> str:
    """Resolve a (possibly abbreviated) run id to the full id."""
    if not registry.root.is_dir():
        raise RegistryError(f"no run registry at {registry.root}")
    matches = [
        entry.name
        for entry in registry.root.iterdir()
        if entry.name.startswith(id_or_prefix)
        and (entry / registry.MANIFEST).is_file()
    ]
    if not matches:
        raise RegistryError(
            f"no run matching {id_or_prefix!r} in {registry.root}"
        )
    if len(matches) > 1:
        raise RegistryError(
            f"ambiguous run id {id_or_prefix!r}: {sorted(matches)}"
        )
    return matches[0]


def manifest(registry, id_or_prefix: str) -> dict:
    """Load one run's manifest (validated)."""
    run_id = resolve(registry, id_or_prefix)
    with open(registry.root / run_id / registry.MANIFEST) as fh:
        doc = json.load(fh)
    problems = validate_manifest(doc)
    if problems:
        raise RegistryError(
            f"invalid manifest for run {run_id}: {problems}"
        )
    return doc


def load_profile(registry, id_or_prefix: str):
    """Load one run's ``ProfileArchive``."""
    doc = manifest(registry, id_or_prefix)
    rel = doc["artifacts"].get("profile")
    if rel is None:
        raise RegistryError(
            f"run {doc['id']} has no profile artifact"
        )
    return postmortem.load_archive(registry.root / doc["id"] / rel)


def load_series(registry, id_or_prefix: str) -> dict:
    """Load one run's metrics-plane series document."""
    doc = manifest(registry, id_or_prefix)
    rel = doc["artifacts"].get("series")
    if rel is None:
        raise RegistryError(
            f"run {doc['id']} has no series artifact "
            "(was it recorded with --metrics?)"
        )
    return postmortem.load_series(registry.root / doc["id"] / rel)
