"""Digests from CPython's builtin hash modules equal ``hashlib``'s.

Run ids and the phase layer's state digests take SHA-256 and BLAKE2b
from ``repro._hashing``, which avoids loading OpenSSL; ids recorded
with ``hashlib`` must stay valid and equal.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import _hashing
from repro.registry import read
from repro.registry.store import (
    ID_LENGTH,
    RunRegistry,
    build_manifest,
    content_id,
)
from repro.runtime.phase import freeze_state, sig_digest


def _manifest() -> dict:
    doc = build_manifest(
        kind="profile", workload="umt", machine="power7",
        config={"mechanism": "MRK", "period": 1, "scale": 2.0, "seed": 0},
        flags={"extrapolate": True, "memoize": True, "metrics": False},
        host_wall_s=0.5,
        headline={"lpi_numa": 0.0625, "remote_frac": 0.5, "note": "naïve"},
    )
    doc["git"] = None
    doc["artifacts"] = {"profile": "profile.json"}
    return doc


def _hashlib_id(doc: dict) -> str:
    body = {k: v for k, v in doc.items() if k not in ("id", "created")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:ID_LENGTH]


def test_builtin_digests_equal_hashlib():
    data = bytes(range(256)) * 41
    assert _hashing.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    for size in (16, 32, 64):
        assert (_hashing.blake2b(data, digest_size=size).digest()
                == hashlib.blake2b(data, digest_size=size).digest())


def test_content_id_equals_hashlib_sha256():
    doc = _manifest()
    assert content_id(doc) == _hashlib_id(doc)
    # Pinned: the id the ``hashlib``-based registry gave this manifest.
    assert content_id(doc) == "cfc3312ddd3f"


def test_hashlib_computed_id_passes_the_read_side_check(tmp_path):
    doc = _manifest()
    doc["id"] = _hashlib_id(doc)
    doc["created"] = "2026-01-01T00:00:00Z"
    run_dir = tmp_path / doc["id"]
    run_dir.mkdir()
    (run_dir / RunRegistry.MANIFEST).write_text(json.dumps(doc, indent=1))
    assert read.validate_manifest(doc) == []
    assert read.manifest(RunRegistry(tmp_path), doc["id"][:6]) == doc


def test_freeze_state_digest_equals_hashlib_blake2b():
    state = np.arange(624, dtype=np.uint32) * 2654435761
    frozen = freeze_state({"key": state, "pos": 7, "more": [state[:3]]})
    want = hashlib.blake2b(state.tobytes(), digest_size=16).digest()
    assert dict(frozen)["key"] == (state.shape, state.dtype.str, want)
    # A non-contiguous view hashes its contiguous copy.
    strided = state[::2]
    got = freeze_state(strided)
    assert got[2] == hashlib.blake2b(
        np.ascontiguousarray(strided).tobytes(), digest_size=16
    ).digest()


def test_sig_digest_equals_hashlib_blake2b():
    sig = [(3, b"\x00\x01\x02"), (4, b""), (-1, b"\xff" * 40)]
    h = hashlib.blake2b(digest_size=16)
    h.update((5).to_bytes(8, "little", signed=True))
    for epoch, levels in sig:
        h.update(epoch.to_bytes(16, "little", signed=True))
        h.update(len(levels).to_bytes(8, "little"))
        h.update(levels)
    assert sig_digest(5, sig) == (5, 3, h.digest())
