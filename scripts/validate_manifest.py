#!/usr/bin/env python
"""Validate run-registry manifests written by ``python -m repro``.

Checks (see :func:`repro.registry.read.validate_manifest`): required keys,
format tag, the run id is 12 lowercase hex digits matching the manifest's
content hash, section types, and that autotune manifests reference their
baseline/tuned runs. Exits non-zero listing each problem — CI runs this
over ``runs/*/manifest.json`` so the registry schema can never silently
regress.

Usage::

    PYTHONPATH=src python scripts/validate_manifest.py runs/*/manifest.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.registry.read import validate_manifest  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: validate_manifest.py MANIFEST.json [MANIFEST.json ...]",
              file=sys.stderr)
        return 2
    rc = 0
    for arg in argv:
        try:
            with open(arg) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            rc = 1
            print(f"{arg}: INVALID")
            print(f"  - unreadable: {exc}")
            continue
        problems = validate_manifest(doc)
        if problems:
            rc = 1
            print(f"{arg}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{arg}: ok ({doc['kind']} {doc['id']}, "
                  f"workload {doc['workload']})")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
