"""repro.registry — the run registry: a queryable archive of every run.

Every CLI profiling run (and every autotune report) lands in a
content-addressed run directory under a registry root (``runs/`` by
default, overridable via ``--runs-dir`` or ``REPRO_RUNS_DIR``):

.. code-block:: text

    runs/<id>/manifest.json     # provenance + headline metrics
    runs/<id>/profile.json      # the ProfileArchive (analysis/io.py)
    runs/<id>/series.json       # metrics-plane time series (--metrics)

``<id>`` is the first 12 hex digits of the SHA-256 of the canonical
manifest (minus the ``id``/``created`` fields), so identical runs land
at identical paths and the id doubles as a cheap integrity check. The
``python -m repro runs`` subcommand (``list`` / ``show`` / ``diff`` /
``timeline``) queries the registry; see :mod:`repro.registry.cli`.

This is the substrate the ROADMAP's profiling-as-a-service item builds
on: a service's list/query/diff endpoints read the same directories.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".store": """MANIFEST_FORMAT RegistryError RunRegistry build_manifest
        content_id""",
    ".read": "validate_manifest",
})
