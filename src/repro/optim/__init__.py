"""NUMA optimization transforms.

Turns :mod:`repro.analysis.advisor` recommendations into concrete
:class:`~repro.optim.policies.NumaTuning` configurations that the
workloads understand: explicit placement policies (block-wise,
interleaved), parallelized first-touch initialization, and data-layout
regrouping — the three code changes the paper's case studies apply.

The live counterpart is :mod:`repro.optim.autotune`: a closed-loop
driver that profiles a window, converts the advice into a
:class:`~repro.optim.schedule.PolicySchedule` of
:class:`~repro.optim.schedule.MigrationStep` actions, applies them
mid-run via ``PageTable.migrate_segment``, and quantifies the realized
improvement with ``analysis.diff_profiles``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".policies": "NumaTuning PlacementSpec blockwise_all interleave_all",
    ".schedule": "MigrationStep PolicySchedule plan_migrations",
    ".transforms": "apply_advice",
})
