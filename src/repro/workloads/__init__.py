"""Simulated workloads: the four benchmarks of the paper's Section 8.

Each workload models the memory-access structure the paper documents for
the real code — which variables exist, who first-touches them, and how
threads partition their accesses — so the profiler rediscovers the same
bottlenecks and the optimizer reproduces the same fixes:

* :class:`~repro.workloads.lulesh.Lulesh` — nodal arrays ``x..zd`` plus
  the stack array ``nodelist``; blocked per-thread access (Fig. 3).
* :class:`~repro.workloads.amg.AMG2006` — ``RAP_diag_data``/``RAP_diag_j``
  with indirect indexing; irregular whole-program pattern that becomes
  blocked inside ``hypre_boomerAMGRelax._omp`` (Figs. 4–7).
* :class:`~repro.workloads.blackscholes.Blackscholes` — the five-section
  ``buffer`` with staggered overlapped per-thread ranges (Figs. 8–9) and
  compute-dominated runtime (lpi below threshold).
* :class:`~repro.workloads.umt.UMT2013` — ``STime`` angle planes assigned
  round-robin to threads (Fig. 10).

:mod:`repro.workloads.synthetic` provides the small parameterized
patterns used by tests and the Figure 1 distribution benchmark.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".base": "WorkloadBase",
    ".synthetic": "PartitionedSweep CentralHotspot",
    ".lulesh": "Lulesh",
    ".amg": "AMG2006",
    ".blackscholes": "Blackscholes",
    ".umt": "UMT2013",
})
