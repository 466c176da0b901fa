"""Address-sampling mechanisms (paper Section 3).

Six mechanisms, mirroring the paper's Table 1:

* :class:`~repro.sampling.ibs.IBS` — AMD instruction-based sampling
* :class:`~repro.sampling.mrk.MRK` — IBM marked-event sampling
* :class:`~repro.sampling.pebs.PEBS` — Intel precise event-based sampling
* :class:`~repro.sampling.dear.DEAR` — Itanium data event address registers
* :class:`~repro.sampling.pebs_ll.PEBSLL` — PEBS with load latency
* :class:`~repro.sampling.soft_ibs.SoftIBS` — software instrumentation

Each mechanism exposes *capabilities* (latency capture, event filtering,
precise IP, absolute event counting) that the profiler's analysis paths
branch on, and a cost model that charges monitoring overhead to the
simulated execution — the source of Table 2's overhead percentages.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".base": "MechanismCapabilities SamplingMechanism StepSampleBatch",
    ".ibs": "IBS",
    ".mrk": "MRK",
    ".pebs": "PEBS",
    ".dear": "DEAR",
    ".pebs_ll": "PEBSLL",
    ".soft_ibs": "SoftIBS",
    ".registry": "MECHANISMS create_mechanism table1_config",
})
