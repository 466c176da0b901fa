"""Intel Itanium data event address registers (DEAR).

DEAR samples data-cache events — the paper configures
``DATA_EAR_CACHE_LAT4`` (loads with latency >= 4 cycles, i.e. anything
missing the L1) at a period of 20,000 events. DEAR records effective
addresses with precise IPs but "does not support NUMA events" (paper
Section 10), so remote/local classification relies entirely on the
``move_pages`` page-placement query, and lpi_NUMA is unavailable.
"""

from __future__ import annotations

from repro.sampling.base import EventSamplingMechanism, MechanismCapabilities


class DEAR(EventSamplingMechanism):
    """Event sampling of non-L1 accesses; no latency, no NUMA events."""

    name = "DEAR"
    capabilities = MechanismCapabilities(
        measures_latency=False,
        samples_all_instructions=False,
        event_based=True,
        supports_numa_events=False,
        counts_absolute_events=True,
        precise_ip=True,
    )

    #: Table 1 default: "DATA_EAR_CACHE_LAT4, 20000".
    DEFAULT_PERIOD = 20_000

    event_primitive = "miss_events"

    def __init__(self, period: int = DEFAULT_PERIOD, **cost_overrides) -> None:
        cost = {"per_sample_cycles": 3_000.0, "instr_tax_cycles": 0.06}
        cost.update(cost_overrides)
        super().__init__(period, **cost)
