"""Intel PEBS with load-latency extension (PEBS-LL), Nehalem onward.

Samples loads whose latency exceeds a threshold — Table 1 configures
``LATENCY_ABOVE_THRESHOLD`` at a period of 500,000 — and records the
effective address, precise IP, *and the measured latency*. PEBS-LL also
coexists with conventional counters, so the tool reads the absolute
above-threshold event count E_NUMA alongside the sampled latencies;
eq. (3) combines the two:

    lpi_NUMA ~= (l^s_NUMA / E^s_NUMA) * (E_NUMA / I)

Its overhead is the lowest of the hardware mechanisms in Table 2.
"""

from __future__ import annotations

from repro.sampling.base import EventSamplingMechanism, MechanismCapabilities


class PEBSLL(EventSamplingMechanism):
    """Latency-threshold event sampling with latency capture."""

    name = "PEBS-LL"
    capabilities = MechanismCapabilities(
        measures_latency=True,
        samples_all_instructions=False,
        event_based=True,
        supports_numa_events=True,
        counts_absolute_events=True,
        precise_ip=True,
    )

    #: Table 1 default: "LATENCY_ABOVE_THRESHOLD, 500000".
    DEFAULT_PERIOD = 500_000

    #: Latency threshold (cycles) above which a load is an event; the
    #: default selects accesses that left the core's private caches.
    DEFAULT_THRESHOLD = 32.0

    event_primitive = "slow_events"

    def __init__(
        self,
        period: int = DEFAULT_PERIOD,
        *,
        latency_threshold: float = DEFAULT_THRESHOLD,
        **cost_overrides,
    ) -> None:
        cost = {"per_sample_cycles": 3_000.0, "instr_tax_cycles": 0.018}
        cost.update(cost_overrides)
        super().__init__(period, **cost)
        self.latency_threshold = latency_threshold

    def _event_args(self) -> tuple:
        return (self.latency_threshold,)
