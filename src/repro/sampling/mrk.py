"""IBM POWER marked-event sampling (MRK).

MRK marks instructions that cause a chosen event — the paper uses
``PM_MRK_FROM_L3MISS``, i.e. loads satisfied from beyond the L3 — and
reports the marked instruction's effective address. It cannot measure
latency, and its hardware limits the achievable rate: "Marked event
sampling on POWER7 with the fastest sampling rate under user control
generates less than 100 samples/second per thread" (paper footnote 2),
even at the configured period of 1. The rate cap is modeled explicitly.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.machine.cache import LEVEL_DRAM
from repro.sampling.base import EventSamplingMechanism, MechanismCapabilities


class MRK(EventSamplingMechanism):
    """Marked-event sampling of L3 misses with a hardware rate cap."""

    name = "MRK"
    capabilities = MechanismCapabilities(
        measures_latency=False,
        samples_all_instructions=False,
        event_based=True,
        supports_numa_events=True,
        counts_absolute_events=True,
        precise_ip=True,
        max_sample_rate_per_sec=100.0,
    )

    #: Table 1 default: period 1 (every marked L3 miss is a candidate).
    DEFAULT_PERIOD = 1

    # Marked events fire on *demand* L3 misses; prefetched lines do not
    # retire a marked miss.
    event_primitive = "demand_miss_events"

    def __init__(
        self,
        period: int = DEFAULT_PERIOD,
        *,
        max_rate: float | None = None,
        **cost_overrides,
    ) -> None:
        """``max_rate`` overrides the per-second sample cap — analysis runs
        on short simulated executions scale it up to gather a usable
        profile, just as the paper's minutes-long runs accumulate samples
        at under 100/s."""
        cost = {"per_sample_cycles": 3_000.0, "instr_tax_cycles": 0.035}
        cost.update(cost_overrides)
        super().__init__(period, **cost)
        self.max_rate = (
            max_rate
            if max_rate is not None
            else self.capabilities.max_sample_rate_per_sec
        )
        # Fractional per-thread sample budget so the rate cap is unbiased
        # across chunk sizes (a tiny chunk must not get a free sample).
        self._budget: dict[int, float] = {}

    def _extra_state_digest(self):
        # The rate-cap budget evolves per chunk and gates selections,
        # so it is part of the phase detector's fixed-point condition.
        return tuple(sorted(self._budget.items()))

    def _event_args(self) -> tuple:
        # Without a machine there is no latency model: every DRAM
        # access counts.
        if self.machine is None:
            return (-np.inf,)
        return (self.machine.latency_model.demand_min_latency,)

    def _event_mask(
        self, levels: np.ndarray, latencies: np.ndarray
    ) -> np.ndarray:
        if self.machine is not None:
            return self.machine.latency_model.demand_mask(latencies, levels)
        return levels == LEVEL_DRAM

    def _capped(self) -> bool:
        return self.max_rate is not None and self.machine is not None

    def _cap(
        self, tid: int, chosen: np.ndarray, n_instructions: int,
        lat_total: float,
    ) -> np.ndarray:
        """Hardware rate cap: at most max_rate samples per simulated second
        of execution, tracked as a fractional per-thread budget so the
        cap stays unbiased across chunk sizes."""
        cap_rate = self.max_rate
        chunk_cycles = n_instructions * self.machine.base_cpi + lat_total
        chunk_seconds = chunk_cycles / (self.machine.ghz * 1e9)
        budget = self._budget.get(tid, 0.0) + chunk_seconds * cap_rate
        # The hardware cannot bank unused allowance indefinitely:
        # clamp the carried budget to a couple of chunks' worth so a
        # long quiet phase does not license a later sampling burst.
        budget = min(budget, 3.0 * max(chunk_seconds * cap_rate, 1.0))
        max_samples = int(budget)
        if chosen.size > max_samples:
            obs.TRACER.count(
                "sampling.samples.dropped", chosen.size - max_samples
            )
            if max_samples == 0:
                chosen = chosen[:0]
            else:
                keep = np.linspace(0, chosen.size - 1, max_samples).astype(
                    np.int64
                )
                chosen = chosen[keep]
        self._budget[tid] = budget - chosen.size
        return chosen
