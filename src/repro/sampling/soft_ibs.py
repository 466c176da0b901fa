"""Soft-IBS: software address sampling via memory-access instrumentation.

The paper's fallback for processors without hardware address sampling
(e.g. ARM): an LLVM pass instruments every load and store with a stub the
profiler overloads; the stub records every ``n``-th access (Table 1:
every 10,000,000th). Consequences modeled here:

* every access pays an instrumentation cost — hence the 30–200%
  overheads of Table 2, by far the highest of the six mechanisms;
* latency cannot be measured in software;
* there is no hardware CPU-id in the record, so Soft-IBS *requires*
  threads to be bound to cores and consults the static thread -> CPU map
  (``needs_thread_binding``) — the engine always binds, satisfying this.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import (
    MechanismCapabilities,
    SamplingMechanism,
    StepSampleBatch,
    _starts_from_counts,
    periodic_positions_step,
    traced_select_step,
)


class SoftIBS(SamplingMechanism):
    """Every-nth-access software sampling with per-access instrumentation."""

    name = "Soft-IBS"
    capabilities = MechanismCapabilities(
        measures_latency=False,
        samples_all_instructions=False,
        event_based=True,
        supports_numa_events=True,
        counts_absolute_events=True,
        precise_ip=True,
        needs_thread_binding=True,
    )

    #: Table 1 default: "memory accesses, 10000000".
    DEFAULT_PERIOD = 10_000_000

    def __init__(self, period: int = DEFAULT_PERIOD, **cost_overrides) -> None:
        cost = {"per_sample_cycles": 10_000.0, "per_access_cycles": 100.0}
        cost.update(cost_overrides)
        super().__init__(period, **cost)

    @traced_select_step
    def select_step(self, views) -> StepSampleBatch:
        if not views:
            return self._empty_step(latency_captured=False)
        n_acc = np.fromiter(
            (v.chunk.n_accesses for v in views), np.int64, len(views)
        )
        tids = [v.tid for v in views]
        carries = self._step_carries(tids)
        positions, _, counts, new_carries = periodic_positions_step(
            carries, n_acc, self.period
        )
        self._store_step_carries(tids, new_carries)
        return self._finish_step(
            StepSampleBatch(
                indices=positions,
                counts=counts,
                starts=_starts_from_counts(counts),
                n_sampled_instructions=counts.copy(),
                n_events_total=n_acc,
                latency_captured=False,
            )
        )
