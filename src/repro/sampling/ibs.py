"""AMD instruction-based sampling (IBS).

IBS tags every ``period``-th instruction of any kind; tagged loads and
stores additionally report the effective address and access latency
(paper Section 3, [9]). Because *all* instruction types are sampled,
software must filter non-memory samples — which is why IBS's overhead in
Table 2 sits above the event-based mechanisms — but that same property
makes the load/store fraction of the instruction stream, and hence
eq. (2)'s lpi_NUMA, directly computable.
"""

from __future__ import annotations

from repro.sampling.base import (
    MechanismCapabilities,
    SamplingMechanism,
    StepSampleBatch,
    _starts_from_counts,
    traced_select_step,
)
from repro.sampling.instruction import InstructionSamplingMixin


class IBS(InstructionSamplingMixin, SamplingMechanism):
    """Instruction-based sampling: period in instructions, latency capture."""

    name = "IBS"
    capabilities = MechanismCapabilities(
        measures_latency=True,
        samples_all_instructions=True,
        event_based=False,
        supports_numa_events=True,
        counts_absolute_events=False,
        precise_ip=True,
    )

    #: Table 1 default: "IBS op, 64K instructions".
    DEFAULT_PERIOD = 64 * 1024

    def __init__(self, period: int = DEFAULT_PERIOD, **cost_overrides) -> None:
        cost = {"per_sample_cycles": 12_500.0}
        cost.update(cost_overrides)
        super().__init__(period, **cost)

    @traced_select_step
    def select_step(self, views) -> StepSampleBatch:
        if not views:
            return self._empty_step(latency_captured=True)
        access_idx, counts, n_positions, _, n_ins = (
            self._instruction_samples_step(views)
        )
        return self._finish_step(
            StepSampleBatch(
                indices=access_idx,
                counts=counts,
                starts=_starts_from_counts(counts),
                n_sampled_instructions=n_positions,
                n_events_total=n_ins,
                latency_captured=True,
            )
        )
