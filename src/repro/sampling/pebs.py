"""Intel precise event-based sampling (PEBS), Pentium 4 era.

Configured per Table 1 with ``INST_RETIRED:ANY_P`` at a period of
1,000,000 — i.e. instruction-stream sampling like IBS, but with the
classic PEBS off-by-1: the hardware records the IP of the *next*
instruction after the one that triggered. HPCToolkit-NUMA compensates
"using online binary analysis to identify the previous instruction,
which is difficult for x86" (paper Section 8) — that per-sample analysis
is why PEBS shows the second-highest overhead in Table 2 despite its low
sampling rate. The correction cost here (≈400k cycles/sample) is what
the paper's own LULESH numbers imply; disable correction and samples
land one access site late instead (``skid_correction=False``).
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import (
    MechanismCapabilities,
    SamplingMechanism,
    StepSampleBatch,
    _starts_from_counts,
    traced_select_step,
)
from repro.sampling.instruction import InstructionSamplingMixin


class PEBS(InstructionSamplingMixin, SamplingMechanism):
    """PEBS instruction sampling with off-by-1 skid and optional correction."""

    name = "PEBS"
    capabilities = MechanismCapabilities(
        measures_latency=False,
        samples_all_instructions=True,
        event_based=True,
        supports_numa_events=True,
        counts_absolute_events=False,
        precise_ip=False,  # skid; corrected in software at a price
    )

    #: Table 1 default: "INST_RETIRED:ANY_P, 1000000".
    DEFAULT_PERIOD = 1_000_000

    #: Cost of online binary analysis per corrected sample (cycles).
    CORRECTION_COST = 400_000.0

    def __init__(
        self,
        period: int = DEFAULT_PERIOD,
        *,
        skid_correction: bool = True,
        **cost_overrides,
    ) -> None:
        cost = {"per_sample_cycles": 8_000.0}
        cost.update(cost_overrides)
        super().__init__(period, **cost)
        self.skid_correction = skid_correction

    @traced_select_step
    def select_step(self, views) -> StepSampleBatch:
        if not views:
            return self._empty_step(latency_captured=False)
        access_idx, counts, n_positions, n_acc, n_ins = (
            self._instruction_samples_step(views)
        )
        if not self.skid_correction and access_idx.size:
            # Uncorrected skid: attribution lands on the following access.
            rows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            access_idx = np.minimum(access_idx + 1, n_acc[rows] - 1)
        return self._finish_step(
            StepSampleBatch(
                indices=access_idx,
                counts=counts,
                starts=_starts_from_counts(counts),
                n_sampled_instructions=n_positions,
                n_events_total=n_ins,
                latency_captured=False,
            )
        )

    def cost_cycles_step(self, step: StepSampleBatch, views) -> np.ndarray:
        base = super().cost_cycles_step(step, views)
        if self.skid_correction:
            # Binary analysis runs for every PEBS record, memory or not.
            base = base + step.n_sampled_instructions * self.CORRECTION_COST
        return base
