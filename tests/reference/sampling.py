"""Scalar per-chunk sample selection: the reference for ``select_step``.

Every mechanism selects a whole step's samples with array operations
(``SamplingMechanism.select_step``). :func:`select` is the definition
it must reproduce: one chunk at a time, each thread's carry advanced
by every ``period``-th event, an instruction sampler's slots jittered
from its thread's stream, and MRK's rate cap applied per chunk. It
reads and advances the mechanism's own selection state (carries,
jitter streams, MRK's budget, sample totals), so a test can alternate
it with ``select_step`` on one mechanism or run a twin of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.machine.cache import LEVEL_DRAM, LEVEL_L1
from repro.sampling import DEAR, IBS, MRK, PEBS, PEBSLL, SoftIBS


@dataclass
class SampleBatch:
    """Samples taken from one chunk.

    Attributes
    ----------
    indices:
        Indices into the chunk's access arrays for sampled *memory*
        accesses.
    n_sampled_instructions:
        How many instruction samples this batch represents (IBS/PEBS
        sample non-memory instructions too; those contribute to the
        lpi denominator I^s but carry no address).
    n_events_total:
        Absolute number of the mechanism's trigger events that occurred
        in the chunk (sampled or not).
    latency_captured:
        Whether latencies attached to these samples are valid.
    """

    indices: np.ndarray
    n_sampled_instructions: int
    n_events_total: int
    latency_captured: bool

    @property
    def n_samples(self) -> int:
        """Number of sampled memory accesses."""
        return int(self.indices.size)


def batch_for(step, k: int) -> SampleBatch:
    """Chunk ``k``'s slice of a ``StepSampleBatch``, as a :class:`SampleBatch`."""
    return SampleBatch(
        indices=step.indices[step.starts[k]:step.starts[k + 1]],
        n_sampled_instructions=int(step.n_sampled_instructions[k]),
        n_events_total=int(step.n_events_total[k]),
        latency_captured=step.latency_captured,
    )


def periodic_positions(
    carry: int, n_events: int, period: int
) -> tuple[np.ndarray, int]:
    """Deterministic every-``period``-th selection with cross-chunk carry.

    ``carry`` is how many events have elapsed since the last sample.
    Returns the selected event positions in ``[0, n_events)`` and the new
    carry. With ``period == 1`` every event is selected.
    """
    if period <= 0:
        raise MechanismError(f"sampling period must be positive, got {period}")
    if n_events <= 0:
        return np.empty(0, dtype=np.int64), carry
    first = period - 1 - carry
    if first >= n_events:
        return np.empty(0, dtype=np.int64), carry + n_events
    positions = np.arange(first, n_events, period, dtype=np.int64)
    new_carry = n_events - 1 - int(positions[-1])
    return positions, new_carry


def _dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from a sorted array.

    Jittered sample positions are non-decreasing, but the clamp in
    ``np.maximum(positions - jitter, 0)`` can land two samples on the
    same slot near position 0, which would double-count one access.
    """
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _periodic(mech, tid: int, n_events: int) -> np.ndarray:
    """Positions of thread ``tid``'s next ``n_events`` events; advances
    its carry."""
    positions, mech._carry[tid] = periodic_positions(
        mech._carry.get(tid, 0), n_events, mech.period
    )
    return positions


def instruction_samples(mech, tid: int, chunk) -> tuple[np.ndarray, int]:
    """``(sampled access indices, instruction samples)`` of one chunk.

    Instruction slot ``s`` is a memory access iff
    ``(s * n_acc) % n_instr < n_acc``; its access index is
    ``s * n_acc // n_instr``.
    """
    positions = _periodic(mech, tid, chunk.n_instructions)
    n_positions = int(positions.size)
    if n_positions == 0 or chunk.n_accesses == 0:
        return np.empty(0, dtype=np.int64), n_positions
    # Randomize low bits of each sample position (as hardware does) so
    # the period never aliases with the chunk's access/instruction
    # interleave; carry accounting stays on the unjittered grid.
    if mech._jitter_width > 1:
        jitter = mech._jitter(
            np.array([tid], dtype=np.int64),
            np.array([n_positions], dtype=np.int64),
        )
        positions = np.maximum(positions - jitter, 0)
        deduped = _dedupe_sorted(positions)
        if deduped.size != positions.size:
            obs.TRACER.count(
                "sampling.samples.dropped", positions.size - deduped.size
            )
        positions = deduped
    n_acc = chunk.n_accesses
    n_ins = chunk.n_instructions
    is_mem = (positions * n_acc) % n_ins < n_acc
    return (positions[is_mem] * n_acc // n_ins).astype(np.int64), n_positions


def event_mask(mech, levels: np.ndarray, latencies: np.ndarray) -> np.ndarray:
    """Which accesses are an event mechanism's trigger events."""
    levels = np.asarray(levels)
    latencies = np.asarray(latencies)
    if isinstance(mech, DEAR):
        return levels != LEVEL_L1
    if isinstance(mech, PEBSLL):
        return latencies > mech.latency_threshold
    if isinstance(mech, MRK):
        # Marked events fire on *demand* L3 misses: a prefetched line
        # exposes less than the demand latency. Without a machine every
        # DRAM access counts.
        dram = levels == LEVEL_DRAM
        if mech.machine is None:
            return dram
        return dram & (latencies >= mech.machine.latency_model.demand_min_latency)
    raise TypeError(f"{type(mech).__name__} is not an event mechanism")


def cap(mech, tid: int, chosen: np.ndarray, n_instructions: int,
        lat_total: float) -> np.ndarray:
    """MRK's hardware rate cap on one chunk's chosen events.

    At most ``max_rate`` samples per simulated second of execution,
    tracked as a fractional per-thread budget so the cap stays unbiased
    across chunk sizes; ``lat_total`` is the chunk's latency sum.
    """
    cap_rate = mech.max_rate
    chunk_cycles = n_instructions * mech.machine.base_cpi + lat_total
    chunk_seconds = chunk_cycles / (mech.machine.ghz * 1e9)
    budget = mech._budget.get(tid, 0.0) + chunk_seconds * cap_rate
    # The hardware cannot bank unused allowance indefinitely: clamp the
    # carried budget to a couple of chunks' worth.
    budget = min(budget, 3.0 * max(chunk_seconds * cap_rate, 1.0))
    max_samples = int(budget)
    if chosen.size > max_samples:
        obs.TRACER.count("sampling.samples.dropped", chosen.size - max_samples)
        if max_samples == 0:
            chosen = chosen[:0]
        else:
            keep = np.linspace(0, chosen.size - 1, max_samples).astype(np.int64)
            chosen = chosen[keep]
    mech._budget[tid] = budget - chosen.size
    return chosen


def select(mech, tid: int, chunk, levels: np.ndarray,
           target_domains: np.ndarray, latencies: np.ndarray) -> SampleBatch:
    """Choose samples from one executed chunk, as ``mech`` would."""
    if isinstance(mech, (IBS, PEBS)):
        access_idx, n_instr = instruction_samples(mech, tid, chunk)
        if isinstance(mech, PEBS) and not mech.skid_correction and access_idx.size:
            # Uncorrected skid: attribution lands on the following access.
            access_idx = np.minimum(access_idx + 1, chunk.n_accesses - 1)
        batch = SampleBatch(
            access_idx, n_instr, chunk.n_instructions, isinstance(mech, IBS)
        )
    elif isinstance(mech, SoftIBS):
        positions = _periodic(mech, tid, chunk.n_accesses)
        batch = SampleBatch(positions, int(positions.size), chunk.n_accesses,
                            False)
    else:
        event_idx = np.flatnonzero(event_mask(mech, levels, latencies))
        chosen = event_idx[_periodic(mech, tid, int(event_idx.size))]
        if (chosen.size and isinstance(mech, MRK)
                and mech.max_rate is not None and mech.machine is not None):
            chosen = cap(mech, tid, chosen, chunk.n_instructions,
                         float(np.asarray(latencies).sum()))
        batch = SampleBatch(
            chosen.astype(np.int64), int(chosen.size), int(event_idx.size),
            mech.capabilities.measures_latency,
        )
    mech.total_samples += batch.n_samples
    mech.total_events += batch.n_events_total
    tr = obs.TRACER
    if tr.enabled:
        tr.count("sampling.samples.selected", batch.n_samples)
        tr.count("sampling.events.observed", batch.n_events_total)
    return batch


def cost_cycles(mech, batch: SampleBatch, chunk) -> float:
    """Monitoring cost charged to the thread for one chunk.

    The per-sample cost applies to every taken sample interrupt,
    non-memory instruction samples included; PEBS's skid correction
    adds a binary analysis per record.
    """
    cost = (
        batch.n_sampled_instructions * mech.per_sample_cycles
        + chunk.n_accesses * mech.per_access_cycles
        + chunk.n_instructions * mech.instr_tax_cycles
    )
    if isinstance(mech, PEBS) and mech.skid_correction:
        cost += batch.n_sampled_instructions * mech.CORRECTION_COST
    return cost
