"""Sampling mechanism base classes and shared helpers.

A mechanism observes each executed chunk and decides which accesses are
*sampled*. Selection is deterministic: events are counted with a
per-thread carry so a period-``p`` mechanism samples exactly every
``p``-th event across chunk boundaries, which both makes tests exact and
honours the paper's requirement that "memory accesses are uniformly
sampled".
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.machine.machine import Machine


@dataclass(frozen=True, repr=False)
class MechanismCapabilities:
    """What a sampling mechanism's hardware (or software) can do.

    The paper's analyses branch on these: ``measures_latency`` gates the
    lpi_NUMA metric (eqs. 2/3), ``counts_absolute_events`` selects eq. 3's
    form, ``samples_all_instructions`` distinguishes IBS-style instruction
    sampling from event sampling, ``precise_ip`` vs. skid drives the PEBS
    off-by-1 correction, and ``needs_thread_binding`` marks Soft-IBS's
    requirement for a static thread -> CPU map.
    """

    measures_latency: bool = False
    samples_all_instructions: bool = False
    event_based: bool = True
    supports_numa_events: bool = False
    counts_absolute_events: bool = False
    precise_ip: bool = True
    needs_thread_binding: bool = False
    max_sample_rate_per_sec: float | None = None


@dataclass(eq=False, repr=False)
class StepSampleBatch:
    """Samples taken from every chunk of one execution step.

    One ``select_step`` call covers all chunks the engine ran in
    lockstep, so selection is a handful of array operations per *step*
    instead of per *chunk*. Per-chunk results are concatenated;
    ``counts``/``starts`` recover the chunk boundaries.

    Attributes
    ----------
    indices:
        Chunk-local sampled access indices, concatenated in step (view)
        order. Event mechanisms return them at
        :func:`event_index_dtype`'s width, so consumers index with them
        or widen them to int64 before any arithmetic.
    counts / starts:
        Samples per chunk and the prefix offsets of each chunk's slice of
        ``indices`` (``starts`` has ``n_chunks + 1`` entries).
    n_sampled_instructions:
        Instruction samples per chunk (IBS/PEBS sample non-memory
        instructions too; those contribute to the lpi denominator I^s
        but carry no address).
    n_events_total:
        Per chunk, the absolute number of the mechanism's trigger
        events (sampled or not) — the "conventional counter" reading
        that eq. 3 needs for PEBS-LL (E_NUMA) and that MRK-style tools
        use for miss counts.
    latency_captured:
        Whether latencies attached to these samples are valid (uniform
        across a step — it is a mechanism property).
    """

    indices: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    n_sampled_instructions: np.ndarray
    n_events_total: np.ndarray
    latency_captured: bool

    @property
    def n_samples(self) -> int:
        """Total sampled memory accesses across the step."""
        return int(self.indices.size)


def traced_select_step(fn):
    """Wrap a mechanism's ``select_step`` in a ``sampling``-category span.

    Every mechanism decorates its override so step selection shows up as
    ``sampling.select_step`` in traces and phase breakdowns regardless of
    which mechanism runs. When tracing is disabled the wrapper costs one
    attribute check per step.
    """

    @functools.wraps(fn)
    def wrapper(self, views):
        tr = obs.TRACER
        if not tr.enabled:
            return fn(self, views)
        tr.begin("sampling.select_step", "sampling", mech=self.name)
        try:
            return fn(self, views)
        finally:
            tr.end()

    return wrapper


def _starts_from_counts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def event_index_dtype(n_acc) -> type:
    """The dtype of a step's chunk-local event indices: int32 when every
    chunk has fewer than 2**31 accesses (``n_acc``, one count per
    chunk), else int64. Consumers widen to int64 before an index takes
    part in any address or ordinal arithmetic."""
    return np.int32 if np.max(n_acc, initial=0) < 2**31 else np.int64


def periodic_positions_step(
    carries: np.ndarray,
    n_events: np.ndarray,
    period: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ``period``-th event over many (carry, events) pairs at once.

    ``carries[k]`` is how many events have elapsed since chunk ``k``'s
    thread last sampled. Computes, for every chunk of a step, the
    selected event positions in ``[0, n_events[k])`` (concatenated in
    chunk order), how many each chunk got, and each chunk's new carry —
    what selecting chunk by chunk would, with ``period == 1`` selecting
    every event.

    Returns ``(positions_cat, rows, counts, new_carries)`` where ``rows``
    maps each concatenated position back to its chunk index. With a
    boolean ``mask``, positions and rows are built only for the masked
    chunks; counts and carries still cover every chunk (closed form).
    """
    if period <= 0:
        raise MechanismError(f"sampling period must be positive, got {period}")
    n_events = np.asarray(n_events, dtype=np.int64)
    carries = np.asarray(carries, dtype=np.int64)
    first = period - 1 - carries
    active = n_events > 0
    selected = active & (first < n_events)
    counts = np.zeros(n_events.shape, dtype=np.int64)
    counts[selected] = (n_events[selected] - first[selected] - 1) // period + 1
    new_carries = carries.copy()
    skipped = active & ~selected
    new_carries[skipped] = carries[skipped] + n_events[skipped]
    new_carries[selected] = (
        n_events[selected] - 1
        - (first[selected] + (counts[selected] - 1) * period)
    )
    built = counts if mask is None else np.where(mask, counts, 0)
    starts = _starts_from_counts(built)
    total = int(starts[-1])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, counts, new_carries
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), built)
    within = np.arange(total, dtype=np.int64) - starts[rows]
    positions = first[rows] + within * period
    return positions, rows, counts, new_carries


class SamplingMechanism(abc.ABC):
    """Base class: per-thread periodic selection plus a cost model.

    Parameters
    ----------
    period:
        Mechanism-specific sampling period (instructions for IBS/PEBS,
        trigger events for the event-based mechanisms, accesses for
        Soft-IBS).
    per_sample_cycles / per_access_cycles / instr_tax_cycles:
        Cost model: each taken sample costs ``per_sample_cycles`` (PMU
        interrupt + unwind + attribution), each executed access costs
        ``per_access_cycles`` (Soft-IBS instrumentation stubs), and each
        executed instruction costs ``instr_tax_cycles`` (always-on
        machinery such as marking hardware). Defaults are calibrated per
        mechanism so the simulated Table 2 matches the paper's overhead
        ordering; see EXPERIMENTS.md.
    """

    name: str = "base"
    capabilities: MechanismCapabilities = MechanismCapabilities()

    def __init__(
        self,
        period: int,
        *,
        per_sample_cycles: float = 3000.0,
        per_access_cycles: float = 0.0,
        instr_tax_cycles: float = 0.0,
    ) -> None:
        if period <= 0:
            raise MechanismError(f"period must be positive, got {period}")
        self.period = int(period)
        self.per_sample_cycles = per_sample_cycles
        self.per_access_cycles = per_access_cycles
        self.instr_tax_cycles = instr_tax_cycles
        self._carry: dict[int, int] = {}
        self._seed = 0x1B5
        self.machine: Machine | None = None
        self.total_samples = 0
        self.total_events = 0

    def configure(self, machine: Machine, seed: int = 0x1B5) -> None:
        """Bind to a machine (clock rate, CPI) before a run."""
        self.machine = machine
        self._carry.clear()
        self.total_samples = 0
        self.total_events = 0
        self._seed = int(seed)

    def state_digest(self) -> tuple:
        """Hashable digest of all mutable selection state.

        Covers the per-thread periodic carries plus whatever
        :meth:`_extra_state_digest` contributes (instruction samplers'
        jitter streams, MRK's rate budget). Equal digests before two iterations of the
        same chunk stream mean the mechanism selects bit-identical
        samples in both — the phase detector's exactness condition.
        Totals (``total_samples``/``total_events``) are deliberately
        excluded: they are outputs, not selection state, and are
        extrapolated separately.
        """
        return tuple(sorted(self._carry.items())), self._extra_state_digest()

    def _extra_state_digest(self):
        """Subclass hook: extra mutable selection state (default none)."""
        return None

    @abc.abstractmethod
    def select_step(self, views) -> StepSampleBatch:
        """Choose samples for every chunk of one execution step at once.

        ``views`` is the engine's
        :class:`~repro.runtime.memo.StepViews`: one view per chunk in
        step order, with the per-chunk ``tids``, ``n_ins`` and ``n_acc``
        arrays and the step's ``memo``. The engine guarantees each
        thread contributes at most one chunk per step, so per-thread
        carries never collide within a call. Results are exactly what
        selecting chunk by chunk in view order would produce (the
        scalar reference in
        ``tests/reference/sampling.py``; see
        ``tests/test_sampling_step.py``). Mechanisms implement it with
        vectorized selection over step-concatenated event counts.
        """

    def cost_cycles_step(self, step: StepSampleBatch, views) -> np.ndarray:
        """Per-chunk monitoring cost for a whole step, in cycles.

        The per-sample cost applies to every *taken sample interrupt* —
        for instruction-sampling mechanisms that includes tagged
        non-memory instructions, which is exactly why IBS's overhead
        exceeds the event-based mechanisms' in Table 2 ("IBS samples all
        kinds of instructions ... which adds extra overhead").
        """
        return (
            step.n_sampled_instructions * self.per_sample_cycles
            + views.n_acc * self.per_access_cycles
            + views.n_ins * self.instr_tax_cycles
        )

    def _step_carries(self, tids) -> np.ndarray:
        return np.fromiter(
            (self._carry.get(t, 0) for t in tids), np.int64, len(tids)
        )

    def _store_step_carries(self, tids, new_carries: np.ndarray) -> None:
        carry = self._carry
        for t, c in zip(tids, new_carries.tolist()):
            carry[t] = c

    def _finish_step(self, step: StepSampleBatch) -> StepSampleBatch:
        events = int(step.n_events_total.sum())
        self.total_samples += step.n_samples
        self.total_events += events
        tr = obs.TRACER
        if tr.enabled:
            tr.count("sampling.samples.selected", step.n_samples)
            tr.count("sampling.events.observed", events)
        return step

    def _empty_step(self, *, latency_captured: bool) -> StepSampleBatch:
        zeros = np.empty(0, dtype=np.int64)
        return StepSampleBatch(
            indices=zeros,
            counts=zeros.copy(),
            starts=np.zeros(1, dtype=np.int64),
            n_sampled_instructions=zeros.copy(),
            n_events_total=zeros.copy(),
            latency_captured=latency_captured,
        )

    def describe(self) -> str:
        """Human-readable one-liner for tables."""
        return f"{self.name} (period {self.period})"


class EventSamplingMechanism(SamplingMechanism):
    """Every ``period``-th trigger event, counted per thread.

    A subclass names its trigger event once, as :attr:`event_primitive`:
    the view method (see ``repro.runtime.engine.LazyChunkView``) that
    returns the event indices directly, so the view serves them from
    its fetch subset without materializing per-access arrays. A rate
    cap hooks in through :meth:`_capped` / :meth:`_cap_step`.
    """

    #: Name of the view method returning chunk-local event indices,
    #: called with :meth:`_event_args`.
    event_primitive: str = ""

    def _event_args(self) -> tuple:
        return ()

    def _capped(self) -> bool:
        """Whether :meth:`_cap_step` thins selections (it needs latency sums)."""
        return False

    def _cap_step(
        self, tids: np.ndarray, chosen: np.ndarray, counts: np.ndarray,
        n_ins: np.ndarray, lat_totals: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Thin a step's chosen events: ``(chosen, counts)`` after the cap.

        Per-chunk arrays are in view order; ``chosen`` holds each
        chunk's events back to back, ``counts[k]`` of them, and
        ``lat_totals[k]`` is chunk ``k``'s latency sum. A step's tids
        are distinct, so the result must equal capping each chunk with
        ``counts[k] > 0`` in turn.
        """
        return chosen, counts

    def _step_events(self, views):
        """``(events_cat, ev_counts, offsets, lat_totals)`` for a step.

        Chunk-local event indices of every view, concatenated in view
        order, with per-view event counts, their prefix offsets, and —
        when capped — each view's latency sum (zero for views without
        events, which the cap never sees). A step's events depend
        only on its views, so they are cached on ``views.memo``: a
        retained step hands back the same :class:`StepViews` on later
        iterations, which then reuse them. At period 1 the events and
        counts are the step's selection itself, so they are read-only.
        The indices are held at :func:`event_index_dtype`'s width.
        """
        args = self._event_args()
        capped = self._capped()
        key = (self.event_primitive, *args, capped)
        got = views.memo.get(key)
        if got is not None:
            return got
        events = [getattr(v, self.event_primitive)(*args) for v in views]
        ev_counts = np.fromiter((e.size for e in events), np.int64, len(events))
        events_cat = np.concatenate(
            events, dtype=event_index_dtype(views.n_acc), casting="same_kind"
        )
        del events
        events_cat.flags.writeable = ev_counts.flags.writeable = False
        lat_totals = None
        if capped:
            lat_totals = np.zeros(len(views))
            for k in np.flatnonzero(ev_counts).tolist():
                lat_totals[k] = views[k].latency_total()
        got = views.memo[key] = (
            events_cat,
            ev_counts,
            _starts_from_counts(ev_counts),
            lat_totals,
        )
        return got

    @traced_select_step
    def select_step(self, views) -> StepSampleBatch:
        latency_captured = self.capabilities.measures_latency
        if not views:
            return self._empty_step(latency_captured=latency_captured)
        events_cat, ev_counts, offsets, lat_totals = self._step_events(views)
        tids = views.tids
        carries = self._step_carries(tids)
        if self.period == 1 and not carries.any():
            # Every event is chosen and the zero carries stay zero: the
            # step's events are the selection, with no positions to
            # build and no gathered copy.
            chosen, counts = events_cat, ev_counts
            self._store_step_carries(tids, carries)
        else:
            positions, rows, counts, new_carries = periodic_positions_step(
                carries, ev_counts, self.period
            )
            self._store_step_carries(tids, new_carries)
            positions += offsets[rows]
            del rows
            chosen = events_cat[positions]
            del positions
        if lat_totals is not None and chosen.size:
            chosen, counts = self._cap_step(
                tids, chosen, counts, views.n_ins, lat_totals
            )
        return self._finish_step(
            StepSampleBatch(
                indices=chosen,
                counts=counts,
                starts=_starts_from_counts(counts),
                n_sampled_instructions=counts.copy(),
                n_events_total=ev_counts,
                latency_captured=latency_captured,
            )
        )
