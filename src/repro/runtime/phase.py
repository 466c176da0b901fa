"""Phase detection and extrapolated profiling (the Pac-Sim direction).

Every region iteration of a memoized run replays the same chunk trace,
so once the simulation's *behavioral state* reaches a fixed point,
every remaining iteration is a bit-identical replay of the last
simulated one. This module detects that fixed point live and lets the
engine skip the remaining iterations, reconstructing their contribution
to every reported metric by replaying the last iteration's recorded
deltas — the cost model changes from O(accesses) to O(distinct phases).

Signature definition
--------------------

The behavioral state before an iteration is digested as:

* the page-table **epoch** (any placement mutation — first touch,
  unprotect, live migration — bumps it, exactly as the memo layer's
  ``(epoch, fetch-levels)`` classification keys require);
* the per-step **memo variant keys** (``(epoch, fetch_levels)``) chosen
  during the iteration — collapsed to an O(1) :func:`sig_digest` so
  storing and comparing signatures costs O(hash), not O(state bytes);
* the monitor's **selection state** (sampling carries, per-thread
  jitter RNG states, mechanism-specific extras like MRK's rate budget)
  via :meth:`SamplingMechanism.state_digest` (ndarray members are
  collapsed to blake2b digests by :func:`freeze_state`).

Fixed-point induction
---------------------

If the digest after iteration *i* equals the digest after iteration
*i − 1* — with the recorded engine-pure deltas compared exactly as a
hash-collision defense — then iteration *i* mapped the behavioral state
onto itself. Once the verified steady run is at least ``warmup``
iterations long (``streak + 1 >= warmup``), by induction every future
iteration replays the last one exactly, so the engine may skip them.
Exact readiness (monitor digest repeating too, cycle deltas bit-equal)
is preferred over ε readiness.

The induction over the cache hierarchy's reuse-distance state does not
need the (monotonically growing) state in the digest: a memoized region
replays an identical chunk trace every iteration, so fetch levels
repeat once the memo-key signature does. What the cache state *does*
require is an exact **fast-forward** on skip
(``CacheHierarchy.phase_advance``): n skipped iterations move stream
positions by n per-iteration advances and touched keys' last-visit
markers along with them, while untouched keys (whose reuse distances
grow linearly — they belong to *other* regions) stay put.

Paying for itself
-----------------

Detection has a per-iteration cost (signature build, state digests,
delta recording). A region that never converges would pay it on every
iteration, so the detector **disarms** after ``disarm_after``
consecutive non-converging windows (window = ``warmup + 1``
iterations): observation stops and each iteration costs one epoch
compare. A periodic re-arm probe re-enables observation for one window
every ``disarm_after`` windows, and any epoch change re-arms
immediately (new placement = new behavior worth re-checking).

Invalidation rules
------------------

The phase breaks — and the engine falls back to live simulation — the
moment any of these happens:

* a scheduled :class:`~repro.optim.schedule.PolicySchedule` action
  fires at an iteration boundary (extrapolation also never crosses a
  scheduled boundary: the skip is clamped to the next one);
* the page-table epoch bumps inside the window (first touches, traps);
* the digest stops repeating for any other reason (cache warmup still
  in progress, sampling carry drift);
* the region exits (detector state is per-region).

ε semantics
-----------

With jittered sampling (IBS-style randomized periods) the monitor's RNG
state advances every iteration, so a *monitored* run usually never
reaches an exact fixed point even when the engine state has. In that
case the engine may extrapolate with **declared error**: engine-pure
quantities (instructions, accesses, DRAM/remote counts, traffic, domain
requests) still repeat exactly and are extrapolated exactly;
sampling-dependent quantities (sample counts, latency sums, monitor
cost cycles, and hence wall time) are extrapolated with the *mean*
per-iteration delta over the trailing window, and the run summary
reports ε — the maximum relative half-spread observed across the
window. ε is an empirical spread, not a guaranteed bound. Address
[min, max] ranges are never scaled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro._hashing import blake2b
from repro.runtime.driver import DEFAULT_DISARM_AFTER, INT_FIELDS


def freeze_state(value):
    """Recursively convert RNG/dict state into a hashable tuple form.

    ndarray members (e.g. raw bit-generator state vectors) are collapsed
    to a 128-bit blake2b digest: building and comparing a state digest
    is then O(hash) per iteration instead of O(state bytes), and the
    digest tuples do not retain the raw buffers.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, freeze_state(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze_state(v) for v in value)
    if isinstance(value, np.ndarray):
        return (
            value.shape,
            value.dtype.str,
            blake2b(np.ascontiguousarray(value).tobytes(),
                    digest_size=16).digest(),
        )
    return value


def sig_digest(epoch: int, sig: list) -> tuple:
    """Collapse an iteration's memo-variant signature to an O(1) token.

    ``sig`` is the sequence of ``(epoch, fetch_levels_bytes)`` variant
    keys the iteration selected. The raw sequence is O(steps × chunks)
    bytes; detection stores and compares signatures every live
    iteration, so they are hashed down to (epoch, length, blake2b-128).
    A collision would have to survive the recorded-delta defense
    comparison as well (see :meth:`IterationRecording.same_pure_deltas`).
    """
    h = blake2b(digest_size=16)
    h.update(int(epoch).to_bytes(8, "little", signed=True))
    for entry in sig:
        for part in entry:
            if isinstance(part, bytes):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
            else:
                h.update(int(part).to_bytes(16, "little", signed=True))
    return (int(epoch), len(sig), h.digest())


@dataclass(eq=False, repr=False)
class IterationRecording:
    """One live iteration's effects, in replayable form.

    ``ints``/``requests``/``traffic`` are associative integer deltas
    (extrapolated by multiplication); ``region_cycles``/``elapsed`` are
    the iteration's per-tid cycle totals (each iteration folds exactly
    one float add per tid into ``busy``/``wall``, so n skipped
    iterations fold n times — bit-identical to running them);
    ``oh_ops`` is the per-step sequence of nonzero per-thread overhead
    adds; ``monitor_prog`` is the monitor's recorded accumulation
    program (see ``NumaProfiler.phase_record_end``). ``cache_delta``
    is ``CacheHierarchy.phase_delta``'s ``(stream advance, touched
    keys)``.
    """

    ints: dict
    requests: np.ndarray
    traffic: np.ndarray
    region_cycles: dict
    elapsed: float
    oh_ops: list
    cache_delta: tuple | None = None
    monitor_prog: object | None = None

    def same_pure_deltas(self, other: "IterationRecording") -> bool:
        """Exact equality of the engine-pure deltas (defense in depth:
        a signature collision must never let extrapolation diverge).

        Cycles are deliberately excluded — they embed the monitor's
        (possibly jittered) sampling cost, whose drift is what ε mode
        exists for. The cache's stream advance and touched-key set must
        repeat exactly for *any* extrapolation.
        """
        if other is None:
            return False
        if (self.cache_delta is None) != (other.cache_delta is None):
            return False
        if self.cache_delta is not None:
            d_pos, touched = self.cache_delta
            o_pos, o_touched = other.cache_delta
            if d_pos != o_pos or set(touched) != set(o_touched):
                return False
        return (
            self.ints == other.ints
            and np.array_equal(self.requests, other.requests)
            and np.array_equal(self.traffic, other.traffic)
        )

    def same_cycle_deltas(self, other: "IterationRecording") -> bool:
        """Bit-exact cycle equality — required for ε = 0 replay."""
        return (
            other is not None
            and self.region_cycles == other.region_cycles
            and self.elapsed == other.elapsed
        )


@dataclass(eq=False, repr=False)
class EpsSample:
    """One window entry for ε-mode extrapolation."""

    rec: IterationRecording
    oh_delta: np.ndarray
    monitor_delta: object | None


@dataclass(eq=False, repr=False)
class HistoryEntry:
    """One observed live iteration in the detector's ring."""

    engine_digest: object
    monitor_digest: object
    rec: IterationRecording
    sample: EpsSample | None


def mean_cycles(window: list[EpsSample]) -> tuple[dict, float]:
    """Window-mean per-tid cycles and elapsed, in chronological order."""
    n = len(window)
    tids = window[0].rec.region_cycles.keys()
    rc_mean = {}
    for tid in tids:
        acc = 0.0
        for s in window:
            acc += s.rec.region_cycles[tid]
        rc_mean[tid] = acc / n
    acc = 0.0
    for s in window:
        acc += s.rec.elapsed
    return rc_mean, acc / n


def relative_spread(values: list[float]) -> float:
    """Half-spread of ``values`` relative to their mean (0 when flat)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return 0.0
    mean = sum(values) / len(values)
    scale = abs(mean) if mean else max(abs(hi), abs(lo))
    return (hi - lo) / (2.0 * scale) if scale else 0.0


def trailing_window(tail: list, depth: int) -> list:
    """The trailing ε window over a steady tail.

    ``tail`` holds the verified steady iterations' samples,
    chronological. The window is chronological and holds at most
    ``depth`` samples; a None entry (an iteration recorded without an ε
    sample) ends it.
    """
    window: list = []
    for sample in reversed(tail):
        if sample is None or len(window) == depth:
            break
        window.append(sample)
    window.reverse()
    return window


def window_eps(window: list[EpsSample]) -> float:
    """Observed relative half-spread of cycles across the window."""
    if len(window) < 2:
        return 0.0
    eps = relative_spread([s.rec.elapsed for s in window])
    for tid in window[0].rec.region_cycles:
        eps = max(
            eps, relative_spread([s.rec.region_cycles[tid] for s in window])
        )
    return eps


class PhaseDetector:
    """Per-region detect → extrapolate → resume state machine.

    Drives on boundary digests: :meth:`begin_iteration` gates whether
    the engine records at all (the pay-for-itself disarm machinery),
    and :meth:`end_live_iteration` is called after every observed live
    iteration with the engine digest, the monitor digest, and the
    iteration's :class:`IterationRecording`. Lag-1 digest matches feed
    the match streaks; readiness needs ``warmup`` verified steady
    iterations (``streak + 1 >= warmup``).
    """

    def __init__(
        self,
        region_name: str,
        *,
        warmup: int = 2,
        allow_eps: bool = True,
        monitor_present: bool = False,
        disarm_after: int = DEFAULT_DISARM_AFTER,
    ) -> None:
        self.region_name = region_name
        self.warmup = max(1, int(warmup))
        self.allow_eps = bool(allow_eps)
        self.monitor_present = bool(monitor_present)
        self.disarm_after = max(0, int(disarm_after))
        #: Consecutive lag-1 matches (engine-pure) and, within them,
        #: consecutive exact matches (monitor state and cycles too).
        self.streak = 0
        self.exact_streak = 0
        #: Ring of observed live iterations — deep enough for the ε
        #: window.
        self.history: deque = deque(maxlen=self.warmup)
        self.breaks = 0
        self.disarms = 0
        #: Disarm bookkeeping: a "window" is one full detection
        #: opportunity; after ``disarm_after`` windows with no
        #: convergence the detector goes quiescent, probing one window
        #: every ``probe_interval`` iterations.
        self.disarm_window = self.warmup + 1
        self.probe_interval = max(1, self.disarm_after) * self.disarm_window
        self._state = "observing"  # observing | probing | quiescent
        self._idle = 0
        self._quiet = 0
        self._probe_left = 0
        self._last_epoch = None

    # -- live-iteration observation ------------------------------------ #

    @property
    def observing(self) -> bool:
        """Whether the detector currently records live iterations."""
        return self._state != "quiescent"

    def begin_iteration(self, epoch) -> bool:
        """Cheap pre-iteration gate; returns whether to observe.

        While quiescent this is the detector's *entire* per-iteration
        cost: one epoch compare and a probe counter. An epoch change
        re-arms immediately (new placement = new behavior); otherwise a
        probe window opens every ``probe_interval`` iterations.
        """
        if self._last_epoch is not None and epoch != self._last_epoch:
            # Any placement mutation invalidates every digest (the epoch
            # is embedded in all of them): drop history and matching
            # state and start observing again from scratch.
            self.invalidate()
        self._last_epoch = epoch
        if self._state == "quiescent":
            self._quiet += 1
            if self._quiet >= self.probe_interval:
                self._state = "probing"
                self._probe_left = self.disarm_window
                self._quiet = 0
                return True
            return False
        return True

    def _reset_matching(self) -> None:
        self.history.clear()
        self.streak = self.exact_streak = 0

    def _quiesce(self) -> None:
        self._state = "quiescent"
        self.disarms += 1
        self._quiet = 0
        self._idle = 0
        self._reset_matching()

    def invalidate(self, *, count_break: bool = True) -> None:
        """Phase broken externally (schedule fired at this boundary)."""
        if count_break and self.streak:
            self.breaks += 1
        self._reset_matching()
        self._state = "observing"
        self._idle = 0
        self._quiet = 0
        self._probe_left = 0

    def end_live_iteration(
        self,
        engine_digest,
        monitor_digest,
        rec: IterationRecording,
        oh_delta: np.ndarray | None,
        monitor_delta: object | None,
    ) -> None:
        """Fold one finished live iteration into the streak state."""
        hist = self.history
        base = hist[-1] if hist else None
        if (
            base is not None
            and engine_digest == base.engine_digest
            # A digest collision would be silent corruption; the exact
            # integer-delta comparison closes that hole.
            and rec.same_pure_deltas(base.rec)
        ):
            self.streak += 1
            if (
                monitor_digest == base.monitor_digest
                and rec.same_cycle_deltas(base.rec)
            ):
                self.exact_streak += 1
            else:
                self.exact_streak = 0
        else:
            if self.streak:
                self.breaks += 1
            self.streak = self.exact_streak = 0
        sample = None
        if self.allow_eps and monitor_delta is not None:
            sample = EpsSample(rec, oh_delta, monitor_delta)
        hist.append(
            HistoryEntry(engine_digest, monitor_digest, rec, sample)
        )
        # Pay-for-itself accounting: converging resets the idle count
        # (and ends a probe successfully); a fruitless window disarms.
        if self.ready:
            self._idle = 0
            self._state = "observing"
        elif self._state == "probing":
            self._probe_left -= 1
            if self._probe_left <= 0:
                self._quiesce()
        elif self.disarm_after:
            self._idle += 1
            if self._idle >= self.disarm_after * self.disarm_window:
                self._quiesce()

    # -- readiness ------------------------------------------------------ #

    def _ready(self, *, exact: bool) -> bool:
        """Whether the streaks satisfy the readiness rule; ε also needs
        a filled window."""
        s = self.exact_streak if exact else self.streak
        if not (s >= 1 and s + 1 >= self.warmup):
            return False
        return exact or (
            self.allow_eps and self.monitor_present and bool(self.eps_window())
        )

    @property
    def is_steady(self) -> bool:
        """Whether the last iteration extended the match streak."""
        return self.streak > 0

    @property
    def ready(self) -> bool:
        return self._ready(exact=True) or self._ready(exact=False)

    # -- armed-phase access --------------------------------------------- #

    def steady_len(self) -> int:
        """Trailing history iterations verified on the fixed point."""
        n = self.streak + 1 if self.streak else 0
        return min(n, len(self.history))

    def eps_window(self) -> list[EpsSample]:
        """The trailing ε window harvested from the steady tail (at most
        ``warmup`` samples, see :func:`trailing_window`)."""
        hist = list(self.history)
        tail = hist[len(hist) - self.steady_len():]
        return trailing_window([e.sample for e in tail], self.warmup)

    # -- run-driver protocol -------------------------------------------- #

    def phase_payload(self) -> dict:
        """Readiness for the run driver.

        The driver arms the union region only when every shard reports
        ready (exact preferred) — by construction the union digest
        repeats iff every shard's does, so this reproduces one detector
        over the union from per-shard state.
        """
        return {
            "ready_exact": self._ready(exact=True),
            "ready_eps": self._ready(exact=False),
            "steady": self.steady_len(),
            "breaks": self.breaks,
            "disarmed": not self.observing,
            "disarms": self.disarms,
        }


def union_plan(shard_phases: list[dict | None]) -> tuple[str, int] | None:
    """Combine per-shard readiness into the union's plan.

    Returns ``(mode, steady_tail)`` — exact when every shard is exact
    ready, else ε when every shard is ε ready, with the union's verified
    steady-tail length (min over shards) — or ``None``.
    """
    if not shard_phases or any(ph is None for ph in shard_phases):
        return None
    for mode, key in (("exact", "ready_exact"), ("eps", "ready_eps")):
        if all(ph[key] for ph in shard_phases):
            return mode, min(ph["steady"] for ph in shard_phases)
    return None


@dataclass(eq=False, repr=False)
class RegionPhaseStats:
    """Per-region outcome folded into the engine's phase report."""

    iterations: int = 0
    simulated: int = 0
    extrapolated_exact: int = 0
    extrapolated_eps: int = 0
    breaks: int = 0
    epsilon: float = 0.0
    disarms: int = 0

    def as_dict(self) -> dict:
        extrapolated = self.extrapolated_exact + self.extrapolated_eps
        coverage = (
            100.0 * extrapolated / self.iterations if self.iterations else 0.0
        )
        return {
            "iterations": self.iterations,
            "simulated": self.simulated,
            "extrapolated_exact": self.extrapolated_exact,
            "extrapolated_eps": self.extrapolated_eps,
            "breaks": self.breaks,
            "epsilon": self.epsilon,
            "coverage_pct": coverage,
            "disarms": self.disarms,
        }


@dataclass(eq=False, repr=False)
class PhaseReport:
    """Run-level phase/extrapolation accounting (the ε report).

    Attached to the engine after a run as ``engine.phase_report`` (a
    plain dict via :meth:`as_dict`); the CLI prints it and records its
    ``coverage_pct`` in the run manifest's headline.
    """

    enabled: bool = False
    regions: dict = field(default_factory=dict)

    def region(self, name: str) -> RegionPhaseStats:
        stats = self.regions.get(name)
        if stats is None:
            stats = self.regions[name] = RegionPhaseStats()
        return stats

    def as_dict(self) -> dict:
        iterations = sum(r.iterations for r in self.regions.values())
        simulated = sum(r.simulated for r in self.regions.values())
        exact = sum(r.extrapolated_exact for r in self.regions.values())
        eps = sum(r.extrapolated_eps for r in self.regions.values())
        extrapolated = exact + eps
        return {
            "enabled": self.enabled,
            "iterations": iterations,
            "simulated": simulated,
            "extrapolated_exact": exact,
            "extrapolated_eps": eps,
            "coverage_pct": (
                100.0 * extrapolated / iterations if iterations else 0.0
            ),
            "epsilon": max(
                (r.epsilon for r in self.regions.values()), default=0.0
            ),
            "breaks": sum(r.breaks for r in self.regions.values()),
            "disarms": sum(r.disarms for r in self.regions.values()),
            "regions": {
                name: r.as_dict() for name, r in self.regions.items()
            },
        }


def next_schedule_boundary(schedule, region_idx: int, start: int, stop: int) -> int:
    """First iteration in ``[start, stop)`` with scheduled steps, else ``stop``.

    Extrapolation never crosses a scheduled migration: the skip clamps
    here, the boundary's actions run live, and the epoch bump they
    cause resets the detector.
    """
    if schedule is None:
        return stop
    for j in range(start, stop):
        if schedule.steps_for(region_idx, j):
            return j
    return stop


def record_iteration(engine, it, ints: dict) -> None:
    """Feed an observed live iteration of ``engine`` to its detector.

    ``it`` is the engine's closing iteration state
    (``repro.runtime.engine._Iteration``) and ``ints`` its integer
    counters.
    """
    oh_ops, sig = engine._phase_oh_rec, engine._phase_sig
    engine._phase_oh_rec = engine._phase_sig = None
    monitor = engine.monitor
    mon_digest: object = ()
    mon_prog = None
    mon_delta = None
    if monitor is not None:
        mon_prog = monitor.phase_record_end()
        mon_digest = monitor.phase_digest()
        if it.mon_snap is not None:
            mon_delta = monitor.phase_delta(it.mon_snap)
    cache = engine.machine.cache
    rec = IterationRecording(
        ints=ints,
        requests=it.requests,
        traffic=it.traffic,
        region_cycles=it.region_cycles,
        # The barrier's elapsed time is a max over every shard's
        # threads: the driver records it in its merged window.
        elapsed=0.0,
        oh_ops=oh_ops,
        cache_delta=cache.phase_delta(it.cache_snap),
        monitor_prog=mon_prog,
    )
    # The cache's reuse-distance state needs no digest entry: an
    # identical trace revisits the same keys every iteration, so fetch
    # levels are periodic once the memo-key signature repeats (see the
    # module docstring); the recorded cache delta is compared exactly.
    engine._detector.end_live_iteration(
        sig_digest(engine.machine.page_table.epoch, sig),
        mon_digest,
        rec,
        engine._overhead_by_tid - it.oh_base
        if it.oh_base is not None else None,
        mon_delta,
    )


def extrapolate_iterations(
    engine, region_idx: int, n_skip: int, release: bool, mode: str,
) -> dict:
    """Apply ``n_skip`` iterations' shard-local effects unsimulated.

    The driver has armed the skip (exact when every shard is exact
    ready) and clamped it to the next scheduled boundary; it folds the
    merged cycle and integer quantities itself. Here every skipped
    iteration replays the engine's last live iteration's overhead adds
    and monitor program — exact mode in per-iteration order, the float
    adds of simulating it; ε mode as the window mean scaled by
    ``n_skip`` — and fast-forwards the cache. Returns this shard's
    monitor ε (the cycle spread is the driver's, over its merged
    window) and integer deltas.
    """
    detector = engine._detector
    rec = detector.history[-1].rec
    monitor = engine.monitor
    overhead = engine._overhead_by_tid
    eps = 0.0
    if mode == "exact":
        for _ in range(n_skip):
            for tids, oh in rec.oh_ops:
                overhead[tids] += oh
        if monitor is not None:
            monitor.phase_replay(rec.monitor_prog, n_skip)
    else:
        window = detector.eps_window()
        oh_mean = window[0].oh_delta.copy()
        for sample in window[1:]:
            oh_mean += sample.oh_delta
        oh_mean /= len(window)
        overhead += oh_mean * n_skip
        if monitor is not None:
            eps = monitor.extrapolate_flush(
                [sample.monitor_delta for sample in window], n_skip
            )
    if rec.cache_delta is not None:
        # Fast-forward the reuse-distance state so regions after this
        # one classify bit-identically to the exact run.
        engine.machine.cache.phase_advance(rec.cache_delta, n_skip)
    if release:
        engine.memo.release_region(region_idx)
    return {
        "eps": eps,
        "ints": {k: rec.ints[k] * n_skip for k in INT_FIELDS},
    }
