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
(:meth:`CachePhase.advance`): n skipped iterations move stream
positions by n per-iteration advances and touched keys' last-visit
markers along with them, while untouched keys (whose reuse distances
grow linearly — they belong to *other* regions) stay put.

The rest of the contract — what breaks a phase, the pay-for-itself
disarm and re-arm probe, and ε mode's declared error for jittered
sampling — is set out in ``docs/MODEL.md``, "Phase-adaptive
extrapolation".

Only a run that extrapolates loads this module: the engine, its cache
and its monitor reach it through the adapters :func:`attach` builds,
and the run driver through :class:`RunPhase`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._hashing import blake2b
from repro.machine.cache import _NEVER
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
    program (see ``ProfilerPhase.record_end``). ``cache_delta`` is
    :meth:`CachePhase.delta`'s ``(stream advance, touched keys)``.
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
class HistoryEntry:
    """One observed live iteration in the detector's ring.

    ``oh_delta`` (per-thread overhead) and ``monitor_delta`` are its ε
    sample; ``monitor_delta`` is None when it has none.
    """

    engine_digest: object
    monitor_digest: object
    rec: IterationRecording
    oh_delta: np.ndarray | None
    monitor_delta: object | None


def mean_cycles(window: list[IterationRecording]) -> tuple[dict, float]:
    """Window-mean per-tid cycles and elapsed, in chronological order."""
    n = len(window)
    rc_mean = {}
    for tid in window[0].region_cycles:
        acc = 0.0
        for rec in window:
            acc += rec.region_cycles[tid]
        rc_mean[tid] = acc / n
    acc = 0.0
    for rec in window:
        acc += rec.elapsed
    return rc_mean, acc / n


def relative_spread(values: list[float]) -> float:
    """Half-spread of ``values`` relative to their mean (0 when flat)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return 0.0
    mean = sum(values) / len(values)
    scale = abs(mean) if mean else max(abs(hi), abs(lo))
    return (hi - lo) / (2.0 * scale) if scale else 0.0


def window_eps(window: list[IterationRecording]) -> float:
    """Observed relative half-spread of cycles across the window."""
    if len(window) < 2:
        return 0.0
    eps = relative_spread([rec.elapsed for rec in window])
    for tid in window[0].region_cycles:
        eps = max(
            eps, relative_spread([rec.region_cycles[tid] for rec in window])
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
        monitor_present: bool = False,
        disarm_after: int = DEFAULT_DISARM_AFTER,
    ) -> None:
        self.region_name = region_name
        self.warmup = max(1, int(warmup))
        #: Only a monitored run has ε samples (monitor and overhead
        #: deltas) to extrapolate with.
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
        hist.append(HistoryEntry(
            engine_digest, monitor_digest, rec, oh_delta, monitor_delta
        ))
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
            self.monitor_present and bool(self.eps_window())
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

    def eps_window(self) -> list[HistoryEntry]:
        """The trailing ε window over the steady tail, chronological: at
        most ``warmup`` entries, ended by one without an ε sample."""
        hist = list(self.history)
        window: list = []
        for entry in reversed(hist[len(hist) - self.steady_len():]):
            if entry.monitor_delta is None:
                break
            window.append(entry)
        window.reverse()
        return window

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


# ---------------------------------------------------------------------- #
# adapters
# ---------------------------------------------------------------------- #


def attach(engine) -> "EnginePhase | None":
    """The engine's phase adapter, or None when its run cannot extrapolate.

    Asks once each for the adapters of the engine's cache hierarchy and
    monitor. This is the one support check: a monitor without an
    adapter (see :func:`monitor_adapter`) keeps the run live.
    """
    monitor = None
    if engine.monitor is not None:
        monitor = monitor_adapter(engine.monitor)
        if monitor is None:
            return None
    return EnginePhase(engine, CachePhase(engine.machine.cache), monitor)


def monitor_adapter(monitor):
    """``monitor``'s phase adapter, or None when it cannot take part.

    Adapters go by exact type, so a subclass that attributes otherwise
    (the per-chunk reference profiler in the tests) is never replayed
    by its parent's recorder. The profiler's heatmap accumulates into
    per-(tid, page) dicts that its recorder does not capture.
    """
    from repro.profiler.profiler import NumaProfiler

    if type(monitor) is not NumaProfiler or monitor.heatmap:
        return None
    from repro.profiler.phase import ProfilerPhase

    return ProfilerPhase(monitor)


class CachePhase:
    """The cache hierarchy's phase adapter: record and fast-forward the
    reuse-distance state (per-CPU stream positions and per-slot
    last-visit markers) of a :class:`~repro.machine.cache.CacheHierarchy`.
    """

    def __init__(self, cache) -> None:
        self.cache = cache

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copy of the raw streaming state (the recording's baseline)."""
        return self.cache._pos.copy(), self.cache._last.copy()

    def delta(self, snapshot: tuple) -> tuple[dict, np.ndarray]:
        """How one iteration moved the state: per-CPU stream advances
        ``{cpu: bytes}`` and the slots it touched. Both are
        iteration-invariant for a steady (identical-trace) iteration,
        which makes :meth:`advance` exact."""
        cache = self.cache
        snap_pos, snap_last = snapshot
        adv = cache._pos.copy()
        adv[: snap_pos.size] -= snap_pos
        was = np.full(cache._last.size, _NEVER)  # new slots: unvisited
        was[: snap_last.size] = snap_last
        return (
            {int(c): int(adv[c]) for c in np.flatnonzero(adv)},
            np.flatnonzero(cache._last != was),
        )

    def advance(self, delta: tuple, n: int) -> None:
        """Fast-forward the state by ``n`` steady iterations, exactly.

        A steady iteration advances each CPU's stream position by a
        constant and re-visits the same key set at fixed offsets from
        the stream head, so after ``n`` skipped iterations the exact
        run's state is: positions advanced ``n`` deltas, touched keys'
        last-visit markers riding along, untouched keys unchanged
        (their reuse distances grow by exactly the stream advance).
        """
        cache = self.cache
        delta_pos, touched = delta
        adv = np.zeros(cache._pos.size, dtype=np.int64)
        adv[list(delta_pos)] = list(delta_pos.values())
        adv *= n
        cache._pos += adv
        cache._last[touched] += adv[cache._slot_cpu[touched]]


class EnginePhase:
    """The engine's phase adapter: the current region's detector, the
    observation of each live iteration, and the replay of skipped ones.

    The engine calls :meth:`begin_iteration` and :meth:`end_iteration`
    around every live iteration; the run driver's backend calls
    :meth:`extrapolate`. While an iteration is observed, the adapter is
    the engine's ``_phase_rec``, and the engine's hot path appends to
    its recording: the memo variant keys each step selects (``sig``,
    the phase signature), the nonzero per-thread overhead adds
    (``oh_ops``) and the DRAM requests.
    """

    def __init__(self, engine, cache: CachePhase, monitor) -> None:
        self.engine = engine
        self.cache = cache
        #: The monitor's adapter; None for an unmonitored run.
        self.monitor = monitor
        #: The current region's detector (None: too short to pay).
        self.detector: PhaseDetector | None = None
        # The open iteration's observation.
        self.observe = False
        self.breaks0 = 0
        self.cache_snap = self.mon_snap = self.oh_base = None
        self.sig = self.oh_ops = self.requests = None

    def begin_iteration(self, it) -> None:
        """Open the observation of live iteration ``it``, after the
        schedule ran (``it.fired``).

        The recording hooks are installed before the monitor's
        region-enter callbacks, so the replay program covers the whole
        iteration.
        """
        engine = self.engine
        if it.iteration == 0:
            # A region no longer than its warmup could converge only on
            # its last iteration, with nothing left to skip.
            self.detector = None
            if it.region.repeat > engine.extrap_warmup:
                self.detector = PhaseDetector(
                    it.region.name,
                    warmup=engine.extrap_warmup,
                    monitor_present=self.monitor is not None,
                    disarm_after=engine.extrap_disarm,
                )
        detector = self.detector
        self.observe = False
        if detector is None:
            return
        self.breaks0 = detector.breaks
        if it.fired:
            detector.invalidate()
        self.observe = detector.begin_iteration(engine.machine.page_table.epoch)
        if not self.observe:
            return
        engine._phase_rec = self
        self.sig, self.oh_ops = [], []
        self.requests = np.zeros(engine.machine.n_domains, dtype=np.int64)
        self.cache_snap = self.cache.snapshot()
        if self.monitor is not None:
            self.monitor.record_begin()
            self.mon_snap = self.monitor.snapshot()
            self.oh_base = engine._overhead_by_tid.copy()

    def end_iteration(self, it, payload: dict) -> None:
        """Feed the closing iteration to the detector; adds its phase
        state to the engine's ``payload`` (``steady``, ``phase`` and the
        phase-break flag)."""
        detector = self.detector
        if self.observe:
            self._record(it, payload["ints"])
        payload["steady"] = self.observe and detector.is_steady
        payload["phase"] = None
        if detector is not None:
            if detector.breaks != self.breaks0:
                payload["flags"] |= obs.FLAG_PHASE_BREAK
            payload["phase"] = detector.phase_payload()

    def _record(self, it, ints: dict) -> None:
        """Fold the observed iteration into the detector.

        ``it`` is the engine's closing iteration state
        (``repro.runtime.engine._Iteration``) and ``ints`` its integer
        counters.
        """
        engine = self.engine
        engine._phase_rec = None
        monitor = self.monitor
        mon_digest: object = ()
        mon_prog = mon_delta = oh_delta = None
        if monitor is not None:
            mon_prog = monitor.record_end()
            mon_digest = monitor.digest()
            mon_delta = monitor.delta(self.mon_snap)
            oh_delta = engine._overhead_by_tid - self.oh_base
        rec = IterationRecording(
            ints=ints,
            requests=self.requests,
            traffic=it.traffic,
            region_cycles=it.region_cycles,
            # The barrier's elapsed time is a max over every shard's
            # threads: the driver records it in its merged window.
            elapsed=0.0,
            oh_ops=self.oh_ops,
            cache_delta=self.cache.delta(self.cache_snap),
            monitor_prog=mon_prog,
        )
        self.cache_snap = self.mon_snap = self.oh_base = None
        # The cache's reuse-distance state needs no digest entry: an
        # identical trace revisits the same keys every iteration, so
        # fetch levels are periodic once the memo-key signature repeats
        # (see the module docstring); the recorded cache delta is
        # compared exactly.
        self.detector.end_live_iteration(
            sig_digest(engine.machine.page_table.epoch, self.sig),
            mon_digest,
            rec,
            oh_delta,
            mon_delta,
        )

    def extrapolate(
        self, region_idx: int, n_skip: int, release: bool, mode: str,
    ) -> dict:
        """Apply ``n_skip`` iterations' shard-local effects unsimulated.

        The driver has armed the skip (exact when every shard is exact
        ready) and clamped it to the next scheduled boundary; it folds
        the merged cycle and integer quantities itself. Here every
        skipped iteration replays the engine's last live iteration's
        overhead adds and monitor program — exact mode in per-iteration
        order, the float adds of simulating it; ε mode as the window
        mean scaled by ``n_skip`` — and fast-forwards the cache. Returns
        this shard's monitor ε (the cycle spread is the driver's, over
        its merged window) and integer deltas.
        """
        engine = self.engine
        detector = self.detector
        rec = detector.history[-1].rec
        monitor = self.monitor
        overhead = engine._overhead_by_tid
        eps = 0.0
        if mode == "exact":
            for _ in range(n_skip):
                for tids, oh in rec.oh_ops:
                    overhead[tids] += oh
            if monitor is not None:
                monitor.replay(rec.monitor_prog, n_skip)
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
            self.cache.advance(rec.cache_delta, n_skip)
        if release:
            engine.memo.release_region(region_idx)
        return {
            "eps": eps,
            "ints": {k: rec.ints[k] * n_skip for k in INT_FIELDS},
        }


# ---------------------------------------------------------------------- #
# the run driver's side
# ---------------------------------------------------------------------- #


def _coverage(counts: dict) -> float:
    """Extrapolated iterations as a percentage of all of them."""
    skipped = counts["extrapolated_exact"] + counts["extrapolated_eps"]
    n = counts["iterations"]
    return 100.0 * skipped / n if n else 0.0


class RunPhase:
    """Phase extrapolation in the run driver (:func:`repro.runtime.driver.drive`).

    Per region it holds the trailing window of merged live iterations
    and the union plan over the shards' readiness, asks the backend to
    extrapolate once armed, and keeps the run's phase report.
    ``ok`` is False when a shard has no adapter: regions then run live
    and are reported as simulated.

    :meth:`observe` is where every phase decision of a run becomes
    known in one place: the union plan arms (or stays disarmed) there,
    and the shards' detectors report their breaks and disarms there.
    """

    def __init__(self, warmup: int, ok: bool) -> None:
        self.warmup = warmup
        self.ok = ok
        #: Region name -> its phase report entry (see :meth:`finish`).
        self.regions: dict[str, dict] = {}

    def begin_region(self) -> None:
        #: Trailing merged-iteration window. Shard histories are
        #: contiguous suffixes of the live iterations, so its last
        #: ``steady_tail`` entries are exactly the verified steady tail
        #: one detector over the union would hold.
        self.window: deque = deque(maxlen=self.warmup)
        self.plan = None
        self.n_exact = self.n_eps = 0
        self.eps_max = 0.0
        self.breaks = self.disarms = 0

    def skip(self, backend, schedule, region_idx: int, iteration: int,
             repeat: int):
        """Extrapolate from ``iteration`` when the union is armed.

        Returns None when ``iteration`` runs live, else ``(n_skip, rec,
        cycles, elapsed, times)``: the driver adds the per-tid
        ``cycles`` and ``elapsed`` ``times`` times — per skipped
        iteration in exact mode, the float adds of simulating it; once,
        scaled, in ε mode — and ``rec``'s integers times ``n_skip``.
        """
        if self.plan is None:
            return None
        stop = next_schedule_boundary(schedule, region_idx, iteration, repeat)
        n_skip = stop - iteration
        if n_skip <= 0:
            return None
        mode, tail_len = self.plan
        shards = backend.extrapolate(region_idx, n_skip, stop == repeat, mode)
        rec = self.window[-1]
        if mode == "exact":
            self.n_exact += n_skip
            return n_skip, rec, rec.region_cycles, rec.elapsed, n_skip
        w = list(self.window)[-tail_len:] if tail_len else []
        cycles, elapsed, times = {}, 0.0, 0
        if w:
            rc_mean, elapsed_mean = mean_cycles(w)
            cycles = {tid: c * n_skip for tid, c in rc_mean.items()}
            elapsed, times = elapsed_mean * n_skip, 1
        eps = max([window_eps(w)] + [p["eps"] for p in shards])
        self.eps_max = max(self.eps_max, eps)
        self.n_eps += n_skip
        return n_skip, rec, cycles, elapsed, times

    def observe(
        self, fin: list[dict], ints: dict, requests: np.ndarray,
        traffic: np.ndarray, region_cycles: dict, elapsed: float,
    ) -> None:
        """Fold a live iteration: the shards' payloads ``fin`` and the
        merged deltas."""
        if not self.ok:
            return
        infos = [f["phase"] for f in fin]
        self.plan = union_plan(infos)
        if all(p is not None for p in infos):
            self.breaks = max(self.breaks, max(p["breaks"] for p in infos))
            self.disarms = max(self.disarms, max(p["disarms"] for p in infos))
        self.window.append(IterationRecording(
            ints=ints,
            requests=requests,
            traffic=traffic,
            region_cycles=region_cycles,
            elapsed=elapsed,
            oh_ops=[],
        ))
        tr = obs.TRACER
        if tr.enabled and all(f["steady"] for f in fin):
            tr.count("engine.phase.steady_iterations")

    def end_region(self, name: str, repeat: int) -> None:
        """Add the region's outcome to its report entry (summed over the
        region's visits)."""
        r = self.regions.setdefault(name, {
            "iterations": 0, "simulated": 0, "extrapolated_exact": 0,
            "extrapolated_eps": 0, "breaks": 0, "epsilon": 0.0,
            "coverage_pct": 0.0, "disarms": 0,
        })
        r["iterations"] += repeat
        r["simulated"] += repeat - self.n_exact - self.n_eps
        r["extrapolated_exact"] += self.n_exact
        r["extrapolated_eps"] += self.n_eps
        r["breaks"] += self.breaks
        r["epsilon"] = max(r["epsilon"], self.eps_max)
        r["coverage_pct"] = _coverage(r)
        r["disarms"] += self.disarms
        tr = obs.TRACER
        if tr.enabled and self.breaks:
            tr.count("engine.phase.breaks", self.breaks)

    def finish(self) -> dict:
        """The run's phase report (``engine.phase_report``): every
        iteration accounted as simulated, extrapolated exactly or within
        ε, per region and in total; gauged when traced."""
        regions = self.regions.values()
        report = {"enabled": True}
        for key in ("iterations", "simulated", "extrapolated_exact",
                    "extrapolated_eps"):
            report[key] = sum(r[key] for r in regions)
        report["coverage_pct"] = _coverage(report)
        report["epsilon"] = max((r["epsilon"] for r in regions), default=0.0)
        report["breaks"] = sum(r["breaks"] for r in regions)
        report["disarms"] = sum(r["disarms"] for r in regions)
        report["regions"] = self.regions
        tr = obs.TRACER
        if tr.enabled:
            tr.gauge("engine.phase.epsilon", report["epsilon"])
            tr.gauge("engine.phase.coverage_pct", report["coverage_pct"])
        return report
