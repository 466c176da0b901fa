"""Iteration memoization: the engine's step pipeline and its cache.

Every execution step runs through one pipeline of products, each keyed
on exactly what it depends on:

* **Pure products** (:class:`PureStep`) — per-chunk line-fetch masks,
  footprints, sequentiality, interned reuse-key slots — are a pure
  function of the step's chunks. Chunks with equal fetch geometry
  share one read-only set of arrays, built once per step.
* **Classification variants** (:class:`ClassifyVariant`) — per-chunk
  classification summaries, DRAM fetches' page owners, request counts,
  traffic — are keyed by ``(page-table epoch, per-chunk fetch
  levels)``. The reuse-distance lookup itself
  (:meth:`CacheHierarchy.fetch_levels`, one array lookup per step)
  runs live on every iteration; its result is part of the key, so a
  cache-state change simply selects (or builds) a different variant.
  An epoch bump — any page-table mutation — invalidates by the same
  mechanism. Chunks with equal ``(owner, count)`` page runs share one
  read-only DRAM target array.
* **Latency variants** (:class:`LatVariant`) — DRAM fetch latencies and
  per-chunk latency sums — are keyed by the step's exact contention
  inflation vector (``inflation.tobytes()``) within their
  classification variant. Chunks with equal latency inputs share one
  read-only latency array. Byte accounting counts a shared array once.
* **Monitor views** (:class:`StepViews`) are built per latency variant;
  sampling, CCT attribution, and accounting always run live on them,
  so measurement is never cached — only the inputs it observes.

A region with ``repeat > 1`` re-executes a *deterministic* per-thread
chunk stream, so :class:`IterationMemo` keeps its products across
iterations: the region's generated trace once (bounded by the program
itself, tracked outside the byte budget and dropped when the region
completes), and each step's :class:`StepRecord` under a
least-recently-used byte budget (default 64 MB). Eviction is safe by
construction: an evicted record is rebuilt from the deterministic trace
with bit-identical contents, so results never depend on the budget.

Repeat-1 regions, and every region under a zero budget
(``memoize=False``), run the same builders into a *transient* record that
the memo never stores and whose builds count as neither hits nor
misses — "memo off" is a budget, not a second implementation. See
MODEL.md ("Epoch and invalidation contract").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import obs

#: Default byte budget for derived (classification/latency/view) caches.
DEFAULT_MEMO_BYTES = 64 * 1024 * 1024


def memo_budget(memoize: bool, memo_bytes: int | None) -> int:
    """An engine's record budget: ``memoize=False`` is a zero budget."""
    if not memoize:
        return 0
    return DEFAULT_MEMO_BYTES if memo_bytes is None else max(0, int(memo_bytes))


def _nbytes(*objs) -> int:
    """Total nbytes of the distinct ndarray members of ``objs`` (lists
    descend); an array that several chunks share counts once."""
    arrays = {}
    for o in objs:
        for x in o if isinstance(o, (list, tuple)) else (o,):
            if isinstance(x, np.ndarray):
                arrays[id(x)] = x.nbytes
    return sum(arrays.values())


class StepViews(list):
    """A step's monitor views plus per-step invariant arrays.

    The one thing the engine hands to ``Monitor.on_step`` and a
    monitor hands on to ``SamplingMechanism.select_step`` /
    ``cost_cycles_step``: a ``list`` of views that also carries the
    step's per-chunk ``tids`` / ``n_ins`` / ``n_acc`` arrays (one entry
    per view, in view order), so consumers never re-derive them with
    per-view Python loops. Consumers may stash their own per-step
    invariants in ``memo`` (keyed by consumer); a retained record hands
    the same object back on every iteration.
    """

    __slots__ = ("tids", "n_ins", "n_acc", "memo", "memo_charged", "gather")

    def __init__(self, views, tids, n_ins, n_acc) -> None:
        super().__init__(views)
        self.tids = tids
        self.n_ins = n_ins
        self.n_acc = n_acc
        self.memo: dict = {}
        #: Bytes of ``memo`` already charged to the record holding these
        #: views (:meth:`IterationMemo.charge_views`).
        self.memo_charged = 0
        #: The sample gather that ``repro.runtime.engine.gather_samples``
        #: calls; whoever builds the views sets it (the engine attaches
        #: its closed-form ``SampleGather``).
        self.gather = None


class PureStep:
    """Iteration-invariant products of one step (pure functions of it).

    Every list and array holds one entry per memory chunk, in step
    order: ``cpus``/``domains``/``n_acc``/``slots`` (reuse-key slots
    of the machine's cache)/``chunk_fp`` are int64 arrays.
    """

    __slots__ = (
        "mem_idx", "mem", "interleaved", "cpus", "domains", "n_acc",
        "slots", "chunk_fetch", "chunk_seq_flags", "chunk_fp",
        "chunk_fidx",
        "nbytes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.nbytes = 0


class ClassifyVariant:
    """Placement-dependent classification products for one epoch/levels key.

    ``lat_group[k]`` is memory chunk ``k``'s index into ``lat_groups``
    (-1 for a cache-level chunk); each group is one distinct latency
    input ``(targets, domain, sequential, interleaved)``.
    """

    __slots__ = (
        # per mem chunk:
        "levels", "summaries", "dram_targets", "lat_group",
        # step-wide:
        "lat_groups", "step_requests", "dram", "remote_dram", "traffic",
        "lats", "nbytes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.lats: dict = {}
        self.nbytes = 0


class LatVariant:
    """Inflation-dependent latency products within one classify variant.

    ``lat_sums`` is indexed by step position. ``chunk_lat[k]`` holds
    memory chunk ``k``'s DRAM fetch latencies in fetch order, for its
    lazy view; it is None when the chunk's fetches hit a cache level or
    no monitor is attached. Otherwise it is the slice of ``lat_buf``
    (one read-only buffer per variant) starting at ``lat_off[k]``.
    """

    __slots__ = (
        "lat_sums", "chunk_lat", "lat_buf", "lat_off", "views", "nbytes",
    )

    def __init__(self, lat_sums, chunk_lat, nbytes) -> None:
        self.lat_sums = lat_sums
        self.chunk_lat = chunk_lat
        self.lat_buf = self.lat_off = None
        self.views: StepViews | None = None
        self.nbytes = nbytes


class StepRecord:
    """All products for one (region, step) position.

    ``key`` is ``None`` for a transient record: built for one step and
    dropped, never stored, charged, or counted as a hit or miss.
    """

    __slots__ = ("key", "pure", "variants", "nbytes")

    def __init__(self, key) -> None:
        self.key = key
        self.pure: PureStep | None = None
        self.variants: dict = {}
        self.nbytes = 0


class IterationMemo:
    """Byte-budgeted LRU store of per-step records plus generated steps.

    Step records (derived classification/latency/view products) count
    against ``budget_bytes`` and are evicted least-recently-used; the
    record currently being filled is never evicted, so with a tiny
    budget the memo degrades to recompute-every-step, never to wrong
    results. A zero budget retains nothing (see :meth:`retains`).
    Generated step traces are tracked separately (they mirror the
    sharded engine's per-iteration working set) and are dropped when
    their region completes, as are the region's records.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget = int(budget_bytes)
        self._records: OrderedDict = OrderedDict()
        self._gen: dict = {}
        self._rec_bytes = 0
        self._gen_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- counters ------------------------------------------------------ #

    def hit(self, rec: StepRecord | None = None) -> None:
        """Count a reuse (``rec``: the record it came from, if any)."""
        if rec is not None and rec.key is None:
            return
        self.hits += 1
        obs.TRACER.count("engine.memo.hits")

    def miss(self, rec: StepRecord | None = None) -> None:
        """Count a build that a later iteration could reuse."""
        if rec is not None and rec.key is None:
            return
        self.misses += 1
        obs.TRACER.count("engine.memo.misses")

    def _gauge(self) -> None:
        obs.TRACER.gauge(
            "engine.memo.bytes", float(self._rec_bytes + self._gen_bytes)
        )

    # -- step records -------------------------------------------------- #

    def retains(self, repeat: int) -> bool:
        """Whether a region run ``repeat`` times keeps trace and records."""
        return self.budget > 0 and repeat > 1

    def record(
        self, region_idx: int, step_idx: int, *, transient: bool = False
    ) -> StepRecord:
        """Get-or-create the record for one step; touches LRU order.

        ``transient`` returns a fresh record the memo never stores.
        """
        if transient:
            return StepRecord(None)
        key = (region_idx, step_idx)
        rec = self._records.get(key)
        if rec is None:
            rec = StepRecord(key)
            self._records[key] = rec
        else:
            self._records.move_to_end(key)
        return rec

    def charge(self, rec: StepRecord, delta: int) -> None:
        """Account ``delta`` bytes to ``rec``; evict LRU if over budget."""
        if rec.key is None:
            return
        rec.nbytes += delta
        self._rec_bytes += delta
        if self._rec_bytes > self.budget:
            self._evict(keep=rec)
        self._gauge()

    def charge_views(self, rec: StepRecord, views: StepViews) -> None:
        """Charge ``rec`` for the arrays consumers have cached on
        ``views.memo`` since the last call (step events, profiler rows):
        they live as long as the record retains the views."""
        if rec.key is None:
            return
        held = _nbytes(*views.memo.values())
        if held != views.memo_charged:
            self.charge(rec, held - views.memo_charged)
            views.memo_charged = held

    def _evict(self, keep: StepRecord) -> None:
        for key in list(self._records):
            if self._rec_bytes <= self.budget:
                break
            rec = self._records[key]
            if rec is keep:
                continue
            del self._records[key]
            self._rec_bytes -= rec.nbytes
            self.evictions += 1
            obs.TRACER.count("engine.memo.evicted")

    # -- generated step traces ----------------------------------------- #

    def gen_get(self, region_idx: int):
        """Cached pre-drawn steps (plus payload) for a region, or None."""
        got = self._gen.get(region_idx)
        if got is None:
            self.miss()
            return None
        self.hit()
        return got[0]

    def gen_store(self, region_idx: int, payload, nbytes: int) -> None:
        """Cache a region's pre-drawn trace (``nbytes``: its address
        bytes — descriptor bytes for affine sweeps)."""
        self._gen[region_idx] = (payload, int(nbytes))
        self._gen_bytes += int(nbytes)
        self._gauge()

    def release_region(self, region_idx: int) -> None:
        """Drop a completed region's generated trace and step records."""
        got = self._gen.pop(region_idx, None)
        if got is not None:
            self._gen_bytes -= got[1]
        for key in [k for k in self._records if k[0] == region_idx]:
            self._rec_bytes -= self._records.pop(key).nbytes
        self._gauge()

    # -- reporting ----------------------------------------------------- #

    def stats(self) -> dict:
        """Counters and occupancy for bench / observability reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "record_bytes": self._rec_bytes,
            "gen_bytes": self._gen_bytes,
            "budget_bytes": self.budget,
            "records": len(self._records),
        }
