"""Virtual page table with NUMA placement policies and protection bits.

This module plays the role of the OS memory manager the paper's tool talks
to. It provides:

* segment mapping/unmapping (backing the simulated heap and static/stack
  segments),
* page->domain binding under the four placement policies the paper
  discusses (first-touch, interleaved, bind-to-domain, explicit block-wise
  distribution),
* the ``move_pages``-style query :meth:`PageTable.domains_of_addrs` the
  profiler uses to classify accesses as local or remote, and
* per-page protection bits used by the first-touch trapping strategy of
  paper Section 6 (mprotect + SIGSEGV analogue).

All hot-path queries are vectorized over NumPy arrays of addresses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError, InvalidAddressError, ProtectionError
from repro.machine.frames import FrameManager
from repro.machine.topology import CPU_DTYPE, DOMAIN_DTYPE, NumaTopology
from repro.units import PAGE_SIZE, fast_unique

#: Sentinel domain for pages not yet bound (first-touch pending).
UNBOUND = -1


class PlacementPolicy(enum.Enum):
    """How pages of a segment are bound to NUMA domains.

    ``FIRST_TOUCH``
        Linux default: a page binds to the domain of the CPU whose thread
        first reads or writes it.
    ``INTERLEAVE``
        Pages are distributed round-robin over a domain set at map time
        (``numactl --interleave`` / libnuma interleaved allocation).
    ``BIND``
        Every page binds to one fixed domain at map time (membind).
    ``BLOCKWISE``
        The segment's pages are split into one contiguous block per domain
        in a given domain list — the distribution the paper's case studies
        implement by parallelizing first-touch initialization.
    """

    FIRST_TOUCH = "first_touch"
    INTERLEAVE = "interleave"
    BIND = "bind"
    BLOCKWISE = "blockwise"


@dataclass(eq=False, repr=False)
class Segment:
    """A mapped virtual range with per-page NUMA state.

    Attributes
    ----------
    seg_id: monotonically increasing id assigned by the page table.
    base, nbytes: the virtual byte range ``[base, base + nbytes)``.
    start_page, n_pages: page-granular extent containing the range.
    policy: placement policy for pages in this segment.
    domains: per-page owner domain (``DOMAIN_DTYPE``), ``UNBOUND`` until
        bound.
    protected: per-page protection bit (True -> access traps).
    label: debugging / attribution label (usually the variable name).
    first_toucher_cpu: per-page CPU (``CPU_DTYPE``) whose touch bound a
        first-touch page, -1 otherwise.
    """

    seg_id: int
    base: int
    nbytes: int
    start_page: int
    n_pages: int
    policy: PlacementPolicy
    domains: np.ndarray
    protected: np.ndarray
    label: str = ""
    first_toucher_cpu: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Cached counts of still-unbound and still-protected pages. The
    #: engine's hot path consults these to skip per-chunk page scans once
    #: a segment is fully bound and unprotected; every page table method
    #: that mutates ``domains``/``protected`` keeps them exact.
    n_unbound: int = 0
    n_protected: int = 0

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.base + self.nbytes


class PageTable:
    """Machine-wide virtual page table.

    Parameters
    ----------
    topology:
        The machine's NUMA topology; placement policies validate domain
        ids against it.
    frames:
        Physical frame accounting; every page binding reserves a frame,
        spilling to the nearest domain with space under first-touch (as
        Linux does) and failing hard under strict binds.
    page_size:
        Simulated page size in bytes.
    """

    def __init__(
        self,
        topology: NumaTopology,
        frames: FrameManager,
        page_size: int = PAGE_SIZE,
    ) -> None:
        self.topology = topology
        self.frames = frames
        self.page_size = page_size
        #: Monotonically increasing mutation counter. Bumped on every
        #: *actual* change of page state (mapping, unmapping, first-touch
        #: binding, protection changes, migration) and never on no-op
        #: calls, so shards replaying the same event sequence on
        #: replicated tables reach identical epochs. The engine's
        #: memoization layer keys cached classification on it;
        #: see MODEL.md "Epoch and invalidation contract".
        self.epoch = 0
        self._segments: dict[int, Segment] = {}
        self._next_id = 0
        # Sorted lookup arrays, rebuilt on map/unmap (allocation-rate is low).
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # mapping
    # ------------------------------------------------------------------ #

    def map_segment(
        self,
        base: int,
        nbytes: int,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        *,
        domains: list[int] | None = None,
        label: str = "",
    ) -> Segment:
        """Map ``[base, base + nbytes)`` and install a placement policy.

        ``domains`` supplies the policy's domain argument: the single
        target for ``BIND``, the round-robin set for ``INTERLEAVE``
        (defaults to all domains), and the per-block owner list for
        ``BLOCKWISE``. Overlapping an existing segment, or a domain
        without the frames the binding needs, raises
        :class:`~repro.errors.AllocationError` with nothing reserved or
        mapped.
        """
        if nbytes <= 0:
            raise AllocationError(f"segment size must be positive, got {nbytes}")
        if base < 0:
            raise AllocationError(f"segment base must be non-negative, got {base}")
        start_page = base // self.page_size
        end_page = (base + nbytes - 1) // self.page_size + 1
        n_pages = end_page - start_page
        if self._overlaps(start_page, end_page):
            raise AllocationError(
                f"segment [{base:#x}, {base + nbytes:#x}) overlaps an existing mapping"
            )

        dom = self._plan_binding(policy, n_pages, domains)
        need = self._check_frames(
            dom, f"map segment {label or hex(base)} as {policy.value}"
        )
        # Commit: the check guarantees every reserve below succeeds.
        for d in np.nonzero(need)[0].tolist():
            self.frames.reserve_exact(d, int(need[d]))
        seg = Segment(
            seg_id=self._next_id,
            base=base,
            nbytes=nbytes,
            start_page=start_page,
            n_pages=n_pages,
            policy=policy,
            domains=dom,
            protected=np.zeros(n_pages, dtype=bool),
            label=label,
            first_toucher_cpu=np.full(n_pages, -1, dtype=CPU_DTYPE),
            n_unbound=int(np.count_nonzero(dom == UNBOUND)),
        )
        self._next_id += 1
        self._segments[seg.seg_id] = seg
        self._rebuild_index()
        self.epoch += 1
        return seg

    def unmap_segment(self, seg: Segment) -> None:
        """Unmap a segment and release its bound frames."""
        if seg.seg_id not in self._segments:
            raise AllocationError(f"segment {seg.seg_id} is not mapped")
        counts = self._bound_counts(seg.domains)
        for d in np.nonzero(counts)[0].tolist():
            self.frames.release(d, int(counts[d]))
        del self._segments[seg.seg_id]
        self._rebuild_index()
        self.epoch += 1

    def _overlaps(self, start_page: int, end_page: int) -> bool:
        if self._starts.size == 0:
            return False
        i = np.searchsorted(self._starts, end_page, side="left")
        # Any segment starting before end_page whose end exceeds start_page?
        return bool(np.any(self._ends[:i] > start_page))

    def _validate_domains(self, domains: list[int]) -> None:
        for d in domains:
            if not 0 <= d < self.topology.n_domains:
                raise AllocationError(
                    f"domain {d} out of range [0, {self.topology.n_domains})"
                )

    def _rebuild_index(self) -> None:
        segs = sorted(self._segments.values(), key=lambda s: s.start_page)
        self._starts = np.array([s.start_page for s in segs], dtype=np.int64)
        self._ends = np.array([s.start_page + s.n_pages for s in segs], dtype=np.int64)
        self._ids = np.array([s.seg_id for s in segs], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    @property
    def segments(self) -> list[Segment]:
        """All currently mapped segments, ascending by base address."""
        return [self._segments[int(i)] for i in self._ids]

    def has_pending_pages(self) -> bool:
        """Whether any segment still has unbound or protected pages."""
        return any(
            seg.n_unbound or seg.n_protected for seg in self._segments.values()
        )

    def segment_of_addr(self, addr: int) -> Segment:
        """Return the segment containing byte address ``addr``."""
        page = addr // self.page_size
        idx = int(np.searchsorted(self._starts, page, side="right")) - 1
        if idx < 0 or page >= self._ends[idx]:
            raise InvalidAddressError(f"address {addr:#x} is not mapped")
        seg = self._segments[int(self._ids[idx])]
        if not seg.base <= addr < seg.end:
            raise InvalidAddressError(f"address {addr:#x} is not mapped")
        return seg

    def segments_of_pages(self, pages: np.ndarray) -> np.ndarray:
        """Vectorized page -> segment-index lookup.

        Returns indices into the sorted segment list; raises
        :class:`~repro.errors.InvalidAddressError` if any page is unmapped.
        """
        idx = np.searchsorted(self._starts, pages, side="right") - 1
        bad = (idx < 0) | (pages >= self._ends[np.clip(idx, 0, None)])
        if np.any(bad):
            first = pages[bad][0] if pages[bad].size else -1
            raise InvalidAddressError(f"page {int(first)} is not mapped")
        return idx

    def domains_of_addrs(self, addrs: np.ndarray) -> np.ndarray:
        """``move_pages`` analogue: owner domain per address (``UNBOUND`` = -1).

        This is the query the profiler issues for every address sample
        (paper Section 4.1).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        pages = addrs // self.page_size
        # Fast path: chunks are single-variable by construction, so the
        # whole batch usually falls inside one segment.
        if addrs.size:
            lo, hi = int(pages.min()), int(pages.max())
            idx = int(np.searchsorted(self._starts, lo, side="right")) - 1
            if 0 <= idx and idx < self._ids.size and hi < self._ends[idx]:
                seg = self._segments[int(self._ids[idx])]
                return seg.domains[pages - seg.start_page]
        out = np.full(addrs.shape, UNBOUND, dtype=DOMAIN_DTYPE)
        seg_idx = self.segments_of_pages(pages)
        for si in fast_unique(seg_idx):
            seg = self._segments[int(self._ids[si])]
            mask = seg_idx == si
            out[mask] = seg.domains[pages[mask] - seg.start_page]
        return out

    # ------------------------------------------------------------------ #
    # first touch + protection
    # ------------------------------------------------------------------ #

    def touch_pages(self, pages: np.ndarray, cpu: int) -> np.ndarray:
        """Bind any still-unbound first-touch pages to ``cpu``'s domain.

        Returns the (unique, sorted) absolute page numbers newly bound by
        this call, so the engine can account first-touch events. Non
        first-touch segments are already bound and are unaffected. Honors
        frame-capacity spilling.
        """
        pages = fast_unique(np.asarray(pages, dtype=np.int64))
        domain = self.topology.domain_of_cpu(cpu)
        seg_idx = self.segments_of_pages(pages)
        newly_bound: list[np.ndarray] = []
        for si in fast_unique(seg_idx):
            seg = self._segments[int(self._ids[si])]
            if seg.n_unbound == 0:
                continue
            local = pages[seg_idx == si] - seg.start_page
            unbound = local[seg.domains[local] == UNBOUND]
            if unbound.size == 0:
                continue
            # One reserve call per page batch; spilling assigns the whole
            # batch to one domain, matching per-page Linux behaviour closely
            # enough at our granularity while keeping the call vectorized.
            got = self.frames.reserve(domain, int(unbound.size))
            seg.domains[unbound] = got
            seg.first_toucher_cpu[unbound] = cpu
            seg.n_unbound -= int(unbound.size)
            newly_bound.append(unbound + seg.start_page)
        if not newly_bound:
            return np.empty(0, dtype=np.int64)
        self.epoch += 1
        return np.concatenate(newly_bound)

    def protect_range(self, base: int, nbytes: int) -> int:
        """Protect the full pages inside ``[base, base + nbytes)``.

        Mirrors the paper's wrapper behaviour: only pages lying entirely
        between the first and last page boundaries within the variable's
        extent are protected, so neighbouring variables sharing edge pages
        never fault spuriously. Returns the number of pages protected.
        """
        seg = self.segment_of_addr(base)
        if base + nbytes > seg.end:
            raise ProtectionError(
                f"range [{base:#x}, {base + nbytes:#x}) spans beyond its segment"
            )
        first_full = (base + self.page_size - 1) // self.page_size
        last_full = (base + nbytes) // self.page_size  # exclusive
        if last_full <= first_full:
            return 0
        lo = first_full - seg.start_page
        hi = last_full - seg.start_page
        added = (hi - lo) - int(np.count_nonzero(seg.protected[lo:hi]))
        if added:
            seg.n_protected += added
            seg.protected[lo:hi] = True
            self.epoch += 1
        return hi - lo

    def unprotect_pages(self, pages: np.ndarray) -> None:
        """Clear protection on the given absolute page numbers."""
        pages = fast_unique(np.asarray(pages, dtype=np.int64))
        seg_idx = self.segments_of_pages(pages)
        for si in fast_unique(seg_idx):
            seg = self._segments[int(self._ids[si])]
            local = pages[seg_idx == si] - seg.start_page
            cleared = int(np.count_nonzero(seg.protected[local]))
            if cleared:
                seg.n_protected -= cleared
                seg.protected[local] = False
                self.epoch += 1

    def protected_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``pages`` are currently protected."""
        pages = np.asarray(pages, dtype=np.int64)
        # Single-segment fast path (chunks are single-variable).
        if pages.size:
            lo, hi = int(pages.min()), int(pages.max())
            idx = int(np.searchsorted(self._starts, lo, side="right")) - 1
            if 0 <= idx and idx < self._ids.size and hi < self._ends[idx]:
                seg = self._segments[int(self._ids[idx])]
                return seg.protected[pages - seg.start_page]
        out = np.zeros(pages.shape, dtype=bool)
        seg_idx = self.segments_of_pages(pages)
        for si in fast_unique(seg_idx):
            seg = self._segments[int(self._ids[si])]
            mask = seg_idx == si
            out[mask] = seg.protected[pages[mask] - seg.start_page]
        return out

    # ------------------------------------------------------------------ #
    # migration (used by the optimizer to apply recommendations)
    # ------------------------------------------------------------------ #

    def migrate_segment(
        self, seg: Segment, policy: PlacementPolicy, domains: list[int] | None = None
    ) -> None:
        """Rebind a segment's pages under a new policy, atomically.

        Plans the complete new per-page binding first, checks that every
        target domain can supply its frames (counting the frames the old
        binding is about to free), and only then commits: release old
        frames, reserve new ones, rewrite the domain map. A failed
        migration raises :class:`~repro.errors.AllocationError` with the
        page table, the segment, and the frame allocator exactly as they
        were — no epoch bump, no half-bound pages, no leaked frames. This
        is the simulator-level hook behind :mod:`repro.optim.transforms`
        and the live-migration path of :mod:`repro.optim.autotune`.
        """
        new_dom = self._plan_binding(policy, seg.n_pages, domains)
        freed = self._bound_counts(seg.domains)
        need = self._check_frames(
            new_dom,
            f"migrate segment {seg.label or seg.seg_id} to {policy.value}",
            freed,
        )

        # Commit: the check guarantees every reserve below succeeds.
        for d in np.nonzero(freed)[0].tolist():
            self.frames.release(d, int(freed[d]))
        for d in np.nonzero(need)[0].tolist():
            self.frames.reserve_exact(d, int(need[d]))
        seg.domains[:] = new_dom
        seg.first_toucher_cpu[:] = -1
        seg.policy = policy
        seg.n_unbound = int(np.count_nonzero(new_dom == UNBOUND))
        self.epoch += 1

    def _plan_binding(
        self,
        policy: PlacementPolicy,
        n_pages: int,
        domains: list[int] | None,
    ) -> np.ndarray:
        """The per-page domain array a policy would install, pure.

        The one place a segment's owner array is built, so it decides
        the owner dtype (``DOMAIN_DTYPE``) for mapping and migration.
        """
        if policy is PlacementPolicy.BIND:
            if not domains or len(domains) != 1:
                raise AllocationError("BIND policy requires exactly one domain")
            self._validate_domains(domains)
            return np.full(n_pages, domains[0], dtype=DOMAIN_DTYPE)
        if policy is PlacementPolicy.INTERLEAVE:
            targets = list(domains) if domains else list(range(self.topology.n_domains))
            self._validate_domains(targets)
            return np.array(targets, dtype=DOMAIN_DTYPE)[
                np.arange(n_pages) % len(targets)
            ]
        if policy is PlacementPolicy.BLOCKWISE:
            if not domains:
                raise AllocationError("BLOCKWISE policy requires a domain list")
            self._validate_domains(domains)
            out = np.full(n_pages, UNBOUND, dtype=DOMAIN_DTYPE)
            bounds = np.linspace(0, n_pages, len(domains) + 1).astype(np.int64)
            for i, d in enumerate(domains):
                out[bounds[i] : bounds[i + 1]] = d
            return out
        if policy is PlacementPolicy.FIRST_TOUCH:
            return np.full(n_pages, UNBOUND, dtype=DOMAIN_DTYPE)
        raise AllocationError(f"unknown policy {policy}")  # pragma: no cover

    def _check_frames(
        self, dom: np.ndarray, action: str, freed: np.ndarray | None = None
    ) -> np.ndarray:
        """Frames per domain that binding ``dom`` takes.

        Raises :class:`~repro.errors.AllocationError` before anything
        changes if a domain cannot supply them, counting the ``freed``
        frames the caller releases first.
        """
        need = self._bound_counts(dom)
        for d in np.nonzero(need)[0].tolist():
            spare = self.frames.available(d) + (0 if freed is None else int(freed[d]))
            if need[d] > spare:
                raise AllocationError(
                    f"cannot {action}: domain {d} is {int(need[d]) - spare} "
                    "frames short; nothing changed"
                )
        return need

    def _bound_counts(self, dom: np.ndarray) -> np.ndarray:
        """Bound pages per domain in an owner array."""
        bound = dom[dom != UNBOUND]
        return np.bincount(bound, minlength=self.topology.n_domains)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def domain_page_counts(self) -> np.ndarray:
        """Bound pages per domain across all segments."""
        counts = np.zeros(self.topology.n_domains, dtype=np.int64)
        for seg in self._segments.values():
            counts += self._bound_counts(seg.domains)
        return counts
