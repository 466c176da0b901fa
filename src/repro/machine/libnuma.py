"""A libnuma-shaped facade over the simulated machine.

The paper's tool talks to the OS through libnuma [14]: ``move_pages`` to
query (or migrate) page placement, ``numa_node_of_cpu`` to map CPUs to
domains, and the ``numa_alloc_*`` family for policy-controlled
allocation. This module exposes the same vocabulary over a
:class:`~repro.machine.machine.Machine`, making the substitution map
explicit — profiler code written against this interface reads exactly
like the real tool's.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import Machine
from repro.machine.pagetable import UNBOUND, PlacementPolicy, Segment


class LibNuma:
    """libnuma-style queries and allocation over one simulated machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._anon_counter = 0

    # ------------------------------------------------------------------ #
    # queries (what the profiler uses)
    # ------------------------------------------------------------------ #

    def numa_num_configured_nodes(self) -> int:
        """Number of NUMA nodes (domains)."""
        return self.machine.n_domains

    def numa_node_of_cpu(self, cpu: int) -> int:
        """Domain of a CPU — the thread-side half of M_l/M_r."""
        return self.machine.topology.domain_of_cpu(cpu)

    def move_pages(
        self, addrs: np.ndarray, nodes: list[int] | None = None
    ) -> np.ndarray:
        """Query or migrate page placement, like ``move_pages(2)``.

        With ``nodes is None`` (the profiler's usage, paper Section 4.1):
        returns the owner node per address, ``-1`` for not-yet-bound
        first-touch pages. With ``nodes`` given: migrates each address's
        page to the corresponding node (the last entry wins for a page
        listed twice) and returns the new placement. A node outside
        ``[0, n_domains)``, an unmapped address or a node short of free
        frames (counting those the moves release) raises before anything
        changes.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if nodes is None:
            return self.machine.page_table.domains_of_addrs(addrs)
        if len(nodes) != len(addrs):
            raise ValueError("nodes must match addrs length")
        pt = self.machine.page_table
        nodes = [int(n) for n in nodes]
        pt._validate_domains(nodes)
        pages = addrs // pt.page_size
        segs = pt.segments
        keys = zip(pt.segments_of_pages(pages).tolist(), pages.tolist())
        dest = dict(zip(keys, nodes))
        moves = []
        for (si, page), node in dest.items():
            seg = segs[si]
            local = page - seg.start_page
            if int(seg.domains[local]) != node:
                moves.append((seg, local, node))
        if not moves:
            return pt.domains_of_addrs(addrs)
        old = np.array([int(seg.domains[local]) for seg, local, _ in moves])
        new = np.array([node for _, _, node in moves])
        freed = pt._bound_counts(old)
        need = pt._check_frames(new, "move pages", freed)

        # Commit: the check guarantees every reserve below succeeds.
        for d in np.nonzero(freed)[0].tolist():
            pt.frames.release(d, int(freed[d]))
        for d in np.nonzero(need)[0].tolist():
            pt.frames.reserve_exact(d, int(need[d]))
        for (seg, local, node), was in zip(moves, old.tolist()):
            seg.domains[local] = node
            if was == UNBOUND:
                seg.n_unbound -= 1
        pt.epoch += 1
        return pt.domains_of_addrs(addrs)

    def numa_distance(self, a: int, b: int) -> int:
        """SLIT distance between two nodes (10 = local)."""
        return self.machine.topology.distance(a, b)

    # ------------------------------------------------------------------ #
    # allocation (what NUMA-aware applications use)
    # ------------------------------------------------------------------ #

    def _anon_base(self, nbytes: int) -> int:
        # A private arena away from the heap/static/stack regions.
        base = (1 << 46) + self._anon_counter
        self._anon_counter += (
            (nbytes + self.machine.page_size) // self.machine.page_size + 1
        ) * self.machine.page_size
        return base

    def numa_alloc_local(self, nbytes: int, cpu: int) -> Segment:
        """Allocate memory bound to ``cpu``'s node."""
        node = self.numa_node_of_cpu(cpu)
        return self.machine.map_segment(
            self._anon_base(nbytes), nbytes, PlacementPolicy.BIND,
            domains=[node], label="numa_alloc_local",
        )

    def numa_alloc_interleaved(
        self, nbytes: int, nodes: list[int] | None = None
    ) -> Segment:
        """Allocate page-interleaved memory (the prior-work fix)."""
        return self.machine.map_segment(
            self._anon_base(nbytes), nbytes, PlacementPolicy.INTERLEAVE,
            domains=nodes, label="numa_alloc_interleaved",
        )

    def numa_alloc_onnode(self, nbytes: int, node: int) -> Segment:
        """Allocate memory bound to an explicit node."""
        return self.machine.map_segment(
            self._anon_base(nbytes), nbytes, PlacementPolicy.BIND,
            domains=[node], label="numa_alloc_onnode",
        )

    def numa_free(self, seg: Segment) -> None:
        """Release memory from any ``numa_alloc_*`` call."""
        self.machine.unmap_segment(seg)
