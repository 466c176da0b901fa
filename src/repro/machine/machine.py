"""The :class:`Machine` facade: one object per simulated NUMA system.

A ``Machine`` owns the topology, physical frame accounting, page table,
cache hierarchy, contention model, and latency model, plus the clock rate
and base CPI used to convert instruction counts and memory latency into
simulated time. The execution engine drives it; workloads and tests can
also use it directly for fine-grained scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.machine.frames import FrameManager
from repro.machine.interconnect import ContentionModel
from repro.machine.latency import LatencyModel
from repro.machine.pagetable import PageTable, PlacementPolicy, Segment
from repro.machine.topology import NumaTopology
from repro.units import PAGE_SIZE


@dataclass
class Machine:
    """A complete simulated NUMA machine.

    Build one with :mod:`repro.machine.presets` (the five architectures of
    the paper's Table 1) or directly for custom scenarios.
    """

    topology: NumaTopology
    cache_config: CacheConfig = field(default_factory=CacheConfig)
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    ghz: float = 2.2
    base_cpi: float = 0.75
    frames_per_domain: int = 4 * 1024 * 1024  # 16 GiB per domain at 4K pages
    page_size: int = PAGE_SIZE
    contention_beta: float = 0.6
    contention_max: float = 5.0
    #: Memory-level parallelism: how many outstanding misses a core
    #: overlaps. Cycle accounting divides a chunk's summed latency by
    #: this; *reported* per-access latencies (what IBS/PEBS-LL measure)
    #: stay full.
    mlp: float = 2.0

    def __post_init__(self) -> None:
        if self.ghz <= 0:
            raise ValueError(f"clock rate must be positive, got {self.ghz}")
        if self.base_cpi <= 0:
            raise ValueError(f"base CPI must be positive, got {self.base_cpi}")
        self.frames = FrameManager(self.topology, self.frames_per_domain)
        self.page_table = PageTable(self.topology, self.frames, self.page_size)
        self.cache = CacheHierarchy(self.cache_config)
        self.contention = ContentionModel(
            self.topology.n_domains, self.contention_beta, self.contention_max
        )

    # ------------------------------------------------------------------ #

    @property
    def n_cpus(self) -> int:
        """OS-visible hardware thread count."""
        return self.topology.n_cpus

    @property
    def n_domains(self) -> int:
        """Number of NUMA domains."""
        return self.topology.n_domains

    def reset_caches(self) -> None:
        """Cold-start the cache hierarchy (between measured runs)."""
        self.cache.reset()

    # ------------------------------------------------------------------ #
    # allocation passthrough
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
        """Map a virtual segment; see :meth:`PageTable.map_segment`."""
        return self.page_table.map_segment(
            base, nbytes, policy, domains=domains, label=label
        )

    def unmap_segment(self, seg: Segment) -> None:
        """Unmap a segment; see :meth:`PageTable.unmap_segment`."""
        self.page_table.unmap_segment(seg)

    # ------------------------------------------------------------------ #
    # access pipeline pieces: per-chunk primitives, the definition the
    # engine's step pipeline reproduces (tests/test_step_reference.py)
    # ------------------------------------------------------------------ #

    def classify_accesses(self, addrs: np.ndarray, cpu: int, seg: Segment):
        """Return ``(classification, target_domains)`` for a chunk.

        ``target_domains`` carries the page owner per access (pages must be
        bound before classification — the engine touches pages first).
        Addresses must fall inside ``seg`` (chunks are single-variable by
        construction), which makes the owner lookup a direct gather.
        """
        classification = self.cache.classify(addrs, cpu, seg.seg_id)
        pages = np.asarray(addrs, dtype=np.int64) // self.page_size
        target_domains = seg.domains[pages - seg.start_page]
        return classification, target_domains

    def dram_request_counts(
        self, levels: np.ndarray, target_domains: np.ndarray
    ) -> np.ndarray:
        """Per-domain DRAM request counts for contention accounting."""
        from repro.machine.cache import LEVEL_DRAM

        dram_targets = np.asarray(target_domains)[np.asarray(levels) == LEVEL_DRAM]
        return np.bincount(dram_targets, minlength=self.topology.n_domains).astype(
            np.int64
        )

    def access_latency(
        self,
        levels: np.ndarray,
        target_domains: np.ndarray,
        cpu: int,
        inflation: np.ndarray,
        *,
        sequential: bool = False,
        interleaved: bool = False,
    ) -> np.ndarray:
        """Per-access latency in cycles given this step's inflation."""
        accessor_domain = self.topology.domain_of_cpu(cpu)
        return self.latency_model.access_latency(
            levels,
            target_domains,
            accessor_domain,
            self.topology,
            inflation,
            sequential=sequential,
            interleaved=interleaved,
        )

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert simulated cycles to simulated seconds."""
        return cycles / (self.ghz * 1e9)

    def describe(self) -> str:
        """Human-readable machine summary."""
        return (
            f"{self.topology.describe()}, {self.ghz:g} GHz, "
            f"remote/local DRAM ratio "
            f"{self.latency_model.remote_ratio():.2f}"
        )
