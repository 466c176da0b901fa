"""Physical frame accounting per NUMA domain.

The simulator does not model individual frame numbers; placement is what
matters for NUMA behaviour. Each domain has a capacity in frames and a
usage counter, so allocation pressure, capacity overflow (spill to the
next-nearest domain, as Linux does), and per-domain footprint statistics
can all be observed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AllocationError
from repro.machine.topology import NumaTopology


class FrameManager:
    """Tracks frame usage per domain and implements overflow spilling."""

    def __init__(self, topology: NumaTopology, frames_per_domain: int) -> None:
        if frames_per_domain <= 0:
            raise AllocationError(
                f"frames_per_domain must be positive, got {frames_per_domain}"
            )
        self.topology = topology
        self.capacity = np.full(topology.n_domains, frames_per_domain, dtype=np.int64)
        self.used = np.zeros(topology.n_domains, dtype=np.int64)

    def available(self, domain: int) -> int:
        """Free frames remaining in ``domain``."""
        return int(self.capacity[domain] - self.used[domain])

    def total_available(self) -> int:
        """Free frames across the whole machine."""
        return int((self.capacity - self.used).sum())

    def reserve(self, domain: int, count: int) -> int:
        """Reserve ``count`` frames, preferring ``domain``.

        Follows the Linux fallback behaviour: if the preferred domain is
        full, spill to the nearest domain with space. Returns the domain
        that actually supplied the frames. Raises
        :class:`~repro.errors.AllocationError` when the machine is out of
        memory. ``count`` frames always come from a single domain (the
        page-granular callers reserve one page at a time or per-domain
        batches).
        """
        if count <= 0:
            raise AllocationError(f"frame count must be positive, got {count}")
        if self.available(domain) >= count:
            self.used[domain] += count
            return domain
        for alt in self.topology.remote_domains(domain):
            if self.available(alt) >= count:
                self.used[alt] += count
                return alt
        raise AllocationError(
            f"out of simulated memory: need {count} frames, "
            f"{self.total_available()} available"
        )

    def reserve_exact(self, domain: int, count: int) -> None:
        """Reserve frames strictly from ``domain`` (membind semantics)."""
        if count <= 0:
            raise AllocationError(f"frame count must be positive, got {count}")
        if self.available(domain) < count:
            raise AllocationError(
                f"domain {domain} has {self.available(domain)} free frames, "
                f"need {count} (strict bind)"
            )
        self.used[domain] += count

    def release(self, domain: int, count: int) -> None:
        """Return ``count`` frames to ``domain``."""
        if count < 0 or self.used[domain] < count:
            raise AllocationError(
                f"cannot release {count} frames from domain {domain} "
                f"(used={int(self.used[domain])})"
            )
        self.used[domain] -= count
