"""NUMA topology: domains, cores, SMT threads, and inter-domain distances.

A *NUMA domain* (paper Section 1) is a set of cores plus the cache/memory
they can reach with uniform latency. The topology answers the two queries
the profiler issues through libnuma on real hardware:

* ``numa_node_of_cpu`` -> :meth:`NumaTopology.domain_of_cpu`
* the distance/remoteness of one domain from another ->
  :meth:`NumaTopology.distance`

Distances follow the Linux SLIT convention: 10 for local, larger for remote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TopologyError

#: Widths of the page table's per-page state: an owner is a domain id
#: (-1 while unbound) and a first toucher a CPU id (-1 for none), so a
#: topology has at most ``MAX_DOMAINS`` domains and ``MAX_CPUS`` CPUs.
DOMAIN_DTYPE = np.dtype(np.int8)
CPU_DTYPE = np.dtype(np.int16)
MAX_DOMAINS = int(np.iinfo(DOMAIN_DTYPE).max)
MAX_CPUS = int(np.iinfo(CPU_DTYPE).max)


@dataclass(frozen=True, repr=False)
class NumaTopology:
    """Immutable description of a machine's NUMA layout.

    Parameters
    ----------
    n_domains:
        Number of NUMA domains (sockets, or dies for MCM parts like
        Magny-Cours where each package holds two domains).
    cores_per_domain:
        Physical cores per domain.
    smt:
        Hardware threads per core (POWER7 uses 4).
    distances:
        Optional ``(n_domains, n_domains)`` SLIT-style matrix. Defaults to
        10 on the diagonal and 20 elsewhere.
    name:
        Human-readable architecture name.
    """

    n_domains: int
    cores_per_domain: int
    smt: int = 1
    distances: np.ndarray | None = field(default=None)
    name: str = "generic"

    def __post_init__(self) -> None:
        if self.n_domains <= 0:
            raise TopologyError(f"n_domains must be positive, got {self.n_domains}")
        if self.cores_per_domain <= 0:
            raise TopologyError(
                f"cores_per_domain must be positive, got {self.cores_per_domain}"
            )
        if self.smt <= 0:
            raise TopologyError(f"smt must be positive, got {self.smt}")
        if self.n_domains > MAX_DOMAINS or self.n_cpus > MAX_CPUS:
            raise TopologyError(
                f"{self.n_domains} domains and {self.n_cpus} hardware threads "
                f"exceed the page table's limits of {MAX_DOMAINS} domains and "
                f"{MAX_CPUS} hardware threads"
            )
        if self.distances is None:
            dist = np.full((self.n_domains, self.n_domains), 20, dtype=np.int64)
            np.fill_diagonal(dist, 10)
            object.__setattr__(self, "distances", dist)
        else:
            dist = np.asarray(self.distances, dtype=np.int64)
            if dist.shape != (self.n_domains, self.n_domains):
                raise TopologyError(
                    f"distance matrix shape {dist.shape} does not match "
                    f"{self.n_domains} domains"
                )
            if not np.array_equal(dist, dist.T):
                raise TopologyError("distance matrix must be symmetric")
            if np.any(np.diag(dist)[:, None] > dist):
                raise TopologyError("local distance must be minimal in each row")
            object.__setattr__(self, "distances", dist)

    @property
    def n_cores(self) -> int:
        """Total physical cores across all domains."""
        return self.n_domains * self.cores_per_domain

    @property
    def n_cpus(self) -> int:
        """Total hardware threads (cores x SMT); the OS-visible CPU count."""
        return self.n_cores * self.smt

    def domain_of_cpu(self, cpu: int | np.ndarray):
        """Map an OS CPU id (hardware thread) to its NUMA domain.

        CPU ids are laid out domain-major: domain ``d`` owns CPUs
        ``[d * cores_per_domain * smt, (d+1) * cores_per_domain * smt)``.
        Accepts scalars or arrays (vectorized, mirrors
        ``numa_node_of_cpu``).
        """
        cpus_per_domain = self.cores_per_domain * self.smt
        dom = np.asarray(cpu) // cpus_per_domain
        if np.any((np.asarray(cpu) < 0) | (dom >= self.n_domains)):
            raise TopologyError(f"cpu id out of range [0, {self.n_cpus})")
        if np.isscalar(cpu) or np.ndim(cpu) == 0:
            return int(dom)
        return dom.astype(np.int64)

    def cpus_of_domain(self, domain: int) -> range:
        """Return the CPU ids belonging to ``domain``."""
        if not 0 <= domain < self.n_domains:
            raise TopologyError(f"domain {domain} out of range [0, {self.n_domains})")
        per = self.cores_per_domain * self.smt
        return range(domain * per, (domain + 1) * per)

    def distance(self, src_domain: int, dst_domain: int) -> int:
        """SLIT distance between two domains (10 = local)."""
        return int(self.distances[src_domain, dst_domain])

    def remote_domains(self, domain: int) -> list[int]:
        """All domains other than ``domain``, nearest first."""
        order = np.argsort(self.distances[domain], kind="stable")
        return [int(d) for d in order if d != domain]

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.n_domains} NUMA domains x "
            f"{self.cores_per_domain} cores x SMT{self.smt} "
            f"= {self.n_cpus} hardware threads"
        )
