"""Simulated threads and thread-to-core binding.

The paper stresses that NUMA tuning presumes threads bound to cores
("multithreaded programs achieve best performance when threads are bound
to specific cores"), and Soft-IBS *requires* binding to map thread ->
CPU -> domain. The engine therefore always runs with an explicit binding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import BindingError
from repro.machine.topology import NumaTopology


class BindingPolicy(enum.Enum):
    """How thread ids map onto hardware threads.

    ``COMPACT``
        Thread ``t`` -> CPU ``t``: fills one domain's cores (and SMT
        contexts) before moving to the next. This is the common
        ``OMP_PROC_BIND=close`` layout and what the paper's runs use.
    ``SCATTER``
        Threads round-robin across domains first (``spread``), so
        consecutive thread ids land in different domains.
    """

    COMPACT = "compact"
    SCATTER = "scatter"


@dataclass(frozen=True, repr=False)
class SimThread:
    """A bound simulated thread."""

    tid: int
    cpu: int
    domain: int

    def __post_init__(self) -> None:
        if self.tid < 0 or self.cpu < 0 or self.domain < 0:
            raise BindingError(
                f"invalid thread binding tid={self.tid} cpu={self.cpu} "
                f"domain={self.domain}"
            )


def bind_threads(
    topology: NumaTopology,
    n_threads: int,
    policy: BindingPolicy = BindingPolicy.COMPACT,
) -> list[SimThread]:
    """Produce a thread->CPU binding for ``n_threads`` threads.

    Raises :class:`~repro.errors.BindingError` when more threads than
    hardware threads are requested (the simulator does not model
    oversubscription).
    """
    if n_threads <= 0:
        raise BindingError(f"n_threads must be positive, got {n_threads}")
    if n_threads > topology.n_cpus:
        raise BindingError(
            f"{n_threads} threads exceed {topology.n_cpus} hardware threads"
        )
    threads = []
    if policy is BindingPolicy.COMPACT:
        cpus = range(n_threads)
    elif policy is BindingPolicy.SCATTER:
        # Round-robin over domains, then over the CPUs within each domain.
        per_domain = [list(topology.cpus_of_domain(d)) for d in range(topology.n_domains)]
        cpus = []
        i = 0
        while len(cpus) < n_threads:
            d = i % topology.n_domains
            k = i // topology.n_domains
            if k < len(per_domain[d]):
                cpus.append(per_domain[d][k])
            i += 1
    else:  # pragma: no cover - enum is closed
        raise BindingError(f"unknown binding policy {policy}")
    for tid, cpu in zip(range(n_threads), cpus):
        threads.append(SimThread(tid=tid, cpu=int(cpu), domain=topology.domain_of_cpu(int(cpu))))
    return threads
