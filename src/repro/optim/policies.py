"""Tuning configurations a workload accepts.

A :class:`NumaTuning` is the machine-readable form of "the code changes
we made": which variables get an explicit placement policy, which
initialization loops were parallelized (so worker threads perform the
first touches of their own partitions), and which variables had their
layout regrouped (Blackscholes' section-array -> array-of-structures
change, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.pagetable import PlacementPolicy


@dataclass(frozen=True, repr=False)
class PlacementSpec:
    """Explicit placement for one variable."""

    policy: PlacementPolicy
    domains: tuple[int, ...] | None = None

    def domain_list(self) -> list[int] | None:
        """Domains as the list form the page table expects."""
        return list(self.domains) if self.domains is not None else None


@dataclass(eq=False, repr=False)
class NumaTuning:
    """The NUMA-relevant code changes applied to a workload.

    Attributes
    ----------
    placement:
        Variable name -> explicit placement. Variables not listed keep
        the default first-touch policy.
    parallel_init:
        Variables whose initialization loop is parallelized so each
        thread first-touches the partition it will later compute on
        (the co-location change of the LULESH/UMT studies).
    regroup:
        Variables whose layout is regrouped from separate sections to an
        array of structures (the Blackscholes change).
    """

    placement: dict[str, PlacementSpec] = field(default_factory=dict)
    parallel_init: set[str] = field(default_factory=set)
    regroup: set[str] = field(default_factory=set)

    def spec_for(self, name: str) -> PlacementSpec | None:
        """Explicit placement for ``name``, if any."""
        return self.placement.get(name)

    def inits_in_parallel(self, name: str) -> bool:
        """Whether ``name``'s init loop is parallelized."""
        return name in self.parallel_init

    def is_regrouped(self, name: str) -> bool:
        """Whether ``name``'s layout is regrouped."""
        return name in self.regroup

    def describe(self) -> str:
        """Human-readable change list."""
        parts = []
        for name, spec in sorted(self.placement.items()):
            dom = f" over {list(spec.domains)}" if spec.domains else ""
            parts.append(f"{name}: {spec.policy.value}{dom}")
        for name in sorted(self.parallel_init):
            parts.append(f"{name}: parallel first-touch init")
        for name in sorted(self.regroup):
            parts.append(f"{name}: layout regrouped")
        return "; ".join(parts) if parts else "(baseline, no tuning)"


def blockwise_all(var_names: list[str], n_domains: int) -> NumaTuning:
    """Block-wise distribution over all domains for the named variables."""
    spec = PlacementSpec(PlacementPolicy.BLOCKWISE, tuple(range(n_domains)))
    return NumaTuning(placement={name: spec for name in var_names})


def interleave_all(var_names: list[str], n_domains: int | None = None) -> NumaTuning:
    """Interleaved allocation for the named variables (prior work's fix)."""
    domains = tuple(range(n_domains)) if n_domains is not None else None
    spec = PlacementSpec(PlacementPolicy.INTERLEAVE, domains)
    return NumaTuning(placement={name: spec for name in var_names})
