"""Mechanism registry and the paper's Table 1 configurations.

``table1_config`` reproduces, row for row, the sampling setups the paper
evaluated: mechanism, host architecture preset, thread count, event name,
and sampling period.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib import import_module

from repro.errors import MechanismError
from repro.sampling.base import SamplingMechanism


class _MechanismTable(Mapping):
    """Read-only name -> mechanism class mapping. A lookup resolves the
    class through the package's lazy exports, so a run imports only the
    mechanism it names."""

    def __init__(self, classes: dict[str, str]) -> None:
        self._classes = classes

    def __getitem__(self, name: str) -> type[SamplingMechanism]:
        return getattr(import_module(__package__), self._classes[name])

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


#: Name -> mechanism class.
MECHANISMS: Mapping[str, type[SamplingMechanism]] = _MechanismTable({
    "IBS": "IBS", "MRK": "MRK", "PEBS": "PEBS", "DEAR": "DEAR",
    "PEBS-LL": "PEBSLL", "Soft-IBS": "SoftIBS",
})


def create_mechanism(name: str, period: int | None = None, **kwargs) -> SamplingMechanism:
    """Instantiate a mechanism by name with its Table 1 default period."""
    try:
        cls = MECHANISMS[name]
    except KeyError:
        raise MechanismError(
            f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}"
        ) from None
    if period is None:
        return cls(**kwargs)
    return cls(period, **kwargs)


@dataclass(frozen=True, repr=False)
class Table1Row:
    """One row of the paper's Table 1."""

    mechanism: str
    full_name: str
    preset: str
    processor: str
    threads: int
    event: str
    period: int


#: The paper's Table 1, verbatim.
TABLE1: tuple[Table1Row, ...] = (
    Table1Row(
        "IBS", "Instruction-based sampling", "magny_cours",
        "AMD Magny-Cours", 48, "IBS op", 64 * 1024,
    ),
    Table1Row(
        "MRK", "Marked event sampling", "power7",
        "IBM POWER 7", 128, "PM_MRK_FROM_L3MISS", 1,
    ),
    Table1Row(
        "PEBS", "Precise event-based sampling", "xeon_harpertown",
        "Intel Xeon Harpertown", 8, "INST_RETIRED:ANY_P", 1_000_000,
    ),
    Table1Row(
        "DEAR", "Data event address registers", "itanium2",
        "Intel Itanium 2", 8, "DATA_EAR_CACHE_LAT4", 20_000,
    ),
    Table1Row(
        "PEBS-LL", "PEBS with load latency", "ivy_bridge",
        "Intel Ivy Bridge", 8, "LATENCY_ABOVE_THRESHOLD", 500_000,
    ),
    Table1Row(
        "Soft-IBS", "Software-supported IBS", "magny_cours",
        "AMD Magny-Cours", 48, "memory accesses", 10_000_000,
    ),
)


def table1_config(mechanism: str) -> Table1Row:
    """Look up a mechanism's Table 1 row."""
    for row in TABLE1:
        if row.mechanism == mechanism:
            return row
    raise MechanismError(
        f"no Table 1 row for {mechanism!r}; choose from "
        f"{[r.mechanism for r in TABLE1]}"
    )
