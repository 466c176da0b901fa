"""NUMA metric vocabulary and derived-metric formulas (paper Section 4).

Raw metrics accumulated per CCT node / variable / bin:

* ``NUMA_MATCH`` (M_l) and ``NUMA_MISMATCH`` (M_r): sampled accesses whose
  target page lives in the accessing thread's domain vs. a remote domain —
  the labels match the metric pane of the paper's Figure 3.
* ``NUMA_NODE<k>``: sampled accesses targeting domain ``k`` (request
  balance, Section 4.1).
* ``LAT_TOTAL`` / ``LAT_REMOTE``: accumulated sampled latency, total and
  for remote-page samples (l^s and l^s_NUMA).
* ``SAMPLED_INSTR``: instruction samples I^s (IBS/PEBS count non-memory
  instruction samples here too).
* ``INSTR``: absolute executed instructions (conventional counter).
* ``EVENTS_NUMA``: absolute remote-access event count E_NUMA (PEBS-LL /
  MRK-style counting PMUs).
* ``SAMPLES``: sampled memory accesses.

Derived metrics: ``lpi_numa`` implements eq. (2) for instruction-sampling
mechanisms with latency (IBS) and eq. (3) for event-sampling mechanisms
with absolute event counts (PEBS-LL).
"""

from __future__ import annotations

from typing import Mapping

from repro.sampling.base import MechanismCapabilities


#: Interned ``NUMA_NODE<k>`` metric names. The profiler asks for these
#: per chunk per domain on its hot path; building the f-string each time
#: was measurable, so the table grows once per new domain index and every
#: later call is a list index.
_NUMA_NODE_NAMES: list[str] = []


class MetricNames:
    """String constants for raw metric names."""

    NUMA_MATCH = "NUMA_MATCH"        # M_l
    NUMA_MISMATCH = "NUMA_MISMATCH"  # M_r
    LAT_TOTAL = "LAT_TOTAL"
    LAT_REMOTE = "LAT_REMOTE"
    SAMPLED_INSTR = "SAMPLED_INSTR"
    INSTR = "INSTR"
    EVENTS_NUMA = "EVENTS_NUMA"
    SAMPLES = "SAMPLES"

    @staticmethod
    def numa_node(domain: int) -> str:
        """Per-domain request-count metric name (``NUMA_NODE0`` ...)."""
        try:
            return _NUMA_NODE_NAMES[domain]
        except IndexError:
            while len(_NUMA_NODE_NAMES) <= domain:
                _NUMA_NODE_NAMES.append(f"NUMA_NODE{len(_NUMA_NODE_NAMES)}")
            return _NUMA_NODE_NAMES[domain]


#: The paper's rule of thumb (Section 4.2): lpi_NUMA at or above 0.1 cycles per
#: instruction means NUMA losses warrant optimization.
LPI_THRESHOLD = 0.1


def lpi_numa(
    metrics: Mapping[str, float],
    capabilities: MechanismCapabilities,
) -> float | None:
    """NUMA latency per instruction for a metric set (eqs. 2/3).

    Returns ``None`` when the mechanism cannot support the metric (no
    latency measurement — MRK, PEBS, DEAR, Soft-IBS).

    * Instruction-sampling with latency (IBS), eq. (2):
      ``l^s_NUMA / I^s`` — both sampled at the same instruction rate, so
      the ratio is an unbiased estimate of ``l_NUMA / I``.
    * Event-sampling with latency and absolute event counts (PEBS-LL),
      eq. (3): ``(l^s_NUMA / E^s_NUMA) * (E_NUMA / I)`` — the average
      sampled remote latency scaled by the absolute remote event rate per
      instruction from conventional counters.
    """
    if not capabilities.measures_latency:
        return None
    l_remote = metrics.get(MetricNames.LAT_REMOTE, 0.0)
    if capabilities.samples_all_instructions:
        i_sampled = metrics.get(MetricNames.SAMPLED_INSTR, 0.0)
        if i_sampled <= 0:
            return 0.0
        return l_remote / i_sampled
    # Event sampling (PEBS-LL): need absolute event and instruction counts.
    sampled_remote = metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
    events_abs = metrics.get(MetricNames.EVENTS_NUMA, 0.0)
    instr = metrics.get(MetricNames.INSTR, 0.0)
    if sampled_remote <= 0 or instr <= 0:
        return 0.0
    avg_remote_latency = l_remote / sampled_remote
    return avg_remote_latency * (events_abs / instr)


def remote_fraction(metrics: Mapping[str, float]) -> float:
    """M_r / (M_l + M_r): fraction of sampled accesses touching remote pages."""
    m_l = metrics.get(MetricNames.NUMA_MATCH, 0.0)
    m_r = metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
    total = m_l + m_r
    if total <= 0:
        return 0.0
    return m_r / total


def mismatch_ratio(metrics: Mapping[str, float]) -> float:
    """M_r / M_l (the "roughly seven times" ratio of the LULESH study).

    Returns ``inf`` when every sampled access was remote.
    """
    m_l = metrics.get(MetricNames.NUMA_MATCH, 0.0)
    m_r = metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
    if m_l <= 0:
        return float("inf") if m_r > 0 else 0.0
    return m_r / m_l


def domain_request_counts(metrics: Mapping[str, float], n_domains: int) -> list[float]:
    """Per-domain sampled request counts (``NUMA_NODE<k>`` series)."""
    return [metrics.get(MetricNames.numa_node(d), 0.0) for d in range(n_domains)]


def warrants_optimization(lpi: float | None, threshold: float = LPI_THRESHOLD) -> bool:
    """Apply the paper's 0.1 cycles/instruction rule of thumb."""
    return lpi is not None and lpi >= threshold


#: Section 4.1's rule for mechanisms that measure no latency: a thread may
#: have a NUMA problem when M_r is not much smaller than M_l. "Much
#: smaller" is an order of magnitude: M_r / M_l below 0.1.
MISMATCH_THRESHOLD = 0.1


def verdict(
    lpi: float | None,
    remote_frac: float | None = None,
    threshold: float = LPI_THRESHOLD,
) -> bool:
    """Whether NUMA optimization is warranted — the one program verdict.

    With latency, lpi_NUMA at or above ``threshold`` (Section 4.2).
    Without (``lpi`` is ``None``), the remote share of sampled accesses
    ``remote_frac`` = M_r / (M_l + M_r) decides: M_r / M_l at or above
    :data:`MISMATCH_THRESHOLD` (Section 4.1).
    """
    if lpi is not None:
        return warrants_optimization(lpi, threshold)
    if remote_frac is None:
        return False
    return remote_frac >= MISMATCH_THRESHOLD * (1.0 - remote_frac)
