"""Access-pattern classification from per-thread [min, max] ranges.

Turns the address-centric view's data series into one of the pattern
archetypes the paper's case studies encounter:

* ``BLOCKED`` — each thread touches its own ascending, mostly disjoint
  slice (LULESH's ``z``, Fig. 3; AMG's ``RAP_diag_data`` within its hot
  parallel region, Fig. 5). Optimizable by block-wise page distribution.
* ``STAGGERED_OVERLAP`` — ascending per-thread sub-ranges with large
  overlaps (Blackscholes' ``buffer``, Fig. 8; UMT's ``STime``). The data
  layout interleaves logically-private sections; co-location requires a
  layout change (regroup) and/or parallel first-touch initialization.
* ``UNIFORM_ALL`` — every thread covers (nearly) the whole variable (two
  of AMG's other hot arrays). Interleaved allocation balances requests.
* ``IRREGULAR`` — no monotone structure (AMG's ``RAP_diag_data`` viewed
  over the whole program, Fig. 4). Re-scope the analysis to the hottest
  calling context before deciding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class AccessPattern(enum.Enum):
    """Archetypes recognized from per-thread access ranges."""

    BLOCKED = "blocked"
    STAGGERED_OVERLAP = "staggered-overlap"
    UNIFORM_ALL = "uniform-all"
    IRREGULAR = "irregular"
    SINGLE_THREAD = "single-thread"


@dataclass(frozen=True, repr=False)
class PatternReport:
    """Classification plus the statistics that led to it."""

    pattern: AccessPattern
    mean_coverage: float
    midpoint_monotonicity: float
    mean_overlap: float
    n_threads: int


def _pairwise_overlap(ranges: np.ndarray) -> float:
    """Mean fractional overlap between consecutive threads' ranges."""
    if len(ranges) < 2:
        return 0.0
    overlaps = []
    for (lo_a, hi_a), (lo_b, hi_b) in zip(ranges[:-1], ranges[1:]):
        inter = max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
        width = max(hi_a - lo_a, hi_b - lo_b, 1e-12)
        overlaps.append(inter / width)
    return float(np.mean(overlaps))


def _monotonicity(values: np.ndarray) -> float:
    """Kendall-style monotonicity of values vs. thread order in [-1, 1]."""
    n = len(values)
    if n < 2:
        return 0.0
    diffs = values[None, :] - values[:, None]
    upper = diffs[np.triu_indices(n, k=1)]
    concordant = np.count_nonzero(upper > 0)
    discordant = np.count_nonzero(upper < 0)
    total = upper.size
    if total == 0:
        return 0.0
    return float((concordant - discordant) / total)


def classify_ranges(
    normalized: dict[int, tuple[float, float]],
    *,
    uniform_coverage: float = 0.9,
    blocked_overlap: float = 0.35,
    monotone_threshold: float = 0.8,
) -> PatternReport:
    """Classify normalized per-thread [lo, hi) ranges.

    Parameters mirror the decision rules above; ``normalized`` maps
    thread id to its range within [0, 1] of the variable.
    """
    if not normalized:
        return PatternReport(AccessPattern.IRREGULAR, 0.0, 0.0, 0.0, 0)
    tids = sorted(normalized)
    ranges = np.array([normalized[t] for t in tids], dtype=np.float64)
    coverage = ranges[:, 1] - ranges[:, 0]
    mean_cov = float(coverage.mean())
    mids = ranges.mean(axis=1)
    mono = _monotonicity(mids)
    overlap = _pairwise_overlap(ranges)
    n = len(tids)

    if n == 1:
        pattern = AccessPattern.SINGLE_THREAD
    elif mean_cov >= uniform_coverage:
        pattern = AccessPattern.UNIFORM_ALL
    elif abs(mono) >= monotone_threshold and overlap <= blocked_overlap:
        pattern = AccessPattern.BLOCKED
    elif abs(mono) >= monotone_threshold:
        pattern = AccessPattern.STAGGERED_OVERLAP
    else:
        pattern = AccessPattern.IRREGULAR

    return PatternReport(
        pattern=pattern,
        mean_coverage=mean_cov,
        midpoint_monotonicity=mono,
        mean_overlap=overlap,
        n_threads=n,
    )


def blockwise_domains_from_ranges(
    normalized: dict[int, tuple[float, float]],
    thread_domains: dict[int, int],
    n_domains: int,
) -> list[int]:
    """Derive a block-wise domain order from a blocked access pattern.

    Splits [0, 1] into ``n_domains`` equal blocks and assigns each block
    to the domain whose threads' ranges cover it most — the "segmented by
    rectangles" construction of the paper's Fig. 3 optimization.
    """
    edges = np.linspace(0.0, 1.0, n_domains + 1)
    order: list[int] = []
    for b in range(n_domains):
        lo_b, hi_b = edges[b], edges[b + 1]
        votes = np.zeros(n_domains)
        for tid, (lo, hi) in normalized.items():
            inter = max(0.0, min(hi, hi_b) - max(lo, lo_b))
            if inter > 0 and tid in thread_domains:
                # Weight by the fraction of the thread's own range inside
                # this block, so a narrow worker slice outvotes an
                # initialization thread whose range spans everything.
                width = max(hi - lo, 1e-12)
                votes[thread_domains[tid]] += inter / width
        order.append(int(votes.argmax()) if votes.any() else b % n_domains)
    return order
