"""The optimization advisor: from analysis to actionable guidance.

The paper's workflow, automated end to end:

1. Check whole-program lpi_NUMA against the 0.1 threshold — if below,
   recommend *no* NUMA optimization (the Blackscholes verdict). Without
   latency, M_r must not be much smaller than M_l instead
   (:func:`repro.profiler.metrics.verdict`).
2. Rank variables by remote cost; for each hot variable, classify its
   access pattern — first over the whole program, and when that is
   irregular, re-scope to the hottest calling context (the Fig. 4 -> 5
   refinement on AMG's ``RAP_diag_data``).
3. Map the pattern to an action: block-wise distribution at the first
   touch, interleaved allocation, or parallel first-touch initialization
   — and report *where* the first touch happens so the developer (or the
   :mod:`repro.optim` transforms) can apply the change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import obs
from repro.analysis.analyzer import NumaAnalysis
from repro.analysis.merge import MergedVar
from repro.analysis.patterns import (
    AccessPattern,
    PatternReport,
    blockwise_domains_from_ranges,
    classify_ranges,
)
from repro.profiler.metrics import LPI_THRESHOLD, MISMATCH_THRESHOLD, verdict
from repro.runtime.callstack import CallPath

#: Hot variables the advisor considers, hottest first.
TOP_VARIABLES = 8

#: Smallest share of the program's remote cost that earns a variable a
#: recommendation.
MIN_COST_SHARE = 0.03


class Action(enum.Enum):
    """Recommended NUMA optimization for a variable."""

    BLOCKWISE = "block-wise distribution at first touch"
    INTERLEAVE = "interleaved page allocation"
    PARALLEL_INIT = "parallelize first-touch initialization (co-locate)"
    RESTRUCTURE = "regroup layout, then parallelize first touch"
    NONE = "no optimization warranted"


@dataclass(eq=False, repr=False)
class Recommendation:
    """One variable's recommendation with its supporting evidence."""

    var_name: str
    action: Action
    pattern: PatternReport
    scoped_to: CallPath | None
    first_touch_paths: dict[CallPath, int]
    blockwise_domains: list[int] = field(default_factory=list)
    remote_cost_share: float = 0.0
    rationale: str = ""


@dataclass(eq=False, repr=False)
class Advice:
    """Whole-program advice: the verdict plus per-variable recommendations."""

    program: str
    lpi: float | None
    worth_optimizing: bool
    recommendations: list[Recommendation]
    rationale: str


def _pattern_for(
    analysis: NumaAnalysis, mv: MergedVar
) -> tuple[PatternReport, CallPath | None]:
    """Classify a variable, re-scoping to the hottest context if needed."""
    whole = classify_ranges(mv.normalized_ranges())
    if whole.pattern not in (AccessPattern.IRREGULAR, AccessPattern.SINGLE_THREAD):
        return whole, None
    # Re-scope: try the hottest contexts by attributed cost until one
    # yields a recognizable multi-thread pattern.
    for path, share in analysis.hot_contexts(mv.name):
        if share < 0.05:
            break
        scoped = classify_ranges(mv.normalized_ranges(path))
        if scoped.pattern not in (
            AccessPattern.IRREGULAR,
            AccessPattern.SINGLE_THREAD,
        ):
            return scoped, path
    return whole, None


def _action_for(report: PatternReport) -> Action:
    return {
        AccessPattern.BLOCKED: Action.BLOCKWISE,
        AccessPattern.UNIFORM_ALL: Action.INTERLEAVE,
        AccessPattern.STAGGERED_OVERLAP: Action.RESTRUCTURE,
        AccessPattern.IRREGULAR: Action.INTERLEAVE,
        AccessPattern.SINGLE_THREAD: Action.NONE,
    }[report.pattern]


def advise(
    analysis: NumaAnalysis,
    *,
    thread_domains: dict[int, int] | None = None,
) -> Advice:
    """Produce whole-program NUMA optimization advice.

    ``thread_domains`` (tid -> domain) enables concrete block-wise domain
    orders; it comes from the engine's binding (the profiler records each
    thread's domain, used as the default).
    """
    with obs.TRACER.span("analysis.advise", "analysis"):
        return _advise(analysis, thread_domains)


def _advise(
    analysis: NumaAnalysis, thread_domains: dict[int, int] | None
) -> Advice:
    merged = analysis.merged
    lpi = analysis.program_lpi()
    rf = analysis.program_remote_fraction() if lpi is None else None
    if not verdict(lpi, rf):
        return Advice(
            program=merged.program,
            lpi=lpi,
            worth_optimizing=False,
            recommendations=[],
            rationale=(
                f"{_verdict_basis(lpi, rf, False)}: NUMA "
                "losses are too small for optimization to pay off"
            ),
        )

    recommendations: list[Recommendation] = []
    for summary in analysis.hot_variables(top=TOP_VARIABLES):
        share = (
            summary.remote_latency_share
            if analysis.caps.measures_latency
            else summary.remote_access_share
        )
        if share < MIN_COST_SHARE:
            continue
        mv = merged.var(summary.name)
        report, scoped = _pattern_for(analysis, mv)
        action = _action_for(report)
        domains: list[int] = []
        if action is Action.BLOCKWISE:
            ranges = mv.normalized_ranges(scoped)
            tdom = thread_domains or {}
            domains = blockwise_domains_from_ranges(
                ranges, tdom, merged.n_domains
            )
        scope_txt = (
            f" (scoped to {scoped[-2].func})" if scoped and len(scoped) >= 2 else ""
        )
        recommendations.append(
            Recommendation(
                var_name=summary.name,
                action=action,
                pattern=report,
                scoped_to=scoped,
                first_touch_paths=mv.first_touch_paths(),
                blockwise_domains=domains,
                remote_cost_share=share,
                rationale=(
                    f"{summary.name}: {report.pattern.value} pattern{scope_txt}, "
                    f"{share:.1%} of remote cost -> {action.value}"
                ),
            )
        )

    return Advice(
        program=merged.program,
        lpi=lpi,
        worth_optimizing=True,
        recommendations=recommendations,
        rationale=(
            f"{_verdict_basis(lpi, rf, True)}: NUMA "
            "losses warrant optimization"
        ),
    )


def _verdict_basis(lpi: float | None, rf: float | None, worth: bool) -> str:
    """The number the verdict rests on, compared with its threshold."""
    if lpi is not None:
        return (
            f"whole-program lpi_NUMA = {lpi:.3f} {'>=' if worth else '<'} "
            f"{LPI_THRESHOLD}"
        )
    return (
        f"mechanism measures no latency; remote access fraction = "
        f"{rf:.1%}, so M_r/M_l {'>=' if worth else '<'} {MISMATCH_THRESHOLD}"
    )
