"""The full four-pane report — hpcviewer's Figure 3 layout, in text.

The paper's Figure 3 screenshot shows four panes: source (top left, here
replaced by the variable's allocation site), the address-centric plot
(top right), the augmented CCT (bottom left), and the metric pane
(bottom right). :func:`full_report` renders all of them for one merged
profile, leading with the program-level verdict — a single call that
gives everything a developer needs to decide and act.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.analyzer import NumaAnalysis
from repro.analysis.merge import MergedProfile
from repro.analysis.views import (
    address_centric_view,
    code_centric_view,
    data_centric_view,
    first_touch_view,
    region_table_view,
)
from repro.profiler.metrics import LPI_THRESHOLD, MISMATCH_THRESHOLD, verdict


def _verdict(analysis: NumaAnalysis) -> str:
    lpi = analysis.program_lpi()
    rf = analysis.program_remote_fraction() if lpi is None else None
    worth = verdict(lpi, rf)
    side = "AT-OR-ABOVE" if worth else "below"
    action = (
        "NUMA losses warrant optimization"
        if worth
        else "NUMA optimization unlikely to pay off"
    )
    if lpi is None:
        return (
            f"lpi_NUMA unavailable (mechanism measures no latency); "
            f"remote fraction of sampled accesses = {rf:.1%} — M_r/M_l "
            f"{side} the {MISMATCH_THRESHOLD} threshold: {action}"
        )
    return (
        f"lpi_NUMA = {lpi:.3f} cycles/instruction — {side} the "
        f"{LPI_THRESHOLD} threshold: {action}"
    )


def full_report(
    merged: MergedProfile,
    *,
    focus_var: str | None = None,
    top: int = 8,
    width: int = 56,
) -> str:
    """Render the complete report for one merged profile.

    ``focus_var`` selects the variable for the address-centric and
    first-touch panes; defaults to the hottest variable.
    """
    with obs.TRACER.span("analysis.report", "analysis"):
        return _full_report(merged, focus_var=focus_var, top=top, width=width)


def _full_report(
    merged: MergedProfile,
    *,
    focus_var: str | None,
    top: int,
    width: int,
) -> str:
    analysis = NumaAnalysis(merged)
    sections = [
        f"{'=' * 72}",
        f"NUMA analysis — {merged.program} on {merged.machine_desc}",
        f"mechanism: {merged.mechanism_name}; threads: {merged.n_threads}",
        f"{'=' * 72}",
        "",
        _verdict(analysis),
        "",
        data_centric_view(merged, top=top),
        "",
        region_table_view(merged),
        "",
        code_centric_view(merged, max_depth=4),
    ]

    hot = analysis.hot_variables(top=1)
    var = focus_var or (hot[0].name if hot else None)
    if var and var in merged.vars:
        mv = merged.var(var)
        alloc = " > ".join(f.func for f in mv.alloc_path)
        sections += [
            "",
            f"focus variable: {var} (allocated at: {alloc})",
            "",
            address_centric_view(merged, var, width=width),
        ]
        contexts = analysis.hot_contexts(var)
        if len(contexts) > 1 and contexts[0][1] < 0.98:
            path, share = contexts[0]
            region = next(
                (f.func for f in path if f.func.endswith("._omp")),
                path[-1].func,
            )
            sections += [
                "",
                f"hottest context: {region} ({share:.1%} of {var}'s cost) — "
                "scoped view:",
                address_centric_view(merged, var, path, width=width),
            ]
        sections += ["", first_touch_view(merged, var)]

    return "\n".join(sections)
