"""From advisor recommendations to workload tuning.

``apply_advice`` is the mechanical counterpart of the paper's manual
optimization step: given the advisor's per-variable recommendations, it
produces the :class:`~repro.optim.policies.NumaTuning` a workload needs
to re-run in optimized form — block-wise placements with the advisor's
derived domain order, interleaved allocations, parallelized first-touch
initialization, and layout regrouping.
"""

from __future__ import annotations

from repro.analysis.advisor import Action, Advice
from repro.machine.pagetable import PlacementPolicy
from repro.optim.policies import NumaTuning, PlacementSpec


def apply_advice(advice: Advice, n_domains: int) -> NumaTuning:
    """Convert advice into a workload tuning configuration.

    Returns an empty tuning (baseline) when the advisor concluded that
    optimization is not worthwhile — applying no changes is the correct
    "fix" for a program like Blackscholes with lpi below the threshold.
    """
    tuning = NumaTuning()
    if not advice.worth_optimizing:
        return tuning
    for rec in advice.recommendations:
        if rec.action is Action.BLOCKWISE:
            domains = (
                tuple(rec.blockwise_domains)
                if rec.blockwise_domains
                else tuple(range(n_domains))
            )
            tuning.placement[rec.var_name] = PlacementSpec(
                PlacementPolicy.BLOCKWISE, domains
            )
            # The paper implements block-wise distribution by adjusting
            # the first-touch code, which also parallelizes the init loop.
            tuning.parallel_init.add(rec.var_name)
        elif rec.action is Action.INTERLEAVE:
            tuning.placement[rec.var_name] = PlacementSpec(
                PlacementPolicy.INTERLEAVE, tuple(range(n_domains))
            )
        elif rec.action is Action.PARALLEL_INIT:
            tuning.parallel_init.add(rec.var_name)
        elif rec.action is Action.RESTRUCTURE:
            tuning.regroup.add(rec.var_name)
            tuning.parallel_init.add(rec.var_name)
        # Action.NONE: leave the variable alone.
    return tuning
