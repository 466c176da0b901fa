"""Live migration: schedules the engine applies mid-run.

A :class:`PolicySchedule` maps region-iteration boundaries to
:class:`MigrationStep` actions; the engine hands itself to
:meth:`PolicySchedule.apply` at the top of every region iteration of a
run that has a schedule, and logs each outcome as an
:class:`AppliedAction`. :func:`plan_migrations` turns the advisor's
recommendations into such steps (the closed loop of
:mod:`repro.optim.autotune`). Only runs with a schedule load this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.analysis.advisor import Action, Advice
from repro.errors import AllocationError
from repro.machine.pagetable import PlacementPolicy


@dataclass(frozen=True)
class MigrationStep:
    """One live page-migration action the engine can apply mid-run.

    The data form of a ``PageTable.migrate_segment`` call: rebind the
    named variable's segment under ``policy`` (with ``domains`` where the
    policy takes them). ``FIRST_TOUCH`` unbinds the pages so the worker
    threads re-first-touch them where they next access them — the live
    equivalent of parallelizing the initialization loop.
    """

    var_name: str
    policy: PlacementPolicy
    domains: tuple[int, ...] | None = None

    def domain_list(self) -> list[int] | None:
        """Domains as the list form ``migrate_segment`` expects."""
        return list(self.domains) if self.domains is not None else None

    def describe(self) -> str:
        dom = f" over {list(self.domains)}" if self.domains else ""
        return f"{self.var_name} -> {self.policy.value}{dom}"


class PolicySchedule:
    """Migration steps keyed to deterministic points in the region loop.

    A mapping ``(region_idx, iteration) -> [MigrationStep]`` that the
    execution engine applies (:meth:`apply`) at the top of every region
    iteration, *before* any thread enters the region. Because the
    schedule is fixed ahead of the run, every replica of the page table
    in a sharded run applies the identical mutations at the identical
    boundary — epochs stay in lockstep and memoized classification is
    invalidated consistently everywhere.
    """

    def __init__(self) -> None:
        self._steps: dict[tuple[int, int], list[MigrationStep]] = {}

    def add(self, region_idx: int, iteration: int, step: MigrationStep) -> None:
        """Schedule ``step`` before iteration ``iteration`` of region ``region_idx``."""
        self._steps.setdefault((region_idx, iteration), []).append(step)

    def steps_for(self, region_idx: int, iteration: int) -> list[MigrationStep]:
        """Steps to apply at this boundary (empty when none scheduled)."""
        return self._steps.get((region_idx, iteration), [])

    def boundaries(self) -> list[tuple[int, int]]:
        """All scheduled ``(region_idx, iteration)`` boundaries, sorted."""
        return sorted(self._steps)

    def __len__(self) -> int:
        return sum(len(steps) for steps in self._steps.values())

    def __bool__(self) -> bool:
        return bool(self._steps)

    def apply(self, engine, region_idx: int, region, iteration: int) -> bool:
        """Apply this boundary's migrations to ``engine``'s page table.

        Runs before any thread enters the region (and before the memo
        reads the page-table epoch), so every worker in a sharded run —
        each holding a replica of the page table — performs the same
        mutations in the same order and arrives at the same epoch. A
        failed migration is atomic (see ``PageTable.migrate_segment``):
        it is logged in ``engine.applied_actions`` with ``ok=False`` and
        the run continues unchanged. Returns whether any action was
        scheduled here (a phase break).
        """
        steps = self.steps_for(region_idx, iteration)
        if not steps:
            return False
        tr = obs.TRACER
        page_table = engine.machine.page_table
        for step in steps:
            domains = step.domain_list()
            var = engine.heap.variables.get(step.var_name)
            error = None
            if var is None:
                error = f"unknown variable {step.var_name!r}"
            else:
                with tr.span(
                    "engine.migrate", "optim",
                    var=step.var_name, policy=step.policy.value,
                    region=region.name, iteration=iteration,
                ):
                    try:
                        page_table.migrate_segment(
                            page_table.segment_of_addr(var.base),
                            step.policy, domains,
                        )
                    except AllocationError as exc:
                        error = str(exc)
            engine.applied_actions.append(AppliedAction(
                region_idx, iteration, step.var_name, step.policy.value,
                tuple(domains) if domains else None, error is None,
                page_table.epoch, error=error or "",
            ))
            tr.count(
                "optim.migrations_applied" if error is None
                else "optim.migrations_failed"
            )
        return True

    def describe(self) -> str:
        """Human-readable schedule listing."""
        if not self._steps:
            return "(empty schedule)"
        parts = []
        for (region_idx, iteration) in self.boundaries():
            for step in self._steps[(region_idx, iteration)]:
                parts.append(
                    f"@region[{region_idx}] iter {iteration}: {step.describe()}"
                )
        return "; ".join(parts)


@dataclass(frozen=True)
class AppliedAction:
    """Record of one scheduled migration the engine applied (or refused).

    ``ok`` is False when the migration aborted (e.g. an exhausted
    domain): ``migrate_segment`` is atomic, so the run simply continues
    on the old placement, and ``error`` carries the reason.
    """

    region_idx: int
    iteration: int
    var_name: str
    policy: str
    domains: tuple[int, ...] | None
    ok: bool
    epoch: int
    error: str = ""


def plan_migrations(advice: Advice, n_domains: int) -> list[MigrationStep]:
    """Convert advice into live migration steps for a running program.

    The live counterpart of :func:`~repro.optim.transforms.apply_advice`:
    instead of re-running the workload with changed allocation code,
    each recommendation maps to a ``migrate_segment`` action the engine
    can apply at a region boundary mid-run:

    * ``BLOCKWISE`` — rebind block-wise over the advisor's derived
      domain order (the thread-to-block affinity measured in the
      profile).
    * ``INTERLEAVE`` — rebind round-robin over all domains.
    * ``PARALLEL_INIT`` / ``RESTRUCTURE`` — unbind to ``FIRST_TOUCH``:
      the pages rebind to whichever thread touches them next, which is
      exactly the co-location a parallelized init (or regrouped layout)
      achieves, applied live.

    Returns an empty plan when optimization is not worthwhile.
    """
    steps: list[MigrationStep] = []
    if not advice.worth_optimizing:
        return steps
    for rec in advice.recommendations:
        if rec.action is Action.BLOCKWISE:
            domains = (
                tuple(rec.blockwise_domains)
                if rec.blockwise_domains
                else tuple(range(n_domains))
            )
            steps.append(
                MigrationStep(rec.var_name, PlacementPolicy.BLOCKWISE, domains)
            )
        elif rec.action is Action.INTERLEAVE:
            steps.append(
                MigrationStep(
                    rec.var_name,
                    PlacementPolicy.INTERLEAVE,
                    tuple(range(n_domains)),
                )
            )
        elif rec.action in (Action.PARALLEL_INIT, Action.RESTRUCTURE):
            steps.append(
                MigrationStep(rec.var_name, PlacementPolicy.FIRST_TOUCH)
            )
        # Action.NONE: leave the variable alone.
    return steps
