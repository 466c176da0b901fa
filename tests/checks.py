"""Internal-consistency checks of run outputs, for tests and CI smoke jobs.

Nothing in ``src/`` calls these; they check what the program reports.
"""

from __future__ import annotations

import numpy as np


def validate_phase_report(report: dict) -> list[str]:
    """Internal-consistency check of a phase report dict.

    Returns a list of problems (empty = valid). Used by the CI
    extrapolate-smoke job and the parity tests.
    """
    problems: list[str] = []

    def check(entry: dict, where: str) -> None:
        total = entry.get("iterations", 0)
        sim = entry.get("simulated", 0)
        exact = entry.get("extrapolated_exact", 0)
        eps = entry.get("extrapolated_eps", 0)
        if min(total, sim, exact, eps) < 0:
            problems.append(f"{where}: negative iteration counts")
        if sim + exact + eps != total:
            problems.append(
                f"{where}: simulated+extrapolated != iterations "
                f"({sim}+{exact}+{eps} != {total})"
            )
        cov = entry.get("coverage_pct", 0.0)
        expect = 100.0 * (exact + eps) / total if total else 0.0
        if abs(cov - expect) > 1e-9:
            problems.append(f"{where}: coverage_pct {cov} != {expect}")
        e = entry.get("epsilon", 0.0)
        if not (e >= 0.0) or not np.isfinite(e):
            problems.append(f"{where}: epsilon {e} not finite/non-negative")
        if eps == 0 and exact > 0 and e != 0.0 and where != "run":
            problems.append(
                f"{where}: exact-only extrapolation must declare epsilon 0"
            )
        for key in ("disarms", "breaks"):
            if entry.get(key, 0) < 0:
                problems.append(f"{where}: negative {key}")

    check(report, "run")
    for name, entry in report.get("regions", {}).items():
        check(entry, f"region {name!r}")
    run_eps = report.get("epsilon", 0.0)
    region_eps = max(
        (e.get("epsilon", 0.0) for e in report.get("regions", {}).values()),
        default=0.0,
    )
    if abs(run_eps - region_eps) > 1e-12:
        problems.append(f"run epsilon {run_eps} != max region {region_eps}")
    run_v = report.get("disarms", 0)
    region_v = sum(
        e.get("disarms", 0) for e in report.get("regions", {}).values()
    )
    if report.get("regions") and run_v != region_v:
        problems.append(f"run disarms {run_v} != sum of regions {region_v}")
    return problems
