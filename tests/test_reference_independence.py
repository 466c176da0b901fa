"""The references in ``tests/reference/`` stay independent of the kernels.

A reference is what a production kernel is checked against, so it may
share the program's data types and state, never the kernels under test:
a reference that called one would agree with it by construction. This
check parses every reference module and fails if one imports or calls
a production kernel that has a reference.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Production kernels that a reference checks, by the name they are
#: imported or called by.
KERNELS = frozenset({
    # cache classification: the step-wide reuse lookup and fetch products
    "fetch_levels", "fetch_products", "array_fetch_products",
    "fetch_page_runs", "first_occurrence_mask",
    # DRAM latency
    "dram_fetch_latencies", "_demand_latency",
    # the engine's step pipeline
    "_build_pure", "_build_variant", "_classify_phase", "_latency_phase",
    "_monitor_phase", "gather_samples", "SampleGather",
    # step-wide sample selection and its cost
    "select_step", "periodic_positions_step", "_instruction_samples_step",
    "_step_events", "_view_events", "_event_mask", "_cap_step",
    "_linspace_picks", "cost_cycles_step",
    # the profiler's deferred attribution
    "_attribute_step", "_flush",
})


def _modules() -> list[Path]:
    return sorted(p for p in REFERENCE_DIR.glob("*.py") if p.name != "__init__.py")


def kernel_uses(source: str) -> list[str]:
    """``"line: name"`` for every kernel ``source`` imports or calls.

    A name the module defines itself is its own function, not a call
    into the program.
    """
    tree = ast.parse(source)
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                names = [func.attr]
            elif isinstance(func, ast.Name) and func.id not in defined:
                names = [func.id]
            else:
                continue
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in names if n in KERNELS]
    return found


def test_reference_modules_exist():
    names = {p.stem for p in _modules()}
    assert {"access", "immediate_profiler", "reuse", "sampling"} <= names


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_reference_calls_no_kernel(path):
    assert kernel_uses(path.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from repro.machine.cache import fetch_levels\n", ["1: fetch_levels"]),
    ("x = cache.fetch_levels(a, b, c)\n", ["1: fetch_levels"]),
    ("mech.select_step(views)\n", ["1: select_step"]),
    ("gather_samples(v, k, n, i, True)\n", ["1: gather_samples"]),
    ("def fetch_products(a):\n    pass\nfetch_products(1)\n", []),
    ("mech._jitter(tids, need)\n", []),
])
def test_the_check_sees_imports_and_calls(source, found):
    assert kernel_uses(source) == found
