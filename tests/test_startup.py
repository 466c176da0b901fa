"""Start-up hygiene: a run loads only what it executes; the API is whole.

Packages re-export lazily (``repro._lazy``), so the modules a process
holds depend on what it looked up. The import checks run in fresh
interpreters, because this test process has long since imported
everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.sampling import MECHANISMS, SamplingMechanism

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PIPELINE = ROOT / "e2ebench" / "pipeline.py"

#: Packages whose ``__all__`` is derived from a lazy export table.
PACKAGES = (
    "repro", "repro.analysis", "repro.machine", "repro.obs", "repro.optim",
    "repro.profiler", "repro.registry", "repro.runtime", "repro.sampling",
    "repro.workloads",
)

#: Cold subsystems that only the code turning them on may import.
COLD = (
    "repro.obs.export", "repro.obs.timeseries", "repro.obs.log", "logging",
    "repro.analysis.diff", "repro.profiler.timeline", "repro.parallel",
    "repro.optim.autotune", "repro.bench", "numpy.ma",
    "repro.optim.schedule", "repro.obs.stitch", "repro.obs.counting",
)

#: Read-back code: archive and series readers, the registry's read side.
READERS = ("repro.analysis.postmortem", "repro.registry.read")

#: The run stack that ``--help`` and ``runs`` must not import.
RUN_STACK = (
    "repro.runtime.engine", "repro.profiler.profiler", "repro.analysis.merge",
    "repro.analysis.analyzer", "repro.analysis.views", "repro.workloads.base",
)

MECHANISM_MODULES = {
    "IBS": "repro.sampling.ibs", "MRK": "repro.sampling.mrk",
    "PEBS": "repro.sampling.pebs", "DEAR": "repro.sampling.dear",
    "PEBS-LL": "repro.sampling.pebs_ll", "Soft-IBS": "repro.sampling.soft_ibs",
}
WORKLOAD_MODULES = (
    "repro.workloads.lulesh", "repro.workloads.amg",
    "repro.workloads.blackscholes", "repro.workloads.umt",
    "repro.workloads.synthetic",
)


def _modules_after(code: str, tmp_path: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    out = tmp_path / "modules.json"
    script = (
        "import atexit, json, sys\n"
        "atexit.register(lambda: json.dump(sorted(sys.modules),"
        f" open({str(out)!r}, 'w')))\n"
        f"{code}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text()))


def _loaded(modules: set[str], name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


def test_pipeline_run_loads_only_what_it_executes(tmp_path):
    """The e2ebench pipeline's imports plus a small full lulesh run."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = [{str(PIPELINE)!r}, 'lulesh', '--optimize',"
        " '--scale', '0.05', '--result', 'result.json']\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    runpy.run_path({str(PIPELINE)!r}, run_name='__main__')\n"
    )
    modules = _modules_after(code, tmp_path)
    assert (tmp_path / "result.json").is_file()
    assert {"repro.sampling.ibs", "repro.workloads.lulesh",
            "repro.runtime.engine"} <= modules
    unnamed = [m for k, m in MECHANISM_MODULES.items() if k != "IBS"]
    unnamed += [m for m in WORKLOAD_MODULES if m != "repro.workloads.lulesh"]
    # Recording the run writes the registry; nothing reads it back.
    stray = [m for m in (*COLD, *READERS, *unnamed) if _loaded(modules, m)]
    assert stray == []
    # Extrapolation is off: the phase layer stays unloaded. (``hashlib``
    # loads anyway: ``numpy.random`` imports it.)
    assert "repro.runtime.phase" not in modules


def test_mrk_run_loads_no_instruction_sampling(tmp_path):
    modules = _modules_after(
        "from repro.__main__ import main\n"
        "main(['umt', '--scale', '0.05', '--quiet', '--runs-dir', 'runs'])\n",
        tmp_path,
    )
    assert {"repro.sampling.mrk", "repro.registry.store"} <= modules
    stray = [m for m in ("repro.sampling.instruction", "repro.sampling.ibs",
                         *READERS) if m in modules]
    assert stray == []


def test_oracles_are_not_in_production():
    """The per-chunk references live in ``tests/reference/``."""
    import repro.sampling.base as base
    from repro.machine.cache import CacheHierarchy
    from repro.machine.latency import LatencyModel
    from repro.machine.machine import Machine
    from repro.runtime.memo import StepViews
    from repro.sampling import MRK

    gone = {
        Machine: ("classify_accesses", "access_latency",
                  "dram_request_counts"),
        CacheHierarchy: ("classify", "chunk_fetch_products", "_fetch_level",
                         "state_digest"),
        LatencyModel: ("access_latency",),
        SamplingMechanism: ("select", "cost_cycles", "_finish"),
        MRK: ("select", "_cap"),
        StepViews: ("from_views",),
    }
    left = [f"{cls.__name__}.{name}" for cls, names in gone.items()
            for name in names if hasattr(cls, name)]
    assert left == []
    assert not any(hasattr(cls, "select") for cls in MECHANISMS.values())
    assert not hasattr(base, "SampleBatch")
    assert not hasattr(base, "periodic_positions")


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["lulesh", "--binding", "nowhere"],
    ["runs", "--runs-dir", "runs", "list"],
])
def test_cli_without_a_run_loads_no_run_stack(tmp_path, argv):
    code = (
        "from repro.__main__ import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    modules = _modules_after(code, tmp_path)
    assert "repro.__main__" in modules
    stray = [m for m in (*COLD, *RUN_STACK, *MECHANISM_MODULES.values(),
                         *WORKLOAD_MODULES) if _loaded(modules, m)]
    assert stray == []
    if argv[0] != "runs":
        assert "numpy" not in modules


def test_mechanism_lookup_imports_only_that_mechanism(tmp_path):
    modules = _modules_after(
        "from repro.sampling import MECHANISMS\n"
        "assert MECHANISMS['DEAR'].__name__ == 'DEAR'\n",
        tmp_path,
    )
    assert [m for m in MECHANISM_MODULES.values() if m in modules] == [
        "repro.sampling.dear"
    ]


def test_mechanisms_table_is_read_only_with_six_entries():
    assert list(MECHANISMS) == [
        "IBS", "MRK", "PEBS", "DEAR", "PEBS-LL", "Soft-IBS",
    ]
    assert len(MECHANISMS) == 6 and "MRK" in MECHANISMS
    assert all(issubclass(cls, SamplingMechanism)
               for cls in MECHANISMS.values())
    with pytest.raises(TypeError):
        MECHANISMS["X"] = SamplingMechanism
    with pytest.raises(KeyError):
        MECHANISMS["X"]


def _defining_modules() -> list[types.ModuleType]:
    """Every non-package module under ``repro``."""
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.ispkg and info.name != "repro.__main__":
            out.append(importlib.import_module(info.name))
    return out


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_module_object(package):
    pkg = importlib.import_module(package)
    assert len(pkg.__all__) == len(set(pkg.__all__))
    listed = set(dir(pkg))
    modules = _defining_modules()
    for name in pkg.__all__:
        assert name in listed, f"{package}.{name} missing from dir()"
        value = getattr(pkg, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[value.__name__]
            continue
        if isinstance(value, (type, types.FunctionType)):
            home = sys.modules[value.__module__]
            assert getattr(home, value.__qualname__) is value
            continue
        holders = [m.__name__ for m in modules
                   if m.__dict__.get(name, None) is value]
        assert holders or (package, name) == ("repro.obs", "TRACER"), (
            f"{package}.{name} is no module's object"
        )


def test_unknown_names_raise_attribute_error():
    for package in PACKAGES:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), "no_such_name")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= namespace.keys()
    assert namespace["ExecutionEngine"] is repro.runtime.ExecutionEngine
