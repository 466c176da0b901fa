"""Start-up hygiene: a run loads only what it executes; the API is whole.

Packages re-export lazily (``repro._lazy``), so the modules a process
holds depend on what it looked up. The import checks run in fresh
interpreters, because this test process has long since imported
everything.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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
    "repro.optim.schedule", "repro.obs.stitch",
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
    # Extrapolation is off: the phase layer stays unloaded.
    assert "repro.runtime.phase" not in modules
    # IBS jitter draws from ``numpy.random``, imported past its
    # ``secrets`` -> ``hmac`` -> ``hashlib`` chain: no OpenSSL.
    assert "numpy.random" in modules
    assert not {"_hashlib", "hashlib", "hmac"} & modules


#: The phase-extrapolation layer and its adapter modules.
PHASE_MODULES = ("repro.runtime.phase", "repro.profiler.phase")


def test_run_without_extrapolation_loads_no_phase_protocol(tmp_path):
    """Phase extrapolation is a plug-in: a lulesh pipeline run without
    ``--extrapolate`` loads neither the phase layer nor an adapter, and
    the classes it adapts define none of its protocol."""
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
    assert "repro.profiler.profiler" in modules
    assert [m for m in PHASE_MODULES if m in modules] == []
    from repro.machine.cache import CacheHierarchy
    from repro.profiler import NumaProfiler
    from repro.runtime.engine import Monitor

    protocol = [f"{cls.__name__}.{name}"
                for cls in (Monitor, NumaProfiler, CacheHierarchy)
                for name in dir(cls) if name.startswith("phase_")]
    assert protocol == []


def test_extrapolated_run_loads_the_phase_adapters(tmp_path):
    modules = _modules_after(
        "from repro.__main__ import main\n"
        "main(['lulesh', '--extrapolate', '--scale', '0.05', '--no-save',"
        " '--quiet'])\n",
        tmp_path,
    )
    assert set(PHASE_MODULES) <= modules


def test_amg_run_loads_no_openssl(tmp_path):
    """amg draws its block permutation and per-thread streams from
    ``numpy.random`` as well as IBS jitter."""
    modules = _modules_after(
        "from repro.__main__ import main\n"
        "main(['amg', '--scale', '0.05', '--no-save', '--quiet'])\n",
        tmp_path,
    )
    assert {"numpy.random", "repro.workloads.amg"} <= modules
    assert not {"_hashlib", "hashlib", "hmac"} & modules


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
    # The run id is a SHA-256 from CPython's builtin module: no OpenSSL.
    assert (tmp_path / "runs").is_dir()
    assert "_hashlib" not in modules and "hashlib" not in modules


def test_extrapolated_mrk_run_loads_no_openssl(tmp_path):
    """The phase layer's BLAKE2b digests come from the builtin module
    too, so neither hash site of an MRK run maps ``libcrypto``."""
    modules = _modules_after(
        "from repro.__main__ import main\n"
        "main(['umt', '--extrapolate', '--scale', '0.05', '--quiet',"
        " '--runs-dir', 'runs'])\n",
        tmp_path,
    )
    assert {"repro.sampling.mrk", "repro.registry.store",
            "repro.runtime.phase"} <= modules
    assert any((tmp_path / "runs").iterdir())
    assert "_hashlib" not in modules and "hashlib" not in modules


def test_inventory_reports_whether_openssl_is_loaded():
    spec = importlib.util.spec_from_file_location(
        "startup_inventory", ROOT / "scripts" / "startup_inventory.py"
    )
    inv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inv)
    assert inv.inventory(set())["totals"]["openssl"] is (
        "_hashlib" in sys.modules
    )


def test_oracles_are_not_in_production():
    """The per-chunk references live in ``tests/reference/``."""
    import repro.runtime.engine as engine
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
    assert not hasattr(engine, "ChunkView")


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


#: The variables OpenBLAS reads for its thread count, in that order.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _thread_state(code: str, tmp_path: Path, **preset: str) -> dict:
    """The thread variables and OS thread count of a fresh interpreter
    after it runs ``code``, started with none of the thread variables
    but ``preset``."""
    script = (
        f"{code}\n"
        "import json, os, sys\n"
        "threads = None\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/status') as f:\n"
        "        threads = next(int(line.split()[1]) for line in f\n"
        "                       if line.startswith('Threads:'))\n"
        f"env = {{k: os.environ[k] for k in {THREAD_VARS!r}"
        " if k in os.environ}\n"
        "print(json.dumps({'env': env, 'threads': threads}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_repro_keeps_numpy_to_one_thread(tmp_path):
    state = _thread_state("import repro\nimport numpy", tmp_path)
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "1"}
    if not sys.platform.startswith("linux"):
        pytest.skip("thread count is read from /proc/self/status")
    assert state["threads"] == 1


@pytest.mark.parametrize("preset", [
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "3"},
])
def test_import_repro_keeps_a_preset_thread_count(tmp_path, preset):
    state = _thread_state("import repro", tmp_path, **preset)
    assert state["env"] == preset


def test_import_repro_after_numpy_sets_nothing(tmp_path):
    state = _thread_state("import numpy\nimport repro", tmp_path)
    assert state["env"] == {}


#: numpy routines that call BLAS; ``@`` and ``linalg`` are matched apart.
BLAS_ROUTINES = frozenset({
    "dot", "vdot", "inner", "matmul", "tensordot", "einsum", "cov",
    "corrcoef", "polyfit", "lstsq",
})


def blas_uses(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for each BLAS-backed numpy use in ``source``:
    a call of a routine in :data:`BLAS_ROUTINES` (as ``np.dot(...)``,
    ``a.dot(...)`` or an imported ``dot(...)``), the ``@`` operator, and
    any reference to or import of ``linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in BLAS_ROUTINES:
                what = f"{name}()"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                what = "@"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            what = "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            if any("linalg" in n.split(".") for n in names):
                what = "linalg"
        if what is not None:
            found.append((node.lineno, what))
    return sorted(found)


def test_blas_scan_finds_every_routine():
    source = "\n".join([
        "import numpy as np", "from numpy.linalg import norm",
        "from numpy import linalg", "np.dot(a, b)", "a.dot(b)", "vdot(a, b)",
        "np.inner(a, b)", "np.matmul(a, b)", "a @ b", "a @= b",
        "np.tensordot(a, b)", "np.einsum('i,i', a, b)", "np.linalg.norm(a)",
        "np.cov(a)", "np.corrcoef(a)", "np.polyfit(x, y, 1)",
        "np.linalg.lstsq(a, b)", "np.sum(a * b)",
    ])
    lines = {line for line, _ in blas_uses(source)}
    assert lines == set(range(2, 18))


def test_simulator_calls_no_blas():
    """``repro/__init__`` caps OpenBLAS at one thread because nothing
    here calls BLAS; a call that does must revisit that default."""
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for line, what in blas_uses(path.read_text())
    ]
    assert found == []
