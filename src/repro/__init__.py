"""numaprof — a simulation-backed reproduction of HPCToolkit-NUMA.

Reproduces Liu & Mellor-Crummey, *A Tool to Analyze the Performance of
Multithreaded Programs on NUMA Architectures* (PPoPP 2014): a profiler
that pinpoints, quantifies, and analyzes NUMA bottlenecks in
multithreaded programs via address sampling, three-way metric
attribution (code-, data-, and address-centric), derived metrics
(lpi_NUMA, M_l/M_r), and page-protection-based first-touch detection —
together with the full simulated substrate (NUMA machines, a
multithreaded execution engine, six sampling mechanisms, and the four
benchmark workloads of the paper's evaluation).

Quick start::

    from repro import (
        presets, ExecutionEngine, NumaProfiler, IBS,
        merge_profiles, NumaAnalysis, advise, apply_advice,
    )
    from repro.workloads import Lulesh

    machine = presets.magny_cours()
    profiler = NumaProfiler(IBS(period=4096))
    engine = ExecutionEngine(machine, Lulesh(), n_threads=48,
                             monitor=profiler)
    result = engine.run()

    merged = merge_profiles(profiler.archive)
    analysis = NumaAnalysis(merged)
    print(analysis.program_lpi())          # the 0.1 rule of thumb
    advice = advise(analysis, thread_domains={
        t.tid: t.domain for t in engine.threads})
    tuning = apply_advice(advice, machine.n_domains)
    # re-run Lulesh(tuning) and compare result.wall_seconds
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts one worker thread per extra CPU while numpy
# loads, and nothing here calls BLAS (``tests/test_startup.py`` keeps
# it so). Ask for one thread before anything can import numpy, unless
# numpy is already loaded or the user chose a count: OpenBLAS reads
# these variables, in this order, when it loads.
if "numpy" not in _sys.modules and not any(
    var in _os.environ
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
del _os, _sys

from repro._lazy import lazy_exports  # noqa: E402

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "._version": "__version__",
    ".": "errors obs units",
    ".machine": """CacheConfig CacheHierarchy ContentionModel LatencyModel
        Machine NumaTopology PageTable PlacementPolicy presets""",
    ".runtime": """AccessChunk BindingPolicy CallStack ExecutionEngine
        HeapAllocator Monitor Program ProgramContext Region RegionKind
        RunResult SimThread SourceLoc Variable VariableKind bind_threads""",
    ".sampling": """DEAR IBS MECHANISMS MRK PEBS PEBSLL SamplingMechanism
        SoftIBS create_mechanism table1_config""",
    ".profiler": """CCT CCTNode CompositeMonitor MetricNames NumaProfiler
        ProfileArchive ThreadProfile TimelineRecorder lpi_numa
        remote_fraction""",
    ".analysis": """AccessPattern Action MergedProfile NumaAnalysis
        ProfileDiff Recommendation address_centric_series
        address_centric_view advise classify_ranges code_centric_view
        data_centric_view diff_profiles first_touch_view load_archive
        merge_profiles save_archive traffic_matrix_view""",
    ".optim": """NumaTuning PlacementSpec apply_advice blockwise_all
        interleave_all""",
})
