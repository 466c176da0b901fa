"""Program/region abstractions and the program context."""

import types

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.machine import presets
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import HeapAllocator
from repro.runtime.program import ProgramContext, Region, RegionKind
from repro.runtime.thread import bind_threads


@pytest.fixture
def ctx():
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    heap = HeapAllocator(machine)
    threads = bind_threads(machine.topology, 8)
    return ProgramContext(machine, heap, threads, seed=7)


class TestRegion:
    def test_repeat_must_be_positive(self):
        with pytest.raises(ProgramError):
            Region("r", RegionKind.PARALLEL, lambda c, t: [], SourceLoc("r"), repeat=0)


class TestContext:
    def test_counts(self, ctx):
        assert ctx.n_threads == 8
        assert ctx.n_domains == 4

    def test_var_lookup(self, ctx):
        ctx.heap.malloc(100, "a", (SourceLoc("main"),))
        assert ctx.var("a").name == "a"

    def test_missing_var_raises(self, ctx):
        with pytest.raises(ProgramError):
            ctx.var("ghost")

    def test_rng_deterministic_per_thread(self, ctx):
        a = ctx.rng(3).integers(0, 1000, 10)
        b = ctx.rng(3).integers(0, 1000, 10)
        c = ctx.rng(4).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rng_salt_differs(self, ctx):
        a = ctx.rng(0, salt=1).integers(0, 1000, 10)
        b = ctx.rng(0, salt=2).integers(0, 1000, 10)
        assert not np.array_equal(a, b)


class TestPartition:
    def test_covers_everything_disjointly(self, ctx):
        bounds = [ctx.partition(1000, t) for t in range(8)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1000
        for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
            assert hi == lo

    def test_balanced_sizes(self, ctx):
        sizes = [hi - lo for lo, hi in (ctx.partition(1000, t) for t in range(8))]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_threads(self, ctx):
        sizes = [hi - lo for lo, hi in (ctx.partition(3, t) for t in range(8))]
        assert sum(sizes) == 3
        assert all(s >= 0 for s in sizes)

    def test_bounds_equal_truncated_linspace(self):
        """The per-thread bounds are the ``np.linspace`` decomposition's,
        computed without building it."""
        rng = np.random.default_rng(5)
        items = list(range(150)) + rng.integers(0, 10**12, 40).tolist()
        for n_threads in [*range(1, 41), 129, 256, 1000]:
            stub = types.SimpleNamespace(n_threads=n_threads)
            for n_items in items:
                bounds = np.linspace(0, n_items, n_threads + 1).astype(np.int64)
                got = [ProgramContext.partition(stub, n_items, t)
                       for t in range(n_threads)]
                assert got == list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
