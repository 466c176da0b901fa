"""``select_step`` parity: batched selection must equal sequential ``select``.

The engine hands every mechanism one ``select_step`` call per execution
step. Each mechanism's vectorized implementation must produce exactly
what sequential per-chunk ``select`` calls in view order would — same
sample indices, instruction-sample and event counts, costs, and
per-thread carries across steps — so that batching stays a pure
performance knob.
"""

import types

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM, LEVEL_L1, LEVEL_L2
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk, compute_chunk
from repro.runtime.engine import ChunkView
from repro.runtime.heap import HeapAllocator
from repro.sampling import DEAR, IBS, MRK, PEBS, PEBSLL, SoftIBS
from repro.sampling.base import periodic_positions_step
from repro.sampling import instruction
from repro.sampling.instruction import JITTER_BLOCK
from repro.sampling.registry import MECHANISMS
from repro.spec import ANALYSIS_PERIODS
from tests.reference.access import step_views
from tests.reference.sampling import batch_for, cost_cycles, select


def eager_view(machine, tid, chunk, levels, target_domains, latencies):
    """An eager ``ChunkView`` of explicit per-access arrays, run by
    thread ``tid`` on CPU ``tid``."""
    domain = int(machine.topology.domain_of_cpu(tid))
    return ChunkView(
        tid, tid, domain, chunk, levels, target_domains, latencies,
        (SourceLoc("main"), chunk.ip), levels == LEVEL_DRAM,
        target_domains != domain,
    )


def make_steps(machine, n_steps=8, n_threads=5, seed=123, compute=(1, 500)):
    """Random multi-chunk steps as the engine's ``StepViews``: varying
    sizes, empty and compute chunks (``compute``: their
    instruction-count range), threads that skip steps — one chunk per
    thread per step, like the engine guarantees."""
    heap = HeapAllocator(machine)
    rng = np.random.default_rng(seed)
    n_elems = 300_000
    var = heap.malloc(8 * n_elems, "v", (SourceLoc("main"),))
    steps = []
    for s in range(n_steps):
        views = []
        for tid in range(n_threads):
            r = rng.random()
            if r < 0.15:
                continue  # this thread skips the step
            if r < 0.3:
                views.append(eager_view(
                    machine, tid,
                    compute_chunk(int(rng.integers(*compute)), SourceLoc("c")),
                    np.empty(0, np.uint8), np.empty(0, np.int64),
                    np.empty(0, np.float64),
                ))
                continue
            n = int(rng.integers(1, 4000))
            n_ins = n * int(rng.integers(1, 6)) + int(rng.integers(0, 50))
            addrs = var.base + np.sort(rng.integers(0, n_elems, size=n)) * 8
            chunk = AccessChunk(var, addrs, n_ins, SourceLoc(f"k{s}"))
            levels = np.full(n, LEVEL_L1, dtype=np.uint8)
            levels[rng.random(n) < 0.3] = LEVEL_DRAM
            levels[rng.random(n) < 0.1] = LEVEL_L2
            targets = rng.integers(0, machine.n_domains, size=n)
            lat = np.where(
                levels == LEVEL_DRAM, rng.uniform(150.0, 400.0, n), 4.0
            )
            views.append(eager_view(machine, tid, chunk, levels, targets, lat))
        if views:
            steps.append(step_views(views))
    return steps


MECHS = {
    "ibs": lambda: IBS(period=7),
    "pebs": lambda: PEBS(period=7),
    "pebs_noskid": lambda: PEBS(period=7, skid_correction=False),
    "pebs_ll": lambda: PEBSLL(period=3),
    "dear": lambda: DEAR(period=3),
    "mrk": lambda: MRK(period=2),
    "soft_ibs": lambda: SoftIBS(period=5),
}


@pytest.mark.parametrize("name", list(MECHS))
def test_select_step_matches_sequential_select(name):
    """Every mechanism: step-batched selection == per-chunk selection,
    including cross-chunk and cross-step carries and exact costs."""
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    assert_step_parity(MECHS[name], machine, make_steps(machine))


@pytest.mark.parametrize("name", ["ibs", "pebs", "pebs_noskid"])
def test_instruction_select_step_with_long_compute_chunks(name):
    """Pure-compute chunks of >= 10^6 instructions between memory chunks
    draw no positions, yet selection, carries and every thread's jitter
    stream still match sequential ``select``."""
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    steps = make_steps(machine, compute=(1_000_000, 3_000_000))
    assert any(v.chunk.n_instructions >= 1_000_000 for s in steps for v in s)
    seq, bat = assert_step_parity(MECHS[name], machine, steps)
    assert bat.state_digest() == seq.state_digest()


def assert_step_parity(make_mech, machine, steps):
    """Run ``steps`` through step and sequential selection; compare."""
    seq = make_mech()
    bat = make_mech()
    seq.configure(machine)
    bat.configure(machine)
    for views in steps:
        batches = [
            select(seq, v.tid, v.chunk, v.levels, v.target_domains, v.latencies)
            for v in views
        ]
        step = bat.select_step(views)
        seq_costs = [cost_cycles(seq, b, v.chunk) for b, v in zip(batches, views)]
        bat_costs = bat.cost_cycles_step(step, views)
        assert int(step.counts.sum()) == step.n_samples
        for k, (b, v) in enumerate(zip(batches, views)):
            sb = batch_for(step, k)
            np.testing.assert_array_equal(sb.indices, b.indices)
            assert sb.n_sampled_instructions == b.n_sampled_instructions
            assert sb.n_events_total == b.n_events_total
            assert bat_costs[k] == seq_costs[k]
            if b.n_samples:
                assert step.latency_captured == b.latency_captured
        # Carries agree after every step, so parity survives across steps.
        assert bat._carry == seq._carry
    assert bat.total_samples == seq.total_samples
    assert bat.total_events == seq.total_events
    return seq, bat


class ForcedJitterRNG:
    """Deterministic RNG stub returning one fixed jitter value."""

    def __init__(self, value: int) -> None:
        self.value = value

    def integers(self, low, high, size=None):
        return np.full(size, self.value, dtype=np.int64)


def _unit_chunk(heap, name, n):
    var = heap.malloc(8 * n, name, (SourceLoc("main"),))
    # n_instructions == n_accesses: every instruction slot is an access,
    # so sampled positions map 1:1 onto access indices.
    return AccessChunk(var, var.base + np.arange(n) * 8, n, SourceLoc("k"))


class TestJitterDedupe:
    """Clamped jitter must never emit the same access index twice.

    ``positions - jitter`` clamps at 0, so an oversized jitter draw can
    land several early samples on slot 0; without adjacent dedupe each
    collision double-counts one access.
    """

    def test_scalar_select_dedupes_clamped_positions(self):
        machine = presets.generic()
        mech = IBS(period=8)
        mech.configure(machine)
        # Force every per-thread stream far beyond the jitter window.
        mech._rng_for = lambda tid: ForcedJitterRNG(40)
        chunk = _unit_chunk(HeapAllocator(machine), "j", 64)
        levels = np.full(64, LEVEL_L1, dtype=np.uint8)
        batch = select(
            mech, 0, chunk, levels, np.zeros(64, np.int64), np.full(64, 4.0)
        )
        # Grid 7,15,...,63 minus 40 clamps the first five to 0.
        np.testing.assert_array_equal(batch.indices, [0, 7, 15, 23])
        # Instruction-sample accounting still counts the full grid.
        assert batch.n_sampled_instructions == 8

    def test_step_dedupe_respects_chunk_boundaries(self):
        """A clamp-to-0 sample in one chunk must not swallow the next
        chunk's position-0 sample in the step-concatenated pass."""
        machine = presets.generic()
        mech = IBS(period=8)
        mech.configure(machine)
        mech._rng_for = lambda tid: ForcedJitterRNG(40)
        heap = HeapAllocator(machine)
        views = []
        for tid in range(2):
            chunk = _unit_chunk(heap, f"j{tid}", 64)
            views.append(eager_view(
                machine, tid, chunk, np.full(64, LEVEL_L1, dtype=np.uint8),
                np.zeros(64, np.int64), np.full(64, 4.0),
            ))
        step = mech.select_step(step_views(views))
        for k in range(2):
            np.testing.assert_array_equal(
                batch_for(step, k).indices, [0, 7, 15, 23]
            )


@pytest.mark.parametrize("period", [1, 3, 64])
def test_masked_positions_filter_rows_and_keep_counts(period):
    """A row mask drops positions and rows of unmasked chunks only:
    counts and carries still cover every chunk."""
    rng = np.random.default_rng(period)
    n = 60
    carries = rng.integers(0, period, size=n)
    n_events = rng.integers(0, 400, size=n)
    n_events[::7] = 0
    mask = rng.random(n) < 0.5
    pos, rows, counts, new = periodic_positions_step(carries, n_events, period)
    m_pos, m_rows, m_counts, m_new = periodic_positions_step(
        carries, n_events, period, mask
    )
    np.testing.assert_array_equal(m_counts, counts)
    np.testing.assert_array_equal(m_new, new)
    keep = mask[rows]
    np.testing.assert_array_equal(m_pos, pos[keep])
    np.testing.assert_array_equal(m_rows, rows[keep])
    none = periodic_positions_step(carries, n_events, period, mask & False)
    assert none[0].size == none[1].size == 0
    np.testing.assert_array_equal(none[2], counts)


# ---------------------------------------------------------------------- #
# jitter blocks: draws taken ahead equal per-chunk draws
# ---------------------------------------------------------------------- #

#: Every jitter width ``min(period, 64)`` above 1 that the six mechanisms
#: use: their Table 1 periods, the CLI's analysis periods and the
#: periods of the tests above.
WIDTHS = sorted({
    min(p, 64)
    for p in [
        *(cls.DEFAULT_PERIOD for cls in MECHANISMS.values()),
        *ANALYSIS_PERIODS.values(),
        *(make().period for make in MECHS.values()), 8,
    ]
} - {1})


@pytest.mark.parametrize("width", WIDTHS)
def test_block_draw_equals_concatenated_per_call_draws(width):
    """Bounded draws from one PCG64 stream give the same values and the
    same final state however they are split into calls."""
    sizes_rng = np.random.default_rng(width)
    for trial in range(6):
        sizes = sizes_rng.integers(0, 3 * JITTER_BLOCK // 2, size=40)
        sizes[sizes_rng.random(40) < 0.5] %= 7  # many tiny calls too
        seed = np.random.SeedSequence(trial, spawn_key=(width,))
        per_call = np.random.default_rng(seed)
        block = np.random.default_rng(seed)
        got = np.concatenate(
            [per_call.integers(0, width, size=int(n)) for n in sizes]
        )
        want = block.integers(0, width, size=int(sizes.sum()))
        np.testing.assert_array_equal(got, want)
        assert per_call.bit_generator.state == block.bit_generator.state


#: Reserve sizes the gather must be indifferent to: one draw, an odd
#: size, a narrow block and the shipped one.
BLOCKS = [1, 7, 256, JITTER_BLOCK]


@pytest.mark.parametrize("width", WIDTHS)
def test_jitter_gather_matches_per_thread_streams(width):
    """The mechanism's blocked gather returns each thread's stream in
    order; the unread draws plus the stream state are its future."""
    _check_jitter_gather(width, JITTER_BLOCK)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("width", WIDTHS)
def test_jitter_gather_is_indifferent_to_the_reserve(width, block, monkeypatch):
    """The same draws and stream states with any reserve size."""
    monkeypatch.setattr(instruction, "JITTER_BLOCK", block)
    _check_jitter_gather(width, block)


def _check_jitter_gather(width, block):
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    mech = IBS(period=width)
    mech.configure(machine, seed=11)
    ref = {
        tid: np.random.default_rng(np.random.SeedSequence(11, spawn_key=(tid,)))
        for tid in range(6)
    }
    rng = np.random.default_rng(width)
    for _ in range(50):
        tids = np.sort(rng.choice(6, size=int(rng.integers(1, 7)), replace=False))
        need = rng.integers(1, 400, size=tids.size)
        need[rng.random(tids.size) < 0.1] += 2 * block  # past a block
        got = mech._jitter(tids, need)
        want = np.concatenate(
            [ref[t].integers(0, width, size=int(n)) for t, n in zip(tids, need)]
        )
        np.testing.assert_array_equal(got, want)
    # Reading one drawn-ahead value leaves the stream state as it was
    # but changes the future, so it must change the digest.
    tid = np.array([0])
    if mech._jit_cur[0] == mech._jit_end[0]:
        mech._jitter(tid, np.array([1]))
        ref[0].integers(0, width, size=1)
    before = mech.state_digest()
    mech._jitter(tid, np.array([1]))
    ref[0].integers(0, width, size=1)
    assert mech.state_digest() != before
    for tid, stream in ref.items():
        unread = mech._jit_buf[tid, mech._jit_cur[tid] : mech._jit_end[tid]]
        np.testing.assert_array_equal(
            unread, stream.integers(0, width, size=unread.size)
        )
        assert mech._rngs[tid].bit_generator.state == stream.bit_generator.state


def _per_call_jitter(self, tids, need):
    """Per-call reference draw: one ``integers`` call per chunk."""
    return np.concatenate([
        self._rng_for(int(t)).integers(0, self._jitter_width, size=int(n))
        for t, n in zip(tids, need)
    ])


@pytest.mark.parametrize("name", ["ibs", "pebs", "pebs_noskid"])
def test_interleaved_select_and_select_step_match_per_call_reference(name):
    """One mechanism alternating scalar ``select`` and ``select_step``
    steps shares its jitter blocks across both paths, and still selects
    what a fresh per-call reference selects."""
    _check_interleaved_select(name)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", ["ibs", "pebs", "pebs_noskid"])
def test_select_is_indifferent_to_the_reserve(name, block, monkeypatch):
    """The same selections and carries with any reserve size."""
    monkeypatch.setattr(instruction, "JITTER_BLOCK", block)
    _check_interleaved_select(name)


def _check_interleaved_select(name):
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    steps = make_steps(machine, n_steps=40, seed=7)
    mech = MECHS[name]()
    ref = MECHS[name]()
    ref._jitter = types.MethodType(_per_call_jitter, ref)
    mech.configure(machine)
    ref.configure(machine)
    for s, views in enumerate(steps):
        want = [
            select(ref, v.tid, v.chunk, v.levels, v.target_domains, v.latencies)
            for v in views
        ]
        if s % 2:
            step = mech.select_step(views)
            got = [batch_for(step, k) for k in range(len(views))]
        else:
            got = [
                select(mech, v.tid, v.chunk, v.levels, v.target_domains, v.latencies)
                for v in views
            ]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.indices, w.indices)
            assert g.n_sampled_instructions == w.n_sampled_instructions
    assert mech._carry == ref._carry
    assert mech.total_samples == ref.total_samples > 0
