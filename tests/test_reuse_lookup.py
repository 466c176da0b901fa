"""The per-step reuse lookup against the dict-based scalar reference.

``CacheHierarchy.fetch_levels`` classifies a whole step's memory chunks
with array operations over interned reuse-key slots. It must equal the
scalar lookup of ``tests/reference/reuse.py`` run chunk by chunk in step
order — levels, state digest and the phase-extrapolation snapshot,
delta and fast-forward — over random multi-step streams on several CPUs
and segments. Every chunk of a step runs on a distinct CPU, as the
engine guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.cache import (
    LEVEL_DRAM,
    LEVEL_L2,
    LEVEL_L3,
    CacheConfig,
    CacheHierarchy,
)

from tests.reference.reuse import DictReuseCache

CONFIG = CacheConfig(l1_bytes=4096, l2_bytes=16 * 1024, l3_bytes=64 * 1024)
N_CPUS = 6


def random_steps(seed: int, n_steps: int = 60):
    """Steps of ``(cpus, seg_ids, first_addrs, footprints)``: distinct
    CPUs per step, revisiting a small pool of (segment, block) keys so
    every level is reached."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n_steps):
        cpus = rng.choice(N_CPUS, size=int(rng.integers(1, N_CPUS + 1)),
                          replace=False)
        n = cpus.size
        seg_ids = rng.integers(1, 4, size=n)
        blocks = rng.integers(0, 3, size=n)
        firsts = blocks * CONFIG.l3_bytes + rng.integers(0, CONFIG.l3_bytes, n)
        fps = 64 * rng.integers(1, 400, size=n)
        steps.append((cpus, seg_ids, firsts, fps))
    return steps


def run_step(cache, ref, step):
    cpus, seg_ids, firsts, fps = step
    slots = cache.slots(cpus.tolist(), seg_ids.tolist(), firsts.tolist())
    got = cache.fetch_levels(cpus, slots, fps)
    want = [
        ref.fetch_level(int(c), int(s), int(a), int(f))
        for c, s, a, f in zip(cpus, seg_ids, firsts, fps)
    ]
    np.testing.assert_array_equal(got, want)
    return got


def dict_state(cache: CacheHierarchy):
    """The array state in the reference's dict form."""
    pos = {int(c): int(cache._pos[c]) for c in np.flatnonzero(cache._pos)}
    keys = list(cache._slot_of)
    last = {keys[s]: int(cache._last[s]) for s in np.flatnonzero(cache._last >= 0)}
    return pos, last


def assert_same_state(cache, ref):
    assert dict_state(cache) == (ref.stream_pos, ref.last_visit)
    assert cache.state_digest() == ref.state_digest()


@pytest.mark.parametrize("seed", range(6))
def test_step_lookup_matches_scalar_reference(seed):
    cache, ref = CacheHierarchy(CONFIG), DictReuseCache(CONFIG)
    levels = []
    for step in random_steps(seed):
        levels.extend(run_step(cache, ref, step).tolist())
        assert_same_state(cache, ref)
    assert {LEVEL_L2, LEVEL_L3, LEVEL_DRAM} <= set(levels)


@pytest.mark.parametrize("seed", range(4))
def test_phase_delta_and_advance_match_reference(seed):
    """A steady iteration (the same steps again) recorded and
    fast-forwarded by both implementations leaves equal states that
    classify the rest of the stream equally."""
    cache, ref = CacheHierarchy(CONFIG), DictReuseCache(CONFIG)
    warm = random_steps(seed, 20)
    iteration = random_steps(seed + 100, 8)
    for step in warm + iteration:
        run_step(cache, ref, step)
    snap, ref_snap = cache.phase_snapshot(), ref.phase_snapshot()
    for step in iteration:
        run_step(cache, ref, step)
    delta, ref_delta = cache.phase_delta(snap), ref.phase_delta(ref_snap)
    keys = list(cache._slot_of)
    assert delta[0] == ref_delta[0]
    assert {keys[s] for s in delta[1].tolist()} == set(ref_delta[1])
    assert len(delta[1]) == len(ref_delta[1])
    cache.phase_advance(delta, 5)
    ref.phase_advance(ref_delta, 5)
    assert_same_state(cache, ref)
    for step in iteration + random_steps(seed + 200, 20):
        run_step(cache, ref, step)
        assert_same_state(cache, ref)


def test_new_slots_after_a_snapshot_count_as_touched():
    cache, ref = CacheHierarchy(CONFIG), DictReuseCache(CONFIG)
    steps = random_steps(3, 10)
    run_step(cache, ref, steps[0])
    snap, ref_snap = cache.phase_snapshot(), ref.phase_snapshot()
    for step in steps[1:]:
        run_step(cache, ref, step)
    delta, ref_delta = cache.phase_delta(snap), ref.phase_delta(ref_snap)
    keys = list(cache._slot_of)
    assert delta[0] == ref_delta[0]
    assert {keys[s] for s in delta[1].tolist()} == set(ref_delta[1])


def test_reset_clears_state_and_keeps_slots():
    cache, ref = CacheHierarchy(CONFIG), DictReuseCache(CONFIG)
    steps = random_steps(5, 30)
    for step in steps:
        run_step(cache, ref, step)
    slots = dict(cache._slot_of)
    cache.reset()
    ref.reset()
    assert_same_state(cache, ref)
    assert cache.state_digest() == frozenset()
    assert cache._slot_of == slots
    for step in steps:
        run_step(cache, ref, step)
        assert_same_state(cache, ref)
