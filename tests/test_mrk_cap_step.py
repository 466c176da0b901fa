"""MRK's step-level rate cap equals the per-chunk ``_cap`` reference.

``select_step`` thins a whole step's chosen events with one array
expression (:meth:`MRK._cap_step`); the scalar ``_cap``, which the
per-chunk ``select`` path still uses, is the reference. Over random
steps the two must agree exactly: chosen indices, counts, the carried
per-thread budgets, and the dropped-sample counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.machine import presets
from repro.obs.tracer import Tracer
from repro.sampling import MRK
from repro.sampling.mrk import _linspace_picks
from tests.reference.sampling import cap


def _mrk(max_rate: float) -> MRK:
    mech = MRK(1, max_rate=max_rate)
    mech.configure(presets.power7())
    return mech


def _per_chunk(mech, tids, chosen, counts, n_ins, lat_totals):
    """``select_step``'s former loop: ``_cap`` on each chunk with events."""
    starts = np.concatenate(([0], np.cumsum(counts)))
    out = counts.copy()
    pieces = [chosen[:0]]
    for k in np.flatnonzero(counts).tolist():
        piece = cap(
            mech,
            int(tids[k]), chosen[starts[k]:starts[k + 1]],
            int(n_ins[k]), float(lat_totals[k]),
        )
        out[k] = piece.size
        pieces.append(piece)
    return np.concatenate(pieces), out


def _random_step(rng, pool: int):
    n = int(rng.integers(1, pool + 1))
    tids = rng.permutation(pool)[:n].astype(np.int64)
    counts = rng.integers(0, 120, n).astype(np.int64)
    counts[rng.random(n) < 0.25] = 0
    chosen = np.concatenate([
        np.sort(rng.choice(4 * c + 1, size=c, replace=False))
        for c in counts.tolist()
    ]).astype(np.int64)
    n_ins = rng.integers(1, 20_000, n).astype(np.int64)
    lat_totals = rng.uniform(0.0, 4e5, n)
    lat_totals[rng.random(n) < 0.1] = 0.0
    return tids, chosen, counts, n_ins, lat_totals


def _traced(fn, *args):
    tracer = Tracer()
    old = obs.set_tracer(tracer)
    tracer.enable()
    try:
        result = fn(*args)
    finally:
        obs.set_tracer(old)
    return result, tracer.counters.get("sampling.samples.dropped", 0)


@pytest.mark.parametrize("max_rate", [2e5, 2e6, 2e7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cap_step_equals_per_chunk_cap(max_rate, seed):
    rng = np.random.default_rng(seed)
    ref, vec = _mrk(max_rate), _mrk(max_rate)
    dropped_any = emptied_any = False
    for _ in range(40):
        tids, chosen, counts, n_ins, lat = _random_step(rng, pool=24)
        (want, want_counts), want_drop = _traced(
            _per_chunk, ref, tids, chosen, counts, n_ins, lat
        )
        (got, got_counts), got_drop = _traced(
            vec._cap_step, tids, chosen, counts, n_ins, lat
        )
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got_counts, want_counts)
        assert list(vec._budget.items()) == list(ref._budget.items())
        assert got_drop == want_drop
        dropped_any |= want_drop > 0
        emptied_any |= bool(np.any((counts > 0) & (want_counts == 0)))
    if max_rate == 2e5:
        assert dropped_any and emptied_any


def test_linspace_picks_equal_numpy_linspace():
    pairs = [(n, m) for n in range(1, 120) for m in range(n + 1)]
    n = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    want = np.concatenate([
        np.linspace(0, a - 1, b).astype(np.int64) for a, b in pairs
    ])
    np.testing.assert_array_equal(_linspace_picks(n, m), want)
