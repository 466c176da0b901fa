"""Event selection: the period-1 path, the general path and the reference.

At period 1 ``EventSamplingMechanism.select_step`` hands back the
step's events and event counts themselves: no ``periodic_positions_step``
positions and no gathered copy. It must select what the general
``periodic_positions_step`` path selects, and what the scalar per-chunk
``select`` in ``tests/reference/sampling.py`` selects: the same indices
with the same dtype, counts, carries and ``state_digest`` (MRK's rate
budgets included), at periods 1 and 2 and with or without MRK's cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import presets
from repro.sampling import DEAR, MRK, PEBSLL
from repro.sampling.base import periodic_positions_step
from tests.reference.sampling import batch_for, select
from tests.test_sampling_step import make_steps

MECHS = {
    "mrk": lambda period: MRK(period, max_rate=2e5),
    "mrk_partial": lambda period: MRK(period, max_rate=2e6),
    "mrk_uncapped": lambda period: MRK(period, max_rate=1e12),
    "dear": lambda period: DEAR(period),
    "pebs_ll": lambda period: PEBSLL(period),
}


def _general_select_step(mech, views):
    """``select_step`` through ``periodic_positions_step`` at any period:
    ``(indices, counts, n_events_total)``."""
    events_cat, ev_counts, offsets, lat_totals = mech._step_events(views)
    tids = [v.tid for v in views]
    positions, rows, counts, new_carries = periodic_positions_step(
        mech._step_carries(tids), ev_counts, mech.period
    )
    mech._store_step_carries(tids, new_carries)
    chosen = events_cat[offsets[rows] + positions]
    if lat_totals is not None and chosen.size:
        n_ins = np.array([v.chunk.n_instructions for v in views])
        chosen, counts = mech._cap_step(
            np.asarray(tids), chosen, counts, n_ins, lat_totals
        )
    mech.total_samples += chosen.size
    mech.total_events += int(ev_counts.sum())
    return chosen, counts, ev_counts


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("name", list(MECHS))
@pytest.mark.parametrize("memo", [False, True], ids=["step_views", "retained"])
def test_select_step_equals_general_path_and_reference(name, period, memo):
    """``retained``: each step's ``memo`` already holds its events, as
    on a retained step's later iterations."""
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    steps = make_steps(machine, n_steps=12, seed=period)
    fast, general, ref = (MECHS[name](period) for _ in range(3))
    for mech in (fast, general, ref):
        mech.configure(machine)
    for views in steps:
        if memo:
            earlier = MECHS[name](period)
            earlier.configure(machine)
            earlier.select_step(views)
            assert views.memo
        step = fast.select_step(views)
        want, want_counts, want_events = _general_select_step(general, views)
        np.testing.assert_array_equal(step.indices, want)
        assert step.indices.dtype == want.dtype
        np.testing.assert_array_equal(step.counts, want_counts)
        np.testing.assert_array_equal(step.n_sampled_instructions, want_counts)
        np.testing.assert_array_equal(step.n_events_total, want_events)
        for k, v in enumerate(views):
            b = select(
                ref, v.tid, v.chunk, v.levels, v.target_domains, v.latencies
            )
            got = batch_for(step, k)
            np.testing.assert_array_equal(got.indices, b.indices)
            assert got.n_sampled_instructions == b.n_sampled_instructions
            assert got.n_events_total == b.n_events_total
        assert fast._carry == general._carry == ref._carry
        assert fast.state_digest() == general.state_digest()
        assert fast.state_digest() == ref.state_digest()
    assert fast.total_samples == general.total_samples == ref.total_samples
    assert fast.total_events == general.total_events == ref.total_events
    assert fast.total_samples > 0


def test_period_one_selection_is_the_step_events():
    """At period 1 an uncapped step's selection is its cached events,
    read-only, so a retained step cannot be altered through a batch."""
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    views = make_steps(machine, n_steps=1, seed=5)[0]
    mech = DEAR(1)
    mech.configure(machine)
    step = mech.select_step(views)
    events_cat, ev_counts, _, _ = mech._step_events(views)
    assert step.indices is events_cat and step.counts is ev_counts
    assert step.n_samples > 0
    assert not step.indices.flags.writeable
    assert not step.counts.flags.writeable
    # The zero carries are still stored for every thread of the step.
    assert mech._carry == {v.tid: 0 for v in views}
    again = DEAR(1)
    again.configure(machine)
    np.testing.assert_array_equal(again.select_step(views).indices, step.indices)

