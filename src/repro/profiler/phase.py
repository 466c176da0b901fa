"""The profiler's phase adapter: record, replay and scale its accumulation.

Only a run that extrapolates loads this module (see
:mod:`repro.runtime.phase`, whose :func:`~repro.runtime.phase.monitor_adapter`
builds a :class:`ProfilerPhase` for a :class:`~repro.profiler.NumaProfiler`
without a heatmap). While an iteration is recorded, the profiler's hot
path appends each accumulation op to ``NumaProfiler._phase_ops``; the
adapter replays those ops for exactly repeating iterations and scales
accumulator deltas for ε-mode ones.
"""

from __future__ import annotations

import numpy as np


class ProfilerPhase:
    """Phase adapter of one :class:`~repro.profiler.NumaProfiler`.

    The profiler's deferred accumulation tables are append-only with
    stable row indices, so an iteration's effect on them is a sequence
    of array adds (exact replay) or a per-row delta (ε mode).
    """

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self._t0 = (0, 0)

    def digest(self):
        """Mutable state affecting future selections: the mechanism's."""
        return self.profiler.mechanism.state_digest()

    def record_begin(self) -> None:
        """Start recording this iteration's accumulation operations."""
        mech = self.profiler.mechanism
        self.profiler._phase_ops = []
        self._t0 = (mech.total_samples, mech.total_events)

    def record_end(self):
        """Stop recording; return the replayable delta program.

        The program is ``(ops, d_samples, d_events)`` — exactly what
        :meth:`replay` re-applies per extrapolated iteration.
        """
        p = self.profiler
        ops = p._phase_ops
        p._phase_ops = None
        t0 = self._t0
        return (
            ops,
            p.mechanism.total_samples - t0[0],
            p.mechanism.total_events - t0[1],
        )

    def replay(self, prog, n: int) -> None:
        """Re-apply one recorded iteration's accumulation ``n`` times.

        This is the exact (ε = 0) path: the identical numpy operations
        on the identical operand arrays in the identical order the live
        iteration performed, so the accumulated floats are bit-identical
        to having simulated the skipped iterations.
        """
        p = self.profiler
        ops, d_samples, d_events = prog
        ctr = p._ctr
        for _ in range(n):
            for op in ops:
                tag = op[0]
                if tag == "ctr":
                    ctr[op[1]] += op[2]
                elif tag == "code_u":
                    data = p._code_tab.data
                    rows_u = op[1]
                    data[rows_u, 0] += op[2]
                    data[rows_u, 1] += op[3]
                    if op[4] is not None:
                        data[rows_u, 7] += op[4]
                else:  # "samples"
                    (_, crows_a, vrows_a, drows_a, M,
                     cnt, match, mis, lat_b, lat_rb) = op
                    np.add.at(p._code_tab.data, crows_a, M)
                    np.add.at(p._var_tab.data, vrows_a, M)
                    np.add.at(p._data_tab.data, drows_a, M)
                    btab = p._bin_tab.data
                    nb = cnt.shape[0]
                    btab[:nb, 0] += cnt
                    btab[:nb, 1] += match
                    btab[:nb, 2] += mis
                    if lat_b is not None:
                        btab[:nb, 3] += lat_b
                        btab[:nb, 4] += lat_rb
        p.mechanism.total_samples += d_samples * n
        p.mechanism.total_events += d_events * n

    def _tables(self):
        """The row tables, by delta key."""
        p = self.profiler
        return (("code", p._code_tab), ("var", p._var_tab),
                ("data", p._data_tab), ("bin", p._bin_tab))

    def snapshot(self):
        """Accumulator snapshot for ε-mode per-iteration deltas."""
        p = self.profiler
        snap = {key: tab.snapshot() for key, tab in self._tables()}
        snap["ctr"] = p._ctr.copy()
        snap["totals"] = (p.mechanism.total_samples, p.mechanism.total_events)
        return snap

    def delta(self, snapshot):
        """Delta since ``snapshot``.

        A row interned *after* the snapshot simply deltas from zero, so
        sparse sampling that keeps discovering new (path, var, bin) rows
        mid-window does not restart ε detection.
        """
        p = self.profiler
        out = {}
        for key, tab in self._tables():
            cur, snap = tab.data[: tab.n_rows], snapshot[key]
            if snap.shape[0] == cur.shape[0]:
                out[key] = cur - snap
            else:
                out[key] = cur.copy()
                out[key][: snap.shape[0]] -= snap
        t0 = snapshot["totals"]
        out["ctr"] = p._ctr - snapshot["ctr"]
        out["samples"] = p.mechanism.total_samples - t0[0]
        out["events"] = p.mechanism.total_events - t0[1]
        return out

    def extrapolate_flush(self, deltas: list, n: int) -> list[list[float]]:
        """ε-mode extrapolation: scale the window-mean deltas onto the
        deferred accumulators (multiply instead of re-scatter).

        Returns each window iteration's column sums — every accumulator
        table's columns, then samples and events — from which the run
        driver declares ε over every shard at once
        (:func:`~repro.runtime.phase.summed_spread`). [min, max] address
        ranges are left at their simulated-window values — see MODEL.md
        for the contract.
        """
        p = self.profiler
        w = len(deltas)
        sums: list[list[float]] = [[] for _ in deltas]

        def padded(arrs):
            # Window entries may predate rows interned later in the
            # window; a missing row's delta was exactly zero then.
            rows = max(a.shape[0] for a in arrs)
            out = []
            for a in arrs:
                if a.shape[0] < rows:
                    b = np.zeros((rows, a.shape[1]), dtype=a.dtype)
                    b[: a.shape[0]] = a
                    a = b
                out.append(a)
            return out

        for key, tab in self._tables():
            aligned = padded([d[key] for d in deltas])
            mean = aligned[0].copy()
            for d in aligned[1:]:
                mean += d
            mean /= w
            tab.scale_rows(mean, float(n))
            for row, d in zip(sums, deltas):
                row.extend(
                    float(d[key][:, j].sum()) for j in range(mean.shape[1])
                )
        ctr_mean = deltas[0]["ctr"].copy()
        for d in deltas[1:]:
            ctr_mean += d["ctr"]
        ctr_mean /= w
        p._ctr += ctr_mean * n
        s_vals = [float(d["samples"]) for d in deltas]
        e_vals = [float(d["events"]) for d in deltas]
        for row, samples, events in zip(sums, s_vals, e_vals):
            row += (samples, events)
        p.mechanism.total_samples += int(round(sum(s_vals) / w * n))
        p.mechanism.total_events += int(round(sum(e_vals) / w * n))
        return sums
