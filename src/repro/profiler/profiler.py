"""The online NUMA profiler (hpcrun analogue), paper Section 7.1.

``NumaProfiler`` plugs into the execution engine as a monitor and, per
executed chunk:

1. asks its sampling mechanism which accesses are sampled,
2. asks the page table which domain owns each sampled address (the
   ``move_pages`` query, ``PageTable.domains_of_addrs``) and resolves the
   address to a variable through the data-centric registry,
3. computes M_l / M_r / per-domain counts (Section 4.1) and, when the
   mechanism supports it, latency metrics for lpi_NUMA (Section 4.2),
4. attributes everything three ways (Section 5): code-centric to the CCT
   at the sample's call path, data-centric to the variable and its bins,
   address-centric to per-(variable, context) [min, max] ranges, and
5. charges the mechanism's measurement cost to the thread — making
   monitoring overhead observable in simulated wall-clock time (Table 2).

First touches are pinpointed by page protection (Section 6): allocation
hooks protect heap variables' interior pages, and the engine's trap path
lands in :meth:`NumaProfiler.on_first_touch`, which performs both code-
and data-centric attribution of the faulting context.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ProfileError
from repro.profiler.accum import MinMaxTable, RowTable
from repro.profiler.cct import DUMMY_ACCESS, DUMMY_FIRST_TOUCH
from repro.profiler.datacentric import VariableRegistry
from repro.profiler.metrics import MetricNames
from repro.profiler.profile_data import (
    FirstTouchRecord,
    ProfileArchive,
    ThreadProfile,
)
from repro.runtime.callstack import CallPath
from repro.runtime.engine import (
    ExecutionEngine,
    Monitor,
    RunResult,
    gather_samples,
)
from repro.runtime.heap import Variable, VariableKind
from repro.runtime.memo import StepViews
from repro.sampling.base import SamplingMechanism


class NumaProfiler(Monitor):
    """Measurement-side monitor collecting per-thread NUMA profiles.

    Parameters
    ----------
    mechanism:
        The address-sampling mechanism to drive (see :mod:`repro.sampling`).
    n_bins:
        Bin count override for address-centric binning (default: the
        ``NUMAPROF_BINS`` environment variable, else 5).
    protect_heap / protect_static / protect_stack:
        Which variable kinds get first-touch page protection. The paper
        implements heap protection and lists static (at load time) and
        stack support as future work; all three are available here.
    seed:
        Base seed for the mechanism's per-thread jitter streams
        (forwarded to :meth:`SamplingMechanism.configure`); sharded and
        serial runs must use the same value to stay bit-identical.
    memoize:
        Accepted and ignored: :meth:`on_step` has one accumulation path
        over the engine's :class:`~repro.runtime.memo.StepViews`, at
        every memo budget. It stays only because the benchmark harness
        (``e2ebench/pipeline.py``) still passes it.
    """

    #: Trap-handler cost per faulting page (attribution + re-mprotect),
    #: scaled to the simulation's shortened run length like the engine's
    #: TRAP_BASE_COST.
    FIRST_TOUCH_HANDLER_COST = 25.0

    def __init__(
        self,
        mechanism: SamplingMechanism,
        *,
        n_bins: int | None = None,
        protect_heap: bool = True,
        protect_static: bool = False,
        protect_stack: bool = False,
        seed: int = 0x1B5,
        memoize: bool = True,
        heatmap: bool = False,
    ) -> None:
        self.mechanism = mechanism
        self.n_bins = n_bins
        self.protect_heap = protect_heap
        self.protect_static = protect_static
        self.protect_stack = protect_stack
        self.seed = int(seed)
        #: Opt-in Migration-Profiler-style page heatmap: accumulate
        #: per (thread, page) sample counts and latency stats into
        #: ``ThreadProfile.page_heat`` (exported by
        #: ``analysis.postmortem.export_heatmap_csvs``). Off by default — the
        #: per-page dictionaries cost memory proportional to the touched
        #: footprint.
        self.heatmap = bool(heatmap)
        self.registry = VariableRegistry()
        self.archive: ProfileArchive | None = None
        self._engine: ExecutionEngine | None = None
        self._heat: dict[int, dict[int, list[float]]] = {}
        self._page_size = 0
        #: The accumulation ops of an iteration the phase layer records
        #: (see :mod:`repro.profiler.phase`); None when not recording.
        self._phase_ops: list | None = None

    # ------------------------------------------------------------------ #
    # Monitor hooks
    # ------------------------------------------------------------------ #

    def on_run_start(self, engine: ExecutionEngine) -> None:
        """Configure the mechanism and allocate per-thread profiles."""
        self._engine = engine
        machine = engine.machine
        self.mechanism.configure(machine, seed=self.seed)
        self.archive = ProfileArchive(
            program=engine.program.name,
            machine_desc=machine.describe(),
            n_domains=machine.n_domains,
            mechanism_name=self.mechanism.name,
            capabilities=self.mechanism.capabilities,
        )
        for t in engine.threads:
            self.archive.profiles[t.tid] = ThreadProfile(
                tid=t.tid, cpu=t.cpu, domain=t.domain
            )
        self._heat = {}
        self._page_size = machine.page_size
        self._init_accumulators(machine, engine)

    def _init_accumulators(self, machine, engine: ExecutionEngine) -> None:
        """Set up the flat deferred-attribution tables for one run.

        Metric column layout (fixed per run): 0 INSTR, 1 SAMPLED_INSTR,
        2 SAMPLES, 3 NUMA_MATCH, 4 NUMA_MISMATCH, 5 LAT_TOTAL,
        6 LAT_REMOTE, 7 EVENTS_NUMA, then one ``NUMA_NODE<d>`` column per
        domain.
        """
        n_domains = machine.n_domains
        self._n_cols = 8 + n_domains
        self._metric_names = [
            MetricNames.INSTR,
            MetricNames.SAMPLED_INSTR,
            MetricNames.SAMPLES,
            MetricNames.NUMA_MATCH,
            MetricNames.NUMA_MISMATCH,
            MetricNames.LAT_TOTAL,
            MetricNames.LAT_REMOTE,
            MetricNames.EVENTS_NUMA,
        ] + [MetricNames.numa_node(d) for d in range(n_domains)]
        #: (tid, path) -> row in the code-centric metric table.
        self._code_rows: dict = {}
        self._code_tab = RowTable(self._n_cols)
        #: (tid, var name, path) -> row in the data-centric metric table.
        self._data_rows: dict = {}
        self._data_tab = RowTable(self._n_cols)
        #: (tid, var name) -> row in the per-variable metric table.
        self._var_rows: dict = {}
        self._var_tab = RowTable(self._n_cols)
        #: Aligned with var rows: the VarRecord and its bin-block base.
        self._var_recs: list = []
        self._bin_bases: list[int] = []
        #: Per-bin metric blocks: SAMPLES, MATCH, MISMATCH, LAT_TOTAL,
        #: LAT_REMOTE.
        self._bin_tab = RowTable(5)
        #: (tid, var name, path) -> base row of an (n_bins + 1)-row
        #: [min, max] block (row 0 whole variable, rows 1.. the bins).
        self._range_rows: dict = {}
        self._mm = MinMaxTable()
        max_tid = max(t.tid for t in engine.threads)
        self._ctr = np.zeros((max_tid + 1, 5), dtype=np.float64)
        self._ctr_seen = np.zeros(max_tid + 1, dtype=bool)
        self._lat_seen = False
        self._flushed = False

    def on_alloc(self, var: Variable) -> None:
        """Track the variable and protect its pages for first touch."""
        self.registry.register(var)
        should_protect = (
            (var.kind is VariableKind.HEAP and self.protect_heap)
            or (var.kind is VariableKind.STATIC and self.protect_static)
            or (var.kind is VariableKind.STACK and self.protect_stack)
        )
        if should_protect and self._engine is not None:
            self._engine.machine.page_table.protect_range(var.base, var.nbytes)

    def on_free(self, var: Variable) -> None:
        """Stop resolving addresses to a freed variable."""
        self.registry.unregister(var)

    def on_first_touch(
        self, tid: int, cpu: int, var: Variable, pages: np.ndarray, path: CallPath
    ) -> float:
        """The SIGSEGV handler: record and attribute the first touch."""
        profile = self._profile(tid)
        record = FirstTouchRecord(
            var_name=var.name,
            tid=tid,
            cpu=cpu,
            domain=self._engine.machine.topology.domain_of_cpu(cpu),
            pages=np.array(pages, dtype=np.int64),
            path=path,
        )
        profile.first_touches.append(record)
        obs.TRACER.count("profiler.first_touch_pages", record.n_pages)
        # Code-centric: the faulting context; data-centric: hang the first
        # touch under the variable's allocation path behind a dummy node.
        profile.cct.attribute(path, {"FIRST_TOUCH_PAGES": float(record.n_pages)})
        mixed = var.alloc_path + (DUMMY_FIRST_TOUCH,) + path
        profile.data_cct.attribute(mixed, {"FIRST_TOUCH_PAGES": float(record.n_pages)})
        return self.FIRST_TOUCH_HANDLER_COST * record.n_pages

    def on_step(self, views: StepViews):
        """Batched observation: one mechanism ``select_step`` per step,
        metrics into flat accumulator rows, costs as one step-wide array.

        ``views`` is the engine's :class:`~repro.runtime.memo.StepViews`
        (a retained step hands back the same object every iteration):
        accumulator-row indices and remote-event counts are interned
        once and cached on ``views.memo``, the per-thread counter adds
        and the unsampled code-row adds are fancy-indexed array adds,
        and only views that drew samples are visited in Python. Every
        counter row and code row belongs to a distinct thread within a
        step, so each target row receives exactly one add per step.
        ``tests/reference/immediate_profiler.py`` is the per-chunk
        reference it must reproduce.
        """
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.begin("profiler.on_step", "profiler")
        step = self.mechanism.select_step(views)
        caps = self.mechanism.capabilities
        counting = caps.counts_absolute_events
        lat_ok = caps.measures_latency and step.latency_captured
        if lat_ok:
            self._lat_seen = True

        prof = views.memo.get("prof")
        if prof is None:
            code_rows = self._code_rows
            ctab = self._code_tab
            crow_arr = np.empty(len(views), dtype=np.int64)
            for k, v in enumerate(views):
                key = (v.tid, v.path)
                crow = code_rows.get(key)
                if crow is None:
                    crow = code_rows[key] = ctab.alloc()
                crow_arr[k] = crow
            rev = None
            if counting:
                rev = np.fromiter(
                    (v.remote_event_count() for v in views),
                    np.float64,
                    len(views),
                )
            doms = np.fromiter((v.domain for v in views), np.int64, len(views))
            # Per view, once sampled: the registry key of its variable,
            # then var row, data row, range base, and the variable
            # record's base, size, bin count and bin-block base.
            var_rows = np.full((len(views), 8), -1, dtype=np.int64)
            prof = views.memo["prof"] = (crow_arr, rev, doms, var_rows)
        crow_arr, rev = prof[:2]

        tids = views.tids
        n_ins = views.n_ins
        counts = step.counts
        nsi = step.n_sampled_instructions
        add = np.empty((len(views), 5), dtype=np.float64)
        add[:, 0] = n_ins
        add[:, 1] = views.n_acc
        add[:, 2] = counts
        add[:, 3] = nsi
        add[:, 4] = step.n_events_total
        self._ctr[tids] += add
        self._ctr_seen[tids] = True

        unsampled = np.nonzero(counts == 0)[0]
        data = self._code_tab.data
        rows_u = crow_arr[unsampled]
        data[rows_u, 0] += n_ins[unsampled]
        data[rows_u, 1] += nsi[unsampled]
        if rev is not None:
            data[rows_u, 7] += rev[unsampled]
        ops = self._phase_ops
        if ops is not None:
            # Operands are freshly allocated per step (fancy indexing
            # copies), so the recorded refs stay valid for replay.
            ops.append(("ctr", tids, add))
            ops.append((
                "code_u", rows_u, n_ins[unsampled], nsi[unsampled],
                None if rev is None else rev[unsampled],
            ))

        if step.n_samples:
            if traced:
                with tr.span("profiler.attribute", "profiler"):
                    self._attribute_step(views, step, prof, lat_ok)
            else:
                self._attribute_step(views, step, prof, lat_ok)
        costs = self.mechanism.cost_cycles_step(step, views)
        if traced:
            tr.end()
        return costs

    def _attribute_step(self, views, step, prof, lat_ok: bool) -> None:
        """Attribute one step's samples three ways in one pass.

        Sampled addresses and latencies come from one step-wide gather
        (:func:`~repro.runtime.engine.gather_samples`), and Python
        visits each sampled chunk only to sum its latencies. Page owners
        come from one ``move_pages``-style query over the step's sampled
        addresses, per-domain counts from one ``bincount`` over
        (chunk, domain), and variables from one registry lookup over the
        chunks' address ranges. Rows are interned per view the first
        time it is sampled and cached on ``views.memo``. Every chunk in
        a step belongs to a distinct thread, so no accumulator row
        receives samples from two chunks of the same step and each row's
        accumulation order — and hence its float value — is identical
        to per-chunk accumulation.
        """
        crow_arr, rev, doms, var_rows = prof
        counts = step.counts
        ks = np.flatnonzero(counts)
        n_s = counts[ks]
        lo_off = step.starts[ks]
        hi_off = step.starts[ks + 1]
        addrs, lat = gather_samples(views, ks, n_s, step.indices, lat_ok)

        n_k = ks.size
        n_dom = self._n_cols - 8
        own = doms[ks]
        srow = np.repeat(np.arange(n_k), n_s)
        targets = self._engine.machine.page_table.domains_of_addrs(addrs)
        remote = targets != own[srow]
        nodes = np.bincount(
            srow * n_dom + targets, minlength=n_k * n_dom
        ).reshape(n_k, n_dom)
        del srow, targets
        n_rem = n_s - nodes[np.arange(n_k), own]
        M = np.zeros((n_k, self._n_cols), dtype=np.float64)
        M[:, 0] = views.n_ins[ks]
        M[:, 1] = step.n_sampled_instructions[ks]
        M[:, 2] = n_s
        M[:, 3] = n_s - n_rem
        M[:, 4] = n_rem
        if rev is not None:
            M[:, 7] = rev[ks]
        M[:, 8:] = nodes
        if lat_ok:
            # Per-chunk ndarray.sum() keeps each chunk's rounding.
            for j, (a, b) in enumerate(zip(lo_off.tolist(), hi_off.tolist())):
                part = lat[a:b]
                M[j, 5] = part.sum()
                M[j, 6] = part[remote[a:b]].sum()

        reg = self.registry
        pos = reg.resolve_ranges(
            np.minimum.reduceat(addrs, lo_off),
            np.maximum.reduceat(addrs, lo_off),
        )
        keys = reg.keys[pos]
        miss = np.flatnonzero(var_rows[ks, 0] != keys)
        if miss.size:
            self._intern_var_rows(
                views, ks[miss], pos[miss], keys[miss], var_rows
            )
        cached = var_rows[ks]
        crows_a = crow_arr[ks]
        vrows_a = cached[:, 1]
        drows_a = cached[:, 2]
        np.add.at(self._code_tab.data, crows_a, M)
        np.add.at(self._var_tab.data, vrows_a, M)
        np.add.at(self._data_tab.data, drows_a, M)

        # Per-sample bin index, then the row in the flat bin table:
        # same floor-divide formula as addresscentric.bin_indices, with
        # the per-chunk variable geometry repeated onto the samples.
        # Computed in place: ``bins`` goes rel -> rel * nb -> bin.
        bins = np.repeat(cached[:, 4], n_s)
        np.subtract(addrs, bins, out=bins)
        nb = np.repeat(cached[:, 6], n_s)
        bins *= nb
        bins //= np.repeat(cached[:, 5], n_s)
        nb -= 1
        np.clip(bins, 0, nb, out=bins)
        del nb
        rows = np.repeat(cached[:, 7], n_s)
        rows += bins
        n_rows = self._bin_tab.n_rows
        btab = self._bin_tab.data
        cnt = np.bincount(rows, minlength=n_rows)
        mis = np.bincount(rows[remote], minlength=n_rows)
        match = cnt - mis
        btab[:n_rows, 0] += cnt
        btab[:n_rows, 1] += match
        btab[:n_rows, 2] += mis
        lat_b = lat_rb = None
        if lat_ok:
            lat_b = np.bincount(rows, weights=lat, minlength=n_rows)
            lat_rb = np.bincount(
                rows[remote], weights=lat[remote], minlength=n_rows
            )
            btab[:n_rows, 3] += lat_b
            btab[:n_rows, 4] += lat_rb
        del rows

        # Address ranges: row 0 of each block tracks the whole variable,
        # rows 1.. its bins. Min and max do not depend on order, so the
        # bin rows are a second scatter, over ``bins`` turned into rows.
        a64 = addrs.astype(np.float64)
        whole = np.repeat(cached[:, 3], n_s)
        mm = self._mm.data
        np.minimum.at(mm[:, 0], whole, a64)
        np.maximum.at(mm[:, 1], whole, a64)
        bins += whole
        del whole
        bins += 1
        np.minimum.at(mm[:, 0], bins, a64)
        np.maximum.at(mm[:, 1], bins, a64)

        ops = self._phase_ops
        if ops is not None:
            # The min/max range scatter is deliberately not recorded: a
            # bit-identical skipped iteration applies the same values,
            # so replaying it is an exact no-op.
            ops.append((
                "samples", crows_a, vrows_a, drows_a, M,
                cnt, match, mis, lat_b, lat_rb,
            ))
        if self.heatmap:
            for k, a, b in zip(ks.tolist(), lo_off.tolist(), hi_off.tolist()):
                self._accumulate_heat(
                    views[k].tid, addrs[a:b], lat[a:b] if lat_ok else None
                )

    def _intern_var_rows(self, views, ks, pos, keys, var_rows) -> None:
        """Check and intern the variable rows of views ``ks`` (ascending).

        ``pos``/``keys`` are each view's resolved registry position and
        key. Rows are interned in view order, var row then data row then
        range block, exactly as when every sampled chunk was visited.
        """
        live = self.registry.live_variables
        for k, p, key in zip(ks.tolist(), pos.tolist(), keys.tolist()):
            v = views[k]
            var = live[p]
            chunk_var = v.chunk.var
            if chunk_var is not None and var.name != chunk_var.name:
                raise ProfileError(
                    f"data-centric resolution found {var.name!r} but ground "
                    f"truth is {chunk_var.name!r}"
                )
            tid = v.tid
            vkey = (tid, var.name)
            vrow = self._var_rows.get(vkey)
            if vrow is None:
                rec = self._profile(tid).var_record(var, n_bins=self.n_bins)
                vrow = self._var_rows[vkey] = self._var_tab.alloc()
                self._var_recs.append(rec)
                self._bin_bases.append(self._bin_tab.alloc(rec.n_bins))
            else:
                rec = self._var_recs[vrow]
            dkey = (tid, var.name, v.path)
            drow = self._data_rows.get(dkey)
            if drow is None:
                drow = self._data_rows[dkey] = self._data_tab.alloc()
            rbase = self._range_rows.get(dkey)
            if rbase is None:
                rbase = self._range_rows[dkey] = self._mm.alloc(rec.n_bins + 1)
            var_rows[k] = (
                key, vrow, drow, rbase, rec.base, max(rec.nbytes, 1),
                rec.n_bins, self._bin_bases[vrow],
            )

    def _accumulate_heat(
        self, tid: int, s_addrs: np.ndarray, s_lat: np.ndarray | None
    ) -> None:
        """Fold one chunk's samples into the per-(thread, page) heatmap.

        Each row is ``page -> [count, lat_sum, lat_min, lat_max]``;
        latency stats stay zero when the mechanism does not capture
        latency (``s_lat`` is None). Kept per-tid so sharded runs ship
        the heat with each owned :class:`ThreadProfile` and need no
        extra merge code.
        """
        page_size = self._page_size
        pages = s_addrs // page_size
        uniq, inv = np.unique(pages, return_inverse=True)
        counts = np.bincount(inv, minlength=uniq.size)
        if s_lat is not None:
            lat_sum = np.bincount(inv, weights=s_lat, minlength=uniq.size)
            lat_min = np.full(uniq.size, np.inf)
            lat_max = np.zeros(uniq.size)
            np.minimum.at(lat_min, inv, s_lat)
            np.maximum.at(lat_max, inv, s_lat)
        heat = self._heat.setdefault(tid, {})
        for i, page in enumerate(uniq.tolist()):
            row = heat.get(page)
            if row is None:
                row = heat[page] = [0.0, 0.0, float("inf"), 0.0]
            row[0] += float(counts[i])
            if s_lat is not None:
                row[1] += float(lat_sum[i])
                if lat_min[i] < row[2]:
                    row[2] = float(lat_min[i])
                if lat_max[i] > row[3]:
                    row[3] = float(lat_max[i])

    def _flush_heat(self) -> None:
        """Move accumulated heat into the per-thread profiles."""
        if not self.heatmap or self.archive is None:
            return
        for tid, heat in self._heat.items():
            out = {}
            for page, (count, lat_sum, lat_min, lat_max) in sorted(heat.items()):
                out[page] = [
                    count,
                    lat_sum,
                    0.0 if lat_min == float("inf") else lat_min,
                    lat_max,
                ]
            self.archive.profiles[tid].page_heat = out
        self._heat = {}

    def on_run_end(self, result: RunResult) -> None:
        """Flush deferred accumulators and attach the run's timing result.

        This is the moment the archive becomes readable:
        every flat accumulator row is folded into the classic
        CCT/VarRecord/bin structures here, exactly once.
        """
        if self.archive is not None:
            self.archive.run_result = result
        self._flush_heat()
        if self.archive is not None and not self._flushed:
            tr = obs.TRACER
            if tr.enabled:
                tr.gauge("profiler.code_rows", self._code_tab.n_rows)
                tr.gauge("profiler.data_rows", self._data_tab.n_rows)
                tr.gauge("profiler.var_rows", self._var_tab.n_rows)
                tr.gauge("profiler.bin_rows", self._bin_tab.n_rows)
                tr.gauge("profiler.range_blocks", len(self._range_rows))
                with tr.span("profiler.flush", "profiler"):
                    self._flush()
            else:
                self._flush()
            self._flushed = True

    def _flush(self) -> None:
        """Fold the flat accumulator tables into the profile structures."""
        names = self._metric_names
        for (tid, path), row in self._code_rows.items():
            self._profile(tid).cct.attribute_row(
                path, names, self._code_tab.data[row]
            )
        var_rows = self._var_rows
        for (tid, var_name, path), row in self._data_rows.items():
            rec = self._var_recs[var_rows[(tid, var_name)]]
            mixed = rec.alloc_path + (DUMMY_ACCESS,) + path
            self._profile(tid).data_cct.attribute_row(
                mixed, names, self._data_tab.data[row]
            )
        lat = self._lat_seen
        for vrow in var_rows.values():
            rec = self._var_recs[vrow]
            for name, value in zip(names, self._var_tab.data[vrow].tolist()):
                if value:
                    rec.metrics[name] += value
            base = self._bin_bases[vrow]
            block = self._bin_tab.data[base:base + rec.n_bins]
            for b in np.nonzero(block[:, 0])[0]:
                bin_metrics = rec.bins[int(b)].metrics
                bin_metrics[MetricNames.SAMPLES] += float(block[b, 0])
                bin_metrics[MetricNames.NUMA_MATCH] += float(block[b, 1])
                bin_metrics[MetricNames.NUMA_MISMATCH] += float(block[b, 2])
                if lat:
                    bin_metrics[MetricNames.LAT_TOTAL] += float(block[b, 3])
                    bin_metrics[MetricNames.LAT_REMOTE] += float(block[b, 4])
        for (tid, var_name, path), base in self._range_rows.items():
            rec = self._var_recs[var_rows[(tid, var_name)]]
            arr = self._mm.data[base:base + rec.n_bins + 1].copy()
            existing = rec.ranges.get(path)
            if existing is None:
                rec.ranges[path] = arr
            else:
                np.minimum(existing[:, 0], arr[:, 0], out=existing[:, 0])
                np.maximum(existing[:, 1], arr[:, 1], out=existing[:, 1])
        for tid in np.nonzero(self._ctr_seen)[0]:
            counters = self.archive.profiles[int(tid)].counters
            vals = self._ctr[tid].tolist()
            counters["instructions"] += vals[0]
            counters["accesses"] += vals[1]
            counters["samples"] += vals[2]
            counters["sampled_instructions"] += vals[3]
            counters["events"] += vals[4]

    # ------------------------------------------------------------------ #

    def _profile(self, tid: int) -> ThreadProfile:
        if self.archive is None:
            raise ProfileError("profiler used before on_run_start")
        return self.archive.profiles[tid]
