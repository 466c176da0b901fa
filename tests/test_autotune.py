"""The closed autotune loop: profile → advise → live-migrate → re-verify.

Covers the acceptance contract: the loop reduces the remote sample
fraction and lpi_NUMA against the untouched baseline, the report is
deterministic for a given seed (serially and across worker counts), a
failed migration leaves the run state untouched and the run completes,
and the heatmap CSV artifacts obey the golden schema.
"""

import json

import pytest

from repro.analysis.postmortem import export_heatmap_csvs
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.optim.autotune import AutotuneConfig, autotune, pick_boundary
from repro.optim.schedule import MigrationStep, PolicySchedule
from repro.parallel import sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec

SCALE = 0.05
THREADS = 8
PERIOD = 512


def _spec(workload="sweep", **overrides):
    return RunSpec(
        workload, scale=SCALE, machine="generic", threads=THREADS,
        mechanism="IBS", period=PERIOD, seed=3, **overrides,
    )


def _config(out_dir=None, **overrides):
    return AutotuneConfig(_spec(**overrides), out_dir=out_dir)


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("autotune_sweep")
    return autotune(_config(out_dir=out)), out


class TestClosedLoop:
    def test_improves_remote_and_lpi(self, sweep_report):
        report, _ = sweep_report
        assert report.improved
        assert report.remote_after < report.remote_before
        assert report.lpi_after < report.lpi_before
        assert report.planned
        assert all(a["ok"] for a in report.applied)

    def test_migration_fires_inside_the_run(self, sweep_report):
        report, _ = sweep_report
        region_idx, iteration = report.boundary
        assert iteration >= 1  # a real profiling window ran first
        assert all(
            (a["region_idx"], a["iteration"]) == (region_idx, iteration)
            for a in report.applied
        )

    def test_report_round_trips_as_json(self, sweep_report):
        report, out = sweep_report
        on_disk = json.loads((out / "autotune_report.json").read_text())
        assert on_disk == json.loads(json.dumps(report.to_dict()))
        assert on_disk["program"] == "partitioned_sweep"

    def test_deterministic_given_seed(self):
        a = autotune(_config()).to_dict()
        b = autotune(_config()).to_dict()
        assert a == b


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("n_workers", [2, 4])
def test_report_identical_across_worker_counts(n_workers):
    serial = autotune(_config()).to_dict()
    sharded = autotune(_config(workers=n_workers)).to_dict()
    serial["n_workers"] = sharded["n_workers"] = None
    assert serial == sharded


class TestFailedMigration:
    """An exhausted domain aborts the migration but never the run."""

    def _run_lulesh(self, schedule):
        # LULESH at 8000 nodes: six 16-page nodal arrays pre-bound to
        # domain 1 (96 pages, leaving 16 of 112 frames free there) and
        # the 63-page ``nodelist`` first-touched onto domain 0.
        from repro.machine.pagetable import PlacementPolicy as PP
        from repro.optim.policies import NumaTuning, PlacementSpec
        from repro.workloads import Lulesh
        from repro.workloads.lulesh import NODAL_ARRAYS

        tuning = NumaTuning(placement={
            name: PlacementSpec(PP.BIND, (1,)) for name in NODAL_ARRAYS
        })
        profiler = NumaProfiler(create_mechanism("IBS", PERIOD))
        engine = ExecutionEngine(
            presets.generic(n_domains=4, cores_per_domain=2,
                            frames_per_domain=112),
            Lulesh(tuning, n_nodes=8_000, steps=4),
            THREADS,
            monitor=profiler,
            binding=BindingPolicy.COMPACT,
            schedule=schedule,
        )
        return engine.run(), engine

    def _failing_schedule(self):
        # nodelist (63 pages) into domain 1 (16 free, nothing freed
        # there by the move) cannot fit — must abort atomically.
        schedule = PolicySchedule()
        schedule.add(
            1, 1, MigrationStep("nodelist", PlacementPolicy.BIND, (1,))
        )
        return schedule

    def test_run_completes_and_state_is_untouched(self):
        result, engine = self._run_lulesh(self._failing_schedule())
        assert len(engine.applied_actions) == 1
        action = engine.applied_actions[0]
        assert not action.ok
        assert "short" in action.error

        # The failed-migration run is bit-identical to an unscheduled one.
        ref_result, ref_engine = self._run_lulesh(None)
        assert ref_engine.applied_actions == []
        assert result.wall_cycles == ref_result.wall_cycles
        assert result.remote_dram_accesses == ref_result.remote_dram_accesses
        assert result.total_accesses == ref_result.total_accesses

    def test_unknown_variable_is_logged_not_fatal(self):
        schedule = PolicySchedule()
        schedule.add(
            1, 1, MigrationStep("ghost", PlacementPolicy.INTERLEAVE)
        )
        result, engine = self._run_lulesh(schedule)
        assert result.wall_cycles > 0
        assert len(engine.applied_actions) == 1
        assert not engine.applied_actions[0].ok
        assert "ghost" in engine.applied_actions[0].error


class TestHeatmapGolden:
    """Golden schema for the per-page × thread heatmap CSVs."""

    def test_csv_schema(self, sweep_report):
        _, out = sweep_report
        for sub in ("baseline", "autotuned"):
            for name in ("heatmap_access.csv", "heatmap_latency.csv"):
                path = out / sub / name
                assert path.exists(), path
                lines = path.read_text().splitlines()
                header = lines[0].split(",")
                assert header[0] == "page"
                assert header[1:] == [f"t{t}" for t in range(THREADS)]
                assert len(lines) > 1
                width = len(header)
                for line in lines[1:]:
                    cells = line.split(",")
                    assert len(cells) == width
                    int(cells[0])  # page numbers are integers
                    for cell in cells[1:]:
                        assert float(cell) >= 0.0

    def test_access_counts_match_sample_counters(self, sweep_report):
        # Total access-heat equals the profiler's sample count: the
        # heatmap is a re-binning of the same samples, not a new source.
        _, out = sweep_report
        lines = (out / "baseline" / "heatmap_access.csv").read_text().splitlines()
        total = sum(
            int(c) for line in lines[1:] for c in line.split(",")[1:]
        )
        assert total > 0

    def test_export_requires_heat(self):
        profiler = NumaProfiler(create_mechanism("IBS", PERIOD))  # no heatmap
        ExecutionEngine(
            presets.generic(n_domains=4, cores_per_domain=2),
            RunSpec("sweep", scale=SCALE).program(),
            THREADS,
            monitor=profiler,
        ).run()
        with pytest.raises(ValueError):
            export_heatmap_csvs(profiler.archive, "/tmp/should_not_exist")


class TestBoundary:
    def test_picks_most_repeated_parallel_region(self):
        boundary = pick_boundary(_spec(), 2)
        assert boundary is not None
        region_idx, iteration = boundary
        assert iteration == 2

    def test_window_clamped_to_region_length(self):
        boundary = pick_boundary(_spec(), 10_000)
        assert boundary is not None
        _, iteration = boundary
        assert iteration >= 1  # at least one pre-migration iteration...
        # ...and at least one iteration runs after the boundary.
