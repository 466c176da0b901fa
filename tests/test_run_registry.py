"""End-to-end tests for the run registry and its ``runs`` CLI.

Every ``python -m repro`` invocation archives a content-addressed run
directory (manifest + profile + optional metrics series); ``runs
list/show/diff/timeline`` query the archive. These tests drive the real
CLI into a temporary registry and check the manifests validate, diff
reproduces ``diff_profiles``, and the timeline series agree with the
run's own final counters.

Named ``test_run_registry`` (not ``test_registry``) because a registry
of *workloads* already owns that module name.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.optim.autotune import AutotuneConfig, autotune
from repro.registry import (
    RegistryError,
    RunRegistry,
    build_manifest,
    content_id,
    validate_manifest,
)
from repro.registry.cli import main as runs_main
from repro.spec import RunSpec

SCALE = "0.05"


def _sweep(root, *extra: str) -> int:
    return repro_main([
        "sweep", "--scale", SCALE, "--threads", "8",
        "--extrapolate", "--runs-dir", str(root), *extra,
    ])


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    """Two real CLI runs (compact vs scatter) archived with metrics."""
    root = tmp_path_factory.mktemp("registry") / "runs"
    assert _sweep(root, "--metrics") == 0
    assert _sweep(root, "--metrics", "--binding", "scatter") == 0
    return root


@pytest.fixture(scope="module")
def run_ids(registry_root) -> list[str]:
    return [m["id"] for m in RunRegistry(registry_root).list_runs()]


class TestRecording:
    def test_two_runs_archived_and_manifests_validate(
        self, registry_root, run_ids
    ):
        assert len(run_ids) == 2
        registry = RunRegistry(registry_root)
        for run_id in run_ids:
            doc = json.loads(
                (registry.root / run_id / "manifest.json").read_text()
            )
            assert validate_manifest(doc) == []
            assert doc["workload"] == "sweep"
            assert doc["artifacts"] == {
                "profile": "profile.json", "series": "series.json",
            }

    def test_id_is_content_addressed(self, registry_root, run_ids):
        registry = RunRegistry(registry_root)
        doc = registry.manifest(run_ids[0])
        assert content_id(doc) == doc["id"]

    def test_tampering_breaks_validation(self, registry_root, run_ids):
        doc = RunRegistry(registry_root).manifest(run_ids[0])
        doc["headline"]["lpi_numa"] = 0.0
        assert any("content hash" in p for p in validate_manifest(doc))

    def test_headline_matches_series_final_row(
        self, registry_root, run_ids
    ):
        """The manifest headline is the FINAL metrics row, archived."""
        registry = RunRegistry(registry_root)
        for run_id in run_ids:
            head = registry.manifest(run_id)["headline"]
            series = registry.load_series(run_id)

            def last(name):
                vals = [
                    v for i, v in enumerate(series["series"][name])
                    if series["columns"]["track"][i] == 0 and v == v
                    and v is not None
                ]
                return vals[-1]

            assert last("engine.chunks") == head["chunks"]
            assert last("engine.accesses") == head["accesses"]
            assert last("engine.memo.hit_rate") == head["memo_hit_rate"]
            assert last("engine.rate.chunks_per_s") == head["chunks_per_s"]
            assert (
                last("engine.phase.coverage_pct")
                == head["phase_coverage_pct"]
            )

    def test_prefix_resolution(self, registry_root, run_ids):
        registry = RunRegistry(registry_root)
        full = run_ids[0]
        assert registry.resolve(full[:6]) == full
        with pytest.raises(RegistryError, match="no run matching"):
            registry.resolve("zzzz")
        with pytest.raises(RegistryError, match="ambiguous"):
            registry.resolve("")  # empty prefix matches both runs

    def test_no_save_records_nothing(self, tmp_path):
        root = tmp_path / "runs"
        assert _sweep(root, "--no-save") == 0
        assert not root.exists()

    def test_run_without_metrics_has_no_series(self, tmp_path):
        root = tmp_path / "runs"
        assert _sweep(root) == 0
        registry = RunRegistry(root)
        (run_id,) = [m["id"] for m in registry.list_runs()]
        assert registry.load_profile(run_id) is not None
        with pytest.raises(RegistryError, match="no series artifact"):
            registry.load_series(run_id)


class TestRunsCli:
    def _runs(self, registry_root, *argv: str) -> int:
        return runs_main(["--runs-dir", str(registry_root), *argv])

    def test_list_renders_both_runs(self, registry_root, run_ids, capsys):
        assert self._runs(registry_root, "list") == 0
        out = capsys.readouterr().out
        for run_id in run_ids:
            assert run_id in out
        assert "2 run(s)" in out

    def test_list_ids_is_script_friendly(
        self, registry_root, run_ids, capsys
    ):
        assert self._runs(registry_root, "list", "--ids") == 0
        assert capsys.readouterr().out.split() == run_ids

    def test_show_prints_manifest_sections(
        self, registry_root, run_ids, capsys
    ):
        registry = RunRegistry(registry_root)
        # Runs sort by (created, id); find the scatter run explicitly.
        scatter = next(
            m["id"] for m in registry.list_runs()
            if m["config"]["binding"] == "scatter"
        )
        assert self._runs(registry_root, "show", scatter[:6]) == 0
        out = capsys.readouterr().out
        assert f"run {scatter} (profile)" in out
        assert "binding" in out and "scatter" in out
        assert "headline:" in out

    def test_show_json_round_trips(self, registry_root, run_ids, capsys):
        assert self._runs(registry_root, "show", run_ids[0], "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == RunRegistry(registry_root).manifest(run_ids[0])

    def test_diff_matches_diff_profiles(
        self, registry_root, run_ids, capsys
    ):
        from repro.analysis.diff import diff_profiles
        from repro.analysis.merge import merge_profiles

        registry = RunRegistry(registry_root)
        expected = diff_profiles(
            merge_profiles(registry.load_profile(run_ids[0])),
            merge_profiles(registry.load_profile(run_ids[1])),
        )
        assert self._runs(
            registry_root, "diff", run_ids[0], run_ids[1], "--json"
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["before"] == run_ids[0]
        assert doc["after"] == run_ids[1]
        assert doc["lpi_before"] == expected.lpi_before
        assert doc["lpi_after"] == expected.lpi_after
        assert doc["remote_before"] == expected.remote_before
        assert doc["remote_after"] == expected.remote_after

    def test_diff_text_carries_headline_deltas(
        self, registry_root, run_ids, capsys
    ):
        assert self._runs(
            registry_root, "diff", run_ids[0], run_ids[1]
        ) == 0
        out = capsys.readouterr().out
        assert f"runs diff: {run_ids[0]} -> {run_ids[1]}" in out
        assert "lpi" in out.lower()

    def test_timeline_series_match_final_counters(
        self, registry_root, run_ids, capsys
    ):
        """The rendered timeline is the run's own series, verifiably."""
        registry = RunRegistry(registry_root)
        head = registry.manifest(run_ids[0])["headline"]
        assert self._runs(
            registry_root, "timeline", run_ids[0],
            "--series", "engine.chunks,engine.memo.hit_rate", "--json",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run"] == run_ids[0]
        assert doc["n_samples"] > 0
        chunks = [v for _ts, v in doc["series"]["engine.chunks"]]
        assert chunks[-1] == head["chunks"]
        assert chunks == sorted(chunks)  # cumulative counter
        hits = [v for _ts, v in doc["series"]["engine.memo.hit_rate"]]
        assert hits[-1] == head["memo_hit_rate"]

    def test_timeline_sparkline_render(self, registry_root, run_ids, capsys):
        assert self._runs(registry_root, "timeline", run_ids[0]) == 0
        out = capsys.readouterr().out
        assert f"timeline {run_ids[0]}" in out
        assert "engine.memo.hit_rate" in out
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_timeline_csv_export(
        self, registry_root, run_ids, capsys, tmp_path
    ):
        csv_path = tmp_path / "series.csv"
        assert self._runs(
            registry_root, "timeline", run_ids[0], "--csv", str(csv_path)
        ) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "series,ts_ns,value"
        assert len(lines) > 1

    def test_unknown_run_is_a_clean_error(self, registry_root, capsys):
        assert self._runs(registry_root, "show", "zzzz") == 2
        assert "error:" in capsys.readouterr().err


class TestBuildManifest:
    def test_minimal_manifest_validates(self):
        doc = build_manifest(
            kind="profile", workload="toy", machine="generic",
            config={"mechanism": "DEAR"}, flags={"metrics": False},
            host_wall_s=0.5, headline={"chunks": 1},
        )
        # record() stamps these; content_id covers neither.
        doc["created"] = "2026-01-01T00:00:00Z"
        doc["id"] = content_id(doc)
        assert validate_manifest(doc) == []

    def test_autotune_kind_requires_refs(self):
        doc = build_manifest(
            kind="autotune", workload="toy", machine="generic",
            config={}, flags={}, host_wall_s=0.1, headline={},
        )
        doc["id"] = content_id(doc)
        assert any("refs" in p for p in validate_manifest(doc))


class TestAutotuneRegistration:
    @pytest.fixture(scope="class")
    def tuned(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("autotune") / "runs"
        cfg = AutotuneConfig(
            RunSpec("sweep", scale=0.05, machine="generic", threads=8,
                    mechanism="IBS", period=512, seed=3),
            runs_dir=root,
        )
        return autotune(cfg), RunRegistry(root)

    def test_records_baseline_tuned_and_loop(self, tuned):
        report, registry = tuned
        runs = registry.list_runs()
        assert sorted(m["kind"] for m in runs) == [
            "autotune", "profile", "profile",
        ]
        assert set(report.run_ids) == {"baseline", "tuned", "autotune"}
        loop = registry.manifest(report.run_ids["autotune"])
        # The loop manifest references both profile runs by id.
        assert loop["refs"]["baseline"] == report.run_ids["baseline"]
        assert loop["refs"]["tuned"] == report.run_ids["tuned"]
        for ref in loop["refs"].values():
            assert registry.manifest(ref)["kind"] == "profile"

    def test_runs_diff_reproduces_report_deltas(self, tuned, capsys):
        report, registry = tuned
        assert runs_main([
            "--runs-dir", str(registry.root), "diff",
            report.run_ids["baseline"], report.run_ids["tuned"], "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lpi_before"] == report.lpi_before
        assert doc["lpi_after"] == report.lpi_after
        assert doc["remote_before"] == report.remote_before
        assert doc["remote_after"] == report.remote_after

    def test_report_text_names_the_run_ids(self, tuned):
        report, _registry = tuned
        text = report.render()
        assert report.run_ids["baseline"] in text
        assert report.run_ids["tuned"] in text

    def test_profile_manifests_carry_the_cli_config(
        self, tuned, registry_root, run_ids
    ):
        """Autotune and the CLI build manifests from one spec: the
        loop's profiles have the CLI's config keys (``scale`` too), plus
        the loop's own two."""
        report, registry = tuned
        cli = RunRegistry(registry_root).manifest(run_ids[0])
        for role in ("baseline", "tuned"):
            doc = registry.manifest(report.run_ids[role])
            assert set(doc["config"]) == set(cli["config"]) | {
                "window_iterations", "autotune_role",
            }
            assert doc["config"]["scale"] == 0.05
            assert doc["config"]["autotune_role"] == role
            assert doc["workload"] == cli["workload"] == "sweep"
