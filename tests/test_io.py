"""Archive serialization round-trips (hpcrun files -> hpcprof input)."""

import numpy as np
import pytest

from repro.analysis import (
    NumaAnalysis,
    load_archive,
    merge_profiles,
    save_archive,
)
from repro.profiler.metrics import MetricNames


@pytest.fixture
def saved(toy_archive, tmp_path):
    _, _, arc = toy_archive
    path = save_archive(arc, tmp_path / "run" / "profile.json")
    return arc, load_archive(path)


class TestRoundTrip:
    def test_metadata(self, saved):
        original, loaded = saved
        assert loaded.program == original.program
        assert loaded.n_domains == original.n_domains
        assert loaded.mechanism_name == original.mechanism_name
        assert loaded.capabilities == original.capabilities
        assert sorted(loaded.profiles) == sorted(original.profiles)

    def test_counters(self, saved):
        original, loaded = saved
        for tid in original.profiles:
            assert dict(loaded.thread(tid).counters) == dict(
                original.thread(tid).counters
            )

    def test_cct_metrics(self, saved):
        original, loaded = saved
        for tid in original.profiles:
            o, l = original.thread(tid), loaded.thread(tid)
            assert l.cct.total(MetricNames.SAMPLES) == o.cct.total(
                MetricNames.SAMPLES
            )
            assert l.cct.n_nodes() >= 1

    def test_var_records(self, saved):
        original, loaded = saved
        rec_o = original.thread(5).vars["a"]
        rec_l = loaded.thread(5).vars["a"]
        assert rec_l.kind is rec_o.kind
        assert rec_l.alloc_path == rec_o.alloc_path
        assert dict(rec_l.metrics) == dict(rec_o.metrics)
        assert rec_l.range_for() == rec_o.range_for()
        for b_o, b_l in zip(rec_o.bins, rec_l.bins):
            assert dict(b_o.metrics) == dict(b_l.metrics)

    def test_first_touches(self, saved):
        original, loaded = saved
        fts_o = original.thread(0).first_touches
        fts_l = loaded.thread(0).first_touches
        assert len(fts_l) == len(fts_o)
        np.testing.assert_array_equal(fts_l[0].pages, fts_o[0].pages)
        assert fts_l[0].path == fts_o[0].path

    def test_analysis_identical(self, saved):
        """The whole analysis pipeline gives identical results on the
        loaded archive — the property hpcprof relies on."""
        original, loaded = saved
        an_o = NumaAnalysis(merge_profiles(original))
        an_l = NumaAnalysis(merge_profiles(loaded))
        assert an_l.program_lpi() == pytest.approx(an_o.program_lpi())
        assert an_l.program_remote_fraction() == pytest.approx(
            an_o.program_remote_fraction()
        )
        s_o, s_l = an_o.variable_summary("a"), an_l.variable_summary("a")
        assert s_l.mismatch_ratio == pytest.approx(s_o.mismatch_ratio)
        # Address-centric ranges survive byte-exactly.
        assert merge_profiles(loaded).var("a").ranges_for() == merge_profiles(
            original
        ).var("a").ranges_for()


class TestFormat:
    def test_version_check(self, toy_archive, tmp_path):
        import json

        _, _, arc = toy_archive
        path = save_archive(arc, tmp_path / "p.json")
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_archive(path)

    def test_creates_parent_dirs(self, toy_archive, tmp_path):
        _, _, arc = toy_archive
        path = save_archive(arc, tmp_path / "a" / "b" / "p.json")
        assert path.exists()

    @pytest.mark.parametrize("n_profiles", [None, 1, 0])
    def test_bytes_are_one_json_dumps(self, toy_archive, tmp_path, n_profiles):
        """Profiles are encoded one at a time, yet the file is exactly
        what one ``json.dumps`` of the whole document writes."""
        import copy
        import json

        _, _, arc = toy_archive
        arc = copy.copy(arc)
        arc.profiles = dict(list(arc.profiles.items())[:n_profiles])
        text = save_archive(arc, tmp_path / "p.json").read_text()
        assert text == json.dumps(json.loads(text))
        assert len(json.loads(text)["profiles"]) == len(arc.profiles)
