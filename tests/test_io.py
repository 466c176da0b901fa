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
        """Profiles are written piece by piece, yet the file is exactly
        what one ``json.dumps`` of the archive's dict form writes."""
        import copy
        import json

        _, _, arc = toy_archive
        arc = copy.copy(arc)
        arc.profiles = dict(list(arc.profiles.items())[:n_profiles])
        text = save_archive(arc, tmp_path / "p.json").read_text()
        assert text == json.dumps(json.loads(text))
        assert text == _dict_form(arc)
        assert len(json.loads(text)["profiles"]) == len(arc.profiles)


# ---------------------------------------------------------------------- #
# the streamed writer against one json.dumps of the archive's dict form
# ---------------------------------------------------------------------- #

def _dict_form(arc) -> str:
    """The whole archive as one dict, encoded by one ``json.dumps``: the
    document ``save_archive`` writes piece by piece."""
    import json
    from dataclasses import asdict

    def path(p):
        return [[f.func, f.file, f.line] for f in p]

    def cct(c):
        return [
            [path(node.path()), dict(node.metrics)]
            for node in c.root.walk() if node.metrics
        ]

    def var(rec):
        return {
            "name": rec.name,
            "kind": rec.kind.value,
            "alloc_path": path(rec.alloc_path),
            "base": rec.base,
            "nbytes": rec.nbytes,
            "n_bins": rec.n_bins,
            "metrics": dict(rec.metrics),
            "bins": [dict(b.metrics) for b in rec.bins],
            "ranges": [[path(p), a.tolist()] for p, a in rec.ranges.items()],
        }

    def touch(ft):
        return {
            "var_name": ft.var_name, "tid": ft.tid, "cpu": ft.cpu,
            "domain": ft.domain, "pages": ft.pages.tolist(),
            "path": path(ft.path),
        }

    return json.dumps({
        "format_version": 1,
        "program": arc.program,
        "machine_desc": arc.machine_desc,
        "n_domains": arc.n_domains,
        "mechanism_name": arc.mechanism_name,
        "capabilities": asdict(arc.capabilities)
        if arc.capabilities is not None else None,
        "profiles": {
            tid: {
                "tid": p.tid, "cpu": p.cpu, "domain": p.domain,
                "cct": cct(p.cct), "data_cct": cct(p.data_cct),
                "vars": {name: var(r) for name, r in p.vars.items()},
                "first_touches": [touch(ft) for ft in p.first_touches],
                "counters": dict(p.counters),
                "page_heat": {str(pg): row for pg, row in p.page_heat.items()},
            }
            for tid, p in arc.profiles.items()
        },
    })


def _variant(arc, edit):
    """A copy of ``arc`` whose profiles are ``edit(tid, profile)``."""
    import copy
    import dataclasses

    out = copy.copy(arc)
    out.profiles = {
        tid: edit(tid, dataclasses.replace(p, vars=dict(p.vars),
                                           first_touches=list(p.first_touches)))
        for tid, p in arc.profiles.items()
    }
    return out


class TestStreamedBytes:
    def _check(self, arc, tmp_path):
        text = save_archive(arc, tmp_path / "p.json").read_text()
        assert text == _dict_form(arc)
        return text

    def test_no_first_touches(self, toy_archive, tmp_path):
        _, _, arc = toy_archive

        def edit(tid, p):
            p.first_touches = []
            return p

        text = self._check(_variant(arc, edit), tmp_path)
        assert '"first_touches": []' in text

    def test_300k_page_record(self, toy_archive, tmp_path):
        from repro.analysis.io import SLICE
        from repro.profiler.profile_data import FirstTouchRecord

        _, _, arc = toy_archive
        ft0 = next(ft for p in arc.profiles.values() for ft in p.first_touches)
        pages = np.arange(300_000, dtype=np.uint32) * 3 + 2**31
        assert pages.size % SLICE

        def edit(tid, p):
            if tid == ft0.tid:
                p.first_touches.append(FirstTouchRecord(
                    ft0.var_name, tid, p.cpu, p.domain, pages, ft0.path,
                ))
            return p

        arc = _variant(arc, edit)
        self._check(arc, tmp_path)
        loaded = load_archive(tmp_path / "p.json")
        got = loaded.thread(ft0.tid).first_touches[-1].pages
        assert np.array_equal(got, pages)

    def test_non_ascii_variable_name(self, toy_archive, tmp_path):
        import copy

        _, _, arc = toy_archive
        name = "température_Δt"

        def edit(tid, p):
            recs = {}
            for key, rec in p.vars.items():
                rec = copy.copy(rec)
                rec.name = name if key == "a" else key
                recs[rec.name] = rec
            p.vars = recs
            p.first_touches = [
                copy.copy(ft) for ft in p.first_touches
            ]
            for ft in p.first_touches:
                if ft.var_name == "a":
                    ft.var_name = name
            return p

        arc = _variant(arc, edit)
        text = self._check(arc, tmp_path)
        assert name not in text and "\\u0394" in text
        loaded = load_archive(tmp_path / "p.json")
        assert name in loaded.thread(5).vars

    def test_page_heat_over_several_slices(self, toy_archive, tmp_path):
        from repro.analysis.io import SLICE

        _, _, arc = toy_archive

        def edit(tid, p):
            p.page_heat = {
                page: [1.0, 0.5 * page, float("inf") if page % 7 else 3.0, 2.0]
                for page in range(tid, tid + 2 * SLICE + 5)
            }
            return p

        self._check(_variant(arc, edit), tmp_path)
