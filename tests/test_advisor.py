"""The optimization advisor: verdicts and per-variable recommendations."""


from repro.analysis import NumaAnalysis, advise, merge_profiles
from repro.analysis.advisor import Action
from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.sampling import IBS
from repro.workloads import CentralHotspot, PartitionedSweep

from tests.conftest import ToyProgram


def analyze(program, n_threads=8, machine=None):
    machine = machine or presets.generic(n_domains=4, cores_per_domain=2)
    prof = NumaProfiler(IBS(period=512))
    engine = ExecutionEngine(machine, program, n_threads, monitor=prof)
    engine.run()
    an = NumaAnalysis(merge_profiles(prof.archive))
    tdom = {t.tid: t.domain for t in engine.threads}
    return advise(an, thread_domains=tdom), an


class TestVerdict:
    def test_blocked_program_warrants_blockwise(self):
        advice, _ = analyze(PartitionedSweep(n_elems=400_000, steps=4))
        assert advice.worth_optimizing
        recs = {r.var_name: r for r in advice.recommendations}
        assert recs["data"].action is Action.BLOCKWISE
        assert len(recs["data"].blockwise_domains) == 4
        assert recs["data"].blockwise_domains == [0, 1, 2, 3]

    def test_uniform_program_gets_interleave(self):
        advice, _ = analyze(CentralHotspot(n_elems=400_000, steps=4))
        recs = {r.var_name: r for r in advice.recommendations}
        assert recs["table"].action is Action.INTERLEAVE

    def test_first_touch_paths_reported(self):
        advice, _ = analyze(ToyProgram())
        rec = advice.recommendations[0]
        assert rec.first_touch_paths
        path = next(iter(rec.first_touch_paths))
        assert any("init" in f.func for f in path)

    def test_rationales_are_informative(self):
        advice, _ = analyze(ToyProgram())
        assert "lpi" in advice.rationale
        for rec in advice.recommendations:
            assert rec.var_name in rec.rationale
            assert rec.remote_cost_share > 0


class TestBelowThreshold:
    def test_low_lpi_means_no_recommendations(self):
        """A compute-dominated program must get the Blackscholes verdict."""
        from repro.runtime.callstack import SourceLoc
        from repro.runtime.chunks import compute_chunk, sweep_chunk
        from repro.runtime.program import Region, RegionKind

        class ComputeHeavy(ToyProgram):
            def regions(self, ctx):
                a = ctx.var("a")

                def init(ctx, tid):
                    yield sweep_chunk(
                        a, 0, self.n_elems, SourceLoc("init"), is_store=True
                    )

                def kernel(ctx, tid):
                    lo, hi = ctx.partition(self.n_elems, tid)
                    yield sweep_chunk(a, lo, max((hi - lo) // 8, 1),
                                      SourceLoc("k"), stride_elems=8)
                    yield compute_chunk(50_000_000, SourceLoc("pde"))

                return [
                    Region("init", RegionKind.SERIAL, init, SourceLoc("init")),
                    Region("k._omp", RegionKind.PARALLEL, kernel,
                           SourceLoc("k._omp"), repeat=2),
                ]

        advice, an = analyze(ComputeHeavy())
        assert an.program_lpi() < 0.1
        assert not advice.worth_optimizing
        assert advice.recommendations == []
        assert "NUMA" in advice.rationale


class TestThresholdBoundary:
    """The paper says "below the 0.1 threshold" — strictly below.

    lpi == threshold exactly must therefore warrant optimization; only
    lpi < threshold earns the not-worth-it verdict.
    """

    class _FixedLpiAnalysis:
        """Duck-typed stand-in for NumaAnalysis with a pinned lpi."""

        def __init__(self, lpi):
            from types import SimpleNamespace

            self._lpi = lpi
            self.merged = SimpleNamespace(program="boundary", n_domains=4)
            self.caps = SimpleNamespace(measures_latency=True)

        def program_lpi(self):
            return self._lpi

        def hot_variables(self, top):
            return []

    def test_exactly_at_threshold_warrants_optimization(self):
        from repro.profiler.metrics import LPI_THRESHOLD, warrants_optimization

        advice = advise(self._FixedLpiAnalysis(LPI_THRESHOLD))
        assert advice.worth_optimizing
        assert ">=" in advice.rationale
        assert warrants_optimization(LPI_THRESHOLD)

    def test_just_below_threshold_does_not(self):
        from repro.profiler.metrics import LPI_THRESHOLD, warrants_optimization

        eps = 1e-12
        advice = advise(self._FixedLpiAnalysis(LPI_THRESHOLD - eps))
        assert not advice.worth_optimizing
        assert advice.recommendations == []
        assert not warrants_optimization(LPI_THRESHOLD - eps)


class TestScoping:
    def test_min_cost_share_filters(self):
        advice, an = analyze(ToyProgram())
        filtered = advise(an, min_cost_share=2.0)  # impossible bar
        assert filtered.worth_optimizing
        assert filtered.recommendations == []


class TestNoLatencyVerdict:
    """Without latency the verdict is Section 4.1's M_r vs M_l rule.

    The advisor, the report and the CLI share ``metrics.verdict``, so a
    remote fraction near zero can no longer come with a "high remote
    traffic" verdict beside it.
    """

    class _FixedRemoteAnalysis:
        """Duck-typed NumaAnalysis for a mechanism without latency."""

        def __init__(self, remote_frac):
            from types import SimpleNamespace

            self._rf = remote_frac
            self.merged = SimpleNamespace(program="no-latency", n_domains=4)
            self.caps = SimpleNamespace(measures_latency=False)

        def program_lpi(self):
            return None

        def program_remote_fraction(self):
            return self._rf

        def hot_variables(self, top):
            return []

    def test_rule(self):
        from repro.profiler.metrics import verdict

        # M_r / M_l >= 0.1 <=> remote fraction >= 1/11.
        assert not verdict(None, 0.0)
        assert not verdict(None, 0.08)
        assert verdict(None, 0.1)
        assert verdict(None, 1.0)
        assert not verdict(None, None)
        # With latency, lpi decides and the remote fraction is ignored.
        assert verdict(0.5, 0.0)
        assert not verdict(0.05, 1.0)

    def test_low_remote_fraction_is_not_worth_optimizing(self):
        advice = advise(self._FixedRemoteAnalysis(0.0))
        assert not advice.worth_optimizing
        assert advice.recommendations == []
        assert "remote access fraction = 0.0%" in advice.rationale
        assert "M_r/M_l < 0.1" in advice.rationale

    def test_high_remote_fraction_warrants_optimization(self):
        advice = advise(self._FixedRemoteAnalysis(0.86))
        assert advice.worth_optimizing
        assert "remote access fraction = 86.0%" in advice.rationale
        assert "M_r/M_l >= 0.1" in advice.rationale

    def test_umt_cli_verdict_agrees_with_its_number(self, capsys):
        from repro.__main__ import main

        assert main(["umt", "--scale", "0.1", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "remote fraction of sampled accesses = 0%" in out
        assert "high remote traffic" not in out
        advisor = [ln for ln in out.splitlines() if ln.startswith("advisor:")]
        assert len(advisor) == 1 and "M_r/M_l < 0.1" in advisor[0]
        assert "  -> " not in out
