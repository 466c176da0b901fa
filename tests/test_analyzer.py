"""Derived-metric analysis over merged profiles."""

import pytest

from repro.analysis import NumaAnalysis, merge_profiles
from repro.profiler import NumaProfiler
from repro.profiler.metrics import MetricNames, verdict
from repro.runtime import ExecutionEngine
from repro.runtime.heap import VariableKind
from repro.machine import presets
from repro.sampling import IBS, MRK



@pytest.fixture
def analysis(toy_archive):
    _, _, arc = toy_archive
    return NumaAnalysis(merge_profiles(arc))


class TestProgramMetrics:
    def test_lpi_positive_and_warranting(self, analysis):
        lpi = analysis.program_lpi()
        assert lpi is not None and lpi > 0.1
        assert verdict(lpi)

    def test_remote_fraction(self, analysis):
        # 6 of 8 threads remote, but master's init+compute samples are all
        # local: somewhere between 0.4 and 0.8.
        assert 0.4 < analysis.program_remote_fraction() < 0.8

    def test_latency_fractions_consistent(self, analysis):
        assert analysis.total_latency() >= analysis.total_remote_latency() > 0
        assert 0 < analysis.remote_latency_fraction() <= 1

    def test_domain_balance_centralized(self, analysis):
        balance = analysis.domain_balance()
        assert balance[0] == balance.sum()  # everything targets domain 0

    def test_mrk_has_no_lpi(self, small_machine, toy_program):
        prof = NumaProfiler(MRK(max_rate=1e9))
        ExecutionEngine(small_machine, toy_program, 8, monitor=prof).run()
        an = NumaAnalysis(merge_profiles(prof.archive))
        assert an.program_lpi() is None
        # Without latency the verdict goes by M_r / M_l: the toy
        # program's centralized array is remote for most threads.
        assert verdict(None, an.program_remote_fraction())


class TestVariableRanking:
    def test_hot_variables_single_var(self, analysis):
        hot = analysis.hot_variables()
        assert len(hot) == 1
        assert hot[0].name == "a"
        assert hot[0].remote_latency_share == pytest.approx(1.0)

    def test_variable_summary_fields(self, analysis):
        s = analysis.variable_summary("a")
        assert s.kind is VariableKind.HEAP
        assert s.m_r > s.m_l > 0
        assert s.lpi > 0
        assert len(s.domain_counts) == 4

    def test_kind_share(self, analysis):
        assert analysis.kind_share(VariableKind.HEAP) == pytest.approx(1.0)
        assert analysis.kind_share(VariableKind.STACK) == 0.0


class TestContexts:
    def test_hot_contexts_ranked(self, analysis):
        ranked = analysis.hot_contexts("a")
        assert len(ranked) == 2  # init + compute
        shares = [s for _, s in ranked]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_compute_dominates_remote_latency(self, analysis):
        assert analysis.context_share("a", "compute._omp") > 0.8

    def test_context_share_unknown_region(self, analysis):
        assert analysis.context_share("a", "nothing") == 0.0


class TestRegionMetrics:
    def test_region_metrics_subset_of_total(self, analysis):
        region = analysis.region_metrics("compute._omp")
        total = analysis.merged.totals()
        assert 0 < region[MetricNames.SAMPLES] <= total[MetricNames.SAMPLES]

    def test_region_lpi(self, analysis):
        lpi = analysis.region_lpi("compute._omp")
        assert lpi is not None and lpi > 0

    def test_missing_region_empty(self, analysis):
        assert analysis.region_metrics("ghost") == {}


class TestImbalancedVariables:
    def test_centralized_variable_flagged(self, analysis):
        flagged = analysis.imbalanced_variables()
        assert flagged and flagged[0][0] == "a"
        # Fully centralized on a 4-domain machine: imbalance = 4.
        assert flagged[0][1] == pytest.approx(4.0)

    def test_threshold_filters(self, analysis):
        assert analysis.imbalanced_variables(threshold=5.0) == []

    def test_balanced_variable_not_flagged(self):
        from repro.optim.policies import NumaTuning
        from repro.workloads import PartitionedSweep

        machine = presets.generic(n_domains=4, cores_per_domain=2)
        prof = NumaProfiler(IBS(period=512))
        ExecutionEngine(
            machine,
            PartitionedSweep(
                NumaTuning(parallel_init={"data"}), n_elems=400_000, steps=3
            ),
            8,
            monitor=prof,
        ).run()
        an = NumaAnalysis(merge_profiles(prof.archive))
        assert an.imbalanced_variables(threshold=1.5) == []
