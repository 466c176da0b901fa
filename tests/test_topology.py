"""NUMA topology: CPU/domain mapping and distances."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.machine.topology import MAX_CPUS, MAX_DOMAINS, NumaTopology


class TestConstruction:
    def test_defaults(self):
        topo = NumaTopology(n_domains=4, cores_per_domain=6)
        assert topo.n_cores == 24
        assert topo.n_cpus == 24
        assert topo.distances.shape == (4, 4)
        assert np.all(np.diag(topo.distances) == 10)

    def test_smt_multiplies_cpus(self):
        topo = NumaTopology(n_domains=4, cores_per_domain=8, smt=4)
        assert topo.n_cpus == 128

    def test_invalid_domain_count(self):
        with pytest.raises(TopologyError):
            NumaTopology(n_domains=0, cores_per_domain=1)

    def test_invalid_core_count(self):
        with pytest.raises(TopologyError):
            NumaTopology(n_domains=1, cores_per_domain=-1)

    def test_asymmetric_distance_rejected(self):
        dist = np.array([[10, 20], [30, 10]])
        with pytest.raises(TopologyError):
            NumaTopology(n_domains=2, cores_per_domain=1, distances=dist)

    def test_limits_of_the_page_table_widths(self):
        # Page owners are int8 (-1 = unbound) and first touchers int16.
        assert (MAX_DOMAINS, MAX_CPUS) == (127, 32767)
        NumaTopology(n_domains=MAX_DOMAINS, cores_per_domain=1)
        NumaTopology(n_domains=1, cores_per_domain=MAX_CPUS)
        for kwargs in (
            dict(n_domains=MAX_DOMAINS + 1, cores_per_domain=1),
            dict(n_domains=1, cores_per_domain=MAX_CPUS + 1),
            dict(n_domains=2, cores_per_domain=4096, smt=4),
        ):
            with pytest.raises(TopologyError, match="exceed the page table"):
                NumaTopology(**kwargs)

    def test_wrong_shape_rejected(self):
        with pytest.raises(TopologyError):
            NumaTopology(
                n_domains=3, cores_per_domain=1, distances=np.eye(2) * 10
            )

    def test_local_must_be_minimal(self):
        dist = np.array([[30, 20], [20, 10]])
        with pytest.raises(TopologyError):
            NumaTopology(n_domains=2, cores_per_domain=1, distances=dist)


class TestCpuMapping:
    def test_domain_of_cpu_layout(self):
        topo = NumaTopology(n_domains=4, cores_per_domain=2)
        assert topo.domain_of_cpu(0) == 0
        assert topo.domain_of_cpu(1) == 0
        assert topo.domain_of_cpu(2) == 1
        assert topo.domain_of_cpu(7) == 3

    def test_domain_of_cpu_with_smt(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=2, smt=2)
        # 4 hardware threads per domain.
        assert topo.domain_of_cpu(3) == 0
        assert topo.domain_of_cpu(4) == 1

    def test_domain_of_cpu_vectorized(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=2)
        out = topo.domain_of_cpu(np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(out, [0, 0, 1, 1])

    def test_out_of_range_cpu(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=2)
        with pytest.raises(TopologyError):
            topo.domain_of_cpu(4)
        with pytest.raises(TopologyError):
            topo.domain_of_cpu(-1)

    def test_cpus_of_domain_roundtrip(self):
        topo = NumaTopology(n_domains=3, cores_per_domain=2, smt=2)
        for d in range(3):
            for cpu in topo.cpus_of_domain(d):
                assert topo.domain_of_cpu(cpu) == d

    def test_cpus_of_domain_invalid(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=2)
        with pytest.raises(TopologyError):
            topo.cpus_of_domain(2)


class TestDistances:
    def test_default_distance_values(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=1)
        assert topo.distance(0, 0) == 10
        assert topo.distance(0, 1) == 20

    def test_remote_domains_sorted_by_distance(self):
        dist = np.array(
            [[10, 30, 15], [30, 10, 20], [15, 20, 10]], dtype=np.int64
        )
        topo = NumaTopology(n_domains=3, cores_per_domain=1, distances=dist)
        assert topo.remote_domains(0) == [2, 1]

    def test_describe_mentions_counts(self):
        topo = NumaTopology(n_domains=8, cores_per_domain=6, name="test")
        text = topo.describe()
        assert "8" in text and "6" in text
