"""Contention model: inflation under load concentration."""

import numpy as np
import pytest

from repro.machine.interconnect import ContentionModel


class TestValidation:
    def test_invalid_domains(self):
        with pytest.raises(ValueError):
            ContentionModel(0)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            ContentionModel(4, beta=-0.1)

    def test_inflation_cap_below_one(self):
        with pytest.raises(ValueError):
            ContentionModel(4, max_inflation=0.5)

    def test_wrong_shape(self):
        model = ContentionModel(4)
        with pytest.raises(ValueError):
            model.inflation(np.zeros(3), 4)


class TestInflation:
    def test_no_traffic_no_inflation(self):
        model = ContentionModel(4)
        np.testing.assert_array_equal(model.inflation(np.zeros(4), 16), 1.0)

    def test_balanced_traffic_no_inflation(self):
        model = ContentionModel(4, beta=0.5)
        infl = model.inflation(np.full(4, 1000), 16)
        np.testing.assert_allclose(infl, 1.0)

    def test_centralized_traffic_inflates_target_only(self):
        model = ContentionModel(4, beta=0.5, max_inflation=10.0)
        infl = model.inflation(np.array([4000, 0, 0, 0]), 16)
        assert infl[0] == pytest.approx(1 + 0.5 * 3)  # rho=4, excess 3
        np.testing.assert_allclose(infl[1:], 1.0)

    def test_cap_applies(self):
        model = ContentionModel(8, beta=1.0, max_inflation=5.0)
        infl = model.inflation(np.array([1] + [0] * 7) * 8000, 48)
        assert infl[0] == 5.0

    def test_few_threads_drive_less(self):
        model = ContentionModel(4, beta=0.5, max_inflation=10.0)
        hot = np.array([4000, 0, 0, 0])
        one_thread = model.inflation(hot, 1)
        many = model.inflation(hot, 16)
        assert one_thread[0] < many[0]

    def test_inflation_monotone_in_concentration(self):
        model = ContentionModel(2, beta=0.5)
        mild = model.inflation(np.array([600, 400]), 8)
        severe = model.inflation(np.array([900, 100]), 8)
        assert severe[0] > mild[0]
