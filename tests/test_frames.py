"""Physical frame accounting: reservation, spilling, release."""

import pytest

from repro.errors import AllocationError
from repro.machine.frames import FrameManager
from repro.machine.topology import NumaTopology


@pytest.fixture
def frames():
    topo = NumaTopology(n_domains=3, cores_per_domain=1)
    return FrameManager(topo, frames_per_domain=100)


class TestReserve:
    def test_reserve_preferred_domain(self, frames):
        assert frames.reserve(1, 10) == 1
        assert frames.available(1) == 90

    def test_spill_to_nearest_when_full(self, frames):
        frames.reserve(0, 100)
        got = frames.reserve(0, 10)
        assert got != 0
        assert frames.available(got) == 90

    def test_out_of_memory_raises(self, frames):
        for d in range(3):
            frames.reserve(d, 100)
        with pytest.raises(AllocationError):
            frames.reserve(0, 1)

    def test_nonpositive_count_rejected(self, frames):
        with pytest.raises(AllocationError):
            frames.reserve(0, 0)

    def test_reserve_exact_strict(self, frames):
        frames.reserve_exact(2, 100)
        with pytest.raises(AllocationError):
            frames.reserve_exact(2, 1)

    def test_reserve_exact_does_not_spill(self, frames):
        frames.reserve_exact(0, 100)
        with pytest.raises(AllocationError):
            frames.reserve_exact(0, 1)
        # Other domains untouched.
        assert frames.available(1) == 100


class TestRelease:
    def test_release_returns_frames(self, frames):
        frames.reserve(0, 50)
        frames.release(0, 30)
        assert frames.available(0) == 80

    def test_release_more_than_used_raises(self, frames):
        frames.reserve(0, 10)
        with pytest.raises(AllocationError):
            frames.release(0, 11)

    def test_negative_release_raises(self, frames):
        with pytest.raises(AllocationError):
            frames.release(0, -1)


class TestAccounting:
    def test_total_available(self, frames):
        assert frames.total_available() == 300
        frames.reserve(0, 25)
        assert frames.total_available() == 275

    def test_invalid_capacity(self):
        topo = NumaTopology(n_domains=1, cores_per_domain=1)
        with pytest.raises(AllocationError):
            FrameManager(topo, frames_per_domain=0)
