"""Unit helpers: alignment and the sorted-array fast paths."""

import numpy as np
import pytest

from repro import units


class TestAlignUp:
    def test_already_aligned(self):
        assert units.align_up(4096, 4096) == 4096

    def test_rounds_up(self):
        assert units.align_up(1, 4096) == 4096
        assert units.align_up(4097, 4096) == 8192

    def test_zero(self):
        assert units.align_up(0, 64) == 0

    def test_invalid_alignment(self):
        with pytest.raises(ValueError):
            units.align_up(10, 0)


class TestFastUnique:
    def test_sorted_input(self):
        from repro.units import fast_unique

        a = np.array([1, 1, 2, 3, 3, 3, 7])
        np.testing.assert_array_equal(fast_unique(a), [1, 2, 3, 7])

    def test_unsorted_input(self):
        from repro.units import fast_unique

        a = np.array([5, 1, 5, 2])
        np.testing.assert_array_equal(fast_unique(a), [1, 2, 5])

    def test_empty_and_single(self):
        from repro.units import fast_unique

        assert fast_unique(np.array([], dtype=np.int64)).size == 0
        np.testing.assert_array_equal(fast_unique(np.array([9])), [9])


class TestFirstOccurrenceMask:
    def test_sorted(self):
        from repro.units import first_occurrence_mask

        a = np.array([1, 1, 2, 2, 2, 3])
        np.testing.assert_array_equal(
            first_occurrence_mask(a), [1, 0, 1, 0, 0, 1]
        )

    def test_unsorted_marks_first_in_order(self):
        from repro.units import first_occurrence_mask

        a = np.array([3, 1, 3, 1, 2])
        np.testing.assert_array_equal(
            first_occurrence_mask(a), [1, 1, 0, 0, 1]
        )

    def test_empty(self):
        from repro.units import first_occurrence_mask

        assert first_occurrence_mask(np.array([])).size == 0


def test_fast_unique_matches_numpy_property():
    from hypothesis import given, settings, strategies as st

    from repro.units import fast_unique

    @given(
        st.lists(st.integers(min_value=0, max_value=50), max_size=200),
        st.sampled_from([np.int64, np.uint8, np.uint64]),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def check(values, dtype, ordered):
        # Unsigned keys once read as sorted whatever their order: the
        # sortedness check took an ``np.diff``, which wraps.
        a = np.array(sorted(values) if ordered else values, dtype=dtype)
        out = fast_unique(a)
        np.testing.assert_array_equal(out, np.unique(a))
        assert out.dtype == a.dtype

    check()
    for a in (np.array([5, 3, 5], np.uint8),
              np.array([2**64 - 1, 0, 2**64 - 1], np.uint64)):
        np.testing.assert_array_equal(fast_unique(a), np.unique(a))


def test_first_occurrence_mask_property():
    from hypothesis import given, settings, strategies as st

    from repro.units import first_occurrence_mask

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
    @settings(max_examples=60, deadline=None)
    def check(values):
        a = np.array(values, dtype=np.int64)
        mask = first_occurrence_mask(a)
        # Masked values are exactly the distinct values.
        np.testing.assert_array_equal(np.sort(a[mask]), np.unique(a))
        # And each is the FIRST occurrence of its value.
        for i in np.nonzero(mask)[0]:
            assert a[i] not in a[:i]

    check()


def test_first_occurrence_mask_equals_np_unique_property():
    """Both paths for unsorted keys (the scatter over dense spans,
    ``np.unique`` over sparse ones) and the sorted path mark exactly
    ``np.unique``'s first indices."""
    from hypothesis import given, settings, strategies as st

    from repro.units import first_occurrence_mask

    def unique_mask(a):
        mask = np.zeros(a.size, dtype=bool)
        mask[np.unique(a, return_index=True)[1]] = True
        return mask

    keys = st.one_of(
        st.lists(st.integers(0, 40), max_size=200),  # dense
        st.lists(st.integers(-60, -20), max_size=200),  # dense, negative
        st.lists(st.integers(-(2**62), 2**62), max_size=50),  # sparse
        st.lists(st.sampled_from([2**40 + 3, 0]), max_size=60),
        st.integers(-(2**62), 2**62).flatmap(
            lambda v: st.lists(st.just(v), max_size=30)  # one value
        ),
        st.lists(st.integers(-5, 5), max_size=1),  # length 0 and 1
    )

    @given(keys, st.booleans())
    @settings(max_examples=200, deadline=None)
    def check(values, ordered):
        a = np.array(sorted(values) if ordered else values, dtype=np.int64)
        np.testing.assert_array_equal(first_occurrence_mask(a), unique_mask(a))

    check()
    # Each side of the 4 * n span bound, and unsigned and narrow keys.
    for a in (np.array([0, 8, 0]), np.array([0, 12, 0, 5]),
              np.array([0, 13, 0, 5]), np.array([200, 7, 200], np.uint8),
              np.array([127, -128, 127], np.int8),
              np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], np.uint64)):
        np.testing.assert_array_equal(first_occurrence_mask(a), unique_mask(a))
