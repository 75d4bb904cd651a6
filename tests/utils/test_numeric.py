"""Tests for repro.utils.numeric."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.numeric import (
    MONOTONE_ATOL,
    first_nonincreasing_index,
    is_strictly_increasing,
)


class TestMonotonicity:
    def test_increasing(self):
        assert is_strictly_increasing([1.0, 2.0, 3.0])

    def test_flat_fails(self):
        assert not is_strictly_increasing([1.0, 1.0, 2.0])

    def test_decreasing_fails(self):
        assert not is_strictly_increasing([3.0, 2.0])

    def test_empty_and_singleton(self):
        assert is_strictly_increasing([])
        assert is_strictly_increasing([5.0])

    def test_first_nonincreasing_index(self):
        assert first_nonincreasing_index([1.0, 2.0, 2.0, 3.0]) == 2
        assert first_nonincreasing_index([1.0, 0.5]) == 1
        assert first_nonincreasing_index([1.0, 2.0, 3.0]) == -1

    def test_steps_within_atol_count_as_flat(self):
        near_tie = [1.0, 1.0 + MONOTONE_ATOL / 2, 2.0]
        assert not is_strictly_increasing(near_tie)
        assert first_nonincreasing_index(near_tie) == 1
        assert is_strictly_increasing(near_tie, atol=0.0)
        assert first_nonincreasing_index(near_tie, atol=0.0) == -1

    def test_first_nonincreasing_index_of_short_inputs(self):
        assert first_nonincreasing_index([]) == -1
        assert first_nonincreasing_index([5.0]) == -1
        assert first_nonincreasing_index([2.0, 1.0, 0.0]) == 1

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30))
    def test_sorted_unique_always_increasing(self, xs):
        arr = sorted(set(xs))
        if len(arr) >= 2 and min(np.diff(arr)) > 1e-9:
            assert is_strictly_increasing(arr)
