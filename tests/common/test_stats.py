"""Statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.stats import (
    geomean,
    mean,
    mpki,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 100) == 100

    def test_single_element(self):
        assert percentile([7], 50) == 7

    def test_zero_percentile_gives_first(self):
        assert percentile([1, 2, 3], 0) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_result_is_member(self, values, p):
        values.sort()
        assert percentile(values, p) in values


class TestGeomean:
    def test_known_value(self):
        assert math.isclose(geomean([1, 100]), 10.0)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            geomean([1, 0])
        with pytest.raises(ValueError):
            geomean([])

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestMean:
    def test_simple(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestMpki:
    def test_value(self):
        assert mpki(5, 1000) == 5.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            mpki(1, 0)
