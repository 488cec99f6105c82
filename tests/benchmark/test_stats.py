"""Tests for the paper's statistics formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.benchmark import stats

finite_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestMeanStd:
    def test_mean(self):
        assert stats.mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(ValueError):
            stats.mean([])

    def test_std_constant_series(self):
        assert stats.std([5.0, 5.0, 5.0]) == 0.0

    def test_std_known_value(self):
        assert stats.std([2.0, 4.0]) == pytest.approx(1.0)

    def test_relative_std(self):
        assert stats.relative_std([2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_relative_std_zero_mean(self):
        with pytest.raises(ValueError):
            stats.relative_std([0.0, 0.0])

    def test_pooled_relative_std_averages(self):
        pooled = stats.pooled_relative_std([[2.0, 4.0], [5.0, 5.0]])
        assert pooled == pytest.approx((1.0 / 3.0 + 0.0) / 2)

    def test_pooled_skips_empty_series(self):
        assert stats.pooled_relative_std([[2.0, 4.0], []]) == pytest.approx(1.0 / 3.0)

    def test_pooled_all_empty(self):
        with pytest.raises(ValueError):
            stats.pooled_relative_std([[], []])


class TestSlowdownFactor:
    def test_paper_formula(self):
        # sf = mean over parallelisms of beam/native ratio
        sf = stats.slowdown_factor({1: 10.0, 2: 30.0}, {1: 2.0, 2: 3.0})
        assert sf == pytest.approx((5.0 + 10.0) / 2)

    def test_speedup_below_one(self):
        sf = stats.slowdown_factor({1: 1.0}, {1: 2.0})
        assert sf == 0.5

    def test_mismatched_parallelisms(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({1: 1.0}, {1: 1.0, 2: 1.0})

    def test_empty(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({}, {})

    def test_non_positive_native(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({1: 1.0}, {1: 0.0})


class TestPercentiles:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentiles(values, (0, 20, 50, 99, 100)) == [1.0, 1.0, 3.0, 5.0, 5.0]
        assert stats.percentile(values, 50) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stats.percentiles([], (50,))
        with pytest.raises(ValueError):
            stats.percentiles([1.0], (50, 101))
        with pytest.raises(ValueError):
            stats.percentile([1.0], -1)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
    )
    def test_one_sort_matches_nearest_rank_per_q(self, values, qs):
        picked = stats.percentiles(values, qs)
        ranks = [max(1, math.ceil(q / 100.0 * len(values))) for q in qs]
        assert picked == [sorted(values)[rank - 1] for rank in ranks]
        assert all(type(value) is float for value in picked)

    @given(
        st.integers(min_value=1, max_value=80),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
        st.data(),
    )
    def test_array_percentiles_match_the_sort(self, count, pool, qs, data):
        """On a float array of any length from 1 up, drawn from a few
        values so that ties are common, one ``np.partition`` picks the
        order statistics ``percentiles`` picks after ``sorted``, as
        Python floats."""
        values = data.draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        picked = stats.array_percentiles(np.array(values), qs)
        assert picked == stats.percentiles(values, qs)
        assert all(type(value) is float for value in picked)

    def test_array_percentiles_validation(self):
        with pytest.raises(ValueError):
            stats.array_percentiles(np.array([]), (50,))
        with pytest.raises(ValueError):
            stats.array_percentiles(np.array([1.0]), (50, 101))


class TestProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_relative_std_is_scale_invariant(self, values):
        scaled = [v * 7.5 for v in values]
        assert stats.relative_std(scaled) == pytest.approx(
            stats.relative_std(values), rel=1e-9
        )

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_std_nonnegative(self, values):
        assert stats.std(values) >= 0

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        mu = stats.mean(values)
        tolerance = 1e-9 * max(abs(v) for v in values)
        assert min(values) - tolerance <= mu <= max(values) + tolerance

    @given(
        st.dictionaries(
            st.integers(1, 4), finite_floats, min_size=1, max_size=4
        )
    )
    def test_slowdown_identity_is_one(self, means):
        assert stats.slowdown_factor(means, means) == pytest.approx(1.0)

    @given(
        st.dictionaries(st.integers(1, 4), finite_floats, min_size=1, max_size=4),
        st.floats(min_value=0.1, max_value=100),
    )
    def test_slowdown_scales_linearly_with_beam_times(self, native, factor):
        beam_means = {p: v * factor for p, v in native.items()}
        assert stats.slowdown_factor(beam_means, native) == pytest.approx(factor)
