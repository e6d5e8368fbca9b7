"""Unit tests for the statistics primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    Counter,
    Histogram,
    StatSet,
    geomean,
    merge_counters,
)


class TestCounter:
    def test_inc_and_reset(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert int(c) == 6
        c.reset()
        assert c.value == 0

    def test_repr(self):
        c = Counter("hits")
        c.inc(3)
        assert "hits=3" in repr(c)


class TestHistogram:
    def test_empty_histogram_safe(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.maximum == 0.0
        assert h.percentile(99) == 0.0

    def test_basic_moments(self):
        h = Histogram("lat")
        for v in (1, 2, 3, 4):
            h.add(v)
        assert h.count == 4
        assert h.total == 10
        assert h.mean == 2.5
        assert h.minimum == 1 and h.maximum == 4

    def test_percentiles_nearest_rank(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.add(v)
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100

    @given(
        st.lists(
            st.integers(-10**6, 10**6)
            | st.integers(-10**6, 10**6).map(float),
            max_size=300,
        )
    )
    def test_property_matches_sorted_list(self, samples):
        """Every read equals what the sorted list of samples gives.
        A test sample is all ints or all integral floats, as the
        machine's histograms are (``3`` and ``3.0`` share a dict key)."""
        if any(type(v) is float for v in samples):
            samples = [float(v) for v in samples]
        h = Histogram("x")
        for v in samples:
            h.add(v)
        ordered = sorted(samples)
        n = len(ordered)

        def rank(q):
            return ordered[max(0, math.ceil(q * n) - 1)] if n else 0.0

        assert h.count == n
        assert type(h.total) is float
        assert h.total == float(sum(samples))
        assert h.mean == (float(sum(samples)) / n if n else 0.0)
        assert h.minimum == (ordered[0] if n else 0.0)
        assert h.maximum == (ordered[-1] if n else 0.0)
        for p in (0, 50, 90, 99, 100):
            assert h.percentile(p) == rank(p / 100.0)
        qs = [0.999, 0.0, 0.5, 0.99, 0.5, 1.0]
        assert h.quantiles(qs) == [rank(q) for q in qs]

    def test_memory_bounded_by_distinct_values(self):
        h = Histogram("lat")
        for i in range(1_000_000):
            h.add(i % 10)
        assert len(h.counts) == 10
        assert h.count == 1_000_000
        assert h.total == 4_500_000.0
        assert h.percentile(50) == 4

    def test_inline_counts_idiom_and_reset(self):
        """Hot paths count into a bound ``counts``; ``reset`` clears it
        in place, so the binding stays live."""
        h = Histogram("lat")
        counts = h.counts
        for v in (5, 7, 5):
            counts[v] = counts.get(v, 0) + 1
        assert (h.count, h.total, h.percentile(50)) == (3, 17.0, 5)
        h.reset()
        assert h.count == 0 and h.counts is counts
        counts[9] = counts.get(9, 0) + 1
        assert h.maximum == 9

    def test_percentile_out_of_range_raises(self):
        h = Histogram("lat")
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(100.5)
        with pytest.raises(ValueError):
            h.percentile(-1)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_property_percentile_bounds(self, samples):
        h = Histogram("x")
        for s in samples:
            h.add(s)
        for p in (0, 25, 50, 75, 100):
            value = h.percentile(p)
            assert h.minimum <= value <= h.maximum


class TestStatSet:
    def test_counter_and_histogram_registry(self):
        stats = StatSet("unit")
        stats.counter("a").inc()
        stats.histogram("h").add(7.0)
        assert stats["a"].value == 1
        assert stats["h"].mean == 7.0
        assert "a" in stats and "h" in stats and "zzz" not in stats

    def test_unknown_stat_raises(self):
        with pytest.raises(KeyError):
            StatSet("unit")["nope"]

    def test_same_name_returns_same_object(self):
        stats = StatSet("unit")
        assert stats.counter("c") is stats.counter("c")

    def test_as_dict_flattens(self):
        stats = StatSet("unit")
        stats.counter("c").inc(2)
        stats.histogram("h").add(4.0)
        flat = stats.as_dict()
        assert flat["c"] == 2
        assert flat["h.count"] == 1
        assert flat["h.mean"] == 4.0

    def test_reset_clears_everything(self):
        stats = StatSet("unit")
        stats.counter("c").inc()
        stats.histogram("h").add(1.0)
        stats.reset()
        assert stats.counters["c"] == 0
        assert stats.histograms["h"].count == 0


class TestAggregation:
    def test_merge_counters_sums_by_name(self):
        a, b = StatSet("a"), StatSet("b")
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        b.counter("y").inc(1)
        merged = merge_counters([a, b])
        assert merged == {"x": 5, "y": 1}

    def test_geomean_basics(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, -1.0]) == 0.0  # non-positives ignored
        assert geomean([2.0, 0.0]) == pytest.approx(2.0)

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=50))
    def test_property_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9
