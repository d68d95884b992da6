"""Workload CDFs: Fig. 4's distributions and their paper-cited properties."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.units import KB, MB
from repro.workloads.cdf import EmpiricalCdf
from repro.workloads.distributions import (
    ALL_WORKLOADS,
    CACHE,
    DATA_MINING,
    HADOOP,
    WEB_SEARCH,
    workload_by_name,
)


class TestEmpiricalCdf:
    def test_mean_of_uniform_segment(self):
        cdf = EmpiricalCdf("u", [(1000, 0.0), (2000, 1.0)])
        assert cdf.mean() == 1500.0

    def test_quantiles_interpolate(self):
        cdf = EmpiricalCdf("u", [(1000, 0.0), (2000, 1.0)])
        assert cdf.quantile(0.5) == 1500.0
        assert cdf.quantile(0.0) == 1000.0
        assert cdf.quantile(1.0) == 2000.0

    def test_fraction_below_inverts_quantile(self):
        cdf = EmpiricalCdf("u", [(1000, 0.0), (3000, 0.5), (9000, 1.0)])
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert cdf.fraction_below(cdf.quantile(p)) == pytest.approx(p)

    def test_byte_fraction_below_max_is_one(self):
        for w in ALL_WORKLOADS:
            assert w.byte_fraction_below(w.sizes[-1]) == pytest.approx(1.0)

    def test_byte_fraction_monotone(self):
        w = WEB_SEARCH
        points = [w.byte_fraction_below(x) for x in (10 * KB, 1 * MB, 10 * MB)]
        assert points == sorted(points)

    def test_sampling_respects_support(self):
        rng = random.Random(0)
        for w in ALL_WORKLOADS:
            for _ in range(200):
                s = w.sample(rng)
                assert 1 <= s <= w.sizes[-1]

    def test_sample_mean_matches_analytic(self):
        rng = random.Random(7)
        cdf = EmpiricalCdf("u", [(1000, 0.0), (2000, 1.0)])
        samples = [cdf.sample(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(1500, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdf("bad", [(100, 0.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf("bad", [(100, 0.1), (200, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf("bad", [(100, 0.0), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf("bad", [(0, 0.0), (100, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf("bad", [(100, 0.0), (200, 0.5)])


class TestPaperProperties:
    """The statements the paper makes about Fig. 4."""

    def test_all_heavy_tailed(self):
        """Most flows are small but most bytes are in large flows."""
        for w in ALL_WORKLOADS:
            median = w.quantile(0.5)
            # the median flow contributes a tiny share of the bytes
            assert w.byte_fraction_below(median) < 0.25, w.name

    def test_web_search_least_skewed(self):
        """~60% of web search bytes come from flows < 10 MB — far more
        than the other heavy-tail workloads' sub-10MB byte share."""
        ws = WEB_SEARCH.byte_fraction_below(10 * MB)
        assert 0.45 <= ws <= 0.75
        assert ws > DATA_MINING.byte_fraction_below(10 * MB)
        assert ws > HADOOP.byte_fraction_below(10 * MB)

    def test_small_flow_share_substantial(self):
        """Every workload has a real population of (0,100KB] small flows,
        the bin the paper reports tail FCTs for."""
        for w in ALL_WORKLOADS:
            assert w.fraction_below(100 * KB) >= 0.3, w.name

    def test_web_search_has_large_flows(self):
        assert WEB_SEARCH.fraction_below(10 * MB) < 1.0

    def test_cache_is_small_flow_dominated(self):
        assert CACHE.fraction_below(100 * KB) > 0.95

    def test_lookup_by_name(self):
        for w in ALL_WORKLOADS:
            assert workload_by_name(w.name) is w
        with pytest.raises(KeyError):
            workload_by_name("nope")


@settings(max_examples=50)
@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_property_quantile_monotone(p):
    q1 = WEB_SEARCH.quantile(p)
    q2 = WEB_SEARCH.quantile(min(1.0, p + 0.05))
    assert q2 >= q1


@settings(max_examples=30)
@given(
    knots=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**9),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=2,
        max_size=10,
    )
)
# hypothesis-found: the float sum of the mean read 516467.00000000006
@example(knots=[(516467, 0.0), (516467, 1.0), (516467, 0.3556061908804678)])
def test_property_cdf_roundtrip_or_reject(knots):
    """Any knot list either builds a consistent CDF or raises ValueError."""
    sizes = sorted(k[0] for k in knots)
    probs = sorted(k[1] for k in knots)
    probs[0], probs[-1] = 0.0, 1.0
    cdf = EmpiricalCdf("gen", list(zip(sizes, probs)))
    rng = random.Random(0)
    for _ in range(50):
        assert 1 <= cdf.sample(rng) <= sizes[-1]
    assert sizes[0] <= cdf.mean() <= sizes[-1]
