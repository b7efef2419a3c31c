"""Tests for the active-neuron sampling strategies and their probabilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LSHConfig, SamplingConfig
from repro.lsh.index import LSHIndex, QueryResult
from repro.lsh.table import HashTable
from repro.sampling.probability import hard_threshold_curve
from repro.sampling.strategies import (
    HardThresholdSampling,
    TopKSampling,
    VanillaSampling,
    make_sampling_strategy,
)


@pytest.fixture
def built_index(rng) -> tuple[LSHIndex, np.ndarray]:
    config = LSHConfig(hash_family="simhash", k=4, l=16, bucket_size=32)
    index = LSHIndex(input_dim=24, config=config, seed=2)
    weights = rng.normal(size=(200, 24))
    index.build(weights)
    return index, weights


class TestVanillaSampling:
    def test_respects_target_active(self, built_index, rng):
        index, weights = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(0))
        active = strategy.sample(index, rng.normal(size=24), target_active=10)
        assert 0 < active.size <= 10 + index.config.bucket_size  # stops after exceeding target
        assert active.size == np.unique(active).size

    def test_truncates_to_target_when_overshooting(self, built_index, rng):
        index, _ = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(1))
        active = strategy.sample(index, rng.normal(size=24), target_active=5)
        assert active.size <= 5

    def test_no_target_returns_union_of_probed_tables(self, built_index, rng):
        index, _ = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(2))
        active = strategy.sample(index, rng.normal(size=24), target_active=None)
        assert active.size >= 0

    def test_select_from_result(self):
        strategy = VanillaSampling(rng=np.random.default_rng(3))
        result = QueryResult(buckets=[np.array([1, 2, 3]), np.array([4, 5])])
        selected = strategy.select_from_result(result, target_active=2)
        assert selected.size <= 2 + 3
        assert set(selected.tolist()).issubset({1, 2, 3, 4, 5})

    def test_empty_buckets_return_empty(self):
        strategy = VanillaSampling(rng=np.random.default_rng(4))
        result = QueryResult(buckets=[np.zeros(0, dtype=np.int64)] * 3)
        assert strategy.select_from_result(result, 5).size == 0


def _reference_collect(rng, num_tables, get_bucket, target_active):
    """Vanilla selection with one ``np.unique`` per table probe.

    ``VanillaSampling`` must match this loop in ids, dtype and RNG draws,
    and must not probe more tables than it does.
    """
    order = rng.permutation(num_tables)
    collected = []
    count = 0
    for table_idx in order:
        bucket = get_bucket(int(table_idx))
        if bucket.size:
            collected.append(bucket)
            count = np.unique(np.concatenate(collected)).size
        if target_active is not None and count >= target_active:
            break
    if not collected:
        return np.zeros(0, dtype=np.int64)
    unique = np.unique(np.concatenate(collected))
    if target_active is not None and unique.size > target_active:
        keep = rng.choice(unique.size, size=target_active, replace=False)
        unique = np.sort(unique[keep])
    return unique.astype(np.int64)


def _assert_same_selection(got, expected, got_rng, expected_rng):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert got_rng.bit_generator.state == expected_rng.bit_generator.state


def _random_buckets(gen):
    """Per-table buckets over a small id universe: empty buckets and ids
    repeated across tables are common."""
    universe = int(gen.integers(1, 50))
    buckets = []
    for _ in range(int(gen.integers(0, 12))):
        size = 0 if gen.random() < 0.25 else int(gen.integers(0, min(universe, 10) + 1))
        buckets.append(np.sort(gen.choice(universe, size=size, replace=False)).astype(np.int64))
    return buckets


class TestVanillaMatchesPerProbeReference:
    TARGETS = (None, 0, 1, 3, 7, 20, 10**6)

    @pytest.mark.parametrize(
        "buckets",
        [
            [],
            [np.zeros(0, dtype=np.int64)] * 4,
            [np.array([1, 2, 3]), np.array([2, 3]), np.array([3, 4, 5]), np.array([1, 5])],
            [np.zeros(0, dtype=np.int64), np.array([7]), np.zeros(0, dtype=np.int64), np.array([7, 8])],
            [np.arange(10), np.arange(5, 15), np.arange(10, 20)],
        ],
    )
    @pytest.mark.parametrize("target", TARGETS)
    def test_select_from_result_edge_cases(self, buckets, target):
        expected_rng = np.random.default_rng(11)
        expected = _reference_collect(
            expected_rng, len(buckets), lambda t: buckets[t], target
        )
        got_rng = np.random.default_rng(11)
        got = VanillaSampling(rng=got_rng).select_from_result(
            QueryResult(buckets=list(buckets)), target
        )
        _assert_same_selection(got, expected, got_rng, expected_rng)

    def test_select_from_result_random_cases(self):
        gen = np.random.default_rng(2024)
        for _ in range(2000):
            buckets = _random_buckets(gen)
            target = self.TARGETS[int(gen.integers(len(self.TARGETS)))]
            seed = int(gen.integers(2**32))
            expected_rng = np.random.default_rng(seed)
            expected = _reference_collect(
                expected_rng, len(buckets), lambda t: buckets[t], target
            )
            got_rng = np.random.default_rng(seed)
            got = VanillaSampling(rng=got_rng).select_from_result(
                QueryResult(buckets=buckets), target
            )
            _assert_same_selection(got, expected, got_rng, expected_rng)

    @pytest.mark.parametrize("target", TARGETS)
    def test_sample_on_built_index(self, built_index, rng, target):
        index, _ = built_index
        got_rng = np.random.default_rng(5)
        strategy = VanillaSampling(rng=got_rng)
        expected_rng = np.random.default_rng(5)
        for _ in range(20):
            query = rng.normal(size=24)
            codes = index.hash_family.hash_vector(query)
            expected = _reference_collect(
                expected_rng,
                index.l,
                lambda t: index.tables[t].query(codes[t]),
                target,
            )
            got = strategy.sample(index, query, target)
            _assert_same_selection(got, expected, got_rng, expected_rng)


class TestVanillaProbeCount:
    """Fig 4's O(beta) property: Vanilla stops probing once it has enough."""

    @pytest.fixture
    def probes(self, monkeypatch):
        counter = {"calls": 0}
        query = HashTable.query

        def counting_query(table, codes):
            counter["calls"] += 1
            return query(table, codes)

        monkeypatch.setattr(HashTable, "query", counting_query)
        return counter

    @pytest.mark.parametrize("target", [None, 1, 10, 40, 150, 10**6])
    def test_never_probes_more_tables_than_reference(self, built_index, rng, probes, target):
        index, _ = built_index
        for seed in range(20):
            query = rng.normal(size=24)
            codes = index.hash_family.hash_vector(query)
            probes["calls"] = 0
            _reference_collect(
                np.random.default_rng(seed),
                index.l,
                lambda t: index.tables[t].query(codes[t]),
                target,
            )
            reference_probes = probes["calls"]
            probes["calls"] = 0
            VanillaSampling(rng=np.random.default_rng(seed)).sample(index, query, target)
            assert probes["calls"] <= reference_probes

    def test_small_target_stops_early(self, built_index, rng, probes):
        index, _ = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(8))
        for _ in range(20):
            probes["calls"] = 0
            assert strategy.sample(index, rng.normal(size=24), target_active=1).size == 1
            assert probes["calls"] < index.l


class TestTopKSampling:
    def test_selects_most_frequent(self):
        strategy = TopKSampling()
        result = QueryResult(
            buckets=[np.array([1, 2]), np.array([2, 3]), np.array([2, 4]), np.array([3])]
        )
        selected = strategy.select_from_result(result, target_active=2)
        assert 2 in selected  # appears 3 times
        assert 3 in selected  # appears twice
        assert selected.size == 2

    def test_returns_all_when_fewer_than_target(self):
        strategy = TopKSampling()
        result = QueryResult(buckets=[np.array([5, 9])])
        np.testing.assert_array_equal(strategy.select_from_result(result, 10), [5, 9])

    def test_sample_uses_all_tables(self, built_index, rng):
        index, _ = built_index
        queries_before = index.num_queries
        strategy = TopKSampling()
        strategy.sample(index, rng.normal(size=24), target_active=8)
        assert index.num_queries == queries_before + 1


class TestHardThresholdSampling:
    def test_keeps_only_frequent_candidates(self):
        strategy = HardThresholdSampling(threshold=2)
        result = QueryResult(
            buckets=[np.array([1, 2]), np.array([2, 3]), np.array([2, 3]), np.array([4])]
        )
        selected = strategy.select_from_result(result, target_active=None)
        np.testing.assert_array_equal(selected, [2, 3])

    def test_falls_back_when_nothing_clears_threshold(self):
        strategy = HardThresholdSampling(threshold=5)
        result = QueryResult(buckets=[np.array([1]), np.array([2])])
        selected = strategy.select_from_result(result, target_active=1)
        assert selected.size == 1

    def test_respects_target_active_cap(self):
        strategy = HardThresholdSampling(threshold=1, rng=np.random.default_rng(0))
        result = QueryResult(buckets=[np.arange(50), np.arange(50)])
        selected = strategy.select_from_result(result, target_active=10)
        assert selected.size == 10

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            HardThresholdSampling(threshold=0)


class TestStrategyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("vanilla", VanillaSampling),
            ("topk", TopKSampling),
            ("hard_threshold", HardThresholdSampling),
        ],
    )
    def test_builds_by_name(self, name, cls):
        config = SamplingConfig(strategy=name)
        assert isinstance(make_sampling_strategy(config), cls)

    def test_hard_threshold_gets_configured_threshold(self):
        config = SamplingConfig(strategy="hard_threshold", hard_threshold=4)
        strategy = make_sampling_strategy(config)
        assert strategy.threshold == 4


class TestSamplingQuality:
    def test_topk_retrieves_higher_inner_product_neurons_than_random(self, rng):
        """Adaptive sampling must be biased toward large inner products —
        the property that distinguishes SLIDE from static sampled softmax."""
        config = LSHConfig(hash_family="simhash", k=5, l=24, bucket_size=32)
        index = LSHIndex(input_dim=32, config=config, seed=3)
        weights = rng.normal(size=(300, 32))
        index.build(weights)
        strategy = TopKSampling()
        query = rng.normal(size=32)
        active = strategy.sample(index, query, target_active=30)
        assert active.size > 0
        sampled_mean = np.mean(weights[active] @ query)
        overall_mean = np.mean(weights @ query)
        assert sampled_mean > overall_mean


class TestProbabilityCurves:
    def test_hard_threshold_curve_shape(self):
        p_values, selected = hard_threshold_curve(k=1, l=10, m=3)
        assert p_values.shape == selected.shape
        assert np.all((selected >= 0) & (selected <= 1))
        # Selection probability increases with collision probability.
        assert np.all(np.diff(selected) >= -1e-12)

    def test_higher_threshold_selects_less(self):
        p_values, low = hard_threshold_curve(k=1, l=10, m=1)
        _, high = hard_threshold_curve(k=1, l=10, m=9)
        assert np.all(high <= low + 1e-12)
        # Figure 11's qualitative claim: at p=0.8+, even m=9 has a decent chance.
        assert high[-1] > 0.4
