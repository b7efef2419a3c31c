"""Tests for the single hash table and the multi-table LSH index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.index import LSHIndex, QueryResult
from repro.lsh.policies import FIFOPolicy
from repro.lsh.table import HashTable


def make_table(k=3, cardinality=4, bucket_size=8):
    return HashTable(k=k, code_cardinality=cardinality, bucket_size=bucket_size, policy=FIFOPolicy())


class TestHashTable:
    def test_fingerprint_is_injective_over_code_tuples(self):
        table = make_table(k=3, cardinality=4)
        seen = set()
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    fp = table.fingerprint(np.array([a, b, c]))
                    assert fp not in seen
                    seen.add(fp)

    def test_fingerprint_validates_input(self):
        table = make_table(k=2, cardinality=2)
        with pytest.raises(ValueError):
            table.fingerprint(np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            table.fingerprint(np.array([0, 5]))

    def test_insert_and_query(self):
        table = make_table()
        codes = np.array([1, 2, 3])
        table.insert(codes, 42)
        np.testing.assert_array_equal(table.query(codes), [42])
        assert table.query(np.array([0, 0, 0])).size == 0

    def test_remove(self):
        table = make_table()
        codes = np.array([1, 1, 1])
        table.insert(codes, 5)
        assert table.remove(codes, 5)
        assert not table.remove(codes, 5)
        assert table.num_buckets == 0

    def test_counters_and_load_factor(self):
        table = make_table(bucket_size=4)
        for item in range(3):
            table.insert(np.array([0, 0, 0]), item)
        assert table.num_buckets == 1
        assert table.num_items == 3
        assert table.load_factor() == pytest.approx(0.75)
        assert table.bucket_sizes().tolist() == [3]

    def test_clear(self):
        table = make_table()
        table.insert(np.array([1, 0, 2]), 1)
        table.clear()
        assert table.num_buckets == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HashTable(k=0, code_cardinality=2, bucket_size=4, policy=FIFOPolicy())
        with pytest.raises(ValueError):
            HashTable(k=2, code_cardinality=1, bucket_size=4, policy=FIFOPolicy())
        with pytest.raises(ValueError):
            HashTable(k=2, code_cardinality=2, bucket_size=0, policy=FIFOPolicy())


class TestQueryResult:
    def test_union_and_frequencies(self):
        result = QueryResult(buckets=[np.array([1, 2]), np.array([2, 3]), np.array([], dtype=np.int64)])
        np.testing.assert_array_equal(result.union(), [1, 2, 3])
        ids, counts = result.frequencies()
        np.testing.assert_array_equal(ids, [1, 2, 3])
        np.testing.assert_array_equal(counts, [1, 2, 1])
        assert result.total_candidates == 4

    def test_empty_result(self):
        result = QueryResult()
        assert result.union().size == 0
        ids, counts = result.frequencies()
        assert ids.size == 0 and counts.size == 0


class TestLSHIndex:
    @pytest.fixture
    def index(self) -> LSHIndex:
        config = LSHConfig(hash_family="simhash", k=4, l=12, bucket_size=16)
        return LSHIndex(input_dim=32, config=config, seed=0)

    def test_build_and_stats(self, index, rng):
        weights = rng.normal(size=(50, 32))
        index.build(weights)
        stats = index.stats()
        assert stats["indexed_items"] == 50
        assert stats["tables"] == 12
        assert index.num_items == 50

    def test_query_retrieves_similar_item(self, index, rng):
        weights = rng.normal(size=(100, 32))
        index.build(weights)
        # Querying with (a noisy copy of) an indexed vector should retrieve it
        # from at least one bucket.
        target = 17
        query = weights[target] + 0.01 * rng.normal(size=32)
        result = index.query(query)
        assert target in result.union()

    def test_query_with_codes_matches_query(self, index, rng):
        weights = rng.normal(size=(30, 32))
        index.build(weights)
        query = rng.normal(size=32)
        codes = index.hash_family.hash_vector(query)
        a = index.query(query).union()
        b = index.query_with_codes(codes).union()
        np.testing.assert_array_equal(a, b)

    def test_query_with_codes_validates_shape(self, index):
        with pytest.raises(ValueError):
            index.query_with_codes(np.zeros((2, 2), dtype=np.int64))

    def test_update_rehashes_items(self, index, rng):
        weights = rng.normal(size=(20, 32))
        index.build(weights)
        # Move item 0 to a completely different weight vector and update.
        new_weights = weights.copy()
        new_weights[0] = -weights[0] + rng.normal(size=32)
        index.update(np.array([0]), new_weights[:1])
        assert index.num_items == 20
        # The item should now be retrievable by its new vector.
        result = index.query(new_weights[0])
        assert 0 in result.union()

    def test_remove(self, index, rng):
        weights = rng.normal(size=(10, 32))
        index.build(weights)
        assert index.remove(3)
        assert not index.remove(3)
        assert index.num_items == 9

    def test_insert_same_item_twice_keeps_single_entry_per_table(self, index, rng):
        vector = rng.normal(size=32)
        index.insert(7, vector)
        index.insert(7, vector + 0.001)
        assert index.num_items == 1
        # Each table should hold item 7 exactly once, under its latest codes.
        codes = index.item_codes(7)
        for table_idx, table in enumerate(index.tables):
            assert int((table.query(codes[table_idx]) == 7).sum()) == 1
            assert table.num_items == 1

    def test_build_validates_shapes(self, index, rng):
        with pytest.raises(ValueError):
            index.build(rng.normal(size=(5, 16)))
        with pytest.raises(ValueError):
            index.build(rng.normal(size=(5, 32)), item_ids=np.arange(4))

    def test_clear(self, index, rng):
        index.build(rng.normal(size=(10, 32)))
        index.clear()
        assert index.num_items == 0
        assert all(t.num_items == 0 for t in index.tables)

    def test_recall_beats_random_guessing(self, rng):
        """Nearest-neighbour recall of the LSH index must far exceed the
        fraction of the dataset a random bucket of the same size would give."""
        config = LSHConfig(hash_family="simhash", k=6, l=30, bucket_size=32)
        index = LSHIndex(input_dim=24, config=config, seed=1)
        n = 400
        weights = rng.normal(size=(n, 24))
        index.build(weights)
        hits = 0
        probes = 40
        total_candidates = 0
        for trial in range(probes):
            target = int(rng.integers(0, n))
            query = weights[target] + 0.05 * rng.normal(size=24)
            union = index.query(query).union()
            total_candidates += union.size
            hits += int(target in union)
        recall = hits / probes
        candidate_fraction = total_candidates / (probes * n)
        assert recall > 0.8
        assert recall > candidate_fraction * 2


@given(seed=st.integers(0, 200), n_items=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_index_build_indexes_every_item(seed, n_items):
    rng = np.random.default_rng(seed)
    config = LSHConfig(hash_family="simhash", k=3, l=5, bucket_size=64)
    index = LSHIndex(input_dim=16, config=config, seed=seed)
    index.build(rng.normal(size=(n_items, 16)))
    assert index.num_items == n_items
    # Every item must be present in every table (buckets are large enough).
    for table in index.tables:
        assert table.num_items == n_items
