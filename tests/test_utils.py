"""Tests for :mod:`repro.utils` (rng, sparse helpers, top-k, validation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, spawn_rngs
from repro.utils.sparse import (
    block_index,
    gather_block,
    normalize_rows,
    random_sparse_matrix,
)
from repro.utils.topk import threshold_indices, top_k_indices
from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_positive,
    check_probability,
)


class TestRng:
    def test_same_seed_same_stream_is_deterministic(self):
        a = derive_rng(42, stream=1).integers(0, 1000, size=10)
        b = derive_rng(42, stream=1).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = derive_rng(42, stream=1).integers(0, 1_000_000, size=20)
        b = derive_rng(42, stream=2).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_passing_generator_returns_it(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            derive_rng(-1)

    def test_spawn_rngs_count(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        draws = [r.integers(0, 1_000_000) for r in rngs]
        assert len(set(draws)) > 1

    def test_spawn_rngs_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(7, 0)


class TestBlockIndex:
    SHAPE = (5, 7)

    def test_full_columns_index_rows_only(self):
        rows = np.array([0, 3])
        index = block_index(self.SHAPE, rows, np.arange(7))
        assert len(index) == 1 and index[0] is rows

    def test_full_rows_index_columns_only(self):
        cols = np.array([1, 6])
        index = block_index(self.SHAPE, np.arange(5), cols)
        assert index[0] == slice(None) and index[1] is cols

    def test_cols_none_indexes_rows(self):
        rows = np.array([2, 4])
        assert block_index((9,), rows, None)[0] is rows

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (np.array([0, 3]), np.array([1, 6])),
            # Full size but not ``arange``: a single-axis index would
            # misalign the block, so these must stay two-array.
            (np.array([4, 3, 2, 1, 0]), np.array([1, 6])),
            (np.array([0, 3]), np.array([0, 1, 2, 3, 4, 6, 5])),
            (np.array([0, 0, 1, 2, 3]), np.array([2])),
        ],
    )
    def test_other_blocks_use_ix(self, rows, cols):
        index = block_index(self.SHAPE, rows, cols)
        expected = np.ix_(rows, cols)
        assert len(index) == 2
        for got, want in zip(index, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (np.array([0, 3]), np.arange(7)),
            (np.arange(5), np.array([1, 6])),
            (np.arange(5), np.arange(7)),
            (np.array([4, 1]), np.array([5, 0, 2])),
            (np.array([1, 2]), None),
        ],
    )
    def test_gathered_block_is_an_owning_copy(self, rng, rows, cols):
        array = rng.normal(size=self.SHAPE)
        index = block_index(array.shape, rows, cols)
        block = array[index]
        assert not np.shares_memory(block, array)
        expected = array[rows] if cols is None else array[np.ix_(rows, cols)]
        np.testing.assert_array_equal(block, expected)

        gathered = gather_block(array, index)
        assert not np.shares_memory(gathered, array)
        assert gathered.flags.c_contiguous
        np.testing.assert_array_equal(gathered, expected)


class TestSparseHelpers:
    def test_normalize_rows_unit_norm(self, rng):
        matrix = rng.normal(size=(5, 7))
        normalized = normalize_rows(matrix)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_normalize_rows_handles_zero_row(self):
        matrix = np.zeros((2, 3))
        matrix[0] = [1.0, 0.0, 0.0]
        normalized = normalize_rows(matrix)
        assert np.all(np.isfinite(normalized))

    def test_random_sparse_matrix_density(self, rng):
        matrix = random_sparse_matrix(200, 50, density=0.1, rng=rng)
        observed = np.count_nonzero(matrix) / matrix.size
        assert 0.05 < observed < 0.15

    def test_random_sparse_matrix_invalid_density(self, rng):
        with pytest.raises(ValueError):
            random_sparse_matrix(5, 5, density=0.0, rng=rng)


class TestTopK:
    def test_top_k_returns_largest_descending(self):
        scores = np.array([1.0, 5.0, 3.0, 4.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [1, 3, 2])

    def test_top_k_larger_than_input_returns_all_sorted(self):
        scores = np.array([1.0, 3.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 10), [1, 2, 0])

    def test_top_k_zero_returns_empty(self):
        assert top_k_indices(np.array([1.0, 2.0]), 0).size == 0

    def test_threshold_indices(self):
        scores = np.array([0.1, 0.5, 0.9, 0.5])
        np.testing.assert_array_equal(threshold_indices(scores, 0.5), [1, 2, 3])

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_k_property(self, values, k):
        scores = np.array(values)
        result = top_k_indices(scores, k)
        assert result.size == min(k, scores.size)
        # Every selected score is >= every non-selected score.
        if result.size < scores.size:
            selected = scores[result]
            not_selected = np.delete(scores, result)
            assert selected.min() >= not_selected.max() - 1e-12


class TestValidation:
    def test_check_positive(self):
        check_positive(1.0, "x")
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive(0.0, "x")

    def test_check_probability(self):
        check_probability(0.5, "p")
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_check_array_1d(self):
        out = check_array_1d([1, 2, 3], "a")
        assert out.ndim == 1
        with pytest.raises(ValueError):
            check_array_1d(np.zeros((2, 2)), "a")

    def test_check_in_range(self):
        check_in_range(0.5, 0.0, 1.0, "v")
        with pytest.raises(ValueError):
            check_in_range(2.0, 0.0, 1.0, "v")
