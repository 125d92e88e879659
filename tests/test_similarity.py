"""Unit and property tests for value similarity kernels."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algorithms import (
    AccuSim,
    SlotSimilarity,
    levenshtein_distance,
    numeric_similarity,
    string_similarity,
    value_similarity,
)
from repro.data import DatasetBuilder, DatasetIndex
from repro.datasets import load


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestNumericSimilarity:
    def test_equal_numbers(self):
        assert numeric_similarity(5.0, 5.0) == 1.0

    def test_close_numbers_high(self):
        assert numeric_similarity(100.0, 101.0) > 0.98

    def test_distant_numbers_low(self):
        assert numeric_similarity(1.0, 1000.0) < 0.01

    def test_zero_pair(self):
        assert numeric_similarity(0.0, 0.0) == 1.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_bounded(self, a, b):
        assert 0.0 <= numeric_similarity(a, b) <= 1.0


class TestStringSimilarity:
    def test_identical(self):
        assert string_similarity("abc", "abc") == 1.0

    def test_token_permutation_is_close(self):
        assert string_similarity("Barack Obama", "Obama Barack") == 1.0

    def test_unrelated_is_low(self):
        assert string_similarity("qwxzj", "phlmn") < 0.3

    @given(st.text(max_size=15), st.text(max_size=15))
    def test_bounded_and_symmetric(self, a, b):
        sim = string_similarity(a, b)
        assert 0.0 <= sim <= 1.0
        assert sim == string_similarity(b, a)


class TestValueSimilarity:
    def test_mixed_types_are_dissimilar(self):
        assert value_similarity("100", 100) == 0.0

    def test_equal_values_any_type(self):
        assert value_similarity((1, 2), (1, 2)) == 1.0

    def test_bools_not_treated_as_numbers(self):
        assert value_similarity(True, 1.0) == 0.0


class TestSlotSimilarity:
    def test_matrix_shape_and_zero_diagonal(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 10.0)
        builder.add_claim("s2", "o", "a", 10.5)
        builder.add_claim("s3", "o", "a", 99.0)
        index = DatasetIndex(builder.build())
        matrix = SlotSimilarity(index).matrix(0)
        assert matrix.shape == (3, 3)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix[0, 1] > matrix[0, 2]

    def test_weighted_support_boosts_similar_pairs(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 10.0)
        builder.add_claim("s2", "o", "a", 10.1)
        builder.add_claim("s3", "o", "a", 99.0)
        index = DatasetIndex(builder.build())
        scores = np.ones(index.n_slots)
        adjusted = SlotSimilarity(index).weighted_support(scores, 0.5)
        # The two close values support each other; the outlier gets less.
        assert adjusted[0] > adjusted[2]
        assert adjusted[1] > adjusted[2]

    def test_zero_weight_is_identity(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 1.0)
        builder.add_claim("s2", "o", "a", 2.0)
        index = DatasetIndex(builder.build())
        scores = np.array([3.0, 4.0])
        adjusted = SlotSimilarity(index).weighted_support(scores, 0.0)
        assert np.allclose(adjusted, scores)

    def test_single_slot_facts_untouched(self):
        builder = DatasetBuilder()
        builder.add_claim("s1", "o", "a", 1.0)
        builder.add_claim("s2", "o", "a", 1.0)
        index = DatasetIndex(builder.build())
        scores = np.array([5.0])
        adjusted = SlotSimilarity(index).weighted_support(scores, 0.9)
        assert np.allclose(adjusted, scores)

    def test_shared_instance_frees_its_index_and_dataset(self):
        """The shared map is weakly keyed by index; its values must not
        hold the key, or every index AccuSim solves over would leak."""
        dataset = load("DS2", seed=0, scale=0.05)
        index = DatasetIndex(dataset)
        AccuSim().discover(index)
        assert index in SlotSimilarity._SHARED
        refs = [weakref.ref(dataset), weakref.ref(index)]
        del dataset, index
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
