"""Unit and property tests for the compiled DatasetIndex and segment ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Dataset, DatasetBuilder, DatasetIndex, Fact
from repro.data.index import (
    segment_argmax,
    segment_max,
    segment_mean,
    segment_sum,
)


def segments_strategy():
    """Random (values, starts) pairs describing contiguous segments."""
    return st.lists(
        st.lists(st.floats(-100, 100), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )


class TestSegmentOps:
    @given(segments_strategy())
    def test_segment_sum_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [sum(g) for g in groups]
        assert np.allclose(segment_sum(values, starts), expected)

    @given(segments_strategy())
    def test_segment_max_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [max(g) for g in groups]
        assert np.allclose(segment_max(values, starts), expected)

    @given(segments_strategy())
    def test_segment_mean_matches_python(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        expected = [sum(g) / len(g) for g in groups]
        assert np.allclose(segment_mean(values, starts), expected)

    @given(segments_strategy())
    def test_segment_argmax_is_first_maximum(self, groups):
        values = np.array([v for g in groups for v in g])
        starts = np.cumsum([0] + [len(g) for g in groups])
        result = segment_argmax(values, starts)
        offset = 0
        for g_id, group in enumerate(groups):
            expected = offset + group.index(max(group))
            assert result[g_id] == expected
            offset += len(group)

    def test_empty_values(self):
        starts = np.array([0])
        assert len(segment_sum(np.array([]), starts)) == 0


@pytest.fixture
def index(tiny_dataset):
    return DatasetIndex(tiny_dataset)


class TestDatasetIndex:
    def test_shapes(self, index, tiny_dataset):
        assert index.n_sources == len(tiny_dataset.sources)
        assert index.n_facts == len(tiny_dataset.facts)
        assert index.n_claims == tiny_dataset.n_claims
        assert index.n_slots == len(index.slot_values)

    def test_slots_grouped_by_fact(self, index):
        assert (np.diff(index.slot_fact) >= 0).all()
        starts = index.fact_slot_start
        assert starts[0] == 0
        assert starts[-1] == index.n_slots

    def test_true_slot_points_at_truth(self, index, tiny_dataset):
        for f_id, fact in enumerate(index.facts):
            truth = tiny_dataset.true_value(fact)
            slot = index.true_slot[f_id]
            if truth in tiny_dataset.values_for(fact):
                assert index.slot_values[slot] == truth
            else:
                assert slot == -1

    def test_claims_per_source_counts(self, index, tiny_dataset):
        for s_id, source in enumerate(tiny_dataset.sources):
            expected = len(tiny_dataset.claims_by_source[source])
            assert index.claims_per_source[s_id] == expected

    def test_slot_scores_are_weighted_votes(self, index):
        weights = np.arange(1.0, index.n_sources + 1)
        scores = index.slot_scores(weights)
        expected = np.zeros(index.n_slots)
        for claim_id in range(index.n_claims):
            expected[index.claim_slot[claim_id]] += weights[
                index.claim_source[claim_id]
            ]
        assert np.allclose(scores, expected)

    def test_normalize_per_fact_sums_to_one(self, index):
        scores = np.random.default_rng(0).random(index.n_slots) + 0.1
        normalized = index.normalize_per_fact(scores)
        sums = segment_sum(normalized, index.fact_slot_start)
        assert np.allclose(sums, 1.0)

    def test_softmax_per_fact_sums_to_one(self, index):
        scores = np.random.default_rng(0).normal(size=index.n_slots) * 50
        soft = index.softmax_per_fact(scores)
        sums = segment_sum(soft, index.fact_slot_start)
        assert np.allclose(sums, 1.0)
        assert (soft >= 0).all()

    def test_winning_slots_prefers_higher_score(self, index):
        scores = np.zeros(index.n_slots)
        # Make the last slot of each fact the winner.
        for f_id in range(index.n_facts):
            scores[index.fact_slot_start[f_id + 1] - 1] = 1.0
        winners = index.winning_slots(scores)
        for f_id in range(index.n_facts):
            assert winners[f_id] == index.fact_slot_start[f_id + 1] - 1

    def test_tie_break_is_deterministic(self, index):
        scores = np.zeros(index.n_slots)
        first = index.winning_slots(scores)
        second = index.winning_slots(scores)
        assert (first == second).all()

    def test_predictions_from_slots(self, index, tiny_dataset):
        winners = index.winning_slots(index.votes_per_slot)
        predictions = index.predictions_from_slots(winners)
        assert set(predictions) == set(tiny_dataset.facts)

    def test_source_mean_of_slots(self, index):
        ones = np.ones(index.n_slots)
        means = index.source_mean_of_slots(ones)
        covered = index.claims_per_source > 0
        assert np.allclose(means[covered], 1.0)


class TestSingleClaimDataset:
    def test_degenerate_dataset(self):
        ds = DatasetBuilder().add_claim("s1", "o1", "a1", 5).build()
        index = DatasetIndex(ds)
        assert index.n_slots == 1
        winners = index.winning_slots(index.votes_per_slot)
        assert index.predictions_from_slots(winners) == {Fact("o1", "a1"): 5}


# ----------------------------------------------------------------------
# The array compile against the per-fact loop it replaced
# ----------------------------------------------------------------------


def _loop_compile(dataset):
    """Oracle: walk every fact's claims in source order, numbering each
    fact's distinct values by first appearance (Python equality, so
    ``1``, ``1.0`` and ``True`` share a slot within a fact)."""
    source_rank = {s: i for i, s in enumerate(dataset.sources)}
    by_fact = {}
    for (s, o, a), v in dataset.claims.items():
        by_fact.setdefault(Fact(o, a), []).append((source_rank[s], v))
    slot_values, slot_fact, fact_slot_start = [], [], [0]
    claim_source, claim_fact, claim_slot, true_slot = [], [], [], []
    for f_id, fact in enumerate(dataset.facts):
        local = {}
        for rank, value in sorted(by_fact[fact], key=lambda c: c[0]):
            if value not in local:
                local[value] = len(slot_values)
                slot_values.append(value)
                slot_fact.append(f_id)
            claim_source.append(rank)
            claim_fact.append(f_id)
            claim_slot.append(local[value])
        fact_slot_start.append(len(slot_values))
        truth = dataset.true_value(fact)
        true_slot.append(
            local[truth] if truth is not None and truth in local else -1
        )
    return {
        "facts": dataset.facts,
        "slot_values": tuple(slot_values),
        "slot_fact": slot_fact,
        "fact_slot_start": fact_slot_start,
        "claim_source": claim_source,
        "claim_fact": claim_fact,
        "claim_slot": claim_slot,
        "true_slot": true_slot,
    }


def _assert_compiles_like_loop(dataset):
    index = DatasetIndex(dataset)
    oracle = _loop_compile(dataset)
    assert index.facts == oracle["facts"]
    # The dataset's own Fact objects: dict lookups keyed by them (every
    # prediction read) then hit on identity instead of calling __eq__.
    assert all(a is b for a, b in zip(index.facts, dataset.facts))
    # Types too: 1 == 1.0 == True would hide a wrong representative.
    assert [(type(v), v) for v in index.slot_values] == [
        (type(v), v) for v in oracle["slot_values"]
    ]
    for field in (
        "slot_fact",
        "fact_slot_start",
        "claim_source",
        "claim_fact",
        "claim_slot",
        "true_slot",
    ):
        got = getattr(index, field)
        assert got.dtype == np.int64, field
        assert got.tolist() == list(oracle[field]), field
    assert index.n_slots == len(oracle["slot_values"])
    assert index.n_claims == dataset.n_claims


class TestCompileMatchesLoop:
    def test_equal_values_of_different_types_across_facts(self):
        claims = {
            # Inserted out of source order, so the compile must sort.
            ("s2", "o1", "a"): True,
            ("s1", "o1", "a"): 1,
            ("s3", "o1", "a"): 1.0,
            ("s1", "o2", "a"): True,
            ("s3", "o2", "a"): 1,
            ("s2", "o3", "a"): 1.0,
            ("s1", "o3", "a"): 2,
        }
        truth = {("o1", "a"): True, ("o2", "a"): 1.0, ("o3", "a"): 1}
        dataset = Dataset(
            ["s1", "s2", "s3"], ["o1", "o2", "o3"], ["a"], claims, truth
        )
        _assert_compiles_like_loop(dataset)
        index = DatasetIndex(dataset)
        # Each fact keeps the value its lowest-ranked source claimed.
        assert [(type(v), v) for v in index.slot_values] == [
            (int, 1), (bool, True), (int, 2), (float, 1.0)
        ]
        assert index.true_slot.tolist() == [0, 1, 3]

    def test_multi_values_and_partial_truth(self):
        claims = {
            ("s1", "o1", "authors"): ("ann", "bob"),
            ("s2", "o1", "authors"): ("bob", "ann"),
            ("s3", "o1", "authors"): ("ann", "bob"),
            ("s1", "o1", "year"): 2001,
            ("s2", "o2", "year"): 2002,
            ("s3", "o2", "authors"): ("cy",),
        }
        truth = {
            ("o1", "authors"): ("ann", "bob"),  # claimed
            ("o2", "year"): 1999,  # never claimed
            ("o3", "year"): 2003,  # fact without claims
        }
        dataset = Dataset(
            ["s1", "s2", "s3"],
            ["o1", "o2", "o3"],
            ["year", "authors"],
            claims,
            truth,
            attribute_types={"authors": "multi"},
        )
        _assert_compiles_like_loop(dataset)
        assert DatasetIndex(dataset).true_slot.tolist() == [-1, 1, -1, -1]

    def test_empty_dataset(self):
        _assert_compiles_like_loop(Dataset(["s1"], ["o1"], ["a"], {}))

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.dictionaries(
            st.tuples(
                st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)
            ),
            st.sampled_from(
                [0, 1, 1.0, True, False, 0.0, "x", "1", ("a", "b"), None]
            ),
            max_size=40,
        ),
        truths=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 2)),
            st.sampled_from([0, 1, 1.0, True, "x", "y", ("a", "b"), None]),
            max_size=8,
        ),
    )
    def test_random_datasets(self, cells, truths):
        claims = {
            (f"s{s}", f"o{o}", f"a{a}"): v for (s, o, a), v in cells.items()
        }
        truth = {(f"o{o}", f"a{a}"): v for (o, a), v in truths.items()}
        dataset = Dataset(
            [f"s{s}" for s in (3, 0, 4, 1, 2)],  # rank != name order
            [f"o{o}" for o in (2, 0, 3, 1)],
            [f"a{a}" for a in (1, 2, 0)],
            claims,
            truth,
        )
        _assert_compiles_like_loop(dataset)
