"""Unit tests for the Accu family (Depen / Accu / AccuSim)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Accu, AccuSim, CopyDetector, Depen
from repro.algorithms.accu import (
    _discounted_votes_reference,
    _discounted_votes_vectorized,
    discounted_votes,
)
from repro.data import Dataset, DatasetBuilder, DatasetIndex, Fact


HONEST = ("h1", "h2", "h3", "h4", "h5")
CLIQUE = ("c1", "c2", "c3", "c4")


def copier_dataset(n_facts=30):
    """Five mostly-honest sources vs a clique of four copiers.

    The copiers share a wrong value on every fact.  The honest majority
    wins the bootstrap vote, after which copy detection must discount the
    clique so its bloc stops flipping the facts where honest sources
    happen to miss.
    """
    builder = DatasetBuilder()
    for i in range(n_facts):
        truth = f"true{i}"
        builder.set_truth(f"o{i}", "a", truth)
        for idx, s in enumerate(HONEST):
            # Right 90%, deterministically patterned per source.
            value = truth if (i + 3 * idx) % 10 else f"miss-{s}-{i}"
            builder.add_claim(s, f"o{i}", "a", value)
        shared_wrong = f"copied{i}"
        for s in CLIQUE:
            builder.add_claim(s, f"o{i}", "a", shared_wrong)
    return builder.build()


class TestCopyDetection:
    def test_clique_flagged_dependent(self):
        ds = copier_dataset()
        index = DatasetIndex(ds)
        detector = CopyDetector()
        detector.prepare(index)
        winners = np.array(
            [index.true_slot[f] for f in range(index.n_facts)]
        )
        accuracy = np.full(index.n_sources, 0.8)
        dep = detector.dependence(winners, accuracy)
        names = ds.sources
        c_ids = [i for i, s in enumerate(names) if s in CLIQUE]
        h_ids = [i for i, s in enumerate(names) if s in HONEST]
        clique = dep[np.ix_(c_ids, c_ids)]
        # Off-diagonal clique entries should be near 1.
        off_diag = clique[~np.eye(len(c_ids), dtype=bool)]
        assert off_diag.min() > 0.9
        honest_vs_clique = dep[np.ix_(h_ids, c_ids)]
        assert honest_vs_clique.max() < 0.5

    def test_diagonal_is_zero(self):
        ds = copier_dataset()
        index = DatasetIndex(ds)
        detector = CopyDetector()
        detector.prepare(index)
        winners = index.winning_slots(index.votes_per_slot)
        dep = detector.dependence(winners, np.full(index.n_sources, 0.8))
        assert np.allclose(np.diag(dep), 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CopyDetector(alpha=0.0)
        with pytest.raises(ValueError):
            CopyDetector(copy_rate=1.0)


class TestDiscountedVotes:
    def test_independent_sources_count_fully(self):
        ds = copier_dataset(n_facts=5)
        index = DatasetIndex(ds)
        no_dependence = np.zeros((index.n_sources, index.n_sources))
        weights = np.ones(index.n_sources)
        votes = discounted_votes(
            index, no_dependence, np.full(index.n_sources, 0.8), 0.8, weights
        )
        assert np.allclose(votes, index.votes_per_slot)

    def test_full_dependence_collapses_clique(self):
        ds = copier_dataset(n_facts=5)
        index = DatasetIndex(ds)
        full = np.ones((index.n_sources, index.n_sources))
        np.fill_diagonal(full, 0.0)
        weights = np.ones(index.n_sources)
        votes = discounted_votes(
            index, full, np.full(index.n_sources, 0.8), 1.0, weights
        )
        # With copy rate 1 and certain dependence, every slot counts one
        # effective vote regardless of provider count.
        assert np.allclose(votes[index.votes_per_slot > 0], 1.0)


class TestAlgorithms:
    def test_accu_beats_the_clique(self):
        ds = copier_dataset()
        result = Accu().discover(ds)
        correct = sum(
            1
            for fact in ds.facts
            if result.predictions[fact] == ds.true_value(fact)
        )
        assert correct / len(ds.facts) > 0.85

    def test_depen_beats_the_clique(self):
        ds = copier_dataset()
        result = Depen().discover(ds)
        correct = sum(
            1
            for fact in ds.facts
            if result.predictions[fact] == ds.true_value(fact)
        )
        assert correct / len(ds.facts) > 0.85

    def test_accu_estimates_higher_trust_for_honest(self):
        result = Accu().discover(copier_dataset())
        honest = min(result.source_trust[s] for s in HONEST)
        clique = max(result.source_trust[s] for s in CLIQUE)
        assert honest > clique

    def test_depen_reports_uniform_style_trust(self, tiny_dataset):
        result = Depen().discover(tiny_dataset)
        assert result.iterations >= 1

    def test_accusim_runs_and_predicts(self, tiny_dataset):
        result = AccuSim().discover(tiny_dataset)
        assert set(result.predictions) == set(tiny_dataset.facts)

    def test_names_match_paper(self):
        assert Accu().name == "Accu"
        assert Depen().name == "DEPEN"
        assert AccuSim().name == "AccuSim"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Accu(initial_accuracy=0.0)
        with pytest.raises(ValueError):
            Accu(damping=1.0)
        with pytest.raises(ValueError):
            Accu(warmup_iterations=-1)
        with pytest.raises(ValueError):
            Accu(max_iterations=0)

    def test_deterministic(self):
        ds = copier_dataset()
        assert Accu().discover(ds).predictions == Accu().discover(ds).predictions


# ----------------------------------------------------------------------
# Size-grouped discounted votes: bitwise equal to the per-slot loop
# ----------------------------------------------------------------------


def _vote_dataset(columns, n_sources):
    """One fact per column; ``column[s]`` is source s's value, or -1."""
    claims = {
        (f"s{s}", "o", f"a{f}"): value
        for f, column in enumerate(columns)
        for s, value in enumerate(column)
        if value >= 0
    }
    return Dataset(
        [f"s{s}" for s in range(n_sources)],
        ["o"],
        [f"a{f}" for f in range(len(columns))],
        claims,
    )


def _assert_grouped_votes_match(dataset, dtype, seed):
    index = DatasetIndex(dataset, dtype=dtype)
    rng = np.random.default_rng(seed)
    n = index.n_sources
    dependence = rng.random((n, n))
    np.fill_diagonal(dependence, 0.0)
    # Few distinct accuracies: ties exercise the stable provider order.
    accuracy = rng.choice([0.3, 0.55, 0.9], size=n).astype(dtype)
    weight = (rng.random(n) * 3.0).astype(dtype)
    args = (index, dependence, accuracy, 0.8, weight)
    fast = _discounted_votes_vectorized(*args)
    reference = _discounted_votes_reference(*args)
    assert fast.dtype == reference.dtype
    assert fast.tobytes() == reference.tobytes()


class TestGroupedDiscountedVotes:
    @settings(max_examples=60, deadline=None)
    @given(
        n_sources=st.integers(1, 12),
        n_values=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float64, np.float32]),
        data=st.data(),
    )
    def test_matches_reference_loop(
        self, n_sources, n_values, seed, dtype, data
    ):
        columns = data.draw(
            st.lists(
                st.lists(
                    st.integers(-1, n_values - 1),
                    min_size=n_sources,
                    max_size=n_sources,
                ),
                max_size=5,
            )
        )
        _assert_grouped_votes_match(
            _vote_dataset(columns, n_sources), dtype, seed
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_slot_width_up_to_48_providers(self, dtype):
        # Fact f gives its first f+1 sources one value: one slot of every
        # width 1..48, many of them wider than 32 providers.
        n_sources = 48
        columns = [
            [0 if s <= f else -1 for s in range(n_sources)]
            for f in range(n_sources)
        ]
        for seed in range(3):
            _assert_grouped_votes_match(
                _vote_dataset(columns, n_sources), dtype, seed
            )

    def test_singleton_slots_only(self):
        columns = [[0, 1, 2], [2, 1, 0]]
        _assert_grouped_votes_match(_vote_dataset(columns, 3), np.float64, 0)

    def test_empty_index(self):
        _assert_grouped_votes_match(_vote_dataset([], 4), np.float64, 0)
        _assert_grouped_votes_match(_vote_dataset([], 0), np.float64, 0)
