"""Parallel TD-AC must be bit-identical to sequential TD-AC.

The k-sweep fans the ``(k, init)`` restart grid over an executor and the
per-block passes run on the same machinery; both gather results in task
order, so any ``n_jobs`` / ``backend`` combination has to reproduce the
sequential run exactly — selected partition, merged predictions, source
trust and the silhouette diagnostics.  These tests pin that contract
across two base algorithms and both distance modes.
"""

import numpy as np
import pytest

from repro.algorithms import Accu, MajorityVote
from repro.clustering import (
    select_k_elbow,
    select_k_gap,
    select_k_silhouette,
    sweep_kmeans,
)
from repro.clustering.kmeans import KMeans
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.observability import SpanTracer, activate


@pytest.fixture(scope="module")
def dataset():
    return load("DS2", scale=0.05)


def _assert_runs_identical(sequential, parallel):
    assert str(sequential.partition) == str(parallel.partition)
    assert sequential.silhouette_by_k == parallel.silhouette_by_k
    assert sequential.result.predictions == parallel.result.predictions
    assert sequential.result.source_trust == parallel.result.source_trust


class TestTDACParallelDeterminism:
    @pytest.mark.parametrize("base_cls", [Accu, MajorityVote])
    @pytest.mark.parametrize("distance", ["hamming", "masked"])
    def test_n_jobs_matches_sequential(self, dataset, base_cls, distance):
        sequential = TDAC(
            base_cls(), config=TDACConfig(seed=0, distance=distance)
        ).run(dataset)
        for n_jobs in (2, 4):
            parallel = TDAC(
                base_cls(),
                config=TDACConfig(seed=0, distance=distance, n_jobs=n_jobs),
            ).run(dataset)
            _assert_runs_identical(sequential, parallel)

    @pytest.mark.slow
    def test_process_backend_matches_sequential(self, dataset):
        sequential = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
        tracer = SpanTracer()
        with activate(tracer):
            parallel = TDAC(
                Accu(),
                config=TDACConfig(seed=0, n_jobs=2, backend="processes"),
            ).run(dataset)
        _assert_runs_identical(sequential, parallel)
        # Identical results could also come from a silent inline rerun;
        # the workers must really have run every task.
        for stage in ("k_sweep", "block_runs"):
            assert tracer.counters[f"{stage}.tasks"] > 0
            assert tracer.counters.get(f"{stage}.task_failures", 0) == 0
            assert tracer.counters.get(f"{stage}.task_fallbacks", 0) == 0

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TDAC(Accu(), config=TDACConfig(backend="rayon"))


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        return rng.integers(0, 2, size=(12, 40)).astype(float)

    def test_sweep_matches_classic_fit(self, data):
        fits = sweep_kmeans(data, range(2, 8), n_init=5, seed=3, n_jobs=3)
        for k, fit in fits.items():
            classic = KMeans(n_clusters=k, n_init=5, seed=3).fit(data)
            assert (fit.labels == classic.labels).all()
            assert fit.inertia == classic.inertia

    def test_selectors_match_sequential(self, data):
        for selector in (select_k_silhouette, select_k_elbow, select_k_gap):
            sequential = selector(data, seed=1, n_init=3)
            parallel = selector(data, seed=1, n_init=3, n_jobs=4)
            assert sequential.k == parallel.k
            assert (sequential.labels == parallel.labels).all()
            assert sequential.scores == parallel.scores
