"""Bit-identity and behaviour tests for the vectorized claim-index engine.

The engine (``repro.data.claim_engine.ClaimIndexEngine`` plus the
vectorized kernels inside the base algorithms) must be *bitwise*
indistinguishable from the historical per-claim loops under the default
float64 working dtype.  ``repro.algorithms.kernels.reference_kernels()``
switches the loops back on in-process, which is what every identity test
here compares against.

The float32 opt-in is explicitly *not* bit-identical; its contract —
identical winning predictions on the small suites, confidences within a
documented tolerance — is pinned by the float32 tests below.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.algorithms import (
    CATD,
    CRH,
    Accu,
    AccuSim,
    AverageLog,
    Depen,
    Investment,
    MajorityVote,
    PooledInvestment,
    SimpleLCA,
    Sums,
    ThreeEstimates,
    TruthFinder,
    TwoEstimates,
    kernels,
)
from repro.core.config import TDACConfig, config_from_dict
from repro.core.tdac import TDAC
from repro.data import ClaimIndexEngine, DataError, DatasetIndex
from repro.datasets.exam import make_exam
from repro.datasets.registry import load
from repro.datasets.stocks import make_stocks

#: Every base algorithm whose per-iteration updates were vectorized.
ALGORITHMS = [
    MajorityVote,
    TruthFinder,
    Depen,
    Accu,
    AccuSim,
    Sums,
    AverageLog,
    Investment,
    PooledInvestment,
    TwoEstimates,
    ThreeEstimates,
    CRH,
    CATD,
    SimpleLCA,
]


def _datasets():
    return [
        ("DS2", load("DS2", seed=0, scale=0.1)),
        ("exam", make_exam(32, seed=1)),
        ("stocks", make_stocks(30, seed=2).dataset),
    ]


def _assert_results_equal(fast, reference, label):
    assert fast.predictions == reference.predictions, label
    assert fast.confidence == reference.confidence, label
    assert fast.source_trust == reference.source_trust, label
    assert fast.iterations == reference.iterations, label


@pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
def test_algorithm_bit_identical_to_reference_loops(algorithm_cls):
    """Each vectorized algorithm matches its loop implementation bitwise."""
    for name, dataset in _datasets():
        fast = algorithm_cls().discover(dataset)
        with kernels.reference_kernels():
            reference = algorithm_cls().discover(dataset)
        _assert_results_equal(fast, reference, f"{algorithm_cls.__name__}/{name}")


def test_block_slices_identical_to_recompiled_restrictions():
    """Engine block views equal a fresh compile of the restricted dataset."""
    dataset = load("DS2", seed=0, scale=0.1)
    engine = ClaimIndexEngine(dataset)
    attrs = list(dataset.attributes)
    blocks = [
        tuple(attrs[:3]),
        tuple(attrs[3:]),
        (attrs[1],),
        tuple(attrs),  # all attributes: must equal the full compile
    ]
    for block in blocks:
        view = engine.block_index(block)
        fresh = DatasetIndex(dataset.restrict_attributes(block))
        assert view.facts == fresh.facts
        assert view.slot_values == fresh.slot_values
        for field in (
            "slot_fact",
            "fact_slot_start",
            "claim_source",
            "claim_fact",
            "claim_slot",
            "true_slot",
        ):
            assert np.array_equal(getattr(view, field), getattr(fresh, field)), field
        assert np.array_equal(view._tie_breaker, fresh._tie_breaker)


def test_block_index_memoised_and_validated():
    dataset = load("DS2", seed=0, scale=0.05)
    engine = ClaimIndexEngine(dataset)
    block = tuple(dataset.attributes[:2])
    assert engine.block_index(block) is engine.block_index(block)
    with pytest.raises(DataError):
        engine.block_index(("no-such-attribute",))


def test_shared_engine_cached_per_dataset_and_dtype():
    dataset = load("DS2", seed=0, scale=0.05)
    a = ClaimIndexEngine.shared(dataset)
    b = ClaimIndexEngine.shared(dataset)
    assert a is b
    c = ClaimIndexEngine.shared(dataset, dtype=np.float32)
    assert c is not a
    assert c.full_index.dtype == np.float32
    other = load("DS2", seed=1, scale=0.05)
    assert ClaimIndexEngine.shared(other) is not a


def test_shared_engines_are_freed_with_their_dataset():
    """An indexed dataset, and any extension of it, stays collectable."""
    from repro.core.incremental import extend_dataset
    from repro.data import Claim

    dataset = load("DS2", seed=0, scale=0.05)
    engine = ClaimIndexEngine.shared(dataset)
    assert engine.full_index.n_claims == dataset.n_claims
    claim = Claim(dataset.sources[0], "new-object", dataset.attributes[0], "v")
    extended = extend_dataset(dataset, [claim])
    child = engine.extended(extended, [claim])
    assert ClaimIndexEngine.shared(extended) is child
    refs = [weakref.ref(dataset), weakref.ref(extended)]
    del dataset, engine, extended, child
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("algorithm_cls", [Accu, AccuSim, MajorityVote])
def test_dataset_freed_by_reference_counting_after_a_run(algorithm_cls):
    """No reference cycle holds an indexed corpus: it dies on ``del``
    even with the cyclic collector off, as under ``gc.freeze()``."""
    dataset = load("DS2", seed=0, scale=0.05)
    gc.collect()
    gc.disable()
    try:
        outcome = TDAC(algorithm_cls(), config=TDACConfig(seed=0)).run(dataset)
        index = ClaimIndexEngine.shared(dataset).full_index
        refs = [weakref.ref(dataset), weakref.ref(index)]
        del outcome, index, dataset
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_engine_index_outlives_its_dataset_for_solving():
    """An engine-owned index refers to its dataset weakly, but solving
    needs only the index."""
    dataset = load("DS2", seed=0, scale=0.05)
    expected = Accu().discover(dataset)
    index = ClaimIndexEngine.shared(dataset).block_index(dataset.attributes)
    del dataset
    gc.collect()
    with pytest.raises(ReferenceError):
        index.dataset
    _assert_results_equal(Accu().discover(index), expected, "freed dataset")


def test_pickled_index_drops_the_engine_cache():
    """Engines are process-local; a pickled view compiles its own."""
    dataset = load("DS2", seed=0, scale=0.05)
    index = ClaimIndexEngine.shared(dataset).block_index(
        dataset.attributes[:2]
    )
    copy = pickle.loads(pickle.dumps(index))
    assert np.array_equal(copy.claim_slot, index.claim_slot)
    assert ClaimIndexEngine.shared(copy.dataset) is not (
        ClaimIndexEngine.shared(dataset)
    )


def test_index_rejects_unsupported_dtype():
    dataset = load("DS2", seed=0, scale=0.05)
    with pytest.raises(ValueError):
        DatasetIndex(dataset, dtype=np.int32)
    with pytest.raises(ValueError):
        ClaimIndexEngine(dataset, dtype=np.float16)
    with pytest.raises(ValueError):
        TDACConfig(dtype="float16")


def test_full_tdac_pipeline_bit_identical():
    """The whole pipeline (reference, blocks, merge) matches the loops."""
    dataset = load("DS2", seed=0, scale=0.1)
    tdac = TDAC(Accu(), config=TDACConfig(seed=0))
    fast = tdac.run(dataset)
    with kernels.reference_kernels():
        reference = tdac.run(dataset)
    assert fast.partition == reference.partition
    assert fast.silhouette_by_k == reference.silhouette_by_k
    _assert_results_equal(fast.result, reference.result, "pipeline")


def test_memmap_truth_vectors_bit_identical():
    """memmap_threshold=0 forces mapped matrices; results are unchanged."""
    dataset = load("DS2", seed=0, scale=0.1)
    plain = TDAC(Accu(), config=TDACConfig()).run(dataset)
    mapped = TDAC(Accu(), config=TDACConfig(memmap_threshold=0)).run(dataset)
    assert plain.partition == mapped.partition
    _assert_results_equal(plain.result, mapped.result, "memmap")
    assert np.array_equal(
        plain.truth_vectors.matrix, np.asarray(mapped.truth_vectors.matrix)
    )
    assert isinstance(mapped.truth_vectors.matrix, np.memmap)


# ---------------------------------------------------------------------------
# float32 tolerance contract
# ---------------------------------------------------------------------------

#: The float32 path may drift from float64 in confidence values; this is
#: the documented ceiling on that drift for the small test suites.  The
#: winning predictions themselves must not change there.
FLOAT32_CONFIDENCE_TOLERANCE = 1e-4


@pytest.mark.parametrize("algorithm_cls", [MajorityVote, TruthFinder, Sums, CRH])
def test_float32_contract(algorithm_cls):
    dataset = load("DS2", seed=0, scale=0.1)
    engine64 = ClaimIndexEngine.shared(dataset)
    engine32 = ClaimIndexEngine.shared(dataset, dtype=np.float32)
    full = algorithm_cls().discover(engine64.full_index)
    half = algorithm_cls().discover(engine32.full_index)
    assert half.predictions == full.predictions
    for fact, value in full.confidence.items():
        assert half.confidence[fact] == pytest.approx(
            value, abs=FLOAT32_CONFIDENCE_TOLERANCE
        )


def test_float32_config_changes_fingerprint_but_float64_is_legacy():
    """dtype feeds the fingerprint only when it deviates from float64."""
    base = TDACConfig()
    f32 = TDACConfig(dtype="float32")
    assert base.fingerprint() != f32.fingerprint()
    # A payload without the new knobs (an old checkpoint) still validates.
    legacy = base.to_dict()
    legacy.pop("dtype")
    legacy.pop("memmap_threshold")
    assert config_from_dict(legacy).fingerprint() == base.fingerprint()
    assert f32.dtype_np == np.float32


def test_run_blocks_engine_reuse_matches_default():
    """Passing an explicit engine to run_blocks changes nothing."""
    from repro.core.parallel import run_blocks
    from repro.core.partition import Partition

    dataset = load("DS2", seed=0, scale=0.1)
    attrs = dataset.attributes
    partition = Partition.from_blocks([tuple(attrs[:3]), tuple(attrs[3:])])
    engine = ClaimIndexEngine(dataset)
    explicit = run_blocks(Accu(), dataset, partition, engine=engine)
    implicit = run_blocks(Accu(), dataset, partition)
    with kernels.reference_kernels():
        legacy = run_blocks(Accu(), dataset, partition)
    for a, b in zip(explicit, implicit):
        _assert_results_equal(a, b, "explicit-vs-implicit")
    for a, b in zip(explicit, legacy):
        _assert_results_equal(a, b, "engine-vs-legacy")
