"""Mixed categorical + multi + continuous corpora, end to end.

The tentpole promise: a typed dataset flows through every execution
surface — offline ``TDAC.run``, the incremental delta path, the serving
engine (which refits through that path), and WAL restore — and each of them
publishes results bit-identical to the offline reference over the same
accumulated corpus, including under late / out-of-order claim arrival.
"""

import numpy as np
import pytest

from repro.algorithms import TypeRouted
from repro.core import IncrementalTDAC, TDAC, TDACConfig
from repro.core.incremental import extend_dataset
from repro.data import Claim
from repro.datasets import make_mixed
from repro.scenarios import late_arrival_stream
from repro.serving import ServiceConfig, TruthService

CONFIG = TDACConfig(seed=0)


@pytest.fixture(scope="module")
def mixed():
    return make_mixed(n_objects=10, seed=0).dataset


def typed_batch(mixed, tag, count):
    """``count`` new objects, each claimed across all three families."""
    claims = []
    for i in range(count):
        obj = f"obj-{tag}-{i}"
        for j, source in enumerate(mixed.sources[:3]):
            claims.append(Claim(source, obj, "color", f"c-{tag}-{i}-{j % 2}"))
            claims.append(
                Claim(source, obj, "price", float(50 + 10 * i + j))
            )
            claims.append(
                Claim(source, obj, "tags", (f"t-{tag}-{i}", f"u-{j % 2}"))
            )
    return claims


def offline_reference(mixed, claims):
    corpus = extend_dataset(mixed, list(claims)) if claims else mixed
    return TDAC(TypeRouted(), config=CONFIG).run(corpus)


def assert_snapshot_matches_offline(service, mixed, applied):
    snapshot = service.snapshot()
    offline = offline_reference(mixed, applied)
    assert dict(snapshot.predictions) == dict(offline.result.predictions)
    assert dict(snapshot.source_trust) == dict(offline.result.source_trust)
    assert snapshot.partition.blocks == offline.partition.blocks


class TestIncrementalDelta:
    def test_updates_bit_identical_to_offline(self, mixed):
        engine = IncrementalTDAC(TypeRouted(), config=CONFIG)
        engine.fit(mixed)
        applied: list[Claim] = []
        for tag in ("a", "b", "c"):
            batch = typed_batch(mixed, tag, 2)
            applied.extend(batch)
            outcome = engine.update(batch)
            offline = offline_reference(mixed, applied)
            assert (
                dict(outcome.result.predictions)
                == dict(offline.result.predictions)
            )
            assert outcome.partition.blocks == offline.partition.blocks

    def test_out_of_order_arrival_stays_exact(self, mixed):
        stream = [
            claim
            for tag in ("a", "b", "c")
            for claim in typed_batch(mixed, tag, 2)
        ]
        order = np.random.default_rng(5).permutation(len(stream))
        shuffled = [stream[int(i)] for i in order]
        engine = IncrementalTDAC(TypeRouted(), config=CONFIG)
        engine.fit(mixed)
        applied: list[Claim] = []
        third = len(shuffled) // 3
        for lo in range(0, len(shuffled), third):
            batch = shuffled[lo : lo + third]
            if not batch:
                continue
            applied.extend(batch)
            outcome = engine.update(batch)
        offline = offline_reference(mixed, applied)
        assert (
            dict(outcome.result.predictions)
            == dict(offline.result.predictions)
        )


class TestServingDeltaPath:
    def test_snapshots_bit_identical_to_offline(self, mixed):
        service = TruthService(
            TypeRouted(),
            mixed,
            config=CONFIG,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        try:
            applied: list[Claim] = []
            for tag in ("a", "b"):
                batch = typed_batch(mixed, tag, 2)
                applied.extend(batch)
                service.ingest(batch, wait=True)
                assert_snapshot_matches_offline(service, mixed, applied)
        finally:
            service.stop()

    def test_late_arrival_batches_stay_exact(self, mixed):
        # Reorder the *initial corpus itself* into late batches and feed
        # it claim-stream style: the accumulated service corpus matches
        # an extend_dataset replay, so snapshots stay pinned to offline.
        batches = late_arrival_stream(
            mixed, reorder_fraction=0.5, batch_size=120, seed=3
        )
        seed_batch, rest = batches[0], batches[1:]
        # Build the served base from the first batch only.
        from repro.data.builder import DatasetBuilder

        builder = DatasetBuilder(name=mixed.name)
        builder.add_claims(seed_batch)
        builder.declare_attribute_types(
            {
                a: k
                for a, k in mixed.attribute_types.items()
                if k != "categorical" and a in {c.attribute for c in seed_batch}
            }
        )
        base = builder.build()
        service = TruthService(
            TypeRouted(),
            base,
            config=CONFIG,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        try:
            applied: list[Claim] = []
            for batch in rest:
                if not batch:
                    continue
                applied.extend(batch)
                service.ingest(batch, wait=True)
            snapshot = service.snapshot()
            offline = TDAC(TypeRouted(), config=CONFIG).run(
                extend_dataset(base, applied)
            )
            assert (
                dict(snapshot.predictions)
                == dict(offline.result.predictions)
            )
        finally:
            service.stop()


class TestDurability:
    def test_wal_restore_with_typed_values(self, tmp_path, mixed):
        store_dir = tmp_path / "store"
        service = TruthService(
            TypeRouted(),
            mixed,
            config=CONFIG,
            store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        applied: list[Claim] = []
        for tag in ("a", "b"):
            batch = typed_batch(mixed, tag, 2)
            applied.extend(batch)
            service.ingest(batch, wait=True)
        live = service.snapshot()
        service.stop()

        restored = TruthService.restore(store_dir, TypeRouted())
        try:
            snapshot = restored.snapshot()
            assert snapshot.version == live.version
            assert snapshot.watermark == live.watermark
            # Tuple-valued and float-valued claims round-trip the WAL.
            assert dict(snapshot.predictions) == dict(live.predictions)
            assert_snapshot_matches_offline(restored, mixed, applied)
        finally:
            restored.stop()
