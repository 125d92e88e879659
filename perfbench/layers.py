"""Per-layer metrics, timed from outside the program.

Nothing under ``src/`` is instrumented.  Layers are timed around calls
into public functions: the TD-AC stage functions (composed in
``offline.compose``), and, for the serve workloads, an in-process replay
of the seeded serve stream through ``TruthService`` (or ``ShardRouter``)
with a ``TruthStore``.  Store, checkpoint and merge calls made by the
program's own threads are timed by wrapping those methods on their
classes in this process for the length of the replay.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from statistics import median

from common import PER_LAYER, gate
from serve import ALGORITHM

perf = time.perf_counter

#: Stream batches the in-process replay applies; not a multiple of the
#: default checkpoint cadence (8), so a crash leaves a WAL tail.
REPLAY_BATCHES = 30
QUERIES_PER_BATCH = 20
SNAPSHOT_EVERY = 4
#: Cold ``TDAC.run`` repetitions on the served corpus for the stage split.
STAGE_REPETITIONS = 8


def fill_unused(metrics: dict) -> dict:
    """Report 0 for every layer this workload does not drive."""
    for name, unit in PER_LAYER.items():
        metrics.setdefault(name, (0, unit))
    return metrics


class _Timed:
    """Time every call of some methods, on their classes, until undone."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self._undo = []

    def wrap(self, cls, method: str, name: str) -> None:
        original = cls.__dict__[method]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        samples = self.samples.setdefault(name, [])

        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return func(*args, **kwargs)
            finally:
                samples.append(perf() - t0)

        setattr(cls, method, classmethod(timed) if is_classmethod else timed)
        self._undo.append((cls, method, original))

    def undo(self) -> None:
        for cls, method, original in reversed(self._undo):
            setattr(cls, method, original)
        self._undo.clear()


def _stages(claims, ops) -> dict:
    """The TD-AC stage split of a cold ``TDAC.run`` on the served data."""
    import offline
    from repro.core.incremental import extend_dataset
    from serve import load_corpus

    # Fresh corpus objects: an extended dataset inherits the claim index
    # its parent already compiled.
    pairs = (
        (extend_dataset(load_corpus(), claims),
         extend_dataset(load_corpus(), claims))
        for _ in range(STAGE_REPETITIONS)
    )
    return offline.stage_split(pairs, ALGORITHM, ops)


def _start(corpus, store_dir, shards: int):
    from repro.algorithms import create
    from repro.core import PartitionCache, TDACConfig
    from repro.serving import ServiceConfig, ShardRouter, TruthService
    from repro.store import TruthStore

    if shards > 1:
        service = ShardRouter(
            create(ALGORITHM),
            corpus,
            n_shards=shards,
            config=TDACConfig(),
            service_config=ServiceConfig(),
            partition_cache=PartitionCache(),
            store=store_dir,
        )
    else:
        service = TruthService(
            create(ALGORITHM),
            corpus,
            config=TDACConfig(),
            service_config=ServiceConfig(),
            partition_cache=PartitionCache(),
            store=TruthStore(store_dir),
        )
    service.start()
    return service


def _replay(seed, corpus, batches, reference, work, shards: int) -> dict:
    from repro.serving import ServiceConfig, ShardRouter, TruthService
    from repro.serving.frontend import parse_claims
    from repro.store import TruthStore
    from repro.core import PartitionCache
    from serve import result_fields

    rng = random.Random(seed ^ 0xFACE)
    facts = [(f.object, f.attribute) for f in corpus.facts]
    timed = _Timed()
    timed.wrap(TruthStore, "append_admit", "store.append_admit_ms")
    timed.wrap(TruthStore, "append_commit", "store.append_commit_ms")
    timed.wrap(TruthStore, "recover", "store.recover_s")
    timed.wrap(TruthService, "checkpoint", "store.checkpoint_ms")
    timed.wrap(TruthService, "restore", "serving.restore_s")
    timed.wrap(ShardRouter, "refresh_merged", "sharding.merge_ms")
    admit, apply, codec, query, to_dict = [], [], [], [], []
    store_dir = work / "replay-store"
    service = None
    try:
        service = _start(corpus, store_dir, shards)
        for i, batch in enumerate(batches):
            t0 = perf()
            request = json.loads(json.dumps({"op": "ingest", "claims": batch}))
            claims = parse_claims(request["claims"])
            decode = perf() - t0
            t0 = perf()
            ticket = service.ingest(claims)
            admit.append(perf() - t0)
            t0 = perf()
            snapshot = ticket.wait()
            apply.append(perf() - t0)
            t0 = perf()
            json.dumps(
                {"ok": True, "op": "ingest", "applied": len(claims),
                 "offset": ticket.offset, "version": snapshot.version,
                 "watermark": snapshot.watermark},
                sort_keys=True,
            )
            codec.append(decode + perf() - t0)
            for _ in range(QUERIES_PER_BATCH):
                obj, attribute = rng.choice(facts)
                t0 = perf()
                answer = service.query(obj, attribute)
                query.append(perf() - t0)
                gate(answer.found, f"replay query miss {obj}.{attribute}")
            if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
                view = service.snapshot()
                t0 = perf()
                view.to_dict()
                to_dict.append(perf() - t0)
        final = result_fields(service.snapshot().to_dict())
        gate(final == reference, "replayed snapshot differs from TDAC.run")
        if shards > 1:
            skew = service.skew()
            for index in range(shards):
                service.crash_shard(index)
                service.restore_shard(index)
            gate(result_fields(service.snapshot().to_dict()) == reference,
                 "merged view differs after shard restores")
            service.stop()
        else:
            skew = 1.0
            service.stop(checkpoint=False)  # the store as a crash leaves it
            for k in range(2):
                copy = work / f"replay-crashed-{k}"
                shutil.copytree(store_dir, copy)
                restored = TruthService.restore(
                    TruthStore(copy),
                    partition_cache=PartitionCache(),
                    service_config=ServiceConfig(),
                )
                view = result_fields(restored.snapshot().to_dict())
                restored.stop()
                gate(view == reference, "restored snapshot differs")
    finally:
        if service is not None:
            service.stop()  # a no-op once stopped
        timed.undo()
    metrics = {
        name: (
            median(samples) * (1e3 if name.endswith("_ms") else 1.0),
            PER_LAYER[name],
        )
        for name, samples in timed.samples.items()
        if samples
    }
    metrics.update(
        {
            "serving.admit_ms": (median(admit) * 1e3, "ms"),
            "serving.apply_ms": (median(apply) * 1e3, "ms"),
            "serving.codec_ms": (median(codec) * 1e3, "ms"),
            "serving.query_us": (median(query) * 1e6, "us"),
            "serving.snapshot_to_dict_ms": (median(to_dict) * 1e3, "ms"),
            "sharding.skew": (skew, "ratio"),
        }
    )
    return metrics


def serve_layers(seed, corpus, stream, acked, work, shards: int, ops) -> dict:
    """Stage split on the served data plus the in-process serve replay."""
    from repro.serving.frontend import parse_claims
    from serve import offline_reference

    metrics = _stages(parse_claims(acked), ops)
    batches = stream[:REPLAY_BATCHES]
    reference = offline_reference(corpus, [c for b in batches for c in b])
    metrics.update(_replay(seed, corpus, batches, reference, work, shards))
    return fill_unused(metrics)
