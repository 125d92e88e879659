"""Refit-latency and restore-downtime harness for the exact delta path.

Streams the same claim batches through the delta path the serving layer
runs and through a from-scratch baseline, and measures what the delta
path buys:

1. **Refit latency** — per batch, the full-refit baseline extends the
   corpus and re-runs the whole TD-AC pipeline (``IncrementalTDAC.fit``,
   the result the delta path must reproduce), while the delta engine
   absorbs the batch through ``IncrementalTDAC.update`` (spliced index
   compile, patched Eq. 1 matrix, certified partition reuse,
   touched-block-only base runs).  Before reporting any speedup the
   harness asserts both strategies produced bit-identical predictions,
   source trust, partition and silhouettes at every watermark — the
   numbers are only meaningful if the shortcut is exact.
2. **Restore downtime** — copies of one crash-shaped store (WAL tail
   past the last checkpoint) are recovered: one by
   ``TruthService.restore``, which replays the tail through the delta
   path, and one by the full-replay baseline built here (recover the
   store, then one ``IncrementalTDAC.fit`` per replayed batch over the
   checkpointed dataset).  The harness asserts the two recovered states
   are field-for-field identical and reports each side's fastest of
   ``RESTORE_ATTEMPTS`` wall-clocks.

The emitted JSON records per-batch refit latencies (mean/p50/max), the
restore wall-clocks, the delta engine's reuse counters and the
speedups.  ``ok`` is false unless every exactness assertion held *and*
the delta path beat the full baseline on both measures.

Entry points: standalone (``make bench-incremental-smoke`` runs
``--config smoke``; ``--config full`` produced the committed
BENCH_incremental.json) and pytest (collected with the bench suite,
runs the smoke config).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core import IncrementalTDAC, TDACConfig
from repro.core.incremental import extend_dataset
from repro.data import Claim
from repro.data.io import dataset_from_dict
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig, TruthService, TruthSnapshot
from repro.store import TruthStore

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_incremental.json"

#: Restores timed per side; the reported downtime is the fastest.
RESTORE_ATTEMPTS = 3

CONFIGS = {
    # CI-sized: a few seconds, used by `make bench-incremental-smoke`.
    "smoke": {
        "n_objects": 120,
        "seed": 0,
        "batches": 6,
        "batch_size": 12,
        "restore_batches": 3,
        "algorithm": "MajorityVote",
    },
    # The committed BENCH_incremental.json: soak-scale corpus.
    "full": {
        "n_objects": 1500,
        "seed": 0,
        "batches": 12,
        "batch_size": 40,
        "restore_batches": 6,
        "algorithm": "MajorityVote",
    },
}


def make_base(name: str):
    from repro.algorithms import create

    return create(name)


def build_batches(dataset, count, size, seed):
    """Deterministic claim batches: new objects plus corpus overlap."""
    rng = random.Random(seed * 2_654_435_761 % (2**31))
    sources = list(dataset.sources)
    attributes = list(dataset.attributes)
    batches = []
    for b in range(count):
        batch, used = [], set()
        while len(batch) < size:
            s = rng.choice(sources)
            o = (
                f"stream-{b}-{rng.randint(0, size)}"
                if rng.random() < 0.7
                else rng.choice(list(dataset.objects))
            )
            a = rng.choice(attributes)
            if (s, o, a) in used or dataset.value(s, o, a) is not None:
                continue
            used.add((s, o, a))
            batch.append(Claim(s, o, a, f"v{rng.randint(0, 2)}"))
        batches.append(batch)
    return batches


def assert_outcomes_identical(label, a, b):
    failures = []
    if dict(a.predictions) != dict(b.predictions):
        failures.append("predictions")
    if dict(a.source_trust) != dict(b.source_trust):
        failures.append("source_trust")
    if a.partition != b.partition:
        failures.append("partition")
    if dict(a.silhouette_by_k) != dict(b.silhouette_by_k):
        failures.append("silhouette_by_k")
    if failures:
        raise AssertionError(f"{label}: delta diverged on {failures}")


def measure_refits(cfg: dict) -> dict:
    base_name = cfg["algorithm"]
    config = TDACConfig(seed=cfg["seed"])
    seeded = make_synthetic(
        "DS1", n_objects=cfg["n_objects"], seed=cfg["seed"]
    ).dataset
    batches = build_batches(
        seeded, cfg["batches"], cfg["batch_size"], cfg["seed"]
    )

    # Two independent streams over identical claims, so neither engine
    # warms the other's shared claim-index registry.
    full = IncrementalTDAC(make_base(base_name), config=config)
    delta = IncrementalTDAC(
        make_base(base_name), config=config, repartition_fraction=1.0
    )
    full.fit(seeded)
    delta.fit(seeded)

    full_s, delta_s = [], []
    for i, batch in enumerate(batches):
        t0 = time.perf_counter()
        full_outcome = full.fit(extend_dataset(full.dataset, batch))
        full_s.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        delta_outcome = delta.update(batch)
        delta_s.append(time.perf_counter() - t0)

        assert_outcomes_identical(f"batch {i}", delta_outcome, full_outcome)

    def summarize(xs):
        return {
            "mean_s": statistics.mean(xs),
            "p50_s": statistics.median(xs),
            "max_s": max(xs),
            "total_s": sum(xs),
        }

    return {
        "batches": len(batches),
        "claims_per_batch": cfg["batch_size"],
        "corpus_claims_start": seeded.n_claims,
        "corpus_claims_end": delta.dataset.n_claims,
        "full_refit": summarize(full_s),
        "incremental_refit": summarize(delta_s),
        "speedup": statistics.mean(full_s) / statistics.mean(delta_s),
        "watermarks_verified": len(batches),
        "engine_stats": delta.stats,
    }


def build_store(store_dir, dataset, batches, base_name, config):
    service = TruthService(
        make_base(base_name),
        dataset,
        config=config,
        store=store_dir,
        # keep the whole tail in the WAL
        service_config=ServiceConfig(
            max_wait_ms=1.0, snapshot_every=10_000
        ),
    )
    service.start()
    for batch in batches:
        service.ingest(batch, wait=True)
    service.stop(checkpoint=False)  # crash-shaped: the tail must replay


def replay_full(store_dir, base_name, config):
    """Full-replay restore baseline: one fit per replayed batch.

    Does the work of ``TruthService.restore`` with the delta path taken
    out: recover the store, fit the checkpointed dataset, refit from
    scratch after every replayed batch, then cut the fresh checkpoint.
    Returns the snapshot a restored service would publish.
    """
    store = TruthStore(store_dir)
    try:
        recovery = store.recover()
        serving = recovery.checkpoint["result"]["serving"]
        engine = IncrementalTDAC(make_base(base_name), config=config)
        outcome = engine.fit(
            dataset_from_dict(recovery.checkpoint["dataset"])
        )
        for batch in recovery.batches:
            outcome = engine.fit(extend_dataset(engine.dataset, batch.claims))
        snapshot = TruthSnapshot(
            version=int(serving["version"]) + len(recovery.batches),
            watermark=int(serving["watermark"]) + recovery.replayed_claims,
            result=outcome.result,
            partition=outcome.partition,
            silhouette_by_k=dict(outcome.silhouette_by_k),
            exact=True,
            pending_claims=0,
            dataset_fingerprint=engine.dataset.fingerprint,
            config_fingerprint=config.fingerprint(),
        )
        store.record_snapshot(
            snapshot,
            engine.dataset,
            next_sequence=recovery.next_sequence,
            base_algorithm=base_name,
            reference_algorithm=base_name,
            config=config,
        )
    finally:
        store.close()
    return snapshot


def measure_restore(cfg: dict, workdir: Path) -> dict:
    base_name = cfg["algorithm"]
    config = TDACConfig(seed=cfg["seed"])
    seeded = make_synthetic(
        "DS1", n_objects=cfg["n_objects"], seed=cfg["seed"] + 1
    ).dataset
    batches = build_batches(
        seeded, cfg["restore_batches"], cfg["batch_size"], cfg["seed"] + 1
    )
    crashed = workdir / "store-crashed"
    build_store(crashed, seeded, batches, base_name, config)

    # A restore cuts a fresh checkpoint into its store, so every attempt
    # of either side starts from its own copy of the crash-shaped store.
    # The minimum over attempts keeps one slow fsync from deciding the
    # gate.
    downtimes = {"incremental": [], "full": []}
    for attempt in range(RESTORE_ATTEMPTS):
        copies = {}
        for mode in downtimes:
            copies[mode] = workdir / f"store-{mode}-{attempt}"
            shutil.copytree(crashed, copies[mode])
        t0 = time.perf_counter()
        restored = TruthService.restore(copies["incremental"])
        downtimes["incremental"].append(time.perf_counter() - t0)
        try:
            t0 = time.perf_counter()
            b = replay_full(copies["full"], base_name, config)
            downtimes["full"].append(time.perf_counter() - t0)
            a = restored.snapshot()
            assert_outcomes_identical("restore", a, b)
            if (a.version, a.watermark, a.dataset_fingerprint) != (
                b.version, b.watermark, b.dataset_fingerprint
            ):
                raise AssertionError("restore: version/watermark diverged")
        finally:
            restored.stop()
    full_s = min(downtimes["full"])
    incremental_s = min(downtimes["incremental"])
    return {
        "replayed_batches": len(batches),
        "replayed_claims": len(batches) * cfg["batch_size"],
        "attempts": RESTORE_ATTEMPTS,
        "full_restore_s": full_s,
        "incremental_restore_s": incremental_s,
        "speedup": full_s / incremental_s,
    }


def run_bench(config_name: str, overrides: dict | None = None) -> dict:
    cfg = dict(CONFIGS[config_name])
    cfg.update(overrides or {})
    workdir = Path(tempfile.mkdtemp(prefix="bench-incremental-"))
    failures = []
    refit = restore = None
    try:
        try:
            refit = measure_refits(cfg)
        except AssertionError as exc:
            failures.append(str(exc))
        try:
            restore = measure_restore(cfg, workdir)
        except AssertionError as exc:
            failures.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if refit is not None and refit["speedup"] <= 1.0:
        failures.append(
            f"incremental refit not faster ({refit['speedup']:.2f}x)"
        )
    if restore is not None and restore["speedup"] <= 1.0:
        failures.append(
            f"incremental restore not faster ({restore['speedup']:.2f}x)"
        )
    return {
        "bench": "incremental",
        "config": config_name,
        "parameters": cfg,
        "refit": refit,
        "restore": restore,
        "ok": not failures,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", choices=sorted(CONFIGS), default="smoke")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    record = run_bench(args.config)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    if not record["ok"]:
        print("FAILED: " + "; ".join(record["failures"]), file=sys.stderr)
        return 1
    return 0


def test_incremental_bench_smoke(artifact_dir, benchmark):
    """Pytest entry: exactness must hold and the delta path must win."""
    from conftest import run_once

    record = run_once(benchmark, run_bench, "smoke")
    (artifact_dir / "BENCH_incremental_smoke.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    assert record["ok"], record["failures"]


if __name__ == "__main__":
    sys.exit(main())
