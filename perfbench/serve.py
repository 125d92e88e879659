"""``serve-stream`` and ``serve-sharded``: a live server driven over TCP.

The program under test is ``repro serve MajorityVote DS1 --listen
127.0.0.1:0 --store-dir DIR`` (``--shards 2`` for ``serve-sharded``),
launched with every other setting at its default.  Its corpus is DS1
at the CLI's default scale (3000 claims).  The stream of fresh claims is
DS1's own generator run with ``--seed`` on new objects: each batch is
every claim about one object, all sources on all attributes, so a
sharded batch spans shards.  All load comes from this process: one
asyncio loop, one ingest connection and one read connection.

Phases:

1. Open loop for ``--seconds``: one fixed-size ingest batch due every
   ``1 / INGEST_RATE`` seconds with at most one in flight, so every
   request is one micro-batch and the refit count is fixed.  Point
   queries and a low-rate ``snapshot`` are due on their own schedule on
   the read connection.  Latencies run from the due time.  The host
   speed is probed (``common.HostSpeed``) just before each ingest is
   due and right after its ack, and every quarter second while a launch
   is awaited.
2. Closed loop: ``CAPACITY_BATCHES`` batches back to back.
3. SIGKILL, then a relaunch over the same store.  ``serve-sharded``
   cannot resume a sharded store (the CLI resumes only unsharded ones),
   so its relaunch exits with ``StoreError``; that is counted as one
   failed operation, and its traced ``net.restart_s`` reads
   ``RESTART_FAILED`` (-1).

Gates: every reply is ``ok``; the final snapshot (the merged view when
sharded) is bit-identical to an offline ``TDAC.run`` over the corpus plus
the acked claims; after the relaunch the first query answers at the
pre-kill watermark and the snapshot is bit-identical again, so no acked
claim was lost.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import (
    ROOT, GateError, HostSpeed, describe, gate, middle_mean, percentile,
)

#: Ingest batches due per second in the open loop.  Refits then keep the
#: server busy well under half the time, so the backlog stays bounded
#: and most reads fall between refits, not behind one.
INGEST_RATE = 2.0
#: Point queries due per second on the read connection.
QUERY_RATE = 200.0
#: A snapshot is due halfway between two ingests, once per ingest
#: period, when the refit of the earlier one is over (it takes 0.05-0.15 s).
#: So a snapshot times its own work (sharded: merging exactly the one
#: batch acked since the last snapshot), not a wait behind a refit, and
#: no ack waits behind a snapshot; reads and acks measure those waits.
#: With snapshots at every phase of the ingest period instead, each run
#: held a different share of collisions, and serve-stream's snapshot
#: latency spread 0.126 (IQR / median over ten runs), against 0.050.
SNAPSHOT_OFFSET = 0.5
CAPACITY_BATCHES = 24
#: Launches timed for ``setup_s``; the last one serves the traffic.
SETUP_LAUNCHES = 8
#: Sends this late on their own schedule (p99) mean the generator, not
#: the server, set the pace: the run is void.
MAX_LAG_S = 0.05
#: The ingest schedule may end this far behind and still count as kept.
MAX_BACKLOG_S = 2.0
LAUNCH_TIMEOUT_S = 60.0
#: Seconds between host-speed probes while a launch is awaited.
PROBE_PERIOD_S = 0.25
#: A host-speed probe starts this long before each ingest is due.
PROBE_LEAD_S = 0.05
#: ``net.restart_s`` of a relaunch that failed.  Once the sharded-restart
#: defect is fixed, a move from here to a positive time is the fix.
RESTART_FAILED = -1.0

ALGORITHM = "MajorityVote"
DATASET = "DS1"
SCALE = 0.05  # the CLI's default --scale for serve


def load_corpus():
    """The corpus ``repro serve ... DS1`` starts from, as a new object."""
    from repro.datasets.registry import load

    return load(DATASET, scale=SCALE)


def make_stream(seed: int, n_batches: int) -> list:
    """Seeded batches of fresh claims in wire form.

    The claims come from DS1's own generator (its source classes and
    reliabilities), on new objects renamed so no fact is in the corpus.
    A batch is every claim about one object, as DS1 generates it: each
    of the 10 sources on each of the 6 attributes, 60 claims.  So a
    sharded batch spans shards, and its ack waits for every owning shard.
    """
    from repro.datasets.synthetic import make_synthetic

    fresh = make_synthetic(DATASET, n_objects=n_batches, seed=seed).dataset
    by_object: dict = {}
    for claim in fresh.iter_claims():
        by_object.setdefault(claim.object, []).append(
            {
                "source": claim.source,
                "object": f"s{seed}-{claim.object}",
                "attribute": claim.attribute,
                "value": claim.value,
            }
        )
    gate(len(by_object) == n_batches, "the stream generator lost objects")
    return list(by_object.values())


def result_fields(payload: dict) -> dict:
    """The parts of a ``tdac-result/v1`` payload bit-identity covers."""
    return {
        key: payload[key]
        for key in ("predictions", "source_trust", "partition", "silhouette_by_k")
    }


def offline_reference(corpus, acked: list) -> dict:
    """``TDAC.run`` over the corpus plus the acked log, as the wire sees it."""
    from repro.algorithms import create
    from repro.core import TDAC, TDACConfig
    from repro.core.incremental import extend_dataset
    from repro.serving.frontend import parse_claims

    dataset = extend_dataset(corpus, parse_claims(acked)) if acked else corpus
    outcome = TDAC(create(ALGORITHM), config=TDACConfig()).run(dataset)
    return result_fields(
        json.loads(json.dumps(outcome.to_dict(), sort_keys=True, default=str))
    )


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --listen`` subprocess."""

    def __init__(self, store: Path, shards: int, log: Path) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", ALGORITHM, DATASET,
            "--listen", "127.0.0.1:0", "--store-dir", str(store),
        ]
        if shards > 1:
            cmd += ["--shards", str(shards)]
        self.log = log
        self.started = time.perf_counter()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err
            )
        self.port: int | None = None
        self.listen_s: float | None = None

    def wait_listening(self, speed: HostSpeed | None = None) -> bool:
        """Block until the ``listening`` event; False if the process died.

        With ``speed``, the host speed is probed every ``PROBE_PERIOD_S``
        of the wait.
        """
        deadline = self.started + LAUNCH_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.kill()
                raise GateError("server did not start listening in time")
            ready, _, _ = select.select(
                [stdout], [], [], min(remaining, PROBE_PERIOD_S)
            )
            if not ready:
                if speed is not None:
                    speed.probe()
                continue
            line = stdout.readline()
            if not line:
                self.proc.wait(LAUNCH_TIMEOUT_S)
                return False
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "listening":
                self.listen_s = time.perf_counter() - self.started
                self.port = int(event["port"])
                return True

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(LAUNCH_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def stderr_text(self) -> str:
        return self.log.read_text(errors="replace")


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------


class Connection:
    """A JSON-lines connection with requests matched to replies by id."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.ids = itertools.count(1)
        self.waiting: dict[int, asyncio.Future] = {}

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 26
        )
        self.pump = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            response = json.loads(line)
            future = self.waiting.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result(response)
        for future in self.waiting.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed"))

    async def request(self, payload: dict) -> dict:
        """One operation; ``overloaded`` replies are retried as hinted."""
        self.ops.attempted += 1
        while True:
            rid = next(self.ids)
            future = asyncio.get_running_loop().create_future()
            self.waiting[rid] = future
            self.writer.write(
                (json.dumps(dict(payload, id=rid)) + "\n").encode()
            )
            await self.writer.drain()
            response = await future
            if response.get("error") == "overloaded":
                self.ops.retried += 1
                await asyncio.sleep(
                    float(response.get("retry_after_seconds") or 0.01)
                )
                continue
            if not response.get("ok"):
                self.ops.failed += 1
                raise GateError(f"{payload['op']} failed: {response}")
            return response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await self.pump


async def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class Traffic:
    """Phases 1 and 2 against one running server."""

    def __init__(self, ops, shards: int, corpus_facts, seed: int) -> None:
        self.ops = ops
        self.shards = shards
        self.rng = random.Random(seed ^ 0x5EED)
        self.facts = corpus_facts
        self.speed = HostSpeed()
        self.acked: list = []  # wire claims, in ack order
        #: Open-loop samples: (due time, seconds from due to reply).
        self.ack_s: list[tuple[float, float]] = []
        self.query_s: list[tuple[float, float]] = []
        self.snapshot_s: list[tuple[float, float]] = []
        self.lag_s: list[float] = []
        self.backlog_s = 0.0
        self.capacity = 0.0

    async def ingest(self, conn: Connection, batch: list) -> dict:
        response = await conn.request({"op": "ingest", "claims": batch})
        gate(response.get("applied") == len(batch), f"short ack {response}")
        self.acked.extend(batch)
        if self.shards == 1:
            gate(
                response.get("watermark") == len(self.acked),
                f"ack watermark {response.get('watermark')} != "
                f"{len(self.acked)} acked claims",
            )
        return response

    async def open_loop(self, write, read, batches, seconds: float) -> None:
        self.speed.probe()
        start = time.perf_counter() + 0.05
        n_ingest = len(batches)
        reads = [(start + i / QUERY_RATE, False)
                 for i in range(int(seconds * QUERY_RATE))]
        reads += [(start + (j + SNAPSHOT_OFFSET) / INGEST_RATE, True)
                  for j in range(n_ingest)]
        reads.sort()
        in_flight: set[asyncio.Task] = set()

        async def one_read(due: float, fact) -> None:
            if fact is None:
                response = await read.request({"op": "snapshot"})
                gate(response["snapshot"]["serving"]["exact"], "inexact view")
                self.snapshot_s.append((due, time.perf_counter() - due))
            else:
                obj, attribute = fact
                response = await read.request(
                    {"op": "query", "object": obj, "attribute": attribute}
                )
                gate(response.get("found") and response.get("exact"),
                     f"query miss {response}")
                self.query_s.append((due, time.perf_counter() - due))

        async def readers() -> None:
            for due, snapshot in reads:
                await _sleep_until(due)
                self.lag_s.append(time.perf_counter() - due)
                fact = None if snapshot else self.rng.choice(self.facts)
                task = asyncio.ensure_future(one_read(due, fact))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)

        async def writer() -> None:
            ready = start
            for i, batch in enumerate(batches):
                due = start + i / INGEST_RATE
                if time.perf_counter() < due - PROBE_LEAD_S:
                    # A probe ahead of the due time, so each ack has one
                    # close on both sides and its send is not delayed.
                    await _sleep_until(due - PROBE_LEAD_S)
                    self.speed.probe()
                await _sleep_until(due)
                self.lag_s.append(time.perf_counter() - max(due, ready))
                await self.ingest(write, batch)
                ready = time.perf_counter()
                self.ack_s.append((due, ready - due))
                # Between acks the ingest connection is idle: the probe
                # delays no ingest, and at most a few reads by its length.
                self.speed.probe()
            self.backlog_s = ready - (start + (n_ingest - 1) / INGEST_RATE)

        reader_task = asyncio.ensure_future(readers())
        await writer()
        await reader_task
        while in_flight:
            await asyncio.gather(*list(in_flight))
        self.speed.probe()

    async def closed_loop(self, write, batches) -> None:
        started = time.perf_counter()
        for batch in batches:
            await self.ingest(write, batch)
        elapsed = time.perf_counter() - started
        self.capacity = sum(len(b) for b in batches) / elapsed


async def _traffic(port, traffic, open_batches, capacity_batches, seconds, trace):
    write, read = Connection(traffic.ops), Connection(traffic.ops)
    await write.open(port)
    await read.open(port)
    await traffic.open_loop(write, read, open_batches, seconds)
    await traffic.closed_loop(write, capacity_batches)
    snapshot = (await read.request({"op": "snapshot"}))["snapshot"]
    stats = (await read.request({"op": "stats"}))["stats"] if trace else None
    await write.close()
    await read.close()
    return snapshot, stats


async def _after_restart(port, ops, facts, watermark):
    read = Connection(ops)
    await read.open(port)
    obj, attribute = facts[0]
    answer = await read.request(
        {"op": "query", "object": obj, "attribute": attribute}
    )
    answered = time.perf_counter()
    snapshot = (await read.request({"op": "snapshot"}))["snapshot"]
    await read.close()
    gate(answer.get("found"), f"query miss after restart {answer}")
    gate(
        answer.get("watermark") == watermark,
        f"restart answered at watermark {answer.get('watermark')}, "
        f"pre-kill watermark {watermark}",
    )
    return answered, snapshot


def stats_counts(stats: dict, shards: int) -> dict:
    """The repeatable counters of the live server's ``stats`` op."""
    services = list(stats["shards"].values()) if shards > 1 else [stats]
    engines = [s["engine"] for s in services]
    reused = sum(e["blocks_reused"] for e in engines)
    refreshed = sum(e["block_refreshes"] for e in engines)
    return {
        "serving.batches": sum(s["batches"] for s in services),
        "core.full_fits": sum(e["full_fits"] for e in engines),
        "core.delta_updates": sum(e["delta_updates"] for e in engines),
        "core.blocks_reused_ratio": (
            reused / (reused + refreshed) if reused + refreshed else 0.0
        ),
        "core.warm_misses": sum(e["warm_misses"] for e in engines),
        "sharding.merge_refreshes": stats.get("merge_refreshes", 0),
    }


def run(seed: int, seconds: float, trace: int, ops, work: Path, shards: int):
    corpus = load_corpus()
    facts = [(f.object, f.attribute) for f in corpus.facts]
    n_open = int(seconds * INGEST_RATE)
    stream = make_stream(seed, n_open + CAPACITY_BATCHES)
    open_batches, capacity_batches = stream[:n_open], stream[n_open:]

    # Set-up: fresh launches; the last one serves the traffic.
    launch_speed = HostSpeed()
    launch_raw, launches = [], []
    for i in range(SETUP_LAUNCHES):
        ops.attempted += 1
        launch_speed.probe()
        server = Server(work / f"store-{i}", shards, work / f"launch-{i}.log")
        if not server.wait_listening(launch_speed):
            raise GateError(f"server exited at launch:\n{server.stderr_text()}")
        launch_speed.probe()
        launch_raw.append(server.listen_s)
        launches.append(launch_speed.scaled(server.started, server.listen_s))
        if i < SETUP_LAUNCHES - 1:
            server.kill()
    store = work / f"store-{SETUP_LAUNCHES - 1}"

    traffic = Traffic(ops, shards, facts, seed)
    try:
        snapshot, stats = asyncio.run(
            _traffic(server.port, traffic, open_batches, capacity_batches,
                     seconds, trace)
        )
    finally:
        server.kill()
    killed = time.perf_counter()
    # The largest child reaped so far is the one that served the traffic.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # Phase 3: relaunch over the killed server's store.
    ops.attempted += 1
    relaunched = Server(store, shards, work / "relaunch.log")
    restart_s = after = None
    try:
        if relaunched.wait_listening():
            answered, after = asyncio.run(
                _after_restart(relaunched.port, ops, facts, len(traffic.acked))
            )
            restart_s = answered - killed
        else:
            ops.failed += 1
            gate(
                shards > 1 and "StoreError" in relaunched.stderr_text(),
                "relaunch failed:\n" + relaunched.stderr_text()[-2000:],
            )
    finally:
        relaunched.kill()

    reference = offline_reference(corpus, traffic.acked)
    gate(
        snapshot["serving"]["watermark"] == len(traffic.acked),
        f"final watermark {snapshot['serving']['watermark']} != "
        f"{len(traffic.acked)} acked claims",
    )
    gate(result_fields(snapshot) == reference,
         "final snapshot differs from offline TDAC.run")
    gate(after is None or result_fields(after) == reference,
         "snapshot after restart differs from offline TDAC.run")
    lag_p99 = percentile(traffic.lag_s, 0.99)
    speed = traffic.speed
    describe("launch raw", launch_raw)
    describe("launch calibrated", launches)
    describe("kernel", speed.kernel_s)
    calibrated = {}
    for name, sample in (("ack", traffic.ack_s), ("query", traffic.query_s),
                         ("snapshot", traffic.snapshot_s)):
        describe(f"{name} raw", [s for _, s in sample])
        calibrated[name] = [speed.scaled(due, s) for due, s in sample]
        describe(f"{name} calibrated", calibrated[name])
    if lag_p99 > MAX_LAG_S or traffic.backlog_s > MAX_BACKLOG_S:
        raise GateError(
            f"load generator fell behind: lag p99 {lag_p99:.3f} s, "
            f"ingest backlog {traffic.backlog_s:.3f} s"
        )
    print(f"perfbench: restart_s {restart_s}", file=sys.stderr)

    if not trace:
        return {
            "setup_s": (middle_mean(launches), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "visible_ms": (middle_mean(calibrated["ack"]) * 1e3, "ms"),
            # The median, not the middle mean: a share of the reads waits
            # behind a refit or a merge (their p75 reaches 2-9 ms against a
            # 1.3 ms median), and that share grows on a slowed host.
            "read_ms": (median(calibrated["query"]) * 1e3, "ms"),
            "snapshot_ms": (middle_mean(calibrated["snapshot"]) * 1e3, "ms"),
        }
    import layers

    metrics = layers.serve_layers(
        seed, corpus, stream, traffic.acked, work, shards, ops
    )
    metrics["net.query_p99_ms"] = (
        percentile([s for _, s in traffic.query_s], 0.99) * 1e3, "ms"
    )
    # serve-sharded cannot restart (see the module docstring).  Its failed
    # restart reads RESTART_FAILED, which no measured time can equal.
    metrics["net.restart_s"] = (
        RESTART_FAILED if restart_s is None else restart_s, "s"
    )
    metrics["loadgen.lag_p99_ms"] = (lag_p99 * 1e3, "ms")
    metrics["serving.capacity_claims_per_s"] = (traffic.capacity, "claims/s")
    metrics["ops.retried"] = (ops.retried, "count")
    for name, value in stats_counts(stats, shards).items():
        metrics[name] = (value, "ratio" if name.endswith("ratio") else "count")
    return metrics
