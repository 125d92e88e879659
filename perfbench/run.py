"""Repository benchmark: TD-AC's batch path and its serving path.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline-accu --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``offline-accu``
    Cold ``TDAC.run`` with the Accu base algorithm on freshly generated
    15k-claim DS1 corpora (``perfbench/offline.py``).
``serve-stream`` / ``serve-sharded``
    A ``repro serve MajorityVote DS1 --listen ... --store-dir ...``
    subprocess (plus ``--shards 2``) driven over TCP by one asyncio loop:
    open-loop ingest with reads, a closed-loop capacity phase, then
    SIGKILL and relaunch over the same store (``perfbench/serve.py``).

``--trace 0`` prints the end-to-end metrics.  Every workload reports
every metric, each measured on its own path:

=================  =============================  ==========================
metric             offline-accu                   serve-*
=================  =============================  ==========================
setup_s            generating one corpus          launch until ``listening``
                   (each repetition)              (8 launches)
peak_rss_mb        this process, which runs the   the server that served
                   program in-process             the traffic
visible_ms         one cold ``TDAC.run``          ingest, from due time to
                                                  the ``ok`` ack
read_ms            one pass of point reads over   a ``query`` round trip
                   all facts of the result
snapshot_ms        ``TDACResult.to_dict()``       a ``snapshot`` round trip
=================  =============================  ==========================

An ``ok`` ack means the batch is visible in an exact snapshot; sharded,
in the owning shard's snapshot.  A sharded ``snapshot`` forces the exact
merge of the shards.

Every timing is the middle mean (``common.middle_mean``) of the run's
samples (the serve ``read_ms``: their median, see ``serve.py``), each
calibrated to a reference host speed (``common.HostSpeed``): a shared
cloud host slows everything on it 1.3-2x in spells that can cover a
whole run, which no estimator over raw samples undoes.  A fixed kernel
of the benchmark's own is timed right before and after each sample, and
the sample is scaled by the kernel's reference time over its time there.
Raw and calibrated samples are printed on stderr.

``--trace 1`` prints the per-layer metrics instead: the benchmark times
calls into the program's public functions from outside
(``perfbench/layers.py``); nothing under ``src/`` is instrumented.
Every per-layer name is reported too; a layer a workload never drives
reads 0 there (it did no work), and ``net.restart_s`` of a relaunch that
failed, as every ``serve-sharded`` relaunch does, reads -1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
gate that fails, or a load generator that fell behind, exits non-zero
without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import END_TO_END, PER_LAYER, SRC, WORK_ROOT, WORKLOADS, GateError, Ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)

    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    try:
        if args.workload == "offline-accu":
            import offline

            metrics = offline.run(args.seed, args.seconds, args.trace, ops)
        else:
            import serve

            metrics = serve.run(
                args.seed,
                args.seconds,
                args.trace,
                ops,
                work,
                shards=2 if args.workload == "serve-sharded" else 1,
            )
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    expected = PER_LAYER if args.trace else END_TO_END
    if {n: u for n, (_, u) in metrics.items()} != expected:
        print(f"perfbench: metrics {sorted(metrics)} do not match the "
              "declared set", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
