"""``offline-accu``: the paper's batch run, cold, on fresh DS1 corpora.

Each repetition generates a new 15k-claim DS1 corpus (registry scale
0.25: 250 objects, 6 attributes, 10 sources) from a seed derived from
``--seed``.  A new corpus object matters: the claim-index engine is
memoised per dataset object, so reusing one would time warm runs.

Untraced (``--trace 0``), per repetition (each metric is the middle
mean of the run's samples, each calibrated to the reference host speed,
see ``run.py``):

* ``setup_s``: generating the corpus;
* ``visible_ms``: one cold ``TDAC(Accu).run`` — the time until the
  corpus's claims are visible in an exact result;
* ``read_ms``: one pass of point reads over every fact of the
  corpus, in corpus order, through the merged result's
  ``predicted_value``; ``SAMPLES`` samples of ``READ_PASSES`` passes.
  Not in a shuffled order: shuffled passes depend on how each fresh
  corpus happens to lie in memory (1.5x apart between corpora in one
  process, against 1.2x for ordered passes), not on the program;
* ``snapshot_ms``: ``TDACResult.to_dict()``, the ``tdac-result/v1``
  rendering ``repro run --json`` prints; ``SAMPLES`` samples of
  ``RENDERS`` renderings.

Traced (``--trace 1``): the TD-AC pipeline composed from its public
stage functions, each timed, on one corpus object, and an untraced cold
``TDAC.run`` on an identical second object.  The composition must give
the same partition, silhouettes and predictions as ``TDAC.run``; the
untraced run minus the traced stages is ``core.merge_other_s``.
"""

from __future__ import annotations

import gc
import resource
import time
from statistics import median

from common import HostSpeed, describe, gate, middle_mean

ALGORITHM = "Accu"
#: Registry scale of the corpora.  Not the paper's 1.0 (60k claims): a
#: cold run there lasts about a second, so a 25 s run holds about twenty
#: of them, and each spans host slowdowns that the calibration probes
#: around it miss.  At 0.25 a cold run lasts about 0.2 s.
SCALE = 0.25
#: Timed samples per repetition of reads and of renderings, each sample
#: READ_PASSES passes over all facts or RENDERS renderings: about as long
#: as the calibration kernel, so both see the host the same way (a
#: sub-millisecond sample slips between the time slices of a busy host
#: that the several-millisecond kernel is cut by).
SAMPLES = 3
READ_PASSES = 30
RENDERS = 6
#: Cold runs per second of ``--seconds``.  A fixed count, not a deadline,
#: keeps the work, and so the peak RSS, independent of host speed: the
#: claim-index registry keeps every corpus it has indexed alive (its
#: engines hold their dataset key), so memory grows with each repetition.
REPETITIONS_PER_SECOND = 1.6
MIN_REPETITIONS = 5
#: The traced stages must account for the untraced run within this share.
STAGE_TOLERANCE = 0.25

perf = time.perf_counter


def _settle() -> None:
    """Collect garbage, then exempt what survives from later collections.

    The claim-index registry keeps every corpus it indexed alive, so
    without the freeze each collection, the ones inside a timed run too,
    would traverse every earlier repetition's corpus, and a run would get
    slower with its repetition count, which a single cold run never sees.
    """
    gc.collect()
    gc.freeze()


def _corpus(seed: int):
    from repro.datasets.registry import load

    return load("DS1", seed=seed, scale=SCALE)


def make_tdac(algorithm: str = ALGORITHM):
    from repro.algorithms import create
    from repro.core import TDAC, TDACConfig

    return TDAC(create(algorithm), config=TDACConfig())


def _repetitions(seed: int, seconds: float) -> range:
    """The corpus seeds of one run."""
    count = max(MIN_REPETITIONS, round(seconds * REPETITIONS_PER_SECOND))
    return range(seed * 1000, seed * 1000 + count)


def compose(dataset, times: dict, algorithm: str):
    """Algorithm 1 from TD-AC's public stage functions, each timed.

    Mirrors ``TDAC.run`` for a base algorithm that reads the shared
    claim index.  Returns ``(partition, silhouettes, predictions,
    iterations, fits)``.
    """
    from repro.algorithms import create
    from repro.clustering.kselect import score_silhouette_sweep
    from repro.clustering.sweep import sweep_kmeans
    from repro.core import TDAC, TDACConfig
    from repro.core.parallel import run_blocks
    from repro.core.partition import Partition
    from repro.core.truth_vectors import build_truth_vectors
    from repro.data.claim_engine import ClaimIndexEngine

    config = TDACConfig()
    base = create(algorithm)
    tdac = TDAC(base, config=config)

    def timed(name, fn, *args, **kwargs):
        t0 = perf()
        out = fn(*args, **kwargs)
        times.setdefault(name, []).append(perf() - t0)
        return out

    def compile_index():
        engine = ClaimIndexEngine.shared(dataset, dtype=config.dtype_np)
        return engine, engine.full_index  # the index compiles on first use

    engine, index = timed("data.compile_s", compile_index)
    reference = timed("algorithms.reference_s", base.discover, index)
    vectors = timed(
        "core.truth_vectors_s",
        build_truth_vectors,
        dataset,
        reference,
        memmap_threshold=config.memmap_threshold,
    )
    distances = timed("clustering.distance_s", tdac.pairwise_distances, vectors)
    upper = vectors.n_attributes - 1
    if config.k_max is not None:
        upper = min(upper, config.k_max)
    fits = timed(
        "clustering.kmeans_sweep_s",
        sweep_kmeans,
        vectors.matrix.astype(float),
        range(config.k_min, upper + 1),
        n_init=config.n_init,
        seed=config.seed,
        n_jobs=config.n_jobs,
        backend=config.backend,
        policy=config.execution_policy,
    )
    silhouettes = timed(
        "clustering.silhouette_s",
        score_silhouette_sweep,
        distances,
        fits,
        average="macro",
    )
    partition = (
        TDAC.pick_partition(vectors.attributes, fits, silhouettes)
        if fits
        else Partition.whole(vectors.attributes)
    )
    blocks = timed(
        "algorithms.block_runs_s",
        run_blocks,
        base,
        dataset,
        partition,
        n_jobs=config.n_jobs,
        backend=config.backend,
        policy=config.execution_policy,
        engine=engine,
    )
    predictions = {}
    for block in blocks:
        predictions.update(block.predictions)
    iterations = reference.iterations + sum(b.iterations for b in blocks)
    return partition, silhouettes, predictions, iterations, len(fits) * config.n_init


def check_composed(composed, outcome):
    """Gate: a composed run equals ``TDAC.run``; returns its counts."""
    partition, silhouettes, predictions, n_iter, fits = composed
    gate(partition == outcome.partition, "composed partition differs")
    gate(dict(silhouettes) == dict(outcome.silhouette_by_k),
         "composed silhouettes differ")
    gate(predictions == dict(outcome.predictions), "composed predictions differ")
    return n_iter, fits


def stage_split(pairs, algorithm: str, ops) -> dict:
    """Per-stage medians from composed runs, checked against ``TDAC.run``.

    ``pairs`` yields two fresh, identical corpus objects per repetition:
    the composition runs on one and an untraced cold ``TDAC.run`` on the
    other, in alternating order.  Every composition must give the same
    partition, silhouettes and predictions as its ``TDAC.run``, and the
    stages must account for the untraced run within ``STAGE_TOLERANCE``.
    """
    times: dict = {}
    run_s, other_s, iterations = [], [], []
    for i, (traced, untraced) in enumerate(pairs):
        ops.attempted += 1

        def cold_run():
            _settle()
            t0 = perf()
            outcome = make_tdac(algorithm).run(untraced)
            run_s.append(perf() - t0)
            return outcome

        def composed_run():
            _settle()
            return compose(traced, times, algorithm)

        if i % 2:
            composed = composed_run()
            outcome = cold_run()
        else:
            outcome = cold_run()
            composed = composed_run()
        n_iter, fits = check_composed(composed, outcome)
        iterations.append(n_iter)
        other_s.append(run_s[-1] - sum(t[-1] for t in times.values()))
    metrics = {name: (median(values), "s") for name, values in times.items()}
    merge_other = median(other_s)
    gate(
        abs(merge_other) <= STAGE_TOLERANCE * median(run_s),
        f"traced stages miss the untraced run by {merge_other:.4f} s "
        f"of {median(run_s):.4f} s",
    )
    metrics["core.merge_other_s"] = (merge_other, "s")
    metrics["algorithms.iterations"] = (median(iterations), "count")
    metrics["clustering.fits"] = (fits, "count")
    return metrics


def run(seed: int, seconds: float, trace: int, ops):
    from repro.datasets.registry import load

    make_tdac().run(load("DS1", seed=seed, scale=0.1))  # warm-up
    if trace:
        return _traced(seed, seconds, ops)

    speed = HostSpeed()
    samples = {"corpus": [], "run": [], "read": [], "to_dict": []}

    def timed(name, fn):
        t0 = perf()
        out = fn()
        samples[name].append((t0, perf() - t0))
        return out

    for corpus_seed in _repetitions(seed, seconds):
        ops.attempted += 1
        dataset = outcome = None  # the previous corpus is garbage now
        _settle()
        speed.probe()
        dataset = timed("corpus", lambda: _corpus(corpus_seed))

        _settle()
        speed.probe()
        outcome = timed("run", lambda: make_tdac().run(dataset))
        speed.probe()
        predictions = outcome.predictions
        facts = list(dataset.facts)
        gate(len(predictions) == len(facts), "a fact has no prediction")

        def read_pass(read=outcome.result.predicted_value):
            for _ in range(READ_PASSES):
                for fact in facts:
                    read(fact)

        def render():
            for _ in range(RENDERS):
                payload = outcome.to_dict()
            gate(len(payload["predictions"]) == len(facts), "short rendering")

        for _ in range(SAMPLES):
            timed("read", read_pass)
        speed.probe()
        for _ in range(SAMPLES):
            timed("to_dict", render)
        speed.probe()
    dataset = None
    _settle()
    check_composed(compose(_corpus(corpus_seed), {}, ALGORITHM), outcome)
    describe("kernel", speed.kernel_s)
    calibrated = {}
    for name, sample in samples.items():
        describe(f"{name} raw", [s for _, s in sample])
        calibrated[name] = [speed.scaled(t0, s) for t0, s in sample]
        describe(f"{name} calibrated", calibrated[name])
    return {
        "setup_s": (middle_mean(calibrated["corpus"]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "visible_ms": (middle_mean(calibrated["run"]) * 1e3, "ms"),
        "read_ms": (
            middle_mean(calibrated["read"]) * 1e3 / READ_PASSES, "ms"
        ),
        "snapshot_ms": (
            middle_mean(calibrated["to_dict"]) * 1e3 / RENDERS, "ms"
        ),
    }


def _traced(seed: int, seconds: float, ops):
    import layers

    pairs = (
        (_corpus(corpus_seed), _corpus(corpus_seed))
        for corpus_seed in _repetitions(seed, seconds)
    )
    return layers.fill_unused(stage_split(pairs, ALGORITHM, ops))
