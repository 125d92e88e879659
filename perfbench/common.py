"""Shared helpers of the benchmark modules."""

from __future__ import annotations

import bisect
import json
import math
import sys
import time
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server stores; inside the checkout, removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"

with open(ROOT / "BENCHMARK.json") as _handle:
    _DECLARED = json.load(_handle)

WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
#: End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``):
#: name -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class GateError(RuntimeError):
    """A correctness gate failed; no number may be reported."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile of a sample with a real tail.

    A tail percentile is only reported when at least ten samples lie
    beyond it; a smaller sample is a benchmark bug, not a number.
    """
    values = sorted(values)
    n = len(values)
    if q > 0.5 and n * (1.0 - q) < 10:
        raise GateError(
            f"p{q * 100:g} needs {math.ceil(10 / (1.0 - q))} samples, "
            f"got {n}"
        )
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def middle_mean(values) -> float:
    """The interquartile mean: the mean of the middle half of the sorted
    sample.  It ignores both tails, as the median does, but averages
    the half it keeps, so it moves less from run to run (on the
    serve-sharded acks: IQR / median over six runs 0.061, against 0.096
    for the median).
    """
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


def describe(name: str, sample: list) -> None:
    """A diagnostic line on stderr: sample size, spread and the tail
    percentiles the sample supports, in milliseconds."""
    q1, q2, q3 = (q * 1e3 for q in quantiles(sample, n=4))
    parts = [f"perfbench: {name} n={len(sample)} min={min(sample) * 1e3:.2f} "
             f"p25={q1:.2f} p50={q2:.2f} p75={q3:.2f}"]
    for q in (0.9, 0.99):
        if len(sample) * (1 - q) >= 10:
            parts.append(f"p{q * 100:g}={percentile(sample, q) * 1e3:.2f}")
    print(" ".join(parts) + " ms", file=sys.stderr)


#: The calibration kernel's time on an unslowed host (about its fastest
#: on the 2-vCPU VM the benchmark was built on).  Calibrated samples read
#: as seconds on a host where the kernel takes this long.
REFERENCE_KERNEL_S = 0.007

#: The kernel's claims: (source, object, attribute, value), 10 sources
#: voting on 5 values of 6 attributes of about 50 objects.
_KERNEL_CLAIMS = [
    (f"s{i % 10}", f"o{(i // 60) * 7 % 997}", f"a{(i // 10) % 6}",
     f"v{(i * 7919 + (i % 10) * 31) % 5}")
    for i in range(3000)
]


def _kernel() -> None:
    """A fixed miniature of the program's work: trust-weighted voting
    over claims grouped by fact, in dicts, three rounds; numpy gathers,
    counts and a sort over per-claim arrays; a JSON rendering of the
    result.  It tracks the host's slowdowns of the program more closely
    than generic loops do (IQR / median of program-to-kernel time ratios
    within one run: 0.09-0.11, against 0.21-0.24 for a JSON, dict and
    numpy-sort loop).  It is the benchmark's own code, so no change to
    the program moves it.
    """
    import numpy as np

    by_fact: dict = {}
    for source, obj, attribute, value in _KERNEL_CLAIMS:
        by_fact.setdefault((obj, attribute), []).append((source, value))
    trust = {f"s{i}": 0.8 for i in range(10)}
    for _ in range(3):
        truth = {}
        for fact, votes in by_fact.items():
            score: dict = {}
            for source, value in votes:
                score[value] = score.get(value, 0.0) + trust[source]
            truth[fact] = max(score, key=score.get)
        hits: dict = {}
        for source, obj, attribute, value in _KERNEL_CLAIMS:
            tally = hits.setdefault(source, [0, 0])
            tally[0] += truth[(obj, attribute)] == value
            tally[1] += 1
        trust = {s: (right + 1) / (total + 2) for s, (right, total) in hits.items()}
    sources = np.fromiter((int(c[0][1:]) for c in _KERNEL_CLAIMS),
                          dtype=np.int64, count=len(_KERNEL_CLAIMS))
    weights = np.log(np.array([trust[f"s{i}"] for i in range(10)]))[sources]
    np.bincount(sources, weights=weights).cumsum()
    np.argsort(weights, kind="stable")
    json.loads(json.dumps([
        {"object": obj, "attribute": attribute, "value": value}
        for (obj, attribute), value in truth.items()
    ]))


class HostSpeed:
    """Host-speed calibration, so that timings compare across runs.

    A shared cloud host slows everything on it 1.3-2x, in spells from
    seconds up to whole runs (measured on a 2-vCPU VM: a fixed loop's
    fastest time per 2 s window ranged 6.6-11 ms within 90 s, and every
    timing of whole 25 s runs read 1.3x slow).  No estimator over one
    run's raw samples can undo a spell that covers the run.  So a fixed
    kernel is timed right before and after each timed sample (``probe``),
    and the sample is reported as its time divided by the kernel's
    mean time around it, times ``REFERENCE_KERNEL_S`` (``scaled``): the
    sample's time on a host running at the reference speed.  The raw
    samples are printed on stderr next to the calibrated ones.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed.

        The kernel's mean time over the last probe begun before ``start``,
        the probes begun during the sample, and the first probe begun
        after it (where the run has them).
        """
        i = max(bisect.bisect_right(self.starts, start) - 1, 0)
        j = bisect.bisect_left(self.starts, start + seconds) + 1
        around = self.kernel_s[i:j]
        return seconds * REFERENCE_KERNEL_S / (sum(around) / len(around))


class Ops:
    """Operations the benchmark attempted, saw fail, and retried."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.retried = 0
