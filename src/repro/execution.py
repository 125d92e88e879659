"""Deterministic, fault-tolerant fan-out primitives shared across the library.

Both parallel surfaces of TD-AC — the per-block solves of Algorithm 1's
step 4 and the ``(k, init)`` restart grid of the partition-selection
sweep — reduce to the same shape: a list of independent tasks whose
results must be consumed **in task order** so that parallel runs stay
bit-identical to sequential ones.  This module depends only on the
stdlib and :mod:`repro.observability` (itself pure stdlib), so every
layer can import it without cycles.

Backends
--------
``"threads"``
    Default.  The numpy kernels doing the heavy lifting release the
    GIL, and threads share memory, so no dataset or matrix is pickled.
``"processes"``
    Sidesteps the GIL for Python-bound workloads at a per-task pickling
    cost; only worth it for coarse work units.  Pools are created from
    an explicit **spawn** multiprocessing context: the platform-default
    ``fork`` on Linux can deadlock when the parent already holds BLAS /
    thread-pool state from a prior threads-backend sweep.

Fault tolerance
---------------
:func:`ordered_map` accepts an :class:`ExecutionPolicy` governing what
happens when a worker misbehaves:

* a failing or timed-out task is retried with bounded exponential
  backoff (``max_retries`` / ``backoff_seconds``);
* when retries are exhausted — or the pool itself is broken (e.g. a
  worker process died) — the unresolved tasks are recomputed inline by
  a **deterministic sequential fallback**, so the final result list is
  bit-identical to a clean sequential run;
* with the fallback disabled, the failure surfaces as a
  :class:`TaskError` carrying the stage label, task index and attempt
  count, so a crash anywhere in a pipeline is attributable;
* a task the process backend cannot pickle raises :class:`TaskError`
  at once: the failure is deterministic, so neither a retry nor an
  inline rerun (which would silently run the stage sequentially)
  is attempted.

Deterministic fault-injection hooks (:class:`FailNth`,
:class:`StallNth`, :class:`KillWorker`) let tests crash the Nth task of
a stage and assert that recovery reproduces the sequential results
exactly.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Sequence, TypeVar

from repro.observability.tracer import current_tracer

T = TypeVar("T")

BACKENDS = ("threads", "processes")

#: Start method for process pools.  ``spawn`` gives workers a fresh
#: interpreter, immune to the fork-after-threads deadlocks that the
#: Linux default (``fork``) invites once a threads-backend sweep has
#: populated the parent's BLAS thread pools.
DEFAULT_MP_START_METHOD = "spawn"


def validate_backend(backend: str) -> str:
    """Check ``backend`` is a known executor kind; returns it unchanged."""
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown backend {backend!r}; known: {known}")
    return backend


def make_executor(
    n_jobs: int,
    backend: str = "threads",
    mp_start_method: str | None = None,
) -> Executor:
    """An executor with ``n_jobs`` workers of the requested kind.

    Process pools are pinned to an explicit multiprocessing start
    method (:data:`DEFAULT_MP_START_METHOD` unless overridden) instead
    of the platform default.
    """
    validate_backend(backend)
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    if backend == "processes":
        method = mp_start_method or DEFAULT_MP_START_METHOD
        return ProcessPoolExecutor(
            max_workers=n_jobs, mp_context=get_context(method)
        )
    return ThreadPoolExecutor(max_workers=n_jobs)


# ----------------------------------------------------------------------
# Failure model
# ----------------------------------------------------------------------


class TaskError(RuntimeError):
    """A task failed after exhausting its retry budget (no fallback).

    Carries the stage label, the task index within the stage and the
    attempt count, so a worker exception deep inside a pipeline is
    attributable to the stage that scheduled it.
    """

    def __init__(self, label: str, index: int, attempts: int) -> None:
        super().__init__(
            f"task {index} of stage {label!r} failed after "
            f"{attempts} attempt(s)"
        )
        self.label = label
        self.index = index
        self.attempts = attempts


class TransientTaskError(RuntimeError):
    """The error the built-in fault injectors raise (retryable)."""


class _PoolUnhealthy(Exception):
    """Internal: the executor can no longer be trusted with work."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


@dataclass(frozen=True)
class ExecutionPolicy:
    """How :func:`ordered_map` reacts to failing workers.

    Parameters
    ----------
    max_retries:
        Resubmissions per task after its first failure (0 disables
        retry; the fallback, if enabled, still applies).
    backoff_seconds / backoff_cap_seconds:
        Base delay before a retry, doubled per attempt and capped.
    timeout_seconds:
        Per-task deadline for gathering a result; a timeout counts as a
        task failure (``None`` waits indefinitely).
    sequential_fallback:
        When True (default), tasks whose retries are exhausted — or all
        unresolved tasks once the pool breaks — are recomputed inline,
        keeping results bit-identical to a sequential run.  When False
        the failure surfaces as :class:`TaskError`.
    fault_injector:
        Test hook called as ``injector(index, attempt)`` inside the
        worker before the real function; raise to simulate a fault.
        Must be picklable for the process backend (the built-in
        injectors are).  Never invoked on the sequential fast path or
        during fallback recomputation.
    """

    max_retries: int = 1
    backoff_seconds: float = 0.0
    backoff_cap_seconds: float = 1.0
    timeout_seconds: float | None = None
    sequential_fallback: bool = True
    fault_injector: Callable[[int, int], None] | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff must be non-negative")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")

    def backoff_for(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), doubled and capped."""
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.backoff_seconds * (2 ** (attempt - 1)),
            self.backoff_cap_seconds,
        )


#: Policy used when callers pass ``policy=None``: one retry, no backoff,
#: sequential fallback on persistent failure.
DEFAULT_POLICY = ExecutionPolicy()


# Built-in deterministic fault injectors.  All are frozen dataclasses so
# the process backend can pickle them, and all key off the (index,
# attempt) pair so behaviour is reproducible under retry.


@dataclass(frozen=True)
class FailNth:
    """Raise on task ``index`` for its first ``fail_attempts`` attempts.

    ``broken=True`` raises :class:`concurrent.futures.BrokenExecutor`
    instead of :class:`TransientTaskError`, which the gather loop treats
    as a dead pool — exercising the whole-stage sequential fallback.
    """

    index: int
    fail_attempts: int = 1
    broken: bool = False

    def __call__(self, index: int, attempt: int) -> None:
        if index == self.index and attempt < self.fail_attempts:
            if self.broken:
                raise BrokenExecutor(
                    f"injected pool failure on task {index}"
                )
            raise TransientTaskError(
                f"injected fault on task {index}, attempt {attempt}"
            )


@dataclass(frozen=True)
class StallNth:
    """Sleep inside task ``index`` for its first ``stall_attempts`` attempts.

    Paired with ``timeout_seconds`` this simulates a hung worker: the
    first attempt times out, the retry proceeds promptly.
    """

    index: int
    seconds: float
    stall_attempts: int = 1

    def __call__(self, index: int, attempt: int) -> None:
        if index == self.index and attempt < self.stall_attempts:
            time.sleep(self.seconds)


@dataclass(frozen=True)
class KillWorker:
    """Hard-kill the worker process running task ``index`` (first attempt).

    Only meaningful on the process backend, where it produces a genuine
    ``BrokenProcessPool``; on threads it would kill the interpreter, so
    it refuses to run outside a child process.
    """

    index: int

    def __call__(self, index: int, attempt: int) -> None:
        if index == self.index and attempt == 0:
            import multiprocessing

            if multiprocessing.parent_process() is None:
                raise RuntimeError(
                    "KillWorker fired in the parent process; "
                    "use backend='processes'"
                )
            os._exit(17)


# ----------------------------------------------------------------------
# Ordered fan-out
# ----------------------------------------------------------------------


def _call_task(
    fn: Callable[..., T],
    args: tuple,
    injector: Callable[[int, int], None] | None,
    index: int,
    attempt: int,
) -> T:
    """Worker-side trampoline: run the injector hook, then the task."""
    if injector is not None:
        injector(index, attempt)
    return fn(*args)


def _call_pickled(payload: bytes, index: int, attempt: int):
    """Process-worker trampoline for a task pickled by :func:`_jobs`."""
    fn, args, injector = ForkingPickler.loads(payload)
    return _call_task(fn, args, injector, index, attempt)


def _jobs(
    fn: Callable[..., T],
    tasks: Sequence[tuple],
    backend: str,
    injector: Callable[[int, int], None] | None,
    name: str,
) -> list[tuple]:
    """The ``submit`` arguments of every task, minus index and attempt.

    Process tasks are pickled here, once, so a task that cannot be
    pickled fails as :class:`TaskError` before any worker starts; a
    pool would only report it through the task's future, where it looks
    like a worker failure and would be retried.
    """
    if backend != "processes":
        return [(_call_task, fn, task, injector) for task in tasks]
    jobs = []
    for index, task in enumerate(tasks):
        try:
            payload = bytes(ForkingPickler.dumps((fn, task, injector)))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise TaskError(name, index, 1) from exc
        jobs.append((_call_pickled, payload))
    return jobs


def ordered_map(
    fn: Callable[..., T],
    tasks: Sequence[tuple],
    n_jobs: int = 1,
    backend: str = "threads",
    policy: ExecutionPolicy | None = None,
    label: str | None = None,
) -> list[T]:
    """``[fn(*task) for task in tasks]``, optionally fanned out.

    Results come back in task order regardless of completion order, so
    the reduction downstream sees the same sequence a sequential run
    produces.  Worker failures are handled per ``policy`` (retry with
    backoff, then deterministic sequential fallback by default); the
    ambient tracer's counters record submissions, failures, retries and
    fallbacks under ``label`` (defaults to ``fn``'s name).
    """
    validate_backend(backend)
    policy = DEFAULT_POLICY if policy is None else policy
    if n_jobs == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]

    tracer = current_tracer()
    name = label if label is not None else getattr(fn, "__name__", "task")
    tracer.count(f"{name}.tasks", len(tasks))
    jobs = _jobs(fn, tasks, backend, policy.fault_injector, name)
    workers = min(n_jobs, len(tasks))
    unresolved = object()
    results: list = [unresolved] * len(tasks)
    try:
        with make_executor(workers, backend) as pool:
            futures = [pool.submit(*job, i, 0) for i, job in enumerate(jobs)]
            for index, future in enumerate(futures):
                results[index] = _gather(
                    pool, fn, tasks[index], jobs[index], index, future,
                    policy, tracer, name,
                )
    except _PoolUnhealthy as fault:
        if not policy.sequential_fallback:
            raise TaskError(
                name, _first_unresolved(results, unresolved), 1
            ) from fault.cause
        # The pool is gone; recompute every task that has no result yet,
        # in task order — bit-identical to a clean sequential run.
        tracer.count(f"{name}.pool_fallbacks")
        for i, value in enumerate(results):
            if value is unresolved:
                results[i] = fn(*tasks[i])
    return results


def _first_unresolved(results: list, sentinel: object) -> int:
    for i, value in enumerate(results):
        if value is sentinel:
            return i
    return len(results)


def _gather(
    pool: Executor,
    fn: Callable[..., T],
    task: tuple,
    job: tuple,
    index: int,
    future: Future,
    policy: ExecutionPolicy,
    tracer,
    name: str,
) -> T:
    """Resolve one task's result, retrying / falling back per policy."""
    attempt = 0
    while True:
        try:
            return future.result(timeout=policy.timeout_seconds)
        except BrokenExecutor as exc:
            raise _PoolUnhealthy(exc) from exc
        except Exception as exc:
            attempt += 1
            tracer.count(f"{name}.task_failures")
            if attempt > policy.max_retries:
                if policy.sequential_fallback:
                    # Deterministic inline recomputation of just this
                    # task; no injection, no pool.
                    tracer.count(f"{name}.task_fallbacks")
                    return fn(*task)
                raise TaskError(name, index, attempt) from exc
            tracer.count(f"{name}.task_retries")
            delay = policy.backoff_for(attempt)
            if delay > 0:
                time.sleep(delay)
            try:
                future = pool.submit(*job, index, attempt)
            except RuntimeError as submit_exc:
                # Pool shut down or broke between gather and resubmit.
                raise _PoolUnhealthy(submit_exc) from submit_exc
