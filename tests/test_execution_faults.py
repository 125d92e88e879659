"""Fault-injection tests for the hardened execution layer.

The contract under test: whatever faults the workers suffer — transient
exceptions, hangs, a dead process pool — :func:`repro.execution.ordered_map`
either recovers (retry, then deterministic sequential fallback) with
results **bit-identical** to a clean sequential run, or fails loudly
with stage attribution when the fallback is disabled.
"""

import threading

import numpy as np
import pytest

from repro.algorithms import MajorityVote
from repro.core import TDAC, TDACConfig
from repro.execution import (
    DEFAULT_MP_START_METHOD,
    ExecutionPolicy,
    FailNth,
    KillWorker,
    StallNth,
    TaskError,
    TransientTaskError,
    make_executor,
    ordered_map,
)
from repro.observability import SpanTracer, activate


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _locked(lock):
    return lock.locked()


TASKS = [(i,) for i in range(8)]
CLEAN = [_square(i) for i in range(8)]


class TestSpawnContext:
    def test_process_pool_uses_spawn(self):
        pool = make_executor(2, "processes")
        try:
            assert pool._mp_context.get_start_method() == "spawn"
        finally:
            pool.shutdown(wait=False)

    def test_default_is_spawn(self):
        assert DEFAULT_MP_START_METHOD == "spawn"

    def test_explicit_method_overrides(self):
        pool = make_executor(2, "processes", mp_start_method="forkserver")
        try:
            assert pool._mp_context.get_start_method() == "forkserver"
        finally:
            pool.shutdown(wait=False)


class TestPolicyValidation:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ExecutionPolicy(timeout_seconds=0.0)

    def test_backoff_doubles_and_caps(self):
        policy = ExecutionPolicy(
            backoff_seconds=0.1, backoff_cap_seconds=0.25
        )
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.25)


class TestRetryRecovery:
    def test_transient_crash_is_retried(self):
        policy = ExecutionPolicy(
            max_retries=1, fault_injector=FailNth(index=3)
        )
        tracer = SpanTracer()
        with activate(tracer):
            got = ordered_map(
                _square, TASKS, n_jobs=4, policy=policy, label="stage"
            )
        assert got == CLEAN
        assert tracer.counters["stage.task_retries"] == 1
        assert "stage.task_fallbacks" not in tracer.counters

    def test_exhausted_retries_fall_back_to_inline_compute(self):
        policy = ExecutionPolicy(
            max_retries=1, fault_injector=FailNth(index=2, fail_attempts=99)
        )
        tracer = SpanTracer()
        with activate(tracer):
            got = ordered_map(
                _square, TASKS, n_jobs=4, policy=policy, label="stage"
            )
        assert got == CLEAN
        assert tracer.counters["stage.task_fallbacks"] == 1

    def test_zero_retries_still_recovers_via_fallback(self):
        policy = ExecutionPolicy(
            max_retries=0, fault_injector=FailNth(index=0)
        )
        assert ordered_map(_square, TASKS, n_jobs=2, policy=policy) == CLEAN

    def test_no_fallback_raises_with_stage_attribution(self):
        policy = ExecutionPolicy(
            max_retries=1,
            sequential_fallback=False,
            fault_injector=FailNth(index=5, fail_attempts=99),
        )
        with pytest.raises(TaskError, match="task 5 of stage 'sweep'"):
            ordered_map(_square, TASKS, n_jobs=4, policy=policy, label="sweep")

    def test_task_error_carries_cause(self):
        policy = ExecutionPolicy(
            max_retries=0,
            sequential_fallback=False,
            fault_injector=FailNth(index=1, fail_attempts=99),
        )
        with pytest.raises(TaskError) as excinfo:
            ordered_map(_square, TASKS, n_jobs=2, policy=policy)
        assert isinstance(excinfo.value.__cause__, TransientTaskError)


class TestPoolFailure:
    def test_broken_pool_triggers_sequential_fallback(self):
        policy = ExecutionPolicy(
            fault_injector=FailNth(index=1, broken=True)
        )
        tracer = SpanTracer()
        with activate(tracer):
            got = ordered_map(
                _square, TASKS, n_jobs=4, policy=policy, label="stage"
            )
        assert got == CLEAN
        assert tracer.counters["stage.pool_fallbacks"] == 1

    def test_broken_pool_without_fallback_raises(self):
        policy = ExecutionPolicy(
            sequential_fallback=False,
            fault_injector=FailNth(index=0, broken=True),
        )
        with pytest.raises(TaskError):
            ordered_map(_square, TASKS, n_jobs=4, policy=policy)

    @pytest.mark.slow
    def test_killed_worker_process_recovers(self):
        policy = ExecutionPolicy(fault_injector=KillWorker(index=2))
        got = ordered_map(
            _square, TASKS, n_jobs=2, backend="processes", policy=policy
        )
        assert got == CLEAN


class TestUnpicklableTask:
    def test_process_backend_raises_without_retry(self):
        """A task that cannot be pickled fails the same way every time:
        no retry, no silent inline rerun, and no worker is started."""
        tasks = TASKS[:3] + [(threading.Lock(),)] + TASKS[4:]
        tracer = SpanTracer()
        with activate(tracer), pytest.raises(TaskError) as raised:
            ordered_map(
                _square, tasks, n_jobs=2, backend="processes", label="stage"
            )
        assert raised.value.label == "stage"
        assert raised.value.index == 3
        assert isinstance(raised.value.__cause__, TypeError)
        assert "stage.task_retries" not in tracer.counters
        assert "stage.task_fallbacks" not in tracer.counters

    def test_thread_backend_needs_no_pickling(self):
        tasks = [(threading.Lock(),)] * 2
        got = ordered_map(_locked, tasks, n_jobs=2)
        assert got == [False, False]


class TestTimeouts:
    def test_stalled_task_times_out_and_retries(self):
        policy = ExecutionPolicy(
            max_retries=1,
            timeout_seconds=0.1,
            fault_injector=StallNth(index=0, seconds=0.6),
        )
        tracer = SpanTracer()
        with activate(tracer):
            got = ordered_map(
                _square, TASKS, n_jobs=4, policy=policy, label="stage"
            )
        assert got == CLEAN
        assert tracer.counters["stage.task_retries"] >= 1

    def test_persistent_stall_falls_back_inline(self):
        policy = ExecutionPolicy(
            max_retries=0,
            timeout_seconds=0.1,
            fault_injector=StallNth(index=0, seconds=0.6, stall_attempts=99),
        )
        assert ordered_map(_square, TASKS, n_jobs=4, policy=policy) == CLEAN


class TestSequentialPathUntouched:
    def test_injector_never_fires_sequentially(self):
        policy = ExecutionPolicy(
            sequential_fallback=False,
            fault_injector=FailNth(index=0, fail_attempts=99),
        )
        # n_jobs=1 is the plain list comprehension: no pool, no hooks.
        assert ordered_map(_square, TASKS, n_jobs=1, policy=policy) == CLEAN

    def test_single_task_short_circuits(self):
        policy = ExecutionPolicy(
            sequential_fallback=False,
            fault_injector=FailNth(index=0, fail_attempts=99),
        )
        assert ordered_map(_square, [(3,)], n_jobs=8, policy=policy) == [9]


class TestTDACUnderFaults:
    """The acceptance contract: injected worker faults (crash +
    transient error) anywhere in TD-AC's two parallel surfaces must
    leave the discovered truths bit-identical to a sequential run."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.datasets import load

        return load("DS2", scale=0.05)

    @pytest.fixture(scope="class")
    def sequential(self, dataset):
        return TDAC(
            MajorityVote(), config=TDACConfig(seed=0, n_jobs=1)
        ).run(dataset)

    @pytest.mark.parametrize(
        "injector",
        [
            FailNth(index=3),                       # transient, retried
            FailNth(index=1, fail_attempts=99),     # persistent, task fallback
            FailNth(index=0, broken=True),          # dead pool, full fallback
        ],
        ids=["transient", "persistent", "broken-pool"],
    )
    def test_faulty_parallel_run_is_bit_identical(
        self, dataset, sequential, injector
    ):
        policy = ExecutionPolicy(max_retries=1, fault_injector=injector)
        faulty = TDAC(
            MajorityVote(),
            config=TDACConfig(seed=0, n_jobs=3, execution_policy=policy),
        ).run(dataset)
        assert str(faulty.partition) == str(sequential.partition)
        assert faulty.silhouette_by_k == sequential.silhouette_by_k
        assert faulty.result.predictions == sequential.result.predictions
        assert faulty.result.source_trust == sequential.result.source_trust

    def test_fault_counters_visible_in_trace(self, dataset):
        policy = ExecutionPolicy(
            max_retries=1, fault_injector=FailNth(index=3)
        )
        tracer = SpanTracer()
        with activate(tracer):
            TDAC(
                MajorityVote(),
                config=TDACConfig(seed=0, n_jobs=3, execution_policy=policy),
            ).run(dataset)
        retries = [
            name for name in tracer.counters if name.endswith("task_retries")
        ]
        assert retries, tracer.counters


def test_numeric_results_bit_identical_under_faults():
    """Float outputs (not just small ints) survive recovery bit-for-bit."""
    rng = np.random.default_rng(0)
    rows = [(rng.standard_normal(64),) for _ in range(6)]

    def norm(v):
        return float(np.linalg.norm(v))

    clean = [norm(*row) for row in rows]
    policy = ExecutionPolicy(
        max_retries=1, fault_injector=FailNth(index=4, fail_attempts=99)
    )
    got = ordered_map(norm, rows, n_jobs=3, policy=policy)
    assert got == clean
