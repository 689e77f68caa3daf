"""Unit tests for the reliability primitives: retry policies and faults.

Contract: backoff schedules are deterministic (hash-jittered, never
``random``), exception classification separates transient from fatal,
fault plans fire on exact per-site call counts, round-trip through JSON
(the env propagation path for process-pool workers), and file corruption
is applied deterministically.
"""

import os

import pytest

from repro.reliability import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    corrupt_file,
    fault_point,
    inject,
    run_with_retry,
)
from repro.reliability import faults as faults_module


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        first = policy.backoff(1, site="sweep.build:gelu")
        assert first == policy.backoff(1, site="sweep.build:gelu")  # replayable
        assert 0.1 <= first < 0.1 * 1.5
        # Different sites / attempts / seeds de-correlate.
        assert first != policy.backoff(1, site="sweep.build:div")
        assert first != policy.backoff(2, site="sweep.build:gelu")
        assert first != RetryPolicy(base_delay=0.1, jitter=0.5, seed=8).backoff(
            1, site="sweep.build:gelu"
        )

    def test_classification(self):
        policy = RetryPolicy(retryable=(OSError,), fatal=(FileNotFoundError,))
        assert policy.is_retryable(OSError("transient"))
        assert not policy.is_retryable(FileNotFoundError("fatal wins over retryable"))
        assert not policy.is_retryable(ValueError("unlisted is fatal"))
        assert not policy.is_retryable(KeyboardInterrupt())

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_elapsed=-0.1)

    def test_max_elapsed_cuts_the_attempt_budget_short(self):
        # Fake clock: time only advances when the retry loop sleeps, so
        # the elapsed-budget arithmetic is exact and the test takes 0s.
        now = [0.0]
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            now[0] += seconds

        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=1.0, jitter=0.0,
            max_elapsed=2.5,
        )
        outcome = run_with_retry(
            lambda: (_ for _ in ()).throw(OSError("always")),
            policy, site="budget", sleep=sleep, clock=lambda: now[0],
        )
        # Attempt 1 fails at t=0, sleeps 1s; attempt 2 fails at t=1,
        # sleeps 1s; attempt 3 fails at t=2 — the next retry would start
        # at t=3 > 2.5, so the budget stops it ahead of max_attempts.
        assert not outcome.ok
        assert outcome.attempts == 3
        assert slept == [1.0, 1.0]
        assert isinstance(outcome.error, OSError)

    def test_zero_max_elapsed_means_no_retries(self):
        calls = []

        def failing():
            calls.append(1)
            raise OSError("transient")

        policy = RetryPolicy(
            max_attempts=5, base_delay=0.5, jitter=0.0, max_elapsed=0.0
        )
        outcome = run_with_retry(
            policy=policy, fn=failing, site="budget",
            sleep=lambda _: None, clock=lambda: 0.0,
        )
        assert not outcome.ok
        assert outcome.attempts == 1
        assert len(calls) == 1

    def test_max_elapsed_unset_leaves_attempts_in_charge(self):
        now = [0.0]

        def sleep(seconds):
            now[0] += seconds

        policy = RetryPolicy(max_attempts=4, base_delay=10.0, jitter=0.0)
        outcome = run_with_retry(
            lambda: (_ for _ in ()).throw(OSError("always")),
            policy, site="budget", sleep=sleep, clock=lambda: now[0],
        )
        assert outcome.attempts == 4  # all attempts spent despite 30s "elapsed"


class TestRunWithRetry:
    def test_transient_failure_recovers(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        outcome = run_with_retry(
            flaky, RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
            site="t", sleep=slept.append,
        )
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 3 and outcome.retries == 2
        assert slept == pytest.approx([0.01, 0.02])

    def test_attempts_exhausted_returns_error(self):
        outcome = run_with_retry(
            lambda: (_ for _ in ()).throw(RuntimeError("poison")),
            RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=lambda _: None,
        )
        assert not outcome.ok
        assert isinstance(outcome.error, RuntimeError)
        assert outcome.attempts == 3

    def test_fatal_error_is_not_retried(self):
        calls = []

        def fatal():
            calls.append(1)
            raise ValueError("deterministic")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, fatal=(ValueError,))
        outcome = run_with_retry(fatal, policy, sleep=lambda _: None)
        assert outcome.attempts == 1
        assert len(calls) == 1


class TestFaultPlan:
    def test_fail_on_nth_call_is_deterministic(self):
        plan = FaultPlan(specs=(FaultSpec(site="site.a", fail_calls=(2,)),))
        with inject(plan):
            fault_point("site.a")  # call 1: fine
            with pytest.raises(InjectedFault):
                fault_point("site.a")  # call 2: fails
            fault_point("site.a")  # call 3: fine again

    def test_sites_are_isolated_and_fnmatched(self):
        plan = FaultPlan(specs=(FaultSpec(site="sweep.build:gelu:*", fail_always=True),))
        with inject(plan):
            fault_point("sweep.build:div:gqa-rm")  # no match, no fault
            with pytest.raises(InjectedFault):
                fault_point("sweep.build:gelu:gqa-rm")

    def test_exception_class_selection(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", fail_always=True, exception="value"),))
        with inject(plan):
            with pytest.raises(ValueError):
                fault_point("s")
        with pytest.raises(ValueError):
            FaultSpec(site="s", exception="no-such-class")

    def test_no_plan_is_a_noop(self):
        fault_point("anything")  # must never raise without an installed plan
        assert faults_module.active_plan() is None

    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="a", fail_calls=(1, 3), exception="os", message="boom"),
                FaultSpec(site="b", delay_always=True, delay_seconds=0.5),
            ),
            seed=9,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_propagation(self):
        plan = FaultPlan(specs=(FaultSpec(site="envsite", fail_calls=(1,)),))
        with inject(plan, propagate=True):
            assert os.environ[faults_module.FAULT_PLAN_ENV] == plan.to_json()
        assert faults_module.FAULT_PLAN_ENV not in os.environ
        # A fresh process would parse the env var lazily; simulate it.
        os.environ[faults_module.FAULT_PLAN_ENV] = plan.to_json()
        try:
            assert faults_module.active_plan() == plan
            with pytest.raises(InjectedFault):
                fault_point("envsite")
        finally:
            os.environ.pop(faults_module.FAULT_PLAN_ENV)

    def test_corrupt_file_truncates_deterministically(self, tmp_path):
        path = tmp_path / "artifact.bin"
        payload = bytes(range(64))
        plan = FaultPlan(specs=(FaultSpec(site="store", corrupt_calls=(1,)),), seed=3)
        with inject(plan):
            path.write_bytes(payload)
            assert corrupt_file("store", path)
            first = path.read_bytes()
            assert len(first) == 32 and first != payload[:32]
            # Second call at the site: spec only corrupts call 1.
            path.write_bytes(payload)
            assert not corrupt_file("store", path)
            assert path.read_bytes() == payload
        # Replayed plan corrupts identically.
        with inject(plan):
            path.write_bytes(payload)
            corrupt_file("store", path)
            assert path.read_bytes() == first

