"""Chaos tests for the replicated serving supervisor.

The supervisor's crash-recovery contract, proven under the deterministic
fault harness (every seam is indexed by replica, so a test kills replica
0 while replica 1 serves):

* a replica SIGKILLed with a batch in flight loses **zero accepted
  requests** — the batch is re-dispatched to a survivor and every answer
  is bit-identical to the no-fault run (inference is pure);
* a crash-looping replica trips the circuit breaker (FAILED, no more
  restarts) and ``health()`` degrades; with *every* replica failed,
  requests fail fast with ``NoHealthyReplicaError``;
* a replica whose heartbeat stalls (alive but wedged) is killed and
  restarted;
* a hot-swap that delivers corrupt bits (strict-loads fine, wrong
  values — only the canary can catch it) or errors mid-apply is rolled
  back fleet-wide: the old model keeps serving, bit-exactly, and a later
  clean swap still promotes;
* the two ``slow_chaos``-marked scenarios run the same proofs under
  sustained load (kill mid-traffic, rolling swap mid-traffic with a
  no-mixed-responses check) and are skipped in tier-1 unless
  ``REPRO_SLOW_CHAOS=1``.

Fault plans are installed *before* the server forks its workers, so the
replicas inherit them (each worker reinstalls a fresh per-process fault
state with its own call counters).  A plan installed only while the
server is constructed reaches the initial fleet alone: restarts fork
plan-free replicas.
"""

import threading
import time

import numpy as np
import pytest

from repro.reliability import FaultPlan, FaultSpec, RetryPolicy, inject
from repro.serve import (
    NoHealthyReplicaError,
    ReplicaDiedError,
    ReplicatedServer,
    SwapFailedError,
)

# Fast-recovery knobs shared by the chaos servers: quick heartbeats and
# near-immediate restarts keep every scenario inside a couple of seconds.
FAST = dict(
    max_wait_ms=1.0,
    heartbeat_ms=40.0,
    restart_policy=RetryPolicy(base_delay=0.01, multiplier=1.0, jitter=0.0),
)


def make_images(count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(16, 16, 3)) for _ in range(count)]


def reference_for(model, images):
    return [model.predict(image[None], engine="eager")[0] for image in images]


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def perturbed_head_state(model, scale=7.0):
    state = dict(model.state_dict())
    key = next(name for name in state if "head" in name and name.endswith("bias"))
    state[key] = state[key] + np.arange(state[key].size, dtype=np.float64) * scale
    return state


def serve_until_first_death(server, images, reference, rounds=50):
    """Feed traffic until the kill seam has fired (replica 0 must actually
    receive a batch to die on — work distribution between dispatchers is
    racy), asserting bit-parity on every answered round."""
    for _ in range(rounds):
        results = server.predict_many(images, timeout=120)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)
        if server.health()["supervisor"]["replica_deaths"] >= 1:
            return
    raise AssertionError("replica 0 never received a batch in %d rounds" % rounds)


class TestCrashRecovery:
    def test_kill_mid_batch_redispatches_bit_identically(self, served_model):
        """Replica 0 dies with its first batch in flight; nobody notices."""
        images = make_images(10, seed=3)
        reference = reference_for(served_model, images)
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_calls=(1,)),))
        # Only the initial fleet forks under the plan, so replica 0 dies
        # exactly once; a second round may reach its plan-free restart.
        with inject(plan):
            server = ReplicatedServer(served_model, replicas=2, **FAST)
        with server:
            serve_until_first_death(server, images, reference)
            for got, want in zip(server.predict_many(images, timeout=120), reference):
                np.testing.assert_array_equal(got, want)
            stats = server.stats()
            health = server.health()
        assert stats.failed == 0  # zero accepted requests lost
        assert health["supervisor"]["replica_deaths"] == 1
        assert health["supervisor"]["redispatches"] >= 1

    def test_dead_replica_restarts_and_serves_again(self, served_model):
        images = make_images(4, seed=4)
        reference = reference_for(served_model, images)
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_calls=(1,)),))
        # Only the initial fleet forks under the plan: the restarted replica
        # 0 forks from a plan-free supervisor, so it dies exactly once and
        # its restart must serve.
        with inject(plan):
            server = ReplicatedServer(served_model, replicas=2, **FAST)
        with server:
            serve_until_first_death(server, images, reference)
            assert wait_until(
                lambda: all(
                    entry["state"] == "healthy"
                    for entry in server.health()["replicas"]
                )
            )
            health = server.health()
            assert health["supervisor"]["restarts"] >= 1
            assert health["replicas"][0]["generation"] >= 2

            def restarted_replica_served():
                # The restarted fleet still answers bit-identically.
                results = server.predict_many(images, timeout=120)
                for got, want in zip(results, reference):
                    np.testing.assert_array_equal(got, want)
                return server.health()["replicas"][0]["batches"] >= 1

            assert wait_until(restarted_replica_served, timeout=30.0)
            health = server.health()
        assert health["supervisor"]["replica_deaths"] == 1
        assert health["replicas"][0]["generation"] == 2

    def test_crash_loop_trips_breaker_and_degrades_health(self, served_model):
        """Replica 0 dies on every batch: FAILED after 3 deaths; replica 1
        keeps answering everything, bit-identically."""
        images = make_images(3, seed=5)
        reference = reference_for(served_model, images)
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_always=True),))
        with inject(plan):
            with ReplicatedServer(
                served_model,
                replicas=2,
                crash_loop_threshold=3,
                crash_loop_window_s=60.0,
                **FAST,
            ) as server:
                def feed_until_failed():
                    if server.health()["replicas"][0]["state"] == "failed":
                        return True
                    # Keep traffic flowing so replica 0 gets batches to die on.
                    for image in images:
                        server.predict(image, timeout=120)
                    return server.health()["replicas"][0]["state"] == "failed"

                assert wait_until(feed_until_failed, timeout=30.0)
                health = server.health()
                assert health["status"] == "degraded"
                assert health["replicas"][0]["state"] == "failed"
                assert health["replicas"][0]["crashes_in_window"] >= 3
                results = server.predict_many(images, timeout=120)
                for got, want in zip(results, reference):
                    np.testing.assert_array_equal(got, want)
                assert server.stats().failed == 0

    def test_all_replicas_failed_fails_fast(self, served_model):
        """A single replica crash-looping to FAILED leaves no healthy
        fleet: pending work fails with NoHealthyReplicaError, health is
        'failed', and new submissions fail fast."""
        image = make_images(1, seed=6)[0]
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:*", fail_always=True),))
        with inject(plan):
            with ReplicatedServer(
                served_model,
                replicas=1,
                crash_loop_threshold=2,
                crash_loop_window_s=60.0,
                max_redispatch=1,
                **FAST,
            ) as server:
                with pytest.raises((ReplicaDiedError, NoHealthyReplicaError)):
                    server.predict(image, timeout=120)
                assert wait_until(
                    lambda: server.health()["replicas"][0]["state"] == "failed"
                )
                assert server.health()["status"] == "failed"
                with pytest.raises(NoHealthyReplicaError):
                    server.predict(image, timeout=120)

    def test_restart_budget_exhaustion_trips_breaker(self, served_model):
        """RetryPolicy.max_elapsed = 0 means no restart budget at all: the
        first death goes straight to FAILED with zero restarts."""
        images = make_images(2, seed=7)
        reference = reference_for(served_model, images)
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_calls=(1,)),))
        policy = RetryPolicy(base_delay=0.01, jitter=0.0, max_elapsed=0.0)
        with inject(plan):
            with ReplicatedServer(
                served_model, replicas=2, restart_policy=policy,
                max_wait_ms=1.0, heartbeat_ms=40.0,
            ) as server:
                serve_until_first_death(server, images, reference)
                assert wait_until(
                    lambda: server.health()["replicas"][0]["state"] == "failed"
                )
                health = server.health()
                assert health["status"] == "degraded"
                assert health["supervisor"]["restarts"] == 0

    def test_wedged_serve_loop_hits_batch_timeout(self, served_model):
        """Replica 0's serve loop wedges mid-batch while its heartbeat
        *thread* keeps beating — heartbeat staleness can never fire.
        The batch deadline kills it and the batch re-dispatches to
        replica 1; no accepted request is lost."""
        images = make_images(4, seed=13)
        reference = reference_for(served_model, images)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="replica.batch:0",
                    delay_calls=(1,),
                    delay_seconds=30.0,
                ),
            )
        )
        with inject(plan):
            with ReplicatedServer(
                served_model, replicas=2, batch_timeout_s=0.5, **FAST
            ) as server:
                def wedged_and_recovered():
                    if server.health()["supervisor"]["batch_timeouts"] >= 1:
                        return True
                    # Keep feeding until replica 0 receives a batch to
                    # wedge on; every answered round stays bit-exact.
                    results = server.predict_many(images, timeout=120)
                    for got, want in zip(results, reference):
                        np.testing.assert_array_equal(got, want)
                    return server.health()["supervisor"]["batch_timeouts"] >= 1

                assert wait_until(wedged_and_recovered, timeout=60.0)
                health = server.health()
                assert health["supervisor"]["redispatches"] >= 1
                assert server.stats().failed == 0

    def test_breaker_tripped_slot_rejects_targeted_commands(self, served_model):
        """A command aimed at a slot the breaker has retired fails with
        ReplicaCrashLoopError — unlike a plain death, the slot will
        never come back on its own."""
        from concurrent.futures import Future

        from repro.reliability import ReplicaCrashLoopError
        from repro.serve.supervisor import _SwapCommand

        images = make_images(2, seed=14)
        plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_always=True),))
        with inject(plan):
            with ReplicatedServer(
                served_model,
                replicas=2,
                crash_loop_threshold=2,
                crash_loop_window_s=60.0,
                **FAST,
            ) as server:
                def feed_until_failed():
                    if server.health()["replicas"][0]["state"] == "failed":
                        return True
                    for image in images:
                        server.predict(image, timeout=120)
                    return server.health()["replicas"][0]["state"] == "failed"

                assert wait_until(feed_until_failed, timeout=30.0)
                reply = Future()
                server._slots[0].direct.put(
                    _SwapCommand(
                        dict(served_model.state_dict()), None, images[0], reply
                    )
                )
                with pytest.raises(ReplicaCrashLoopError):
                    reply.result(timeout=30)

    def test_stalled_heartbeat_is_killed_and_restarted(self, served_model):
        """Replica 0's heartbeat thread hangs (process alive, wedged):
        the monitor SIGKILLs it; replica 1 serves throughout."""
        images = make_images(4, seed=8)
        reference = reference_for(served_model, images)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="replica.heartbeat:0",
                    delay_always=True,
                    delay_seconds=5.0,
                ),
            )
        )
        with inject(plan):
            with ReplicatedServer(served_model, replicas=2, **FAST) as server:
                assert wait_until(
                    lambda: server.health()["supervisor"]["heartbeat_kills"] >= 1
                )
                results = server.predict_many(images, timeout=120)
                for got, want in zip(results, reference):
                    np.testing.assert_array_equal(got, want)
                assert server.stats().failed == 0


class TestSwapChaos:
    def test_corrupt_state_mid_swap_rolls_back_then_clean_swap_promotes(
        self, served_model
    ):
        """Replica 1 silently corrupts the delivered state (strict-loads
        fine, wrong bits): only the canary check catches it.  The fleet
        rolls back to the old model — verified bit-exactly — and a second,
        clean swap still promotes (both canary directions exercised)."""
        images = make_images(5, seed=9)
        old_state = served_model.state_dict()
        old_reference = reference_for(served_model, images)
        new_state = perturbed_head_state(served_model)
        plan = FaultPlan(
            specs=(FaultSpec(site="replica.swap.corrupt:1", fail_calls=(1,)),)
        )
        try:
            with inject(plan):
                with ReplicatedServer(
                    served_model, replicas=2, canary=images[0], **FAST
                ) as server:
                    with pytest.raises(SwapFailedError, match="diverged"):
                        server.swap_state(new_state)
                    health = server.health()
                    assert health["supervisor"]["rollbacks"] == 1
                    assert health["model_generation"] == 0
                    # Old model serves, bit-exactly, on every replica.
                    results = server.predict_many(images, timeout=120)
                    for got, want in zip(results, old_reference):
                        np.testing.assert_array_equal(got, want)
                    # The corruption seam only fires once: a clean retry
                    # promotes the fleet.
                    report = server.swap_state(new_state)
                    assert report["rolled_back"] is False
                    new_reference = reference_for(served_model, images)
                    results = server.predict_many(images, timeout=120)
                    for got, want in zip(results, new_reference):
                        np.testing.assert_array_equal(got, want)
        finally:
            served_model.load_state_dict(old_state, strict=True)

    def test_swap_error_mid_apply_rolls_back(self, served_model):
        """An exception inside the first replica's swap handler aborts the
        rollout before any promotion; the old model keeps serving."""
        images = make_images(4, seed=10)
        old_state = served_model.state_dict()
        old_reference = reference_for(served_model, images)
        new_state = perturbed_head_state(served_model)
        plan = FaultPlan(specs=(FaultSpec(site="replica.swap:0", fail_calls=(1,)),))
        try:
            with inject(plan):
                with ReplicatedServer(
                    served_model, replicas=2, canary=images[0], **FAST
                ) as server:
                    with pytest.raises(SwapFailedError):
                        server.swap_state(new_state)
                    health = server.health()
                    assert health["supervisor"]["swaps"] == 0
                    assert health["supervisor"]["rollbacks"] == 1
                    results = server.predict_many(images, timeout=120)
                    for got, want in zip(results, old_reference):
                        np.testing.assert_array_equal(got, want)
        finally:
            served_model.load_state_dict(old_state, strict=True)


@pytest.mark.slow_chaos
class TestSustainedLoadChaos:
    """The same proofs under continuous traffic (CI chaos job only)."""

    def _pound(self, server, images, stop, outcomes):
        index = 0
        while not stop.is_set():
            image_index = index % len(images)
            try:
                result = server.predict(images[image_index], timeout=120)
            except Exception as error:  # collected, asserted empty later
                outcomes.append((image_index, error))
            else:
                outcomes.append((image_index, result))
            index += 1

    def test_kill_under_sustained_load_loses_nothing(self, served_model):
        images = make_images(4, seed=11)
        reference = reference_for(served_model, images)
        with ReplicatedServer(served_model, replicas=2, **FAST) as server:
            stop = threading.Event()
            outcomes = []
            pounder = threading.Thread(
                target=self._pound, args=(server, images, stop, outcomes)
            )
            pounder.start()
            try:
                time.sleep(0.5)
                import os
                import signal

                victim = server.health()["replicas"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                time.sleep(1.5)
            finally:
                stop.set()
                pounder.join(timeout=120)
            assert server.drain(timeout=120)
        assert len(outcomes) > 0
        errors = [entry for entry in outcomes if isinstance(entry[1], Exception)]
        assert errors == []  # zero dropped requests across the kill
        for image_index, result in outcomes:
            np.testing.assert_array_equal(result, reference[image_index])
        assert server.health()["supervisor"]["replica_deaths"] >= 1

    def test_rolling_swap_under_sustained_load_never_mixes_models(
        self, served_model
    ):
        images = make_images(4, seed=12)
        old_state = served_model.state_dict()
        old_reference = reference_for(served_model, images)
        new_state = perturbed_head_state(served_model)
        try:
            with ReplicatedServer(
                served_model, replicas=2, canary=images[0], **FAST
            ) as server:
                stop = threading.Event()
                outcomes = []
                pounder = threading.Thread(
                    target=self._pound, args=(server, images, stop, outcomes)
                )
                pounder.start()
                try:
                    time.sleep(0.4)
                    report = server.swap_state(new_state)
                    assert report["rolled_back"] is False
                    new_reference = reference_for(served_model, images)
                    time.sleep(0.4)
                finally:
                    stop.set()
                    pounder.join(timeout=120)
                assert server.drain(timeout=120)
                # Requests answered after the swap completed come from the
                # new model only.
                post_swap = server.predict_many(images, timeout=120)
                for got, want in zip(post_swap, new_reference):
                    np.testing.assert_array_equal(got, want)
        finally:
            served_model.load_state_dict(old_state, strict=True)
        errors = [entry for entry in outcomes if isinstance(entry[1], Exception)]
        assert errors == []  # the swap dropped nothing
        # Every mid-swap response is uniformly old-model or new-model —
        # never a mixture of the two.
        mixed = 0
        for image_index, result in outcomes:
            is_old = np.array_equal(result, old_reference[image_index])
            is_new = np.array_equal(result, new_reference[image_index])
            if not (is_old or is_new):
                mixed += 1
        assert mixed == 0
