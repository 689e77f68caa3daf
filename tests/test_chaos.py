"""Chaos tests: every degradation path proven under injected failure.

The reliability layer's contract, exercised with the deterministic fault
harness of :mod:`repro.reliability.faults`:

* a poisoned sweep cell is quarantined and reported in the manifest while
  every healthy cell still completes with cache-parity artifacts;
* transient worker crashes are retried away; stragglers are re-dispatched;
* a torn/corrupt artifact file is detected (checksums) and recomputed,
  including under concurrent multi-process writers;
* a compiled trace/replay failure degrades to the eager path with
  bit-identical predictions;
* an overloaded server sheds at admission instead of growing its queue,
  expired deadlines are rejected before batch assembly, and a wedged
  batch cannot hang a caller that passed ``timeout=``.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.core.pwl import PiecewiseLinear
from repro.experiments import (
    ApproximationBudget,
    ApproximationJob,
    ArtifactCache,
    ArtifactStore,
    SweepEngine,
    compute_approximation,
)
from repro.graph.executor import CompiledModel
from repro.reliability import (
    DeadlineExceededError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobQuarantinedError,
    QueueFullError,
    RetryPolicy,
    inject,
)
from repro.serve import BatchingServer

QUICK = ApproximationBudget.quick()
# Zero-delay policy so chaos runs stay fast; jitter is irrelevant at 0.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)


def make_images(count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(16, 16, 3)) for _ in range(count)]


def assert_pwl_equal(a, b):
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
    np.testing.assert_array_equal(a.slopes, b.slopes)
    np.testing.assert_array_equal(a.intercepts, b.intercepts)


# -- sweep: retry, quarantine, straggler re-dispatch ---------------------------


class TestSweepChaos:
    JOBS = [
        ApproximationJob("gelu", "gqa-rm", 8, QUICK),
        ApproximationJob("div", "gqa-wo-rm", 8, QUICK),
        ApproximationJob("exp", "gqa-wo-rm", 8, QUICK),
    ]

    def test_poisoned_cell_is_reported_not_fatal_serial(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:gelu:*", fail_always=True, exception="runtime"),
        ))
        engine = SweepEngine(retry=FAST_RETRY)
        with inject(plan):
            manifest = engine.run_manifest(self.JOBS, workers=0)
        assert not manifest.ok
        poisoned = self.JOBS[0].key
        assert set(manifest.failures) == {poisoned}
        failure = manifest.failures[poisoned]
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.error_type == "RuntimeError"
        assert manifest.stats.failures == 1
        assert manifest.stats.retries == FAST_RETRY.max_attempts - 1
        # Every healthy cell completed with cache-parity artifacts.
        assert set(manifest.results) == {job.key for job in self.JOBS[1:]}
        for job in self.JOBS[1:]:
            assert_pwl_equal(
                manifest.results[job.key],
                compute_approximation(job.operator, job.method, 8, QUICK),
            )

    def test_poisoned_cell_in_process_pool(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:gelu:*", fail_always=True, exception="runtime"),
        ))
        engine = SweepEngine(retry=FAST_RETRY)
        with inject(plan, propagate=True):
            manifest = engine.run_manifest(self.JOBS, workers=2)
        assert set(manifest.failures) == {self.JOBS[0].key}
        assert manifest.failures[self.JOBS[0].key].attempts == FAST_RETRY.max_attempts
        for job in self.JOBS[1:]:
            assert_pwl_equal(
                manifest.results[job.key],
                compute_approximation(job.operator, job.method, 8, QUICK),
            )

    def test_transient_failure_is_retried_away(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:div:*", fail_calls=(1,), exception="os"),
        ))
        engine = SweepEngine(retry=FAST_RETRY)
        job = self.JOBS[1]
        with inject(plan):
            manifest = engine.run_manifest([job], workers=0)
        assert manifest.ok
        assert manifest.stats.retries == 1
        assert manifest.stats.builds == 1
        assert_pwl_equal(
            manifest.results[job.key],
            compute_approximation(job.operator, job.method, 8, QUICK),
        )

    def test_quarantine_fails_fast_then_can_be_cleared(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:gelu:*", fail_always=True, exception="runtime"),
        ))
        engine = SweepEngine(retry=FAST_RETRY)
        job = self.JOBS[0]
        with inject(plan):
            first = engine.run_manifest([job], workers=0)
        assert not first.ok
        # Second run: the key is poison — refused without re-execution,
        # even though the fault plan is gone.
        second = engine.run_manifest([job], workers=0)
        assert isinstance(second.failures[job.key].error, JobQuarantinedError)
        assert second.stats.builds == 0
        # run() (the all-or-nothing surface) raises the quarantine error.
        with pytest.raises(JobQuarantinedError):
            engine.run([job])
        engine.clear_quarantine()
        healed = engine.run_manifest([job], workers=0)
        assert healed.ok
        assert_pwl_equal(
            healed.results[job.key],
            compute_approximation(job.operator, job.method, 8, QUICK),
        )

    def test_straggler_is_redispatched(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:exp:*", delay_always=True, delay_seconds=0.3),
        ))
        # Budget of 5 dispatches: the 0.3s straggler finishes long before
        # the budget plus two grace windows could abandon it.
        engine = SweepEngine(
            retry=RetryPolicy(max_attempts=5, base_delay=0.0), straggler_timeout=0.1
        )
        jobs = [self.JOBS[1], self.JOBS[2]]  # div (healthy), exp (slow)
        with inject(plan, propagate=True):
            manifest = engine.run_manifest(jobs, workers=2)
        assert manifest.ok
        assert manifest.stats.redispatches >= 1
        for job in jobs:
            assert_pwl_equal(
                manifest.results[job.key],
                compute_approximation(job.operator, job.method, 8, QUICK),
            )


    def test_without_straggler_timeout_the_pool_waits_for_a_slow_cell(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="sweep.build:exp:*", delay_always=True, delay_seconds=0.3),
        ))
        engine = SweepEngine(retry=RetryPolicy(max_attempts=5, base_delay=0.0))
        jobs = [self.JOBS[1], self.JOBS[2]]  # div (healthy), exp (slow)
        with inject(plan, propagate=True):
            manifest = engine.run_manifest(jobs, workers=2)
        assert manifest.ok
        assert manifest.stats.redispatches == 0
        assert manifest.stats.builds == 2


# -- artifact store: torn writes, checksums, concurrent writers ----------------


def _racing_writer(directory, key, rounds):
    """Module-level (picklable) writer hammering one artifact key."""
    store = ArtifactStore(directory)
    pwl = PiecewiseLinear(
        breakpoints=np.array([0.0, 1.0]),
        slopes=np.array([1.0, 2.0, 3.0]),
        intercepts=np.array([0.0, -1.0, 2.0]),
    )
    for _ in range(rounds):
        store.save(key, pwl)
    return True


class TestArtifactChaos:
    JOB = ApproximationJob("gelu", "gqa-rm", 8, QUICK)

    def test_torn_write_detected_and_recomputed(self, tmp_path):
        # corrupt the bytes of the very file save() writes (worst case: a
        # torn write that still got renamed into place).
        plan = FaultPlan(specs=(FaultSpec(site="artifact.save", corrupt_always=True),))
        with inject(plan):
            first = SweepEngine(cache=ArtifactCache(store=ArtifactStore(tmp_path)))
            built = first.build(self.JOB)
        # On-disk artifact is torn; a fresh reader must treat it as a miss
        # and recompute, never raise.
        store = ArtifactStore(tmp_path)
        assert store.load(self.JOB.key) is None
        recovered = SweepEngine(cache=ArtifactCache(store=ArtifactStore(tmp_path)))
        rebuilt = recovered.build(self.JOB)
        assert recovered.stats.builds == 1
        assert_pwl_equal(rebuilt, built)
        # The rewrite healed the store.
        assert_pwl_equal(ArtifactStore(tmp_path).load(self.JOB.key), built)

    def test_checksum_rejects_silently_perturbed_arrays(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "a" * 64
        # A structurally valid npz whose checksum does not match its
        # arrays — the unzip succeeds, content validation must refuse it.
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            store.path_for(key),
            breakpoints=np.array([0.0]),
            slopes=np.array([1.0, 2.0]),
            intercepts=np.array([0.0, 1.0]),
            checksum=np.zeros(32, dtype=np.uint8),
        )
        assert store.load(key) is None
        assert store.corrupt_reads == 1

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = SweepEngine(cache=ArtifactCache(store=store))
        built = engine.build(self.JOB)
        path = store.path_for(self.JOB.key)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert ArtifactStore(tmp_path).load(self.JOB.key) is None
        fresh = SweepEngine(cache=ArtifactCache(store=ArtifactStore(tmp_path)))
        assert_pwl_equal(fresh.build(self.JOB), built)
        assert fresh.stats.builds == 1

    def test_concurrent_writers_and_reader(self, tmp_path):
        """Two processes race atomic writes while this process reads.

        Every read must observe either a miss or a complete, bit-valid
        artifact — never an exception, never torn content (the checksum
        would catch it and read as a miss).
        """
        key = "b" * 64
        reference = PiecewiseLinear(
            breakpoints=np.array([0.0, 1.0]),
            slopes=np.array([1.0, 2.0, 3.0]),
            intercepts=np.array([0.0, -1.0, 2.0]),
        )
        store = ArtifactStore(tmp_path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            writers = [
                pool.submit(_racing_writer, str(tmp_path), key, 40) for _ in range(2)
            ]
            reads = 0
            while not all(w.done() for w in writers):
                loaded = store.load(key)
                if loaded is not None:
                    assert_pwl_equal(loaded, reference)
                    reads += 1
            for writer in writers:
                assert writer.result() is True
        final = ArtifactStore(tmp_path).load(key)
        assert final is not None
        assert_pwl_equal(final, reference)
        assert store.corrupt_reads == 0


# -- compiled executor: graceful degradation to eager --------------------------


class TestCompiledFallback:
    def test_trace_failure_degrades_to_eager_once(self, served_model):
        images = np.stack(make_images(2, seed=11), axis=0)
        reference = served_model.predict(images, engine="eager")
        compiled = CompiledModel(served_model, fallback=True)
        plan = FaultPlan(specs=(FaultSpec(site="compiled.trace", fail_calls=(1,)),))
        with inject(plan):
            with pytest.warns(RuntimeWarning, match="degraded to the eager path"):
                first = compiled.predict(images)
            np.testing.assert_array_equal(first, reference)
            assert compiled.fallback_count == 1
            assert compiled.specializations == 0  # nothing was cached
            # Next call: the transient fault passed, compilation succeeds.
            second = compiled.predict(images)
            np.testing.assert_array_equal(second, reference)
            assert compiled.fallback_count == 1
            assert compiled.specializations == 1

    def test_replay_failure_degrades_too(self, served_model):
        images = np.stack(make_images(1, seed=12), axis=0)
        reference = served_model.predict(images, engine="eager")
        compiled = CompiledModel(served_model, fallback=True)
        compiled.predict(images)  # compile clean
        plan = FaultPlan(specs=(FaultSpec(site="compiled.replay", fail_calls=(1,)),))
        with inject(plan):
            np.testing.assert_array_equal(compiled.predict(images), reference)
        assert compiled.fallback_count == 1

    def test_without_fallback_failure_is_loud(self, served_model):
        compiled = CompiledModel(served_model)  # fallback defaults off
        plan = FaultPlan(specs=(FaultSpec(site="compiled.trace", fail_always=True),))
        images = np.stack(make_images(1, seed=13), axis=0)
        with inject(plan):
            with pytest.raises(InjectedFault):
                compiled.predict(images)
        assert compiled.fallback_count == 0

    def test_genuinely_bad_input_raises_eager_error(self, served_model):
        compiled = CompiledModel(served_model, fallback=True)
        with pytest.raises(ValueError):
            compiled.predict(np.zeros((1, 7, 7, 3)))  # not patch-divisible
        assert compiled.fallback_count == 0  # eager failed too: not a degradation


# -- serving: fallback parity, shedding, deadlines, timeouts -------------------


class TestServingChaos:
    def test_untraceable_model_still_serves_bit_identically(self, served_model):
        images = make_images(8, seed=21)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        plan = FaultPlan(specs=(FaultSpec(site="compiled.trace", fail_always=True),))
        with inject(plan):
            with BatchingServer(served_model, max_batch=4, max_wait_ms=5.0,
                                engine="compiled") as server:
                results = server.predict_many(images, timeout=60.0)
                stats = server.stats()
                health = server.health()
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)
        assert stats.fallbacks >= 1
        assert stats.completed == len(images)
        assert health["status"] == "degraded"

    def test_overload_sheds_instead_of_growing_queue(self, served_model):
        plan = FaultPlan(specs=(
            FaultSpec(site="serve.batch", delay_always=True, delay_seconds=0.05),
        ))
        admitted, shed = [], 0
        with inject(plan):
            with BatchingServer(served_model, max_batch=2, max_wait_ms=0.0,
                                engine="eager", max_queue=4) as server:
                for image in make_images(40, seed=22):
                    try:
                        admitted.append(server.submit(image))
                    except QueueFullError:
                        shed += 1
                depth = server.health()["queue_depth"]
                assert depth <= 4
                for future in admitted:
                    future.result(timeout=60.0)
                stats = server.stats()
        assert shed > 0  # overload actually shed
        assert stats.shed == shed
        assert stats.requests == len(admitted)
        assert stats.completed == len(admitted)  # every admitted request answered

    def test_expired_deadline_rejected_before_batch_assembly(self, served_model):
        plan = FaultPlan(specs=(
            FaultSpec(site="serve.batch", delay_always=True, delay_seconds=0.25),
        ))
        with inject(plan):
            with BatchingServer(served_model, max_batch=1, max_wait_ms=0.0,
                                engine="eager") as server:
                blocker = server.submit(make_images(1, seed=23)[0])
                doomed = server.submit(make_images(1, seed=24)[0], deadline_ms=50.0)
                with pytest.raises(DeadlineExceededError):
                    doomed.result(timeout=60.0)
                blocker.result(timeout=60.0)  # the in-flight batch still answers
                assert server.stats().expired == 1

    def test_wedged_batch_does_not_hang_caller_with_timeout(self, served_model):
        plan = FaultPlan(specs=(
            FaultSpec(site="serve.batch", delay_always=True, delay_seconds=0.5),
        ))
        with inject(plan):
            with BatchingServer(served_model, max_batch=1, max_wait_ms=0.0,
                                engine="eager") as server:
                with pytest.raises(FutureTimeoutError):
                    server.predict(make_images(1, seed=25)[0], timeout=0.05)

    def test_server_default_deadline_and_queue_limit(self, served_model):
        server = BatchingServer(
            served_model, engine="eager", deadline_ms=40.0, max_queue=128
        )
        try:
            assert server.default_deadline == pytest.approx(0.04)
            assert server.max_queue == 128
        finally:
            server.close()
