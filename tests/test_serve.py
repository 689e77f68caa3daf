"""Tests for the micro-batching serving front-end.

Contract: every served response is bit-identical to a direct single-image
``predict`` on the same model, requests actually get fused into batches,
padding never leaks into real responses, and failures propagate to the
callers that submitted the affected requests.
"""

import threading

import numpy as np
import pytest

from repro.core import engine_config
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.serve import BatchingServer

OPERATORS = ("exp", "gelu", "div", "rsqrt")


def build_model():
    suite = PWLSuite(
        approximations={
            op: fit_pwl(
                get_function(op).fn,
                uniform_breakpoints(*get_function(op).search_range, 8),
                get_function(op).search_range,
            ).to_fixed_point(5)
            for op in OPERATORS
        },
        replace=set(OPERATORS),
    )
    model = MiniSegformer(ModelConfig(image_size=16, embed_dim=16, depth=1), suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def served_model():
    model = build_model()
    # Initialise the LSQ quantizers once so every subsequent path (eager
    # reference and compiled serving) sees identical frozen scales.
    model.predict(np.random.default_rng(0).normal(size=(1, 16, 16, 3)), engine="eager")
    return model


def make_images(count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(16, 16, 3)) for _ in range(count)]


class TestBatchingServer:
    @pytest.mark.parametrize("engine", ["compiled", "eager"])
    def test_responses_match_direct_predict(self, served_model, engine):
        images = make_images(10)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        with BatchingServer(served_model, max_batch=4, max_wait_ms=5.0,
                            engine=engine) as server:
            results = server.predict_many(images)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)

    def test_requests_are_fused_into_batches(self, served_model):
        images = make_images(16)
        with BatchingServer(served_model, max_batch=8, max_wait_ms=20.0,
                            engine="compiled") as server:
            server.predict_many(images)
            stats = server.stats()
        assert stats.requests == 16
        assert stats.batches < 16  # fusion actually happened
        assert stats.max_batch_size > 1
        assert stats.mean_batch_size > 1.0

    def test_padding_never_leaks_into_responses(self, served_model):
        # 3 requests against max_batch=8 pad the bucket to 4; the padded
        # row is the repeated last image and must be dropped.
        images = make_images(3, seed=5)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        with BatchingServer(served_model, max_batch=8, max_wait_ms=20.0,
                            engine="compiled") as server:
            results = server.predict_many(images)
            stats = server.stats()
        assert stats.padded_rows >= 1
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)

    def test_mixed_shapes_are_grouped_not_padded(self, served_model):
        small = make_images(2, seed=7)
        # 32x32 divides by the patch size too, so both shapes are valid.
        rng = np.random.default_rng(8)
        large = [rng.normal(size=(32, 32, 3)) for _ in range(2)]
        reference = [served_model.predict(im[None], engine="eager")[0]
                     for im in small + large]
        with BatchingServer(served_model, max_batch=8, max_wait_ms=20.0,
                            engine="compiled") as server:
            results = server.predict_many(small + large)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)

    def test_concurrent_clients(self, served_model):
        images = make_images(24, seed=9)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        results = [None] * len(images)
        with BatchingServer(served_model, max_batch=8, max_wait_ms=5.0,
                            engine="compiled") as server:

            def client(offset):
                for index in range(offset, len(images), 3):
                    results[index] = server.predict(images[index])

            threads = [threading.Thread(target=client, args=(o,)) for o in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)

    def test_bad_request_propagates_exception(self, served_model):
        with BatchingServer(served_model, max_batch=4, max_wait_ms=0.0,
                            engine="compiled") as server:
            future = server.submit(np.zeros((7, 7, 3)))  # not patch-divisible
            with pytest.raises(ValueError):
                future.result(timeout=10)
            # The server survives a poisoned batch and keeps answering.
            image = make_images(1, seed=10)[0]
            np.testing.assert_array_equal(
                server.predict(image),
                served_model.predict(image[None], engine="eager")[0],
            )

    def test_one_failing_shape_group_does_not_poison_the_batch(self, served_model):
        # An invalid image (7x7 is not patch-divisible) and valid images
        # land in the same batch window; they form separate shape groups,
        # so only the invalid group's callers see the error.
        valid = make_images(3, seed=11)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in valid]
        with BatchingServer(served_model, max_batch=8, max_wait_ms=50.0,
                            engine="compiled") as server:
            bad_future = server.submit(np.zeros((7, 7, 3)))
            good_futures = [server.submit(image) for image in valid]
            with pytest.raises(ValueError):
                bad_future.result(timeout=10)
            for future, want in zip(good_futures, reference):
                np.testing.assert_array_equal(future.result(timeout=10), want)
            stats = server.stats()
        assert stats.failed == 1
        assert stats.completed == len(valid)

    def test_health_report_shape(self, served_model):
        with BatchingServer(served_model, max_batch=4, max_wait_ms=5.0,
                            engine="compiled", max_queue=64) as server:
            server.predict_many(make_images(6, seed=12))
            health = server.health()
        assert health["status"] == "ok"
        assert health["engine"] == "compiled"
        assert health["queue_limit"] == 64
        assert health["worker_alive"] is True
        assert health["worker_error"] is None
        assert health["counters"]["completed"] == 6
        assert health["counters"]["shed"] == 0
        assert health["latency_ms"]["count"] == 6
        assert health["latency_ms"]["p50_ms"] <= health["latency_ms"]["p99_ms"]
        for bucket, summary in health["bucket_latency_ms"].items():
            int(bucket)  # buckets keyed by padded batch size, JSON-friendly
            assert summary["count"] > 0
        import json

        json.dumps(health)  # endpoint-shaped: must serialise as-is

    def test_close_fails_stranded_requests_loudly(self, served_model):
        # White-box: violate close()'s ordering contract on purpose by
        # sneaking a request behind the stop sentinel; the drain must fail
        # the future with ServerClosedError and raise the bug loudly.
        from concurrent.futures import Future

        from repro.serve import ServerClosedError
        from repro.serve.engine import _Request

        server = BatchingServer(served_model, engine="eager")
        server.close()
        stranded = _Request(np.zeros((16, 16, 3)), Future(), None)
        server._queue.put(stranded)
        with pytest.raises(AssertionError, match="ordering contract"):
            server._assert_drained()
        with pytest.raises(ServerClosedError):
            stranded.future.result(timeout=0)

    def test_invalid_deadline_rejected(self, served_model):
        with BatchingServer(served_model, engine="eager") as server:
            with pytest.raises(ValueError):
                server.submit(np.zeros((16, 16, 3)), deadline_ms=0.0)
            with pytest.raises(ValueError):
                server.submit(np.zeros((16, 16, 3)), deadline_ms=-5.0)

    def test_submit_after_close_raises(self, served_model):
        server = BatchingServer(served_model, engine="compiled")
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(np.zeros((16, 16, 3)))
        server.close()  # idempotent

    def test_engine_resolves_through_config(self, served_model):
        with engine_config.use(infer_engine="compiled"):
            server = BatchingServer(served_model)
        try:
            assert server.engine == "compiled"
            assert server._compiled is not None
        finally:
            server.close()

    def test_invalid_knobs_rejected(self, served_model):
        with pytest.raises(ValueError):
            BatchingServer(served_model, max_batch=0)
        with pytest.raises(ValueError):
            BatchingServer(served_model, max_wait_ms=-1.0)
