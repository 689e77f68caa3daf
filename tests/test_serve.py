"""Tests for the micro-batching serving front-end.

Contract: every served response is bit-identical to a direct single-image
``predict`` on the same model, requests actually get fused into batches,
padding never leaks into real responses, and failures propagate to the
callers that submitted the affected requests.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import engine_config
from repro.nn.approx import FloatSuite
from repro.nn.transformer import DecoderConfig, MiniDecoder
from repro.reliability import FaultPlan, FaultSpec, inject
from repro.serve import BatchingServer


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
        with pytest.raises(ValueError, match="max_queue"):
            BatchingServer(served_model, max_queue=-1)
        with pytest.raises(ValueError, match="deadline_ms"):
            BatchingServer(served_model, deadline_ms=-0.5)


def timed(call, *args):
    start = time.monotonic()
    result = call(*args)
    return result, time.monotonic() - start


class TestBatchingWindow:
    """The ``max_wait_ms`` window opens only on a fresh server or after a
    multi-request batch; a lone client after a batch of one never waits it.
    Margins are wide: the window is 1 s, "no wait" is anything under 0.5 s."""

    def test_lone_request_after_a_batch_of_one_skips_the_window(self, served_model):
        first, second = make_images(2, seed=13)
        with BatchingServer(served_model, max_batch=8, max_wait_ms=1000.0,
                            engine="compiled") as server:
            _, fresh_seconds = timed(server.predict, first)
            again, lone_seconds = timed(server.predict, second)
            stats = server.stats()
        assert fresh_seconds >= 0.9  # a fresh server still opens the window
        assert lone_seconds < 0.5
        assert stats.batches == 2
        np.testing.assert_array_equal(
            again, served_model.predict(second[None], engine="eager")[0]
        )

    def test_window_reopens_after_a_multi_request_batch(self, served_model):
        images = make_images(10, seed=14)
        # The second lone request's batch is held 0.4 s, so a burst
        # submitted behind it queues up whole and the next drain collects
        # it as one multi-request batch, which reopens the window.
        plan = FaultPlan(specs=(FaultSpec(site="serve.batch", delay_calls=(2,),
                                          delay_seconds=0.4),))
        with inject(plan), BatchingServer(served_model, max_batch=4,
                                          max_wait_ms=1000.0,
                                          engine="compiled") as server:
            server.predict(images[0])  # fresh window, batch of one: closes it
            held = server.submit(images[1])
            time.sleep(0.1)  # the worker takes it alone and is held
            futures = [server.submit(image) for image in images[2:6]]
            for future in [held] + futures:
                future.result(timeout=30)
            before = server.stats()
            # Spaced submits fuse only if the worker waits for them.
            futures = []
            for image in images[6:]:
                futures.append(server.submit(image))
                time.sleep(0.05)
            for future in futures:
                future.result(timeout=30)
            after = server.stats()
        assert before.batches == 3  # lone, held lone, the queued burst
        burst = after.requests - before.requests
        assert burst == 4
        assert after.batches - before.batches < burst

    def test_served_decode_steps_do_not_wait_out_the_window(self):
        config = DecoderConfig(vocab_size=16, max_seq=32, embed_dim=16, depth=1,
                               num_heads=2, seed=3)
        model = MiniDecoder(config, suite=FloatSuite())
        model.eval()
        steps, window_ms = 16, 500.0
        with BatchingServer(model, max_wait_ms=window_ms,
                            decode_engine="eager") as server:
            session = server.open_session([1, 5, 3])
            start = time.monotonic()
            for _ in range(steps):
                server.submit_decode(session).result(timeout=30)
            elapsed = time.monotonic() - start
            stats = server.stats()
        assert stats.decode_steps == steps
        # Only the fresh server's first step waits the window.
        assert elapsed < steps * window_ms / 1e3 / 4
