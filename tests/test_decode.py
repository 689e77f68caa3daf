"""KV-cached autoregressive decode: parity, bucketing, serving (PR 10).

The decode stack's contract, pinned here:

* greedy token streams are **identical** across eager/compiled ×
  cached/uncached × float/pwl-dense/pwl-legacy, at several prompt lengths,
  and the dense streams equal the reference per-pass pwl pipeline of
  ``oracles.py`` (the ``legacy`` suite);
* eager-cached vs compiled-cached *logits* are **bit-identical** (the
  compiled plan replays the same ops on the same arrays);
* cache capacity grows in power-of-two buckets, crossings preserve the
  written prefix bit-exactly, and the compiled step specialises once per
  (batch, capacity) — logarithmic in sequence length;
* the serving tier's bucket-grouped decode answers concurrent sessions
  with the same streams direct decode produces, actually batches them,
  and reports decode latency under non-aliasing bucket keys.
"""

import threading

import numpy as np
import pytest

from repro.core import engine_config
from repro.core.pwl import PiecewiseLinear, fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.graph import CompiledGraph, optimize, trace
from repro.graph.executor import CompiledDecodeStep
from repro.nn import functional as F
from repro.nn.approx import FloatSuite, PWLSuite
from repro.nn.tensor import Tensor
from repro.nn.training import prepare_quantized_model
from repro.nn.transformer import (
    DecoderConfig,
    KVCache,
    MiniDecoder,
    bucket_capacity,
    greedy_generate,
    step_inputs,
)
from repro.serve import BatchingServer

from oracles import ReferencePWLSuite


def build_approximation(operator: str, num_entries: int = 8) -> PiecewiseLinear:
    fn = get_function(operator)
    pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, num_entries), fn.search_range)
    return pwl.to_fixed_point(5)


def build_suite(kind: str):
    """A fresh operator suite: ``float``, ``dense`` pwl or the ``legacy``
    reference pwl pipeline."""
    if kind == "float":
        return FloatSuite()
    approximations = {op: build_approximation(op)
                      for op in ("exp", "gelu", "div", "rsqrt")}
    suite_cls = {"dense": PWLSuite, "legacy": ReferencePWLSuite}[kind]
    return suite_cls(approximations, replace={"exp", "gelu", "div", "rsqrt"})


SMALL = DecoderConfig(
    vocab_size=16, max_seq=32, embed_dim=16, depth=2, num_heads=2, seed=3
)

#: Three prompt lengths (satellite requirement), all decoding 8 new tokens.
PROMPTS = ([7], [1, 5, 3], [2, 4, 6, 1, 0, 3])


def make_model(kind: str, config: DecoderConfig = SMALL) -> MiniDecoder:
    """A fresh, deterministically initialised decoder on suite ``kind``."""
    model = MiniDecoder(config, suite=build_suite(kind))
    if kind != "float":
        prepare_quantized_model(model)
    model.eval()
    return model


class TestBucketCapacity:
    def test_powers_of_two_capped_at_max_seq(self):
        assert [bucket_capacity(n, 64) for n in (1, 2, 3, 4, 5, 8, 9, 33)] == [
            1, 2, 4, 4, 8, 8, 16, 64,
        ]
        assert bucket_capacity(100, 128) == 128
        with pytest.raises(ValueError):
            bucket_capacity(65, 64)

    def test_specialization_count_is_logarithmic(self):
        lengths = range(1, 1001)
        buckets = {bucket_capacity(n, 1024) for n in lengths}
        assert len(buckets) == 11  # 1, 2, 4, ..., 1024 — ~10 for 1000 tokens


class TestKVCache:
    def test_growth_preserves_prefix_bits_and_zero_tail(self):
        cache = KVCache(num_layers=2, batch=1, num_heads=2, head_dim=4, max_seq=32)
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(1, 2, 1, 4)) for _ in range(4)]
        cache.update(arrays)
        assert cache.capacity == 1 and cache.length == 1
        before = [k.copy() for k in cache.keys]
        assert cache.ensure(2) == 2
        for grown, old in zip(cache.keys, before):
            np.testing.assert_array_equal(grown[:, :, :1, :], old)
            assert not grown[:, :, 1:, :].any()
        # A no-op ensure never reallocates.
        identity = cache.keys[0]
        assert cache.ensure(2) == 2
        assert cache.keys[0] is identity

    def test_row_split_round_trips(self):
        cache = KVCache(num_layers=1, batch=3, num_heads=2, head_dim=4,
                        max_seq=16, capacity=4)
        cache.keys[0] = np.random.default_rng(1).normal(size=(3, 2, 4, 4))
        row = cache.rows(1, 2)
        assert row.batch == 1 and row.capacity == 4
        np.testing.assert_array_equal(row.keys[0][0], cache.keys[0][1])


class TestDecodeStreamParity:
    """Greedy streams identical across every engine combination."""

    @pytest.mark.parametrize("kind", ["float", "dense", "legacy"])
    @pytest.mark.parametrize("prompt", PROMPTS, ids=lambda p: "len%d" % len(p))
    def test_streams_identical(self, kind, prompt):
        streams = {}
        for cache in (False, True):
            for engine in ("eager", "compiled"):
                model = make_model(kind)
                streams[(cache, engine)] = greedy_generate(
                    model, prompt, 8, cache=cache, engine=engine
                )
        reference = streams[(False, "eager")]
        if kind == "dense":
            reference = greedy_generate(make_model("legacy"), prompt, 8, cache=False,
                                        engine="eager")
        assert len(reference) == 8
        assert all(stream == reference for stream in streams.values()), streams

    @pytest.mark.parametrize("kind", ["float", "dense"])
    def test_cached_logits_bitwise_eager_vs_compiled(self, kind):
        """Per-step logits and cache arrays are bit-identical across the
        eager and compiled cached paths (not just the argmax stream)."""
        prompt = [1, 5, 3]
        eager = make_model(kind)
        compiled = make_model(kind)
        eager.calibrate(prompt)
        compiled.calibrate(prompt)
        step = compiled.compiled_step()
        kv_eager = eager.new_cache(batch=1)
        kv_compiled = compiled.new_cache(batch=1)
        tokens = list(prompt)
        for position in range(12):
            capacity = kv_eager.ensure(position + 1)
            kv_compiled.ensure(position + 1)
            inputs = step_inputs(eager, [tokens[position]], [position], capacity)
            logits_e, new_e = eager.eager_step(*inputs, kv_eager.arrays())
            logits_c, new_c = step.step(*inputs, kv_compiled.arrays())
            np.testing.assert_array_equal(logits_e, logits_c)
            for array_e, array_c in zip(new_e, new_c):
                np.testing.assert_array_equal(array_e, array_c)
            kv_eager.update(new_e)
            kv_compiled.update(new_c)
            if position + 1 == len(tokens):
                tokens.append(int(np.argmax(logits_e[0])))


class TestBucketBoundary:
    def test_crossing_2k_to_2k_plus_1_keeps_the_stream(self):
        """Decode straight across the 4->8 and 8->16 capacity crossings and
        match the uncached stream token for token."""
        prompt = [1, 5, 3]
        uncached = greedy_generate(make_model("dense"), prompt, 16, cache=False)
        cached = greedy_generate(make_model("dense"), prompt, 16, cache=True,
                                 engine="compiled")
        assert cached == uncached

    def test_capacity_transitions_at_exact_boundaries(self):
        model = make_model("float")
        model.calibrate([1])
        kv = model.new_cache(batch=1)
        tokens = [1]
        seen = []
        for position in range(17):
            capacity = kv.ensure(position + 1)
            seen.append(capacity)
            inputs = step_inputs(model, [tokens[position]], [position], capacity)
            logits, new = model.eager_step(*inputs, kv.arrays())
            kv.update(new)
            tokens.append(int(np.argmax(logits[0])))
        # Capacity at step p (writing position p, 0-based) is bucket(p+1):
        # it doubles exactly when length crosses 2^k.
        assert seen == [bucket_capacity(p + 1, SMALL.max_seq) for p in range(17)]
        assert seen[:2] == [1, 2] and seen[4] == 8 and seen[8] == 16


class TestCompiledDecodeStep:
    def test_one_specialization_per_bucket(self):
        model = make_model("float")
        prompt = [1, 5, 3]
        greedy_generate(model, prompt, 27, cache=True, engine="compiled")
        step = model.compiled_step()
        steps_run = len(prompt) + 27 - 1
        expected = {bucket_capacity(p + 1, SMALL.max_seq) for p in range(steps_run)}
        assert step.specializations == len(expected)
        assert step.compile_count == len(expected)
        assert step.replay_count == steps_run
        stats = step.stats()
        assert set(stats["signatures"]) == {
            "batch=1,capacity=%d" % c for c in sorted(expected)
        }

    def test_external_rebind_invalidates(self, parameter_walks):
        model = make_model("float")
        greedy_generate(model, [1, 5], 4, cache=True, engine="compiled")
        step = model.compiled_step()
        before = step.compile_count
        kv = model.new_cache(batch=1)
        inputs = step_inputs(model, [1], [0], kv.ensure(1))
        # A replay checks the saved (param, array) pairs, not the module tree.
        walks = len(parameter_walks)
        step.step(*inputs, kv.arrays())
        assert len(parameter_walks) == walks
        assert step.compile_count == before
        model.load_state_dict(model.state_dict())  # rebinds every array
        step.step(*inputs, kv.arrays())
        step.step(*inputs, kv.arrays())
        assert step.compile_count == before + 1  # exactly one re-trace
        greedy_generate(model, [1, 5], 4, cache=True, engine="compiled")
        assert step.compile_count > before + 1  # the other buckets re-trace

    def test_concurrent_runs_of_one_plan_match_serial(self, assert_reentrant):
        """A decode plan's CompiledGraph.run is re-entrant too."""
        model = make_model("dense")
        greedy_generate(model, [1, 5, 3], 2, cache=True, engine="eager")
        rng = np.random.default_rng(6)
        kv = model.new_cache(batch=2)
        capacity = kv.ensure(4)
        inputs = []
        for first in range(5):
            arrays = list(step_inputs(model, [first, first + 2], [1, 3], capacity))
            arrays.extend(rng.normal(size=array.shape) for array in kv.arrays())
            inputs.append(tuple(arrays))
        plan = CompiledGraph(optimize(trace(model.step, *inputs[0])))
        assert_reentrant(plan.run, inputs)

    def test_requires_a_step_method(self):
        from repro.nn.layers import Linear

        with pytest.raises(TypeError, match="step"):
            CompiledDecodeStep(Linear(4, 4))


class TestDecodeEngineConfig:
    def test_env_and_context_resolution(self, monkeypatch):
        assert engine_config.resolve("decode_engine", None) == "eager"
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "compiled")
        assert engine_config.resolve("decode_engine", None) == "compiled"
        with engine_config.use(decode_engine="eager"):
            assert engine_config.resolve("decode_engine", None) == "eager"
            assert engine_config.resolve("decode_engine", "compiled") == "compiled"
        with pytest.raises(ValueError):
            engine_config.resolve("decode_engine", "jit")

    def test_env_engine_drives_greedy_generate(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "compiled")
        model = make_model("float")
        stream = greedy_generate(model, [1, 5, 3], 6, cache=True)
        assert model.compiled_step().replay_count > 0
        baseline = greedy_generate(make_model("float"), [1, 5, 3], 6,
                                   cache=True, engine="eager")
        assert stream == baseline


class TestMaskedSoftmax:
    """Satellite: numerically-stable traced softmax at extreme logits."""

    def _scores(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(2, 2, 6, 6))
        # Saturate half the valid slots at ±30 — the magnitude the
        # stability contract pins (naive exp(30) overflows float32-ish
        # pipelines; exp(-30) underflows a shifted-but-unstable form).
        scores[0, 0] = 30.0
        scores[1, 1] = -30.0
        scores[0, 1, :, 0] = 30.0
        scores[0, 1, :, 1] = -30.0
        return scores

    def test_eager_vs_compiled_bitwise_at_extreme_logits(self):
        mask = F.causal_mask(6)

        def fn(scores):
            return F.masked_softmax(scores, mask)

        scores = self._scores()
        eager = fn(Tensor(scores)).data
        graph = trace(fn, scores)
        compiled = CompiledGraph(optimize(graph))
        np.testing.assert_array_equal(compiled.run(scores)[0], eager)
        assert np.isfinite(eager).all()

    def test_mask_subtree_constant_folds_and_max_stays(self):
        mask = F.causal_mask(6)

        def fn(scores):
            return F.masked_softmax(scores, mask)

        graph = trace(fn, self._scores())
        optimized = optimize(graph)
        # The (1 - mask) * MASK_OFFSET subtree is constant arithmetic; the
        # fold pass pre-evaluates it, so the optimized graph is strictly
        # smaller...
        assert len(optimized.nodes) < len(graph.nodes)
        # ...while the data-dependent row-max subtraction must survive as
        # live nodes (it cannot fold — scores are an input).
        ops = [node.op for node in optimized.nodes]
        assert "max" in ops

    def test_masked_probabilities_exactly_zero(self):
        mask = F.causal_mask(5)
        out = F.masked_softmax(Tensor(self._scores()[:, :, :5, :5]), mask).data
        upper = np.triu_indices(5, k=1)
        assert (out[:, :, upper[0], upper[1]] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestServedDecode:
    def _reference_streams(self, prompts, num_new):
        model = make_model("float")
        model.calibrate(prompts[0])
        return [greedy_generate(model, prompt, num_new, cache=True)
                for prompt in prompts]

    def test_concurrent_sessions_match_direct_decode(self):
        prompts = [[1, 5, 3], [2, 4], [1, 5, 3, 7, 2], [9, 9, 1, 0]]
        num_new = 8
        reference = self._reference_streams(prompts, num_new)
        model = make_model("float")
        model.calibrate(prompts[0])
        with BatchingServer(model, max_batch=8, max_wait_ms=2.0,
                            decode_engine="compiled") as server:
            results = [None] * len(prompts)

            def run(index):
                results[index] = server.generate(prompts[index], num_new,
                                                 timeout=60)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(prompts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()
            health = server.health()
        assert results == reference
        # Bucket-grouped drains actually shared steps across sessions.
        assert stats.decode_steps > stats.decode_batches
        decode_keys = [key for key in health["bucket_latency_ms"]
                       if key.startswith("decode/")]
        assert decode_keys, health["bucket_latency_ms"]
        assert all("cap" in key for key in decode_keys)

    def test_double_submit_in_flight_rejected(self):
        model = make_model("float")
        with BatchingServer(model, max_batch=4, decode_engine="eager") as server:
            session = server.open_session([1, 5, 3])
            future = server.submit_decode(session)
            with pytest.raises(RuntimeError, match="in flight"):
                server.submit_decode(session)
            future.result(30)
            server.submit_decode(session).result(30)  # fine once resolved

    def test_session_validation(self):
        model = make_model("float")
        with BatchingServer(model, decode_engine="eager") as server:
            with pytest.raises(ValueError, match="at least one"):
                server.open_session([])
            with pytest.raises(ValueError, match="no room"):
                server.open_session(list(range(SMALL.max_seq)) * 2)
            session = server.open_session([1, 2])
            for _ in range(SMALL.max_seq - 3):
                server.submit_decode(session).result(30)
            with pytest.raises(ValueError, match="max_seq"):
                for _ in range(SMALL.max_seq):
                    server.submit_decode(session).result(30)

    def test_non_decoder_model_rejected(self):
        from repro.nn.models import MiniSegformer, ModelConfig

        vision = MiniSegformer(
            ModelConfig(image_size=8, patch_size=4, embed_dim=8, depth=1,
                        num_heads=2, num_classes=3),
            suite=FloatSuite(),
        )
        with BatchingServer(vision) as server:
            with pytest.raises(TypeError, match="decoder"):
                server.open_session([1, 2])

    def test_mixed_bucket_keys_keep_health_serialisable(self):
        model = make_model("float")
        with BatchingServer(model, decode_engine="eager") as server:
            session = server.open_session([1, 5])
            server.submit_decode(session).result(30)
            # A prefill-style int bucket alongside the decode string keys —
            # health() must render and sort both without aliasing.
            server._record_latency(1, 0.001)
            health = server.health()
        keys = list(health["bucket_latency_ms"])
        assert "1" in keys
        assert any(key.startswith("decode/") for key in keys)
        assert len(keys) == len(set(keys))
