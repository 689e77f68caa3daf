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
* a step at a larger capacity, with the cache zero-padded, gives the
  step at the session's own bucket (byte for byte on the INT8 pwl suite);
* the step's ``cache_write`` puts each token's K/V at its slot and keeps
  every other slot's bits, eager and compiled alike, and a position
  outside the cache window raises;
* the serving tier runs each drain's decode requests as one step across
  cache buckets, answers concurrent sessions (under random schedules
  with session churn) with the same streams direct decode produces, and
  reports decode latency under non-aliasing bucket keys.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import uniform_pwl
from repro.core import engine_config
from repro.functions.registry import get_function
from repro.graph import (
    CompiledGraph,
    cse,
    dead_code_elimination,
    fold_constants,
    optimize,
    trace,
)
from repro.graph.executor import CompiledDecodeStep
from repro.nn import functional as F
from repro.nn.approx import FloatSuite, PWLSuite
from repro.nn.tensor import Tensor, apply_op, no_grad
from repro.nn.training import prepare_quantized_model
from repro.nn.transformer import (
    DecoderConfig,
    KVCache,
    MiniDecoder,
    bucket_capacity,
    greedy_generate,
    stack_caches,
    step_inputs,
)
from repro.serve import BatchingServer

from oracles import ReferencePWLSuite


def build_suite(kind: str):
    """A fresh operator suite: ``float``, ``dense`` pwl or the ``legacy``
    reference pwl pipeline."""
    if kind == "float":
        return FloatSuite()
    approximations = {op: uniform_pwl(get_function(op)).to_fixed_point(5)
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


def _relayout_fixable(graph):
    """``(op, why)`` for every float64 constant operand whose layout a
    reshape could change for free, and every Python-scalar ``clip`` bound."""
    float64 = np.dtype(np.float64)
    fixable = []
    for node in graph.nodes:
        aval = graph.avals.get(node.output)
        if aval is None or aval[1] != float64:
            continue
        if node.op in ("add", "sub", "mul", "div"):
            constant = [vid for vid in node.inputs if vid in graph.constants]
            dynamic = [vid for vid in node.inputs if vid not in graph.constants]
            if len(constant) != 1 or graph.avals.get(dynamic[0]) != aval:
                continue
            value = graph.constants[constant[0]]
            if value.size == 1:
                if value.ndim != 0:
                    fixable.append((node.op, "one element, shape %s" % (value.shape,)))
            elif value.size == int(np.prod(aval[0])) and value.shape != aval[0]:
                fixable.append((node.op, "%s for %s" % (value.shape, aval[0])))
        elif node.op in ("clip", "clip_ste"):
            if any(type(node.params[key]) in (int, float) for key in ("lo", "hi")):
                fixable.append((node.op, "Python-scalar bound"))
    return fixable


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


#: Every capacity bucket of the SMALL config, smallest first.
CAPACITIES = sorted({bucket_capacity(n, SMALL.max_seq)
                     for n in range(1, SMALL.max_seq + 1)})


@pytest.fixture(scope="module")
def padding_models():
    """One decoder per suite, shared by the hypothesis examples so compiled
    plans stay warm (calibrated by the first example's tokens)."""
    return {kind: make_model(kind) for kind in ("dense", "float")}


class TestZeroPaddedStep:
    """The property one step per serving drain rests on: a decode step at a
    larger capacity, with the session's cache zero-padded by
    ``stack_caches``, gives the step at the session's own bucket — the same
    logits and the same new caches, whose padded tail stays zero.

    On the INT8 pwl suite this holds byte for byte: the pwl exp's outputs
    are power-of-two-scaled integers, so the softmax denominator sums
    exactly in any order.  On ``FloatSuite`` it holds to rounding only:
    numpy sums a 4-slot row and BLAS multiplies a 1- or 2-column score
    matrix in a different order than at a larger capacity.
    """

    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    @pytest.mark.parametrize("kind", ["dense", "float"])
    @settings(max_examples=20, deadline=None)
    @given(tokens=st.lists(st.integers(0, SMALL.vocab_size - 1),
                           min_size=1, max_size=SMALL.max_seq - 1))
    def test_padded_step_matches_own_bucket(self, padding_models, kind, engine,
                                            tokens):
        model = padding_models[kind]
        model.calibrate(tokens)
        step = model.compiled_step().step if engine == "compiled" else model.eager_step
        kv = model.new_cache(batch=1)
        for position, token in enumerate(tokens[:-1]):
            inputs = step_inputs(model, [token], [position], kv.ensure(position + 1))
            kv.update(step(*inputs, kv.arrays())[1])
        position = len(tokens) - 1
        own = kv.ensure(position + 1)
        logits, new = step(*step_inputs(model, [tokens[-1]], [position], own),
                           kv.arrays())
        for capacity in [c for c in CAPACITIES if c > own]:
            padded = stack_caches([kv], capacity)
            got_logits, got_new = step(
                *step_inputs(model, [tokens[-1]], [position], capacity),
                padded.arrays(),
            )
            assert len(got_new) == len(new)
            for got, want in zip(got_new, new):
                assert got.shape == want.shape[:2] + (capacity, want.shape[3])
                assert not got[:, :, own:].any(), "padded tail changed"
            if kind == "dense":
                assert got_logits.tobytes() == logits.tobytes()
                for got, want in zip(got_new, new):
                    assert got[:, :, :own].tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got_logits, logits, rtol=0, atol=1e-12)
                for got, want in zip(got_new, new):
                    np.testing.assert_allclose(got[:, :, :own], want, rtol=0, atol=1e-12)


@st.composite
def cache_writes(draw):
    """A step's row positions (each inside the drawn capacity bucket), its
    tokens and a seed for caches with random prefixes."""
    capacity = draw(st.sampled_from([c for c in CAPACITIES if c <= 16]))
    positions = draw(st.lists(st.integers(0, capacity - 1), min_size=1, max_size=3))
    tokens = draw(st.lists(st.integers(0, SMALL.vocab_size - 1),
                           min_size=len(positions), max_size=len(positions)))
    return capacity, positions, tokens, draw(st.integers(0, 2 ** 16))


def write_step_arrays(model, capacity, positions, tokens, seed):
    """``(step inputs, caches)``: every slot before a row's position holds a
    random value or ``-0.0``; the slot at it and the tail hold ``+0.0``."""
    rng = np.random.default_rng(seed)
    config = model.config
    shape = (len(positions), config.num_heads, capacity,
             config.embed_dim // config.num_heads)
    caches = []
    for _ in range(2 * config.depth):
        cache = np.where(rng.random(shape) < 0.25, -0.0, rng.normal(size=shape))
        for row, position in enumerate(positions):
            cache[row, :, position:] = 0.0
        caches.append(cache)
    return step_inputs(model, tokens, positions, capacity), caches


class TestCacheWriteContract:
    """The decode step writes each token's K and V with ``cache_write``: the
    eager and compiled steps agree byte for byte, every slot but the
    written one keeps its bits (``-0.0`` included, the zero tail ``+0.0``),
    the written slot holds the token's K/V, and a position outside the
    cache window raises."""

    @staticmethod
    def _stepper(model, engine):
        model.calibrate([1, 5, 3])
        return model.compiled_step().step if engine == "compiled" else model.eager_step

    @pytest.mark.parametrize("kind", ["dense", "float"])
    @settings(max_examples=15, deadline=None)
    @given(draw=cache_writes())
    def test_eager_and_compiled_steps_are_byte_identical(self, padding_models, kind, draw):
        model = padding_models[kind]
        inputs, caches = write_step_arrays(model, *draw)
        logits_e, new_e = self._stepper(model, "eager")(*inputs, caches)
        logits_c, new_c = self._stepper(model, "compiled")(*inputs, caches)
        assert logits_e.tobytes() == logits_c.tobytes()
        for eager, compiled in zip(new_e, new_c):
            assert eager.tobytes() == compiled.tobytes()

    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    @pytest.mark.parametrize("kind", ["dense", "float"])
    @settings(max_examples=15, deadline=None)
    @given(draw=cache_writes())
    def test_only_the_written_slot_changes(self, padding_models, kind, engine, draw):
        model = padding_models[kind]
        capacity, positions, tokens, seed = draw
        inputs, caches = write_step_arrays(model, *draw)
        _, new = self._stepper(model, engine)(*inputs, caches)
        for old, written in zip(caches, new):
            assert written.shape == old.shape
            for row, position in enumerate(positions):
                kept = [slot for slot in range(capacity) if slot != position]
                assert (written[row, :, kept].tobytes()
                        == old[row, :, kept].tobytes())
                tail = written[row, :, position + 1:]
                assert tail.tobytes() == np.zeros(tail.shape).tobytes()

    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    @pytest.mark.parametrize("kind", ["dense", "float"])
    def test_written_slot_holds_the_token(self, padding_models, kind, engine):
        model = padding_models[kind]
        capacity, positions = 8, [5, 0, 7]
        inputs, caches = write_step_arrays(model, capacity, positions, [3, 1, 4], 0)
        _, new = self._stepper(model, engine)(*inputs, caches)
        token_onehot, pos_onehot, mask = (Tensor(array) for array in inputs)
        rows = np.arange(len(positions))
        dim = model.config.embed_dim
        with no_grad():
            x = ((token_onehot @ model.embed).reshape(3, 1, dim)
                 + (pos_onehot @ model.pos_embed).reshape(3, 1, dim))
            for index, block in enumerate(model.blocks):
                _, k_tok, v_tok = block.attention._split_heads(block.norm1(x), 1)
                for cache, token in ((new[2 * index], k_tok), (new[2 * index + 1], v_tok)):
                    assert (cache[rows, :, positions].tobytes()
                            == np.ascontiguousarray(token.data[:, :, 0]).tobytes())
                x = block.decode(x, Tensor(caches[2 * index]),
                                 Tensor(caches[2 * index + 1]), pos_onehot, mask)[0]

    def test_non_finite_token_changes_only_its_slot(self):
        cache = np.where(np.arange(24).reshape(2, 1, 4, 3) % 5 == 0, -0.0, 1.5)
        token = np.array([np.inf, np.nan, -np.inf] * 2).reshape(2, 1, 1, 3)
        positions = F.one_hot(np.array([1, 3]), 6)
        written = apply_op("cache_write", Tensor(cache), Tensor(token),
                           Tensor(positions)).data
        expected = cache.copy()
        expected[[0, 1], :, [1, 3]] = token[:, :, 0]
        assert written.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    def test_position_outside_the_window_raises(self, padding_models, engine):
        model = padding_models["dense"]
        step = self._stepper(model, engine)
        inputs, caches = write_step_arrays(model, 4, [3], [2], 0)
        step(*inputs, caches)  # traces the (1, 4) plan the compiled raise replays
        for position in (4, 9):
            with pytest.raises(ValueError, match="outside the cache window"):
                step(*step_inputs(model, [2], [position], 4), caches)


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

    def test_batch1_plan_leaves_no_constant_a_free_relayout_could_fix(self):
        """Every binary-op constant of the decode plan is already 0-d, in
        its node's output shape, or needs a real broadcast; no ``clip``
        keeps a Python-scalar bound."""
        model = make_model("dense")
        model.calibrate([1, 5, 3])
        kv = model.new_cache(batch=1)
        arrays = list(step_inputs(model, [1], [0], kv.ensure(4)))
        arrays.extend(kv.arrays())
        captured = trace(model.step, *arrays)
        without_layout = dead_code_elimination(cse(fold_constants(captured)))
        planned = optimize(captured)
        assert len(_relayout_fixable(without_layout)) > 10
        assert _relayout_fixable(planned) == []
        assert len(planned.nodes) == len(without_layout.nodes)
        expected = model.eager_step(arrays[0], arrays[1], arrays[2], arrays[3:])
        for got, want in zip(CompiledGraph(planned).run(*arrays),
                             [expected[0], *expected[1]]):
            assert got.tobytes() == want.tobytes()

    def test_step_trace_records_table_lookups(self):
        """Each pwl of the inference step is one ``lookup`` node, bound to
        the output-only kernel of the table its module owns."""
        model = make_model("dense")
        model.calibrate([1, 5, 3])
        kv = model.new_cache(batch=1)
        arrays = list(step_inputs(model, [1], [0], kv.ensure(4)))
        arrays.extend(kv.arrays())
        planned = optimize(trace(model.step, *arrays))
        lookups = [node for node in planned.nodes if node.op == "lookup"]
        assert lookups
        assert {node.params["fn"].__name__ for node in lookups} == {"__call__", "lookup"}
        assert "elementwise_fused" not in [node.op for node in planned.nodes]

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


class _SteppedServer(BatchingServer):
    """A server whose worker drains only when the test releases it, so
    every request submitted before a release lands in one drain."""

    def __init__(self, *args, **kwargs):
        self.gate = threading.Semaphore(0)
        super().__init__(*args, **kwargs)

    def _collect(self):
        self.gate.acquire()
        return super()._collect()

    def close(self):
        self.gate.release()  # let the worker reach the stop sentinel
        super().close()


@pytest.fixture(scope="module")
def stepped_servers():
    """One INT8 pwl decoder and a stepped server per decode engine."""
    model = make_model("dense")
    servers = {engine: _SteppedServer(model, max_batch=4, max_wait_ms=0.0,
                                      decode_engine=engine)
               for engine in ("eager", "compiled")}
    yield model, servers
    for server in servers.values():
        server.close()


class TestServedDecodeSchedules:
    """Random decode schedules through ``BatchingServer``: sessions open one
    per round until ``live`` are running, finish at their own lengths and
    are replaced (churn), so each round mixes positions from several cache
    buckets.  Each round is submitted as one drain."""

    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    @settings(max_examples=8, deadline=None)
    @given(
        sessions=st.lists(
            st.tuples(st.lists(st.integers(0, SMALL.vocab_size - 1),
                               min_size=1, max_size=16),
                      st.integers(2, 10)),
            min_size=2, max_size=6,
        ),
        live=st.integers(2, 4),
    )
    def test_random_schedules_match_direct_decode(self, stepped_servers, engine,
                                                  sessions, live):
        model, servers = stepped_servers
        server = servers[engine]
        waiting = list(sessions)
        running = []  # (session, num_new)
        served = []
        spanning = 0
        while waiting or running:
            if waiting and len(running) < live:
                prompt, num_new = waiting.pop(0)
                running.append((server.open_session(prompt), num_new))
            buckets = {bucket_capacity(session.position + 1, SMALL.max_seq)
                       for session, _ in running}
            before = server.stats()
            futures = [server.submit_decode(session) for session, _ in running]
            server.gate.release()
            for future in futures:
                future.result(60)
            after = server.stats()
            assert after.decode_batches - before.decode_batches == 1, buckets
            assert after.decode_steps - before.decode_steps == len(running)
            spanning += len(buckets) > 1
            still = []
            for session, num_new in running:
                if len(session.generated) == num_new:
                    served.append((session.tokens[:session.prompt_len], session.generated))
                else:
                    still.append((session, num_new))
            running = still
        # The second session opens beside the first one's second step.
        assert spanning > 0
        assert len(served) == len(sessions)
        for prompt, stream in served:
            assert stream == greedy_generate(model, prompt, len(stream), cache=True,
                                             engine=engine)
