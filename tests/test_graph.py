"""Tests for the traced graph IR, optimisation passes and compiled executor.

The load-bearing contract: compiled inference is **bit-identical** to the
eager forward for every model family, on the dense pwl tables and on the
reference pwl pipeline of ``oracles.py`` alike, across the
capture (tracer), optimize (constant folding / CSE / layout / DCE / buffer
plan) and execute (CompiledGraph / CompiledModel) layers.
"""

import numpy as np
import pytest

from repro.baselines import uniform_pwl
from repro.core import engine_config
from repro.core.lut import DenseLUT
from repro.functions.registry import get_function
from repro.graph import (
    CompiledGraph,
    CompiledModel,
    CompiledTrainStep,
    Graph,
    Node,
    Tracer,
    dead_code_elimination,
    fold_constants,
    optimize,
    plan_memory,
    trace,
)
from repro.nn import functional as F
from repro.nn.approx import FloatSuite, PWLActivation, PWLSuite, PWLWideRange
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, CosineSchedule
from repro.nn.tensor import Tensor, apply_op, no_grad, tracing
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model

from oracles import ReferencePWLActivation, ReferencePWLSuite


def small_config() -> ModelConfig:
    return ModelConfig(image_size=16, embed_dim=16, depth=1)


def pwl_suite(operators, engine: str) -> PWLSuite:
    """The dense suite, or (``engine="legacy"``) the reference oracle suite."""
    suite_cls = {"dense": PWLSuite, "legacy": ReferencePWLSuite}[engine]
    return suite_cls(
        approximations={
            op: uniform_pwl(get_function(op)).to_fixed_point(5) for op in operators
        },
        replace=set(operators),
    )


def build_pwl_model(model_cls, operators, engine: str):
    suite = pwl_suite(operators, engine)
    model = model_cls(small_config(), suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


@pytest.fixture
def images():
    return np.random.default_rng(0).normal(size=(2, 16, 16, 3))


class TestTracer:
    def test_captures_ops_constants_and_inputs(self):
        weight = Tensor(np.arange(6.0).reshape(2, 3))

        def fn(x):
            return (x @ weight).relu()

        x = np.random.default_rng(1).normal(size=(4, 2))
        graph = trace(fn, x)
        assert [node.op for node in graph.nodes] == ["matmul", "relu"]
        assert len(graph.inputs) == 1
        assert len(graph.outputs) == 1
        # The weight entered from outside the placeholder set -> constant.
        (const,) = graph.constants.values()
        np.testing.assert_array_equal(const, weight.data)

    def test_detach_aliases_value(self):
        def fn(x):
            shifted = x - x.max(axis=-1, keepdims=True).detach()
            return shifted.exp()

        x = np.random.default_rng(2).normal(size=(3, 4))
        graph = trace(fn, x)
        # The max output must flow into the subtraction, not be baked in as
        # a constant snapshot of the traced batch.
        ops = [node.op for node in graph.nodes]
        assert "max" in ops
        compiled = CompiledGraph(optimize(graph))
        other = np.random.default_rng(3).normal(size=(3, 4))
        expected = np.exp(other - other.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(compiled.run(other)[0], expected)

    def test_elementwise_name_becomes_label(self):
        def fn(x):
            return x.apply_elementwise(np.tanh, lambda d: 1 - np.tanh(d) ** 2,
                                       name="my-kernel")

        graph = trace(fn, np.zeros((2, 2)))
        assert graph.nodes[-1].label == "my-kernel"
        assert "my-kernel" in str(graph)

    def test_tracing_does_not_nest(self):
        def inner(x):
            return x + 1.0

        def outer(x):
            trace(inner, np.zeros(2))
            return x

        with pytest.raises(RuntimeError, match="does not nest"):
            trace(outer, np.zeros(2))

    def test_non_tensor_return_rejected(self):
        with pytest.raises(TypeError):
            trace(lambda x: x.data, np.zeros(2))

    def test_validate_rejects_undefined_values(self):
        graph = Graph()
        vid = graph.new_value()
        graph.inputs.append(vid)
        out = graph.new_value()
        graph.nodes.append(Node(op="add", inputs=(vid, 99), output=out))
        graph.outputs.append(out)
        with pytest.raises(ValueError, match="undefined value"):
            graph.validate()


class TestPasses:
    def test_dead_code_elimination_drops_unused_chain(self):
        def fn(x):
            unused = (x * 2.0).exp()  # noqa: F841 -- traced but dead
            return x + 1.0

        graph = trace(fn, np.zeros((2, 2)))
        before = [node.op for node in graph.nodes]
        assert "exp" in before
        pruned = dead_code_elimination(graph)
        after = [node.op for node in pruned.nodes]
        assert "exp" not in after and "mul" not in after
        # The dead chain's lifted scalar constants disappear with it.
        assert len(pruned.constants) < len(graph.constants)

    def test_constant_folding_collapses_parameter_subtree(self):
        class Model(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.arange(4.0) + 1.0)

            def forward(self, x):
                # abs -> log -> exp over parameters only: foldable.
                return x * self.weight.abs().log().exp()

        model = Model()
        x = np.full((3, 4), 2.0)
        graph = trace(model, x)
        assert len(graph.nodes) == 4  # abs, log, exp, mul
        folded = dead_code_elimination(fold_constants(graph))
        assert [node.op for node in folded.nodes] == ["mul"]
        with no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_array_equal(CompiledGraph(folded).run(x)[0], expected)

    def test_legacy_engine_is_not_fused(self):
        """The reference module's trace holds its own element-wise kernel,
        not a ``lookup`` of a deployed table."""
        module = ReferencePWLActivation(
            "gelu", uniform_pwl(get_function("gelu")).to_fixed_point(5)
        )
        x = np.random.default_rng(6).normal(size=(3, 3))
        with no_grad():
            module(Tensor(x))
        ops = [node.op for node in optimize(trace(module, x)).nodes]
        assert "elementwise" in ops and "lookup" not in ops


class TestLookupNodes:
    """A pwl module records its table's output-only kernel as a ``lookup``
    node when traced for inference, and its fused training form when the
    input needs a gradient."""

    def test_activation_records_its_dense_table(self):
        module = PWLActivation(
            "gelu", uniform_pwl(get_function("gelu")).to_fixed_point(5)
        )
        x = np.random.default_rng(4).normal(size=(5, 7))
        with no_grad():
            eager = module(Tensor(x)).data
        graph = trace(module, x)
        (node,) = [n for n in graph.nodes if n.op == "lookup"]
        table = node.params["fn"].__self__
        assert isinstance(table, DenseLUT) and table is module._dense()
        assert node.params["fn"].__name__ == "__call__"
        assert "elementwise_fused" not in [n.op for n in graph.nodes]
        np.testing.assert_array_equal(CompiledGraph(optimize(graph)).run(x)[0], eager)

    def test_wide_range_records_its_slot_lookup(self):
        module = PWLWideRange(
            "rsqrt", uniform_pwl(get_function("rsqrt")).to_fixed_point(5)
        )
        x = np.abs(np.random.default_rng(5).normal(size=(4, 4))) * 200 + 0.5
        with no_grad():
            eager = module(Tensor(x)).data
        graph = trace(module, x)
        (node,) = [n for n in graph.nodes if n.op == "lookup"]
        assert node.params["fn"] == module.wrapped.lookup
        np.testing.assert_array_equal(CompiledGraph(optimize(graph)).run(x)[0], eager)

    @pytest.mark.parametrize("model_cls", [MiniSegformer, MiniEfficientViT])
    def test_inference_trace_holds_lookups_only(self, model_cls, images):
        operators = ["gelu", "hswish", "exp", "div", "rsqrt"]
        model = build_pwl_model(model_cls, operators, "dense")
        with no_grad():
            model(Tensor(images))
        ops = [node.op for node in optimize(trace(model, images)).nodes]
        assert ops.count("lookup") > 0
        assert "elementwise_fused" not in ops

    def test_train_step_keeps_the_fused_form(self):
        """A compiled train step replays the output-and-slope kernel, and
        its slope feeds the traced backward (the step keeps it)."""
        model = build_pwl_model(MiniSegformer, ["gelu", "exp", "div", "rsqrt"], "dense")
        model.train()
        step = CompiledTrainStep(model, SGD(model.parameters(), lr=0.05))
        images = np.random.default_rng(8).normal(size=(2, 16, 16, 3))
        step.step(images, np.zeros((2, 16, 16), dtype=np.int64))
        (plan,) = step._cache.values()
        fused = [s for s in plan.compiled._steps if s.op == "elementwise_fused"]
        assert fused and "lookup" not in plan.compiled.ops
        assert all(s.saved >= 0 for s in fused)

    def test_lookup_has_no_gradient(self):
        module = PWLActivation(
            "gelu", uniform_pwl(get_function("gelu")).to_fixed_point(5)
        )
        x = Tensor(np.linspace(-2.0, 2.0, 6), requires_grad=True)
        module(x)  # initialises the quantizer
        y = apply_op("lookup", x, fn=module._dense().__call__)
        with pytest.raises(RuntimeError, match="no gradients"):
            y.sum().backward()


class TestMemoryPlan:
    def test_slots_are_reused_after_last_use(self):
        def fn(x):
            y = x.exp()
            z = y.tanh()
            return z.relu()

        graph = trace(fn, np.zeros((2, 2)))
        plan = plan_memory(graph)
        dynamic = plan.num_slots - len(plan.constant_slots)
        # Four dynamic values (input + three intermediates) share slots: at
        # most two live at once in a straight chain, so freed slots must be
        # reused instead of growing the environment.
        assert plan.peak_live == 2
        assert dynamic == 2

    def test_outputs_and_constants_never_released(self):
        weight = Tensor(np.ones((2, 2)))

        def fn(x):
            return x @ weight

        graph = trace(fn, np.zeros((3, 2)))
        plan = plan_memory(graph)
        released = {slot for slots in plan.releases for slot in slots}
        assert not released & set(plan.constant_slots.values())
        for vid in graph.outputs:
            assert plan.slots[vid] not in released

    def test_buffer_reuse_is_safe_for_aliased_views(self):
        """Releasing a buffer whose views outlive it must not corrupt them.

        ``reshape``/``transpose`` return numpy views sharing the base
        buffer; the plan releases the base's slot after its last *graph*
        use while the views are still pending.  Refcounting must keep the
        storage alive, so compiled outputs stay bit-identical.
        """

        def fn(x):
            base = x * 3.0
            view_a = base.reshape(4, 2)        # view of base
            view_b = base.transpose(1, 0)      # second view of base
            # base's slot is released here (last direct use), while both
            # views flow on to later nodes and the output.
            return view_a.reshape(2, 4) + view_b.transpose(1, 0)

        x = np.random.default_rng(7).normal(size=(2, 4))
        graph = optimize(trace(fn, x))
        plan = plan_memory(graph)
        assert any(plan.releases)  # the plan does release something
        with no_grad():
            expected = fn(Tensor(x)).data
        np.testing.assert_array_equal(CompiledGraph(graph).run(x)[0], expected)


class TestCompiledModel:
    @pytest.mark.parametrize("model_cls,operators", [
        (MiniSegformer, ("exp", "gelu", "div", "rsqrt")),
        (MiniEfficientViT, ("hswish", "div")),
    ])
    @pytest.mark.parametrize("pwl_engine", ["dense", "legacy"])
    def test_compiled_bit_identical_to_eager(self, model_cls, operators,
                                             pwl_engine, images):
        model = build_pwl_model(model_cls, operators, pwl_engine)
        eager = model.predict(images, engine="eager")
        compiled = model.predict(images, engine="compiled")
        np.testing.assert_array_equal(compiled, eager)
        if pwl_engine == "dense":
            oracle = build_pwl_model(model_cls, operators, "legacy")
            np.testing.assert_array_equal(eager, oracle.predict(images, engine="eager"))

    def test_float_model_compiled_parity(self, images):
        model = MiniSegformer(small_config())
        np.testing.assert_array_equal(
            model.predict(images, engine="compiled"),
            model.predict(images, engine="eager"),
        )

    def test_shape_specialisation_cache(self, images):
        model = MiniSegformer(small_config())
        compiled = CompiledModel(model)
        compiled.predict(images)
        compiled.predict(images)
        assert compiled.compile_count == 1
        compiled.predict(images[:1])
        assert compiled.compile_count == 2
        assert compiled.specializations == 2

    def test_parameter_rebinding_invalidates_cache(self, images, parameter_walks):
        model = MiniSegformer(small_config())
        compiled = CompiledModel(model)
        stale = compiled.predict(images)
        # A replay checks the saved (param, array) pairs, not the module tree.
        walks = len(parameter_walks)
        compiled(images)
        assert len(parameter_walks) == walks
        assert compiled.replay_count == 2
        # Mimic an optimiser step: rebind every parameter's data.
        for param in model.parameters():
            param.data = param.data + 0.05
        fresh = compiled.predict(images)
        assert compiled.compile_count == 2
        np.testing.assert_array_equal(fresh, model.predict(images, engine="eager"))
        assert not np.array_equal(stale, fresh)  # weights actually moved
        # A checkpoint restore between calls re-traces exactly once.
        model.load_state_dict(model.state_dict())
        compiled.predict(images)
        compiled.predict(images)
        assert compiled.compile_count == 3

    def test_engine_config_context_selects_compiled(self, images):
        model = MiniSegformer(small_config())
        eager = model.predict(images)  # default engine
        with engine_config.use(infer_engine="compiled"):
            compiled = model.predict(images)
        assert model._compiled_model is not None
        assert model._compiled_model.compile_count == 1
        np.testing.assert_array_equal(compiled, eager)

    def test_trainer_evaluate_compiled_parity(self):
        rng = np.random.default_rng(11)
        images = rng.normal(size=(10, 16, 16, 3))
        labels = rng.integers(0, 5, size=(10, 16, 16))
        model = build_pwl_model(MiniSegformer, ("exp", "gelu", "div", "rsqrt"), "dense")
        trainer = Trainer(model, TrainingConfig(batch_size=4))
        eager = trainer.evaluate(images, labels, 5, engine="eager")
        compiled = trainer.evaluate(images, labels, 5, engine="compiled")
        assert eager == compiled

    def test_batch_size_invariant_predictions(self, images):
        """Serving precondition: row k of a batch equals a solo forward."""
        model = build_pwl_model(MiniSegformer, ("exp", "gelu", "div", "rsqrt"), "dense")
        batched = model.predict(images, engine="compiled")
        for index in range(images.shape[0]):
            solo = model.predict(images[index:index + 1], engine="compiled")
            np.testing.assert_array_equal(solo[0], batched[index])

    def test_concurrent_runs_of_one_plan_match_serial(self, images, assert_reentrant):
        """CompiledGraph.run is re-entrant: the slot list is per call."""
        model = build_pwl_model(MiniSegformer, ("exp", "gelu", "div", "rsqrt"), "dense")
        plan = CompiledModel(model).graph_for(images)
        rng = np.random.default_rng(5)
        assert_reentrant(plan.run, [(rng.normal(size=images.shape),) for _ in range(6)])

    def test_wrong_input_arity_raises(self, images):
        model = MiniSegformer(small_config())
        compiled_graph = CompiledGraph(optimize(trace(model, images)))
        with pytest.raises(ValueError, match="expects 1 input"):
            compiled_graph.run(images, images)


class _TinyTrainNet(Module):
    """Two-parameter net whose training step exercises matmul, broadcast
    bias, an elementwise nonlinearity and the softmax-CE loss."""

    def __init__(self, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Parameter(rng.normal(size=(2, 3)))
        self.bias = Parameter(np.zeros(3))

    def forward(self, x):
        return ((x @ self.weight) + self.bias).tanh()


def _tiny_batch(seed: int = 1, batch: int = 4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, 2)), rng.integers(0, 3, size=(batch,))


def _eager_train_steps(model, optimizer, schedule, batches):
    """The exact Trainer.fit eager loop body, as a parity reference."""
    model.train()
    losses = []
    for images, labels in batches:
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        if schedule is not None:
            schedule.step()
        losses.append(loss.item())
    return losses


def _optim_buffers(optimizer):
    out = {}
    for group in ("_velocity", "_m", "_v"):
        buffers = getattr(optimizer, group, None)
        if buffers is not None:
            out[group] = [np.asarray(buffer).copy() for buffer in buffers]
    return out


class TestBackwardCapture:
    def test_backward_emits_vjp_nodes_and_grad_vid(self):
        tracer = Tracer(capture_grads=True)
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tracer.add_input(x)
        with tracing(tracer):
            y = (x.exp() * 3.0).sum()
            y.backward()
        grad_vid = tracer.grad_vid(x)
        assert grad_vid is not None
        ops = [node.op for node in tracer.graph.nodes]
        # The backward traversal was recorded: sum's VJP goes through its
        # lazily-registered wrapper, exp's VJP lowers to a plain mul.
        assert "vjp[sum][0]" in ops
        assert ops.count("mul") >= 2

    def test_captured_gradient_replays_bitwise(self):
        tracer = Tracer(capture_grads=True)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        tracer.add_input(x)
        with tracing(tracer):
            y = ((x * 2.0).tanh() + x).sum()
            y.backward()
        tracer.mark_output_vid(tracer.grad_vid(x))
        tracer.graph.validate()
        compiled = CompiledGraph(optimize(tracer.graph))
        other = np.random.default_rng(5).normal(size=(2, 3))
        x2 = Tensor(other, requires_grad=True)
        ((x2 * 2.0).tanh() + x2).sum().backward()
        np.testing.assert_array_equal(compiled.run(other)[0], x2.grad)

    def test_unbroadcast_node_emitted_for_broadcast_grad(self):
        tracer = Tracer(capture_grads=True)
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        tracer.add_input(x)
        tracer.add_input(bias)
        with tracing(tracer):
            (x + bias).sum().backward()
        assert "unbroadcast" in [node.op for node in tracer.graph.nodes]
        tracer.mark_output_vid(tracer.grad_vid(bias))
        compiled = CompiledGraph(optimize(tracer.graph))
        other = np.random.default_rng(6).normal(size=(4, 3))
        x2 = Tensor(other, requires_grad=True)
        bias2 = Tensor(np.zeros(3), requires_grad=True)
        (x2 + bias2).sum().backward()
        np.testing.assert_array_equal(
            compiled.run(other, np.zeros(3))[0], bias2.grad
        )

    def test_capture_requires_zeroed_grads(self):
        tracer = Tracer(capture_grads=True)
        x = Tensor(np.ones(3), requires_grad=True)
        x.grad = np.ones(3)
        tracer.add_input(x)
        with tracing(tracer):
            with pytest.raises(RuntimeError, match="zeroed"):
                (x * 2.0).sum().backward()

    def test_unbroadcast_grad_matches_finite_difference(self):
        """The grad-reduction ``unbroadcast`` node feeding a weight's
        gradient replays to the eager backward (bitwise) and to a central
        finite difference (numerically)."""
        rng = np.random.default_rng(11)
        x_val = rng.normal(size=(8, 4))
        w_val = rng.normal(size=(4,))

        tracer = Tracer(capture_grads=True)
        x = Tensor(x_val, requires_grad=True)
        w = Tensor(w_val, requires_grad=True)
        tracer.add_input(x)
        tracer.add_input(w)
        with tracing(tracer):
            (x * w).tanh().sum().backward()
        tracer.mark_output_vid(tracer.grad_vid(w))
        optimized = optimize(tracer.graph)
        assert "unbroadcast" in [node.op for node in optimized.nodes]
        (replayed,) = CompiledGraph(optimized).run(x_val, w_val)
        x2 = Tensor(x_val, requires_grad=True)
        w2 = Tensor(w_val, requires_grad=True)
        (x2 * w2).tanh().sum().backward()
        np.testing.assert_array_equal(replayed, w2.grad)
        eps = 1e-6
        numeric = np.zeros_like(w_val)
        for index in range(w_val.size):
            bumped = w_val.copy()
            bumped[index] += eps
            upper = np.tanh(x_val * bumped).sum()
            bumped[index] -= 2 * eps
            lower = np.tanh(x_val * bumped).sum()
            numeric[index] = (upper - lower) / (2 * eps)
        np.testing.assert_allclose(replayed, numeric, rtol=1e-5, atol=1e-8)


class TestCompiledTrainStep:
    @pytest.mark.parametrize(
        "make_optimizer",
        [
            lambda params: SGD(params, lr=0.05),
            lambda params: SGD(params, lr=0.05, momentum=0.9,
                               weight_decay=1e-4),
            lambda params: Adam(params, lr=0.01, weight_decay=1e-4),
        ],
        ids=["sgd", "sgd-momentum-wd", "adam-wd"],
    )
    def test_replay_bit_identical_to_eager(self, make_optimizer):
        batches = [_tiny_batch(seed) for seed in range(5)]

        eager_model = _TinyTrainNet()
        eager_opt = make_optimizer(eager_model.parameters())
        eager_sched = CosineSchedule(eager_opt, total_steps=5)
        eager_losses = _eager_train_steps(
            eager_model, eager_opt, eager_sched, batches
        )

        model = _TinyTrainNet()
        optimizer = make_optimizer(model.parameters())
        schedule = CosineSchedule(optimizer, total_steps=5)
        model.train()
        step = CompiledTrainStep(model, optimizer, schedule=schedule)
        losses = [step.step(images, labels) for images, labels in batches]

        assert losses == eager_losses
        assert step.replay_count == 4  # one trace, four replays
        for name, value in eager_model.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[name], value)
        for group, buffers in _optim_buffers(eager_opt).items():
            for reference, actual in zip(
                buffers, _optim_buffers(optimizer)[group]
            ):
                np.testing.assert_array_equal(actual, reference)
        assert optimizer.lr == eager_opt.lr

    def test_shape_specialisation_per_batch_signature(self):
        model = _TinyTrainNet()
        model.train()
        step = CompiledTrainStep(model, SGD(model.parameters(), lr=0.05))
        full = _tiny_batch(1, batch=4)
        short = _tiny_batch(2, batch=2)
        step.step(*full)
        step.step(*short)
        step.step(*full)
        step.step(*short)
        stats = step.stats()
        assert stats["specializations"] == 2
        assert stats["compile_count"] == 2
        assert stats["replay_count"] == 2

    def test_external_rebind_invalidates_cache(self):
        model = _TinyTrainNet()
        model.train()
        step = CompiledTrainStep(model, SGD(model.parameters(), lr=0.05))
        x, labels = _tiny_batch()
        step.step(x, labels)
        step.step(x, labels)
        assert step.compile_count == 1
        # Checkpoint-restore style rebinding: load_state_dict swaps every
        # parameter's array identity, so the cached plan would silently
        # keep training the *old* arrays.  The staleness check re-traces.
        model.load_state_dict(model.state_dict())
        step.step(x, labels)
        assert step.compile_count == 2
        step.step(x, labels)
        assert step.compile_count == 2  # back to replaying

    def test_stats_pin_plan_memory(self):
        """Working-set regression pin for the joint graph's buffer plan."""
        model = _TinyTrainNet()
        model.train()
        step = CompiledTrainStep(model, SGD(model.parameters(), lr=0.05, momentum=0.9))
        x, labels = _tiny_batch()
        step.step(x, labels)
        step.step(x, labels)
        (per_signature,) = step.stats()["signatures"].values()
        # 27 with element-wise chain fusion, which is gone: every node is
        # its own step again.  The packed optimizer update is two ``pack``
        # nodes, its momentum arithmetic, and two flat outputs (parameters
        # and velocity) next to the loss.
        assert per_signature == {
            "nodes": 35,
            "peak_live": 18,
            "num_slots": 21,
            "outputs": 3,
        }

    def test_eval_mode_rejected(self):
        model = _TinyTrainNet()
        model.eval()
        step = CompiledTrainStep(model, SGD(model.parameters(), lr=0.05))
        with pytest.raises(RuntimeError, match="train"):
            step.step(*_tiny_batch())

    def test_dropout_rejected(self):
        from repro.nn.layers import Dropout

        class WithDropout(_TinyTrainNet):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5)

            def forward(self, x):
                return self.drop(super().forward(x))

        model = WithDropout()
        with pytest.raises(ValueError, match="Dropout"):
            CompiledTrainStep(model, SGD(model.parameters(), lr=0.05))

    def test_optimizer_without_trace_step_rejected(self):
        class Plain:
            def __init__(self, params):
                self.parameters = list(params)

        model = _TinyTrainNet()
        with pytest.raises(TypeError, match="trace_step"):
            CompiledTrainStep(model, Plain(model.parameters()))


class TestTrainerFitCompiled:
    def _dataset(self):
        from repro.data.synthetic_segmentation import (
            SyntheticSegmentationConfig,
            SyntheticSegmentationDataset,
        )

        return SyntheticSegmentationDataset(
            SyntheticSegmentationConfig(
                image_size=8, num_classes=3, num_train=6, num_val=4, seed=7
            )
        )

    def _run_fit(self, train_engine=None, pwl_engine=None, use_context=False):
        dataset = self._dataset()
        config = ModelConfig(
            image_size=8, num_classes=3, embed_dim=8, depth=1, seed=0
        )
        if pwl_engine is not None:
            suite = pwl_suite(("exp", "gelu", "div", "rsqrt"), pwl_engine)
            model = MiniSegformer(config, suite=suite)
            prepare_quantized_model(model)
        else:
            model = MiniSegformer(config, suite=FloatSuite())
        trainer = Trainer(
            model, TrainingConfig(epochs=2, batch_size=4, seed=0)
        )
        kwargs = {}
        if not use_context and train_engine is not None:
            kwargs["train_engine"] = train_engine
        if use_context:
            with engine_config.use(train_engine=train_engine):
                result = trainer.fit(
                    dataset.train_images, dataset.train_labels,
                    dataset.val_images, dataset.val_labels,
                    num_classes=dataset.num_classes,
                )
        else:
            result = trainer.fit(
                dataset.train_images, dataset.train_labels,
                dataset.val_images, dataset.val_labels,
                num_classes=dataset.num_classes, **kwargs
            )
        state = {
            name: value.copy()
            for name, value in trainer.model.state_dict().items()
        }
        return result, state

    @pytest.mark.parametrize("pwl_engine", [None, "dense", "legacy"],
                             ids=["float", "pwl-dense", "pwl-legacy"])
    def test_fit_bit_identical_across_train_engines(self, pwl_engine):
        eager_result, eager_state = self._run_fit("eager", pwl_engine)
        compiled_result, compiled_state = self._run_fit("compiled", pwl_engine)
        assert compiled_result.losses == eager_result.losses
        assert compiled_result.val_miou == eager_result.val_miou
        assert compiled_result.val_pixel_accuracy == \
            eager_result.val_pixel_accuracy
        for name, value in eager_state.items():
            np.testing.assert_array_equal(compiled_state[name], value)

    def test_engine_config_context_selects_compiled(self):
        explicit, explicit_state = self._run_fit("compiled")
        via_context, context_state = self._run_fit(
            "compiled", use_context=True
        )
        assert via_context.losses == explicit.losses
        for name, value in explicit_state.items():
            np.testing.assert_array_equal(context_state[name], value)
