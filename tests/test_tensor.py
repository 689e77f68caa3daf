"""Behavioural tests for the numpy autograd engine.

Per-op gradient correctness lives in ``tests/test_gradcheck.py``, which
finite-differences every op in the :mod:`repro.nn.ops` registry.  This file
covers the engine's *semantics*: forward arithmetic, graph control
(``no_grad`` / ``detach`` / graph release), gradient accumulation and the
``repro.nn.functional`` compositions the models are built from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn import ops
from repro.nn.tensor import Tensor, concatenate, no_grad, ones, tensor, zeros


class TestBasicOps:
    def test_add_mul_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])
        np.testing.assert_allclose((a * b).data, [3.0, 8.0])

    def test_scalar_arithmetic(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + 1.0).data, [2.0, 3.0])
        np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])
        np.testing.assert_allclose((1.0 - a).data, [0.0, -1.0])
        np.testing.assert_allclose((a / 2.0).data, [0.5, 1.0])
        np.testing.assert_allclose((1.0 / a).data, [1.0, 0.5])

    def test_pow_rejects_non_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** np.array([1.0, 2.0])

    def test_batched_matmul_forward(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(1)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        out = (x + bias).sum()
        out.backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_reused_tensor_accumulates_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        out = (x * x) + x
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_clip_ste_passes_gradient(self):
        x = Tensor([10.0, -10.0], requires_grad=True)
        x.clip_ste(-1, 1).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_round_ste_passes_gradient(self):
        x = Tensor([0.4, 0.6], requires_grad=True)
        x.round_ste().sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])
        np.testing.assert_allclose(x.round_ste().data, [0.0, 1.0])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        (x.reshape(2, 6) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 2.0))

    def test_swapaxes(self):
        x = Tensor(np.arange(24).reshape(2, 3, 4))
        assert x.swapaxes(1, 2).shape == (2, 4, 3)

    def test_concatenate_forward_and_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(2 * np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))


class TestReductions:
    def test_sum_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_var_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 6))
        out = Tensor(data).var(axis=-1)
        np.testing.assert_allclose(out.data, data.var(axis=-1), atol=1e-12)

    def test_max_gradient_flows_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        x.max(axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 7)))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_gelu_close_to_exact(self):
        from repro.functions.nonlinear import gelu as exact_gelu

        x = np.linspace(-4, 4, 101)
        approx = F.gelu(Tensor(x)).data
        assert np.max(np.abs(approx - exact_gelu(x))) < 5e-3

    def test_hswish_matches_reference(self):
        from repro.functions.nonlinear import hswish as exact

        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(F.hswish(Tensor(x)).data, exact(x), atol=1e-12)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 10)) * 3 + 1)
        out = F.layer_norm(x, Tensor(np.ones(10)), Tensor(np.zeros(10)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        targets = np.array([0, 0])
        loss = F.cross_entropy(logits, targets)
        p0 = np.exp(2.0) / (np.exp(2.0) + 1.0)
        p1 = 1.0 / (np.exp(2.0) + 1.0)
        expected = -0.5 * (np.log(p0) + np.log(p1))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((3, 2)))
        targets = np.array([0, 1, 255])
        loss = F.cross_entropy(logits, targets, ignore_index=255)
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_cross_entropy_all_ignored_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 2))), np.array([9, 9]), ignore_index=9)

    def test_lsq_quantize_forward_grid(self):
        x = Tensor(np.linspace(-2, 2, 9))
        scale = Tensor([0.5], requires_grad=True)
        out = F.lsq_quantize(x, scale, -4, 3)
        np.testing.assert_allclose(out.data, np.clip(np.round(x.data / 0.5), -4, 3) * 0.5)

    def test_lsq_scale_receives_gradient(self):
        x = Tensor(np.array([0.3, 1.7, -2.5]))
        scale = Tensor([0.5], requires_grad=True)
        F.lsq_quantize(x, scale, -4, 3).sum().backward()
        assert scale.grad is not None
        assert np.any(scale.grad != 0)

    def test_power_of_two_scale_snaps(self):
        alpha = Tensor([0.3], requires_grad=True)
        s = F.power_of_two_scale(alpha)
        assert s.data[0] == pytest.approx(0.25)
        s.backward()
        assert alpha.grad is not None


class TestGraphControl:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 3.0
        assert not y.requires_grad

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_constructors(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4
        assert tensor([1, 2]).shape == (2,)

    def test_unknown_op_rejected(self):
        from repro.nn.tensor import apply_op

        with pytest.raises(KeyError, match="unknown op"):
            apply_op("turbo_matmul", Tensor([1.0]))

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_linear_chain_gradient_matches_analytic(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        w = rng.standard_normal((n, m))
        x = Tensor(rng.standard_normal((4, n)), requires_grad=True)
        out = (x @ Tensor(w)).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.tile(w.sum(axis=1), (4, 1)), atol=1e-9)


class TestGraphRelease:
    """backward() drops graph references so intermediates can be freed."""

    def test_backward_releases_graph_edges(self):
        x = Tensor(np.ones(3), requires_grad=True)
        mid = (x * 2.0).exp()
        out = mid.sum()
        out.backward()
        assert out._backward is None and out._parents == ()
        assert mid._backward is None and mid._parents == ()

    def test_retain_graph_keeps_edges_and_allows_second_pass(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = (x * 3.0).sum()
        out.backward(retain_graph=True)
        assert out._backward is not None and out._parents != ()
        out.backward()  # second pass accumulates into .grad
        np.testing.assert_allclose(x.grad, np.full(3, 6.0))

    def test_released_graph_does_not_propagate_again(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = (x * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 3.0))
        # The default release cut the edges: a second backward from the
        # same root only touches the root itself.
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 3.0))

    def test_intermediates_are_collectable_after_backward(self):
        import gc
        import weakref

        # With the cyclic collector off, only reference counting frees the
        # intermediate: backward() must leave no reference cycle holding
        # its traversal order (and with it every visited tensor).
        gc.disable()
        try:
            x = Tensor(np.ones(8), requires_grad=True)
            mid = (x * 2.0).tanh()
            ref = weakref.ref(mid)
            out = mid.sum()
            out.backward()
            del mid
            # `out` is still alive, but the released parent links no longer
            # pin the intermediate.
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_through_a_graph_deeper_than_the_recursion_limit(self):
        import sys

        x = Tensor(np.ones(2), requires_grad=True)
        out = x
        for _ in range(sys.getrecursionlimit() + 100):
            out = out * 1.0
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_registry_is_the_only_gradient_source(self):
        # Every Tensor operation dispatches through the registry: the ops
        # module exposes the full table, and it is non-trivially populated.
        assert len(ops.registered_ops()) >= 20
