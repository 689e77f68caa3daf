"""Numerical gradcheck for every op in the VJP registry.

For each registered op the harness compares the autograd gradient (the
op's registered VJP, routed through ``apply_op`` and ``Tensor.backward``)
against a central finite difference of the forward function, for every
input, under a random cotangent.  Broadcasting cases are included for the
binary arithmetic ops, and reduction ops are checked across axis /
keepdims variants.

Straight-through estimators (``round_ste``, ``clip_ste``) are a special
case: their forward is a step function whose true derivative is zero
almost everywhere, and their VJP is *defined* to be the derivative of a
smooth surrogate (the identity).  Those cases finite-difference the
surrogate instead — the check then pins that the registered VJP matches
the surrogate's derivative, which is the STE contract.

``test_every_registered_op_has_cases`` closes the loop: registering a new
op without adding a gradcheck case fails the suite, so the registry can
never silently grow unverified gradients.
"""

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.tensor import Tensor, apply_op

EPS = 1e-6
ATOL = 1e-4


@dataclasses.dataclass
class Case:
    """One gradcheck invocation of a registered op."""

    label: str
    inputs: Tuple[np.ndarray, ...]
    params: Dict = dataclasses.field(default_factory=dict)
    # Finite-difference target when the op's forward is non-differentiable
    # (STE ops): an array-level function with the op forward's signature.
    surrogate: Optional[Callable] = None
    atol: float = ATOL
    # Positions of inputs the op has no gradient for (``cache_write``'s
    # position one-hot): fed as constants, not differentiated.
    fixed: Tuple[int, ...] = ()


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _away_from(values: np.ndarray, points, margin: float = 1e-3) -> np.ndarray:
    """Nudge samples off non-differentiable points (kinks, boundaries)."""
    out = values.copy()
    for point in points:
        near = np.abs(out - point) < margin
        out[near] = point + margin * np.where(out[near] >= point, 2.0, -2.0)
    return out


def _positive(shape, seed=0, low=0.5) -> np.ndarray:
    return np.abs(_rng(seed).standard_normal(shape)) + low


def _normal(shape, seed=0) -> np.ndarray:
    return _rng(seed).standard_normal(shape)


def _smooth_table(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _smooth_table_slope(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(x) ** 2


def _fused_table(x: np.ndarray):
    return np.tanh(x), 1.0 - np.tanh(x) ** 2


def _positions(slots, width: int) -> np.ndarray:
    """``(len(slots), width)`` one-hot rows at ``slots``."""
    return np.eye(width)[list(slots)]


# Every registered op must appear here; see test_every_registered_op_has_cases.
CASES: Dict[str, List[Case]] = {
    "add": [
        Case("same-shape", (_normal((3, 4)), _normal((3, 4), 1))),
        Case("broadcast-bias", (_normal((3, 4)), _normal((4,), 2))),
        Case("broadcast-keepdim", (_normal((2, 3, 4)), _normal((2, 1, 4), 3))),
    ],
    "sub": [
        Case("same-shape", (_normal((3, 4)), _normal((3, 4), 1))),
        Case("broadcast-right", (_normal((3, 4)), _normal((4,), 2))),
        Case("broadcast-left", (_normal((2, 1, 4), 3), _normal((2, 3, 4)))),
        Case("scalar-left", (_normal((), 4), _normal((3, 4)))),
    ],
    "neg": [Case("plain", (_normal((3, 4)),))],
    "mul": [
        Case("same-shape", (_normal((3, 4)), _normal((3, 4), 1))),
        Case("broadcast-row", (_normal((3, 4)), _normal((1, 4), 2))),
        Case("broadcast-scalar", (_normal((2, 3)), _normal((), 4))),
    ],
    "div": [
        Case("same-shape", (_normal((3, 4)), _positive((3, 4), 1))),
        Case("broadcast-denominator", (_normal((3, 4)), _positive((4,), 2))),
    ],
    "pow": [
        Case("cube", (_normal((3, 4)),), {"exponent": 3.0}),
        Case("fractional", (_positive((3, 4)),), {"exponent": 1.7}),
        Case("inverse-sqrt", (_positive((5,)),), {"exponent": -0.5}),
    ],
    "matmul": [
        Case("2d", (_normal((3, 4)), _normal((4, 2), 1))),
        Case("batched", (_normal((2, 3, 4)), _normal((2, 4, 5), 1))),
    ],
    "reshape": [Case("flatten", (_normal((3, 4)),), {"shape": (2, 6)})],
    "transpose": [
        Case("2d", (_normal((3, 4)),), {"axes": (1, 0)}),
        Case("3d-roll", (_normal((2, 3, 4)),), {"axes": (2, 0, 1)}),
    ],
    "getitem": [
        Case("slice", (_normal((5, 3)),), {"index": (slice(1, 4),)}),
        Case("int", (_normal((3, 4, 2)),), {"index": 1}),
        Case("basic-mixed", (_normal((3, 4, 2)),),
             {"index": (Ellipsis, slice(None, None, -2), None, 0)}),
        Case("fancy-repeated", (_normal((4, 3)),),
             {"index": (np.array([0, 2, 2, 1]),)}),
        Case("mixed", (_normal((4, 5)),),
             {"index": (slice(None), np.array([1, 3]))}),
    ],
    "cache_write": [
        Case("batch1", (_normal((1, 2, 4, 3)), _normal((1, 2, 1, 3), 1),
                        _positions([2], 6)), fixed=(2,)),
        Case("rows-at-own-slots", (_normal((3, 2, 4, 2)), _normal((3, 2, 1, 2), 1),
                                   _positions([0, 3, 1], 4)), fixed=(2,)),
        Case("shared-slot", (_normal((2, 1, 2, 3)), _normal((2, 1, 1, 3), 1),
                             _positions([1, 1], 5)), fixed=(2,)),
    ],
    "concatenate": [
        Case("axis0", (_normal((2, 3)), _normal((4, 3), 1)), {"axis": 0}),
        Case("axis1", (_normal((2, 3)), _normal((2, 1), 1), _normal((2, 2), 2)),
             {"axis": 1}),
    ],
    "pack": [
        Case("mixed-ranks",
             (_normal((2, 3)), _normal((), 1), _normal((4,), 2), _normal((1,), 3))),
        Case("single", (_normal((3, 2, 2)),)),
    ],
    "upsample_nearest": [
        Case("factor-2", (_normal((2, 3, 2, 3)),), {"factor": 2}),
        Case("factor-3", (_normal((1, 2, 3, 2)),), {"factor": 3}),
    ],
    "scatter_sum": [
        Case(
            "two-shifted-taps",
            (_normal((2, 3, 3, 4)), _normal((2, 3, 3, 4), 1)),
            {
                "slices": ((slice(0, 3), slice(1, 4)), (slice(1, 4), slice(0, 3))),
                "shape": (2, 4, 4, 4),
            },
        )
    ],
    "sum": [
        Case("all", (_normal((3, 4)),)),
        Case("axis", (_normal((3, 4)),), {"axis": 1}),
        Case("axis-keepdims", (_normal((2, 3, 4)),), {"axis": 1, "keepdims": True}),
    ],
    "max": [
        Case("all", (_normal((3, 4)),)),
        Case("axis", (_normal((3, 4)),), {"axis": -1}),
        Case("axis-keepdims", (_normal((2, 5)),), {"axis": 1, "keepdims": True}),
    ],
    "exp": [Case("plain", (_normal((3, 4)),))],
    "exp2": [
        # The forward is exact on integer exponents (a power-of-two scale)
        # and steps between them; the VJP is the surrogate 2^a's.
        Case(
            "integer-exponents",
            (np.array([[-12.0, -3.0, 0.0], [1.0, 4.0, 8.0]]),),
            surrogate=lambda a: np.power(2.0, a),
        )
    ],
    "log": [Case("positive", (_positive((3, 4)),))],
    "sqrt": [Case("positive", (_positive((3, 4)),))],
    "tanh": [Case("plain", (_normal((3, 4)),))],
    "relu": [Case("off-kink", (_away_from(_normal((3, 4)), [0.0]),))],
    "abs": [Case("off-kink", (_away_from(_normal((3, 4)), [0.0]),))],
    "clip": [
        Case(
            "interval",
            (_away_from(_normal((3, 4)), [-0.5, 0.5]),),
            {"lo": -0.5, "hi": 0.5},
        )
    ],
    "clip_ste": [
        Case(
            "straight-through",
            (_normal((3, 4)),),
            {"lo": -0.5, "hi": 0.5},
            surrogate=lambda a, lo, hi: a,
        )
    ],
    "round_ste": [
        Case(
            "straight-through",
            (_normal((3, 4)),),
            surrogate=lambda a: a,
        )
    ],
    "elementwise": [
        Case(
            "tanh-table",
            (_normal((3, 4)),),
            {"forward_fn": _smooth_table, "grad_fn": _smooth_table_slope},
        )
    ],
    "elementwise_fused": [
        Case("tanh-table", (_normal((3, 4)),), {"fused_fn": _fused_table})
    ],
    "unbroadcast": [
        Case("identity", (_normal((3, 4)),), {"shape": (3, 4)}),
        Case("sum-leading", (_normal((3, 4)),), {"shape": (4,)}),
        Case("sum-keepdims", (_normal((2, 3, 4)),), {"shape": (2, 1, 4)}),
        Case("to-scalar", (_normal((3, 4)),), {"shape": ()}),
    ],
}


def _forward_array(name: str, case: Case, arrays) -> np.ndarray:
    """The finite-difference target: the surrogate, or the op forward."""
    if case.surrogate is not None:
        return np.asarray(case.surrogate(*arrays, **case.params), dtype=np.float64)
    out, _ = ops.run_forward(ops.get_op(name), *arrays, **case.params)
    return np.asarray(out, dtype=np.float64)


def numerical_grads(name: str, case: Case, weight: np.ndarray):
    """Central-difference gradient of ``sum(forward * weight)`` per input
    (``None`` for a fixed input)."""
    grads = []
    for position, base in enumerate(case.inputs):
        if position in case.fixed:
            grads.append(None)
            continue
        grad = np.zeros_like(base, dtype=np.float64)
        flat = grad.reshape(-1)
        for i in range(base.size):
            arrays = [a.copy() for a in case.inputs]
            arrays[position].reshape(-1)[i] += EPS
            plus = float(np.sum(_forward_array(name, case, arrays) * weight))
            arrays[position].reshape(-1)[i] -= 2 * EPS
            minus = float(np.sum(_forward_array(name, case, arrays) * weight))
            flat[i] = (plus - minus) / (2 * EPS)
        grads.append(grad)
    return grads


def autograd_grads(name: str, case: Case, weight: np.ndarray):
    """Registered-VJP gradients through apply_op + backward, per input."""
    tensors = [Tensor(a.copy(), requires_grad=position not in case.fixed)
               for position, a in enumerate(case.inputs)]
    out = apply_op(name, *tensors, **case.params)
    out.backward(weight)
    return [t.grad for t in tensors]


ALL_CASES = [
    pytest.param(name, case, id="%s-%s" % (name, case.label))
    for name in sorted(CASES)
    for case in CASES[name]
]


class TestRegistryGradcheck:
    def test_every_registered_op_has_cases(self):
        """Adding an op without a gradcheck case must fail the suite.

        ``vjp[...]`` wrapper ops are excluded: they are lazily-registered
        adapters around VJP functions the base-op cases already check, and
        are themselves registered non-differentiable (a second derivative
        would silently be wrong, so taking one raises instead).  So is
        ``lookup``: the pwl modules record it only for inputs that need no
        gradient, its backward raises (``test_graph.py::TestLookupNodes``),
        and the fused form they record otherwise has its own cases here.
        """
        registered = {
            name for name in ops.registered_ops()
            if not name.startswith("vjp[") and name != "lookup"
        }
        assert set(CASES) == registered
        assert all(CASES[name] for name in CASES)

    def test_binary_ops_include_broadcasting_cases(self):
        for name in ("add", "sub", "mul", "div"):
            shapes = {
                tuple(arr.shape for arr in case.inputs) for case in CASES[name]
            }
            assert any(a != b for a, b in shapes), name

    @pytest.mark.parametrize("name,case", ALL_CASES)
    def test_vjp_matches_finite_difference(self, name, case):
        out_shape = _forward_array(name, case, [a.copy() for a in case.inputs]).shape
        weight = _rng(99).standard_normal(out_shape)
        actual = autograd_grads(name, case, weight)
        expected = numerical_grads(name, case, weight)
        assert len(actual) == len(expected)
        for position, (got, want) in enumerate(zip(actual, expected)):
            if position in case.fixed:
                assert got is None, "fixed input %d received a gradient" % position
                continue
            assert got is not None, "input %d received no gradient" % position
            assert got.shape == case.inputs[position].shape
            np.testing.assert_allclose(
                got, want, atol=case.atol,
                err_msg="%s[%s] input %d" % (name, case.label, position),
            )

    def test_cache_write_position_has_no_gradient(self):
        case = CASES["cache_write"][0]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in case.inputs]
        with pytest.raises(RuntimeError, match="no gradient"):
            apply_op("cache_write", *tensors).sum().backward()


class TestCompositionGradcheck:
    """Spot checks of composed ops (the old tensor-level FD tests' role)."""

    @staticmethod
    def _check(fn, data, atol=1e-4):
        x = Tensor(data.copy(), requires_grad=True)
        fn(x).backward()
        grad = np.zeros_like(data)
        flat = grad.reshape(-1)
        for i in range(data.size):
            arr = data.copy()
            arr.reshape(-1)[i] += EPS
            plus = float(fn(Tensor(arr)).data)
            arr.reshape(-1)[i] -= 2 * EPS
            minus = float(fn(Tensor(arr)).data)
            flat[i] = (plus - minus) / (2 * EPS)
        np.testing.assert_allclose(x.grad, grad, atol=atol)

    def test_mean_and_var(self):
        self._check(lambda t: t.mean(), _normal((3, 4)))
        self._check(lambda t: t.mean(axis=1).sum(), _normal((3, 4), 1))
        self._check(lambda t: t.var(axis=-1).sum(), _normal((3, 4), 2), atol=1e-3)

    def test_scalar_minus_tensor_is_one_sub(self):
        """``2.0 - t`` dispatches ``__rsub__`` to one ``sub`` node whose
        gradient is ``-1`` everywhere (the lifted scalar gets none)."""
        from repro.graph import trace

        self._check(lambda t: (2.0 - t * t).sum(), _normal((3, 4)))
        graph = trace(lambda t: 2.0 - t, _normal((3, 4)))
        assert [node.op for node in graph.nodes] == ["sub"]
        x = Tensor(_normal((3, 4)), requires_grad=True)
        (2.0 - x).sum().backward()
        np.testing.assert_array_equal(x.grad, -np.ones((3, 4)))

    def test_softmax(self):
        from repro.nn import functional as F

        self._check(
            lambda t: (F.softmax(t) * Tensor(np.arange(4.0))).sum(), _normal((3, 4))
        )

    def test_gelu_layer_norm_chain(self):
        from repro.nn import functional as F

        weight, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        self._check(
            lambda t: F.layer_norm(F.gelu(t), weight, bias).sum(),
            _normal((3, 4)),
            atol=1e-3,
        )


class TestCapturedGradients:
    """A captured backward replayed from its compiled plan equals both
    the eager backward (bitwise) and the numerical derivative."""

    def _capture_grad_graph(self, x_val):
        from repro.graph import Tracer

        from repro.nn.tensor import tracing

        tracer = Tracer(capture_grads=True)
        x = Tensor(x_val.copy(), requires_grad=True)
        tracer.add_input(x)
        with tracing(tracer):
            ((x * 2.0).exp().tanh() + x).sum().backward()
        tracer.mark_output_vid(tracer.grad_vid(x))
        tracer.graph.validate()
        return tracer.graph

    def test_replay_matches_eager_and_finite_difference(self):
        from repro.graph import CompiledGraph, optimize

        x_val = _normal((3, 4), seed=11) * 0.3
        graph = self._capture_grad_graph(x_val)
        replayed = CompiledGraph(optimize(graph)).run(x_val)[0]
        x = Tensor(x_val.copy(), requires_grad=True)
        ((x * 2.0).exp().tanh() + x).sum().backward()
        np.testing.assert_array_equal(replayed, x.grad)

        def f(arr):
            return np.sum(np.tanh(np.exp(arr * 2.0)) + arr)

        numerical = np.zeros_like(x_val)
        flat = numerical.reshape(-1)
        for i in range(x_val.size):
            bumped = x_val.copy().reshape(-1)
            bumped[i] += EPS
            up = f(bumped.reshape(x_val.shape))
            bumped[i] -= 2 * EPS
            down = f(bumped.reshape(x_val.shape))
            flat[i] = (up - down) / (2 * EPS)
        np.testing.assert_allclose(replayed, numerical, atol=ATOL)
