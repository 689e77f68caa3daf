"""Generative parity of compiled replay: eager ≡ compiled, bit for bit.

Hypothesis draws straight-line programs over broadcasting input shapes
from the element-wise registry ops, ``sub``, ``sum``/``max`` reductions,
``reshape`` and the decode step's other ops: ``matmul``, ``transpose``,
basic and fancy ``getitem``, a wide-range pwl table (a ``lookup`` node in
an inference trace, ``elementwise_fused`` with its saved slope under
gradient capture) and ``cache_write`` into a 4-D view of a value.  0-d
literals sit on either side of a binary op and instructions repeat, so
:func:`~repro.graph.passes.cse` merges both nodes and 0-d constants.
Constant arrays of shape ``(1,)``, ``(n,)`` and ``(1, ..., 1, n)``, some
shared between consumers of different shapes, meet the binary ops on
either side, and ``clip`` bounds may be Python ints, so
:func:`~repro.graph.passes.layout_operands` relays operands.
Each program is traced once and replayed under ``optimize``'s passes:

* forward outputs equal the eager forward on fresh inputs of the traced
  shapes in bytes (NaN lanes included), shape, dtype and type;
* a captured backward (``Tracer(capture_grads=True)``) replays to the
  gradients an independent eager backward computes on those inputs, in
  bytes too: emitted VJP nodes carry avals, so their 0-d results are 0-d
  arrays on both sides;
* the replay holds exactly the buffer plan's live set at every kernel
  call, so a release the generated code skips is caught here, not only as
  a memory regression.

A few hand-built graphs pin the ``cse`` equality rules and the
``layout_operands`` guards directly.  The last tests hold INT8 models to
the same byte parity under parameter writes: a :class:`CompiledModel`
makes the parameters it captured read-only, so an in-place write raises,
and after a rebind (by hand or by an eager optimizer step) the re-traced
plan equals eager again; a compiled train step keeps its parameters and
optimizer buffers read-only too.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import sys
import types
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.baselines import uniform_pwl
from repro.functions import get_function
from repro.graph import (
    CompiledGraph,
    CompiledModel,
    CompiledTrainStep,
    Tracer,
    optimize,
    trace,
)
from repro.graph.ir import Graph, Node
from repro.graph.passes import (
    cse,
    dead_code_elimination,
    fold_constants,
    layout_operands,
)
from repro.nn import functional as F
from repro.nn.approx import PWLSuite, PWLWideRange
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor, apply_op, no_grad, tracing
from repro.nn.training import prepare_quantized_model

UNARY = ("neg", "exp", "tanh", "abs", "relu", "sqrt", "log", "round_ste")
BINARY = ("add", "sub", "mul", "div")
# Few distinct values, signed zeros included, so literals repeat (and their
# 0-d constants merge) but -0.0 and 0.0 must stay apart.
LITERALS = (0.5, 2.0, -1.0, 0.0, -0.0)
# ``repeat`` re-emits an earlier instruction and ``constant`` meets a
# constant array; each is listed twice to make it common, as is ``matmul``,
# which only values of two or more axes take.  ``folded``
# combines two literals, a 0-d value constant folding computes.
KINDS = ("unary", "binary", "literal", "constant", "constant", "folded",
         "reduce", "reshape", "clip", "pow", "repeat", "repeat",
         "matmul", "matmul", "transpose", "getitem", "lookup", "cache_write")
# Clip bounds: Python ints and floats, so int bounds meet float64 inputs.
CLIP_LOWS = (-1, 0, -1.0, -0.5, 0.0)
CLIP_WIDTHS = (1, 2, 0.5, 1.0)


@dataclasses.dataclass(frozen=True)
class Program:
    """Input shapes, instructions over value indices, and output indices.

    Value ``i < len(shapes)`` is input ``i``; instruction ``j`` defines
    value ``len(shapes) + j``.
    """

    shapes: Tuple[Tuple[int, ...], ...]
    instructions: Tuple[tuple, ...]
    outputs: Tuple[int, ...]
    # Constant operands by index; a ``constant`` instruction binds the same
    # array each time it names an index, so consumers share one constant.
    constants: Tuple[np.ndarray, ...] = ()

    def __call__(self, *inputs: Tensor) -> Tuple[Tensor, ...]:
        values: List[Tensor] = list(inputs)
        for instruction in self.instructions:
            values.append(_apply(instruction, values, self.constants))
        return tuple(values[i] for i in self.outputs)


def _apply(instruction: tuple, values: Sequence[Tensor],
           constants: Sequence[np.ndarray]) -> Tensor:
    kind = instruction[0]
    if kind == "unary":
        _, name, a = instruction
        x = values[a]
        return -x if name == "neg" else getattr(x, name)()
    if kind == "binary":
        _, name, a, b = instruction
        return _binary(name, values[a], values[b])
    if kind in ("literal", "constant"):
        _, name, a, operand, operand_first = instruction
        if kind == "constant":
            operand = Tensor(constants[operand])
        if operand_first:
            return _binary(name, operand, values[a])
        return _binary(name, values[a], operand)
    if kind == "folded":
        _, name, first, second = instruction
        return _binary(name, Tensor(first), Tensor(second))
    if kind == "reduce":
        _, name, a, axis, keepdims = instruction
        return getattr(values[a], name)(axis=axis, keepdims=keepdims)
    if kind == "reshape":
        _, a, shape = instruction
        return values[a].reshape(shape)
    if kind == "clip":
        _, name, a, lo, hi = instruction
        return getattr(values[a], name)(lo, hi)
    if kind == "pow":
        _, a, exponent = instruction
        return values[a] ** exponent
    if kind == "matmul":
        _, a, b, swap = instruction
        return values[a] @ (values[b].swapaxes(-1, -2) if swap else values[b])
    if kind == "transpose":
        _, a, axes = instruction
        return values[a].transpose(axes)
    if kind == "getitem":
        _, a, index = instruction
        # A fancy axis is held as a tuple so instructions compare by value.
        return values[a][tuple(np.array(item) if type(item) is tuple else item
                               for item in index)]
    if kind == "lookup":
        _, a = instruction
        return wide_range_table()(values[a])
    if kind == "cache_write":
        _, a, b, cache_shape, slot, position = instruction
        token = values[b].reshape(cache_shape)[:, :, slot:slot + 1]
        return apply_op("cache_write", values[a].reshape(cache_shape), token,
                        Tensor(constants[position]))
    raise AssertionError(kind)


@functools.lru_cache(maxsize=None)
def wide_range_table() -> PWLWideRange:
    """The DIV multi-range pwl: it records a ``lookup`` node when traced for
    inference and ``elementwise_fused`` when its input needs a gradient."""
    return PWLWideRange("div", uniform_pwl(get_function("div"), 8).to_fixed_point(5))


def _binary(name: str, a, b):
    if name == "add":
        return a + b
    if name == "sub":
        return a - b
    if name == "mul":
        return a * b
    return a / b


def _broadcasts(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    try:
        np.broadcast_shapes(a, b)
    except ValueError:
        return False
    return True


@st.composite
def broadcastable(draw, base: Tuple[int, ...]) -> Tuple[int, ...]:
    """``base`` with some leading dims dropped and some dims set to 1."""
    drop = draw(st.integers(0, len(base)))
    shape = base[drop:]
    return tuple(
        1 if draw(st.booleans()) else size for size in shape
    )


def _matmul_shape(a: Tuple[int, ...], b: Tuple[int, ...], swap: bool):
    """The shape of ``a @ b`` (``b`` with its last two axes swapped if
    ``swap``) for operands of two or more axes, else ``None``."""
    if len(a) < 2 or len(b) < 2:
        return None
    if swap:
        b = b[:-2] + b[-1:] + b[-2:-1]
    try:
        return np.matmul(np.zeros(a), np.zeros(b)).shape
    except ValueError:
        return None


@st.composite
def basic_or_fancy_index(draw, shape: Tuple[int, ...]) -> tuple:
    """A non-empty ``getitem`` index over ``shape``: per axis a full or
    strided slice or an int, at most one fancy axis (repeats allowed, held
    as a tuple), and maybe a new axis."""
    index: List[object] = []
    fancy = False
    for size in shape:
        pick = draw(st.sampled_from(("all", "int", "slice", "fancy")))
        if pick == "int":
            index.append(draw(st.integers(-size, size - 1)))
        elif pick == "slice":
            start = draw(st.integers(0, size - 1))
            step = draw(st.sampled_from((1, 2, -1)))
            index.append(slice(start, None, step))
        elif pick == "fancy" and not fancy:
            fancy = True
            index.append(tuple(draw(st.lists(st.integers(0, size - 1),
                                             min_size=1, max_size=3))))
        else:
            index.append(slice(None))
    if draw(st.booleans()):
        index.insert(draw(st.integers(0, len(index))), None)
    return tuple(index)


@st.composite
def programs(draw) -> Program:
    base = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple))
    shapes = tuple(
        draw(broadcastable(base)) for _ in range(draw(st.integers(1, 3)))
    )
    value_shapes: List[Tuple[int, ...]] = list(shapes)
    instructions: List[tuple] = []
    repeats: List[int] = []
    constants: List[np.ndarray] = []
    # Whether each value depends on an input; ``folded`` values do not, and
    # only serve as the second operand of a binary op.
    dynamic: List[bool] = [True] * len(shapes)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(KINDS))
        a = draw(st.sampled_from([i for i, d in enumerate(dynamic) if d]))
        shape = value_shapes[a]
        depends = True
        if kind == "repeat":
            if not instructions:
                continue
            # Recompute an earlier instruction on the same operands: the
            # duplicate cse must merge.
            instruction = draw(st.sampled_from(instructions))
            original = len(shapes) + instructions.index(instruction)
            out = value_shapes[original]
            depends = dynamic[original]
            instructions.append(instruction)
            value_shapes.append(out)
            dynamic.append(depends)
            # Combine the twins so the duplicate is consumed (and merging it
            # turns ``dup op original`` into ``original op original``).
            instruction = ("binary", draw(st.sampled_from(BINARY)),
                           len(value_shapes) - 1, original)
            repeats.append(len(value_shapes))
        elif kind == "unary":
            instruction = ("unary", draw(st.sampled_from(UNARY)), a)
            out = shape
        elif kind == "binary":
            partners = [
                j for j, other in enumerate(value_shapes)
                if _broadcasts(shape, other)
            ]
            b = draw(st.sampled_from(partners))
            instruction = ("binary", draw(st.sampled_from(BINARY)), a, b)
            out = np.broadcast_shapes(shape, value_shapes[b])
        elif kind == "literal":
            instruction = ("literal", draw(st.sampled_from(BINARY)), a,
                           draw(st.sampled_from(LITERALS)), draw(st.booleans()))
            out = shape
        elif kind == "constant":
            # Often an array already bound that broadcasts here, so one
            # constant feeds consumers of different shapes.
            fits = [index for index, constant in enumerate(constants)
                    if _broadcasts(shape, constant.shape)]
            if fits and draw(st.booleans()):
                index = draw(st.sampled_from(fits))
            else:
                n = shape[-1] if shape else 1
                unit_axes = (1,) * (max(len(shape), 2) - 1)
                const_shape = draw(st.sampled_from(((1,), (n,), unit_axes + (n,))))
                index = len(constants)
                constants.append(np.array(draw(st.lists(
                    st.sampled_from(LITERALS + (1.5, -3.0)),
                    min_size=int(np.prod(const_shape)),
                    max_size=int(np.prod(const_shape)),
                ))).reshape(const_shape))
            instruction = ("constant", draw(st.sampled_from(BINARY)), a,
                           index, draw(st.booleans()))
            out = np.broadcast_shapes(shape, constants[index].shape)
        elif kind == "folded":
            instruction = ("folded", draw(st.sampled_from(BINARY)),
                           draw(st.sampled_from(LITERALS)),
                           draw(st.sampled_from(LITERALS)))
            out = ()
            depends = False
        elif kind == "reduce":
            axis = draw(st.sampled_from([None] + list(range(len(shape)))))
            keepdims = draw(st.booleans())
            instruction = ("reduce", draw(st.sampled_from(("sum", "max"))), a,
                           axis, keepdims)
            out = np.zeros(shape).sum(axis=axis, keepdims=keepdims).shape
        elif kind == "reshape":
            size = int(np.prod(shape))
            out = draw(st.sampled_from(
                [(size,), (1, size), (1, 1, size), (size, 1), shape[::-1]]
            ))
            if int(np.prod(out)) != size:
                out = (size,)
            instruction = ("reshape", a, tuple(out))
        elif kind == "clip":
            lo = draw(st.sampled_from(CLIP_LOWS))
            instruction = ("clip", draw(st.sampled_from(("clip", "clip_ste"))),
                           a, lo, lo + draw(st.sampled_from(CLIP_WIDTHS)))
            out = shape
        elif kind == "pow":
            instruction = ("pow", a, draw(st.sampled_from((2, 3.0, 0.5))))
            out = shape
        elif kind == "matmul":
            # Against any value whose shape fits, as it is or with its last
            # two axes swapped; ``a`` with itself swapped always fits.
            fits = {
                (j, swap): _matmul_shape(shape, other, swap)
                for j, other in enumerate(value_shapes) for swap in (False, True)
            }
            partners = [pair for pair, out in fits.items() if out is not None]
            if not partners:
                continue
            b, swap = draw(st.sampled_from(partners))
            out = fits[b, swap]
            instruction = ("matmul", a, b, swap)
        elif kind == "transpose":
            axes = tuple(draw(st.permutations(range(len(shape)))))
            instruction = ("transpose", a, axes)
            out = tuple(shape[axis] for axis in axes)
        elif kind == "getitem":
            index = draw(basic_or_fancy_index(shape))
            instruction = ("getitem", a, index)
            out = _apply(instruction, [Tensor(np.zeros(shape))] * (a + 1), ()).shape
        elif kind == "lookup":
            instruction = ("lookup", a)
            out = shape
        else:
            # The cache is ``a`` viewed as (B, H, capacity, d), with B or H
            # a unit axis when ``a`` has three axes; the token is one slot
            # of a same-shaped value, written at a drawn slot per row.
            if len(shape) > 4:
                continue
            padded = (1,) * (3 - len(shape)) + shape
            cache_shape = padded if len(padded) == 4 else draw(st.sampled_from(
                ((1,) + padded, padded[:1] + (1,) + padded[1:])
            ))
            batch, _, capacity, _ = cache_shape
            twins = [j for j, other in enumerate(value_shapes)
                     if other == shape and dynamic[j]]
            b = draw(st.sampled_from(twins))
            slots = draw(st.lists(st.integers(0, capacity - 1),
                                  min_size=batch, max_size=batch))
            width = capacity + draw(st.integers(0, 2))
            position = len(constants)
            constants.append(np.eye(width)[slots])
            instruction = ("cache_write", a, b, cache_shape,
                           draw(st.integers(0, capacity - 1)), position)
            out = cache_shape
        instructions.append(instruction)
        value_shapes.append(tuple(out))
        dynamic.append(depends)
    if not dynamic[-1]:
        # The last output must depend on an input, or nothing has a gradient.
        instructions.append(("binary", "add", len(value_shapes) - 1, 0))
        value_shapes.append(value_shapes[0])
    last = len(value_shapes) - 1
    # Twin combinations are outputs, so dead-code elimination cannot hide
    # the duplicates.
    extra = draw(st.lists(st.integers(0, last), max_size=2)) + repeats
    return Program(shapes, tuple(instructions), tuple(dict.fromkeys([last] + extra)),
                   tuple(constants))


def draw_inputs(rng: np.random.Generator, shapes) -> List[np.ndarray]:
    """Values near the op kinks (0, +-1, +-0.5) and signed zeros."""
    arrays = []
    for shape in shapes:
        values = rng.standard_normal(shape) * 2.0
        snap = rng.random(shape) < 0.2
        kinks = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], size=shape)
        arrays.append(np.where(snap, kinks, values))
    return arrays


def assert_bitwise_equal(actual, expected) -> None:
    """Same type, dtype, shape and bytes, NaN lanes included.

    A replay wraps each 0-d op result in a 0-d array as eager does, so 0-d
    values never take numpy's scalar paths (where ``nan + -nan`` can keep
    the other operand's sign) on one side only.
    """
    assert type(actual) is type(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _relaid_uses(graph: Graph) -> int:
    """Nodes whose constant operand :func:`layout_operands` relays."""
    relaid = layout_operands(graph)
    return sum(old.inputs != new.inputs
               for old, new in zip(graph.nodes, relaid.nodes))


def eager_forward(program: Program, arrays) -> List[np.ndarray]:
    with no_grad():
        return [t.data for t in program(*[Tensor(a) for a in arrays])]


def eager_grads(program: Program, arrays, weights) -> List[np.ndarray]:
    """Input gradients of ``sum(w_k * out_k)`` from a plain eager backward."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    _weighted_loss(program(*tensors), weights).backward()
    return [t.grad for t in tensors]


def _weighted_loss(outputs, weights) -> Tensor:
    loss = None
    for output, weight in zip(outputs, weights):
        term = (output * weight).sum()
        loss = term if loss is None else loss + term
    return loss


def capture_grad_graph(program: Program, arrays, weights) -> Tuple[Graph, List[bool]]:
    """One real eager step under gradient capture; outputs are the input
    gradients (inputs the loss does not reach are reported unused)."""
    tracer = Tracer(capture_grads=True)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    for tensor in tensors:
        tracer.add_input(tensor)
    with tracing(tracer):
        _weighted_loss(program(*tensors), weights).backward()
    used = []
    for tensor in tensors:
        vid = tracer.grad_vid(tensor)
        used.append(vid is not None)
        if vid is not None:
            tracer.mark_output_vid(vid)
    tracer.graph.validate()
    return tracer.graph, used


def replay_live_counts(compiled: CompiledGraph, *inputs) -> List[Tuple[int, int]]:
    """``(bound locals, plan-live slots)`` at every Python-level kernel call
    the generated replay makes.

    The plan's live set before step ``i`` is every input and earlier step
    output its ``releases`` have not yet dropped.  Steps whose kernel is a
    ufunc make no Python call and are not observed.
    """
    code = compiled._replay.__code__
    kernels = {
        getattr(step.fn, "__func__", step.fn).__code__
        for step in compiled._steps
        if isinstance(step.fn, (types.FunctionType, types.MethodType))
    }
    bound: List[int] = []

    def profiler(frame, event_name, arg):
        caller = frame.f_back
        if (event_name == "call" and frame.f_code in kernels
                and caller is not None and caller.f_code is code):
            bound.append(len(caller.f_locals))

    # No collection mid-replay: a gc callback would be a call from the
    # replay frame too.
    gc.disable()
    sys.setprofile(profiler)
    try:
        compiled.run(*inputs)
    finally:
        sys.setprofile(None)
        gc.enable()
    expected: List[int] = []
    live = set(compiled._input_slots)
    for step in compiled._steps:
        if isinstance(step.fn, (types.FunctionType, types.MethodType)):
            expected.append(len(live))
        live.add(step.out)
        if step.saved >= 0:
            live.add(step.saved)
        live.difference_update(step.releases)
    assert len(bound) == len(expected)
    return list(zip(bound, expected))


@settings(max_examples=150, deadline=None)
@given(program=programs(), seed=st.integers(0, 2 ** 16))
def test_forward_replay_matches_eager(program, seed):
    check_forward_replay(program, seed)


@st.composite
def shared_constant_programs(draw) -> Program:
    """One constant array on either side of a binary op with one input of
    each shape, in any order: its own, more unit axes, a real broadcast."""
    n = draw(st.integers(1, 3))
    const_shape = draw(st.sampled_from(((1,), (n,), (1, n), (1, 1, n))))
    size = int(np.prod(const_shape))
    constant = np.array(draw(st.lists(
        st.sampled_from(LITERALS + (1.5, -3.0)), min_size=size, max_size=size,
    ))).reshape(const_shape)
    shapes = tuple(draw(st.permutations(
        ((), (n,), (1, n), (1, 1, n), (2, n), (2, 1, n))
    )))
    instructions = tuple(
        ("constant", draw(st.sampled_from(BINARY)), index, 0, draw(st.booleans()))
        for index in range(len(shapes))
    )
    outputs = tuple(range(len(shapes), 2 * len(shapes)))
    return Program(shapes, instructions, outputs, (constant,))


@settings(max_examples=100, deadline=None)
@given(program=shared_constant_programs(), seed=st.integers(0, 2 ** 16))
def test_shared_constant_replays_in_every_layout(program, seed):
    check_forward_replay(program, seed)


def check_forward_replay(program: Program, seed: int) -> None:
    """Trace on one draw of inputs, replay the optimized plan on another:
    outputs equal eager's, and the replay holds exactly the plan's live set."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        graph = trace(program, *draw_inputs(rng, program.shapes))
        arrays = draw_inputs(rng, program.shapes)
        expected = eager_forward(program, arrays)
        optimized = optimize(graph)
        without_cse = dead_code_elimination(layout_operands(fold_constants(graph)))
        if len(optimized.nodes) < len(without_cse.nodes):
            event("cse merged nodes")
        if len(optimized.constants) < len(without_cse.constants):
            event("cse merged constants")
        relaid = _relaid_uses(cse(fold_constants(graph)))
        if relaid:
            event("layout relaid %s" % ("several uses" if relaid > 1 else "one use"))
        compiled = CompiledGraph(optimized)
        for got, want in zip(compiled.run(*arrays), expected):
            assert_bitwise_equal(got, want)
        for got, want in replay_live_counts(compiled, *arrays):
            assert got == want


@settings(max_examples=100, deadline=None)
@given(program=programs(), seed=st.integers(0, 2 ** 16))
def test_captured_vjps_match_eager_grads(program, seed):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        with no_grad():
            shapes = [t.shape for t in program(
                *[Tensor(a) for a in draw_inputs(rng, program.shapes)]
            )]
        weights = [rng.standard_normal(shape) for shape in shapes]
        graph, used = capture_grad_graph(
            program, draw_inputs(rng, program.shapes), weights
        )
        arrays = draw_inputs(rng, program.shapes)
        expected = [
            grad for grad, use in zip(eager_grads(program, arrays, weights), used)
            if use
        ]
        got = CompiledGraph(optimize(graph)).run(*arrays)
        assert len(got) == len(expected)
        for actual, want in zip(got, expected):
            assert_bitwise_equal(actual, want)


# -- the cse equality rules, one hand-built graph each -------------------------


def _x():
    return np.random.default_rng(0).standard_normal((2, 4))


def test_cse_merges_the_twin_layer_norm_mean():
    weight, bias = np.ones(4), np.zeros(4)
    graph = trace(lambda x: F.layer_norm(x, Tensor(weight), Tensor(bias)), _x())
    merged = cse(graph)
    ops = [node.op for node in graph.nodes]
    merged_ops = [node.op for node in merged.nodes]
    # ``var`` recomputes the mean (a sum and a 1/n multiply) and x - mean.
    assert ops.count("sum") - merged_ops.count("sum") == 1
    assert ops.count("sub") - merged_ops.count("sub") == 1
    assert_bitwise_equal(CompiledGraph(merged).run(_x())[0],
                         CompiledGraph(graph).run(_x())[0])


def test_cse_keeps_equal_parameters_apart():
    w1, w2 = np.full(4, 0.5), np.full(4, 0.5)
    graph = trace(lambda x: x * Tensor(w1) + x * Tensor(w2), _x())
    assert [node.op for node in cse(graph).nodes] == ["mul", "mul", "add"]


def test_cse_merges_one_array_bound_twice():
    w = np.full(4, 0.5)
    graph = trace(lambda x: x * Tensor(w) + x * Tensor(w), _x())
    assert [node.op for node in cse(graph).nodes] == ["mul", "add"]


def test_cse_keeps_signed_zero_literals_and_params_apart():
    graph = trace(lambda x: (x * 0.0) + (x * -0.0), _x())
    assert [node.op for node in cse(graph).nodes] == ["mul", "mul", "add"]
    graph = trace(lambda x: x.clip(0.0, 1.0) + x.clip(-0.0, 1.0), _x())
    assert [node.op for node in cse(graph).nodes] == ["clip", "clip", "add"]
    graph = trace(lambda x: (x * 0.5) + (x * 0.5), _x())
    assert [node.op for node in cse(graph).nodes] == ["mul", "add"]


def test_cse_skips_consumed_saved_outputs_and_keeps_graph_outputs():
    def fused(a):
        return a * 2.0, a + 1.0

    graph = Graph(inputs=[0], num_values=1)
    twin_a = graph.new_value(), graph.new_value()
    twin_b = graph.new_value(), graph.new_value()
    for out, saved in (twin_a, twin_b):
        graph.nodes.append(Node(op="elementwise_fused", inputs=(0,), output=out,
                                params={"fused_fn": fused}, saved_output=saved))
    total = graph.new_value()
    graph.nodes.append(Node(op="add", inputs=(twin_a[1], twin_b[1]), output=total))
    first, second = graph.new_value(), graph.new_value()
    graph.nodes.append(Node(op="neg", inputs=(total,), output=first))
    graph.nodes.append(Node(op="neg", inputs=(total,), output=second))
    graph.outputs = [twin_a[0], twin_b[0], first, second]
    merged = cse(graph)
    assert [node.op for node in merged.nodes] == [node.op for node in graph.nodes]
    outputs = CompiledGraph(merged).run(_x())
    assert outputs[2] is not outputs[3]


def test_profile_returns_run_outputs_and_every_step():
    graph = trace(lambda x: ((x - 1.0) * (x - 1.0)).sum(axis=-1), _x())
    compiled = CompiledGraph(optimize(graph))
    outputs, breakdown = compiled.profile(_x(), repeats=3)
    assert_bitwise_equal(outputs[0], compiled.run(_x())[0])
    assert sum(row["count"] for row in breakdown.values()) == compiled.num_steps
    assert breakdown == {
        "sub": {"count": 1, "seconds": pytest.approx(breakdown["sub"]["seconds"])},
        "mul": {"count": 1, "seconds": pytest.approx(breakdown["mul"]["seconds"])},
        "sum": {"count": 1, "seconds": pytest.approx(breakdown["sum"]["seconds"])},
    }
    assert all(row["seconds"] > 0 for row in breakdown.values())
    with pytest.raises(ValueError, match="expects 1 input"):
        compiled.profile()


# -- layout_operands, one hand-built graph each --------------------------------


def _binary_graph(op: str, dynamics, constant, constant_first: bool = False):
    """``x_i <op> c`` for each dynamic input ``x_i`` over one shared
    constant ``c``, with the avals numpy gives the results."""
    graph = Graph()
    const_vid = graph.add_constant(constant)
    for example in dynamics:
        vid = graph.new_value()
        graph.inputs.append(vid)
        graph.avals[vid] = (example.shape, example.dtype)
        out = graph.new_value()
        inputs = (const_vid, vid) if constant_first else (vid, const_vid)
        graph.nodes.append(Node(op=op, inputs=inputs, output=out))
        result = example * constant
        graph.avals[out] = (result.shape, result.dtype)
        graph.outputs.append(out)
    return graph


def _constant_shapes(graph: Graph) -> List[Tuple[int, ...]]:
    """Shape of the constant operand of every node, in node order."""
    return [
        next(graph.constants[vid].shape for vid in node.inputs
             if vid in graph.constants)
        for node in graph.nodes
    ]


def test_layout_gives_each_use_the_shape_it_replays():
    rng = np.random.default_rng(3)
    dynamics = [rng.standard_normal(shape)
                for shape in ((4,), (1, 4), (1, 1, 4), (2, 4))]
    # Each use gets the output's shape, except against (2, 4), which needs a
    # real broadcast, and where the constant would add an axis.
    for constant, shapes in (
        (rng.standard_normal(4), [(4,), (1, 4), (1, 1, 4), (4,)]),
        (rng.standard_normal((1, 4)), [(1, 4), (1, 4), (1, 1, 4), (1, 4)]),
    ):
        for op, constant_first in (("sub", True), ("div", False)):
            graph = _binary_graph(op, dynamics, constant, constant_first)
            relaid = layout_operands(graph)
            assert _constant_shapes(relaid) == shapes
            want = [
                (constant - x) if constant_first else (x / constant)
                for x in dynamics
            ]
            for got, expected in zip(CompiledGraph(relaid).run(*dynamics), want):
                assert_bitwise_equal(got, expected)
    graph = _binary_graph("mul", dynamics[:3], np.array([0.5]))
    assert _constant_shapes(layout_operands(graph)) == [(), (), ()]


def test_layout_leaves_non_float64_operands_alone():
    """Only float64 meets float64: a float32 operand meeting a (1,) float64
    or float32 constant, and a float32 ``clip`` with int bounds, keep their
    layout, and the replay keeps numpy's result dtypes."""
    x32 = np.linspace(-2.0, 2.0, 4, dtype=np.float32).reshape(1, 1, 4)
    for constant in (np.array([0.5]), np.array([0.5], dtype=np.float32)):
        graph = _binary_graph("mul", [x32], constant)
        relaid = layout_operands(graph)
        assert _constant_shapes(relaid) == [(1,)]
        assert_bitwise_equal(CompiledGraph(relaid).run(x32)[0], x32 * constant)
    graph = Graph(inputs=[0], num_values=2, outputs=[1])
    graph.avals[0] = graph.avals[1] = (x32.shape, x32.dtype)
    graph.nodes.append(Node(op="clip", inputs=(0,), output=1,
                            params={"lo": -1, "hi": 1}))
    relaid = layout_operands(graph)
    assert relaid.nodes[0].params == {"lo": -1, "hi": 1}
    assert_bitwise_equal(CompiledGraph(relaid).run(x32)[0], np.clip(x32, -1, 1))


def test_compiled_graph_drops_the_avals():
    """A plan keeps its step table, constants and a summary; the graph,
    its avals and the memory plan go once the replay is generated."""
    graph = trace(lambda x: (x * 2.0).sum(), _x())
    assert graph.avals
    compiled = CompiledGraph(optimize(graph))
    assert not hasattr(compiled, "graph") and not hasattr(compiled, "plan")
    assert compiled.ops == {"mul": 1, "sum": 1}
    assert (compiled.num_steps, compiled.peak_live) == (2, 2)


# -- in-place parameter writes ---------------------------------------------------


def build_int8(model_cls):
    """A small INT8 model on uniform 8-entry pwls."""
    operators = model_cls.REPLACEABLE_OPERATORS
    suite = PWLSuite(
        {op: uniform_pwl(get_function(op), 8).to_fixed_point(5) for op in operators},
        replace=set(operators),
    )
    model = model_cls(ModelConfig(image_size=16, embed_dim=16, depth=1), suite=suite)
    prepare_quantized_model(model)
    return model


@functools.lru_cache(maxsize=None)
def int8_model(model_cls):
    """:func:`build_int8` in eval mode with its compiled wrapper, built once."""
    model = build_int8(model_cls)
    model.eval()
    return model, CompiledModel(model)


# Each form writes into the parameter's array without rebinding ``.data``.
IN_PLACE_WRITES = {
    "slice": lambda data, value: data.__setitem__(Ellipsis, value),
    "element": lambda data, value: data.__setitem__((0,) * data.ndim, value.flat[0]),
    "augmented": lambda data, value: data.__iadd__(value),
    "copyto": lambda data, value: np.copyto(data, value),
}


@settings(max_examples=25, deadline=None)
@given(
    model_cls=st.sampled_from((MiniSegformer, MiniEfficientViT)),
    picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
    write=st.sampled_from(sorted(IN_PLACE_WRITES)),
    gain=st.floats(0.5, 1.5),
    offset=st.floats(-0.1, 0.1),
    seed=st.integers(0, 2 ** 16),
)
def test_in_place_parameter_write_raises_and_rebind_replays_eager(
        model_cls, picks, write, gain, offset, seed):
    model, compiled = int8_model(model_cls)
    images = np.random.default_rng(seed).normal(size=(2, 16, 16, 3))
    compiled(images)
    params = list(model.parameters())
    written = [params[i] for i in sorted({pick % len(params) for pick in picks})]
    for param in written:
        before = param.data.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            IN_PLACE_WRITES[write](param.data, param.data * gain + offset)
        assert param.data.tobytes() == before
    for param in written:
        param.data = param.data * gain + offset
    with no_grad():
        eager = model(Tensor(images)).data
    assert_bitwise_equal(compiled(images), eager)


def test_compiled_train_step_keeps_its_state_read_only():
    """The traced step and every replay rebind parameters and optimizer
    buffers; each time the new arrays are frozen like a captured plan's."""
    model = build_int8(MiniEfficientViT)
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-3)
    step = CompiledTrainStep(model, optimizer)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(2, 16, 16, 3))
    labels = rng.integers(0, 5, size=(2, 16, 16))
    for _ in range(3):  # the traced step, then two replays
        step.step(images, labels)
        for array in [param.data for param in model.parameters()] + optimizer._m + optimizer._v:
            with pytest.raises(ValueError, match="read-only"):
                np.add(array, 0.0, out=array)
    assert (step.compile_count, step.replay_count) == (1, 2)


@pytest.mark.parametrize("make_optimizer", [
    lambda params: SGD(params, lr=1e-2, momentum=0.9),
    lambda params: Adam(params, lr=1e-3),
], ids=["sgd_momentum", "adam"])
def test_compiled_model_follows_eager_optimizer_steps(make_optimizer):
    """Eager steps rebind the parameters a plan captured (no in-place write
    trips the read-only guard), so the compiled output follows them."""
    model = build_int8(MiniSegformer)
    model.eval()
    compiled = CompiledModel(model)
    optimizer = make_optimizer(model.parameters())
    rng = np.random.default_rng(0)
    images = rng.normal(size=(2, 16, 16, 3))
    labels = rng.integers(0, 5, size=(2, 16, 16))
    before = compiled(images)
    for _ in range(2):
        optimizer.zero_grad()
        F.cross_entropy(model(Tensor(images)), labels).backward()
        optimizer.step()
        with no_grad():
            eager = model(Tensor(images)).data
        assert_bitwise_equal(compiled(images), eager)
    assert not np.array_equal(eager, before)
