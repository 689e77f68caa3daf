"""Generative parity of the train step's packed update and gather VJPs.

``SGD`` and ``Adam`` update every parameter with one expression over
packed vectors, and the gather VJPs skip ``np.add.at`` where an in-place
or strided add rounds the same.  ``oracles.py`` keeps the per-parameter
update loop and the ``add.at`` scatter they replaced.  Hypothesis draws
parameter shapes (0-d and size-1 included), the hyper-parameters, which
grads are missing, and indices with duplicates, negative steps and signed
zeros; every result must match the oracle bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompiledGraph, Tracer, optimize
from repro.nn import ops
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import tracing

from oracles import (
    ReferenceAdam,
    ReferenceSGD,
    reference_getitem_vjp,
    reference_upsample_index,
)

shapes = st.lists(
    st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple),
    min_size=1, max_size=5,
)
optimizer_kinds = st.sampled_from(("sgd", "sgd-momentum", "adam"))


def assert_bitwise_equal(actual, expected) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Values over 16 decades with signed zeros, so rounding order shows."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    zeros = rng.random(shape) < 0.15
    return np.where(zeros, np.copysign(0.0, rng.standard_normal(shape)), values)


def make(kind: str, params, weight_decay: float, reference: bool = False):
    """The packed optimizer ``kind``, or its per-parameter oracle."""
    if kind == "adam":
        cls = ReferenceAdam if reference else Adam
        return cls(params, lr=1e-2, weight_decay=weight_decay)
    cls = ReferenceSGD if reference else SGD
    momentum = 0.9 if kind == "sgd-momentum" else 0.0
    return cls(params, lr=1e-2, momentum=momentum, weight_decay=weight_decay)


def assert_same_state(optimizer, reference) -> None:
    for param, ref in zip(optimizer.parameters, reference.parameters):
        assert_bitwise_equal(param.data, ref.data)
    state, expected = optimizer.state_dict(), reference.state_dict()
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, list):
            assert len(state[key]) == len(value)
            for got, want in zip(state[key], value):
                assert_bitwise_equal(got, want)
        else:
            assert state[key] == value


@settings(max_examples=120, deadline=None)
@given(
    kind=optimizer_kinds,
    param_shapes=shapes,
    weight_decay=st.sampled_from((0.0, 1e-3)),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
)
def test_packed_step_matches_per_parameter_loop(kind, param_shapes, weight_decay,
                                                steps, seed):
    rng = np.random.default_rng(seed)
    initial = [spread(rng, shape) for shape in param_shapes]
    params = [Parameter(array.copy()) for array in initial]
    ref_params = [Parameter(array.copy()) for array in initial]
    optimizer = make(kind, params, weight_decay)
    reference = make(kind, ref_params, weight_decay, reference=True)
    for _ in range(steps):
        for param, ref in zip(params, ref_params):
            grad = spread(rng, param.shape) if rng.random() < 0.75 else None
            param.grad = None if grad is None else grad.copy()
            ref.grad = None if grad is None else grad.copy()
        optimizer.step()
        reference.step()
        assert_same_state(optimizer, reference)


def _quadratic_loss(params, weights, used):
    """``sum(w * p * p)`` over the used parameters; the others get no grad."""
    total = None
    for param, weight, use in zip(params, weights, used):
        if use:
            term = (param * param * weight).sum()
            total = term if total is None else total + term
    return total


@settings(max_examples=60, deadline=None)
@given(
    kind=optimizer_kinds,
    param_shapes=shapes,
    weight_decay=st.sampled_from((0.0, 1e-3)),
    steps=st.integers(2, 4),
    seed=st.integers(0, 2 ** 16),
    data=st.data(),
)
def test_traced_update_replays_the_per_parameter_loop(kind, param_shapes,
                                                      weight_decay, steps, seed,
                                                      data):
    """``trace_step``'s graph, replayed, equals the oracle step by step."""
    rng = np.random.default_rng(seed)
    used = data.draw(st.lists(st.booleans(), min_size=len(param_shapes),
                              max_size=len(param_shapes)))
    used[data.draw(st.integers(0, len(used) - 1))] = True
    initial = [rng.standard_normal(shape) for shape in param_shapes]
    weights = [rng.standard_normal(shape) for shape in param_shapes]
    params = [Parameter(array.copy()) for array in initial]
    ref_params = [Parameter(array.copy()) for array in initial]
    optimizer = make(kind, params, weight_decay)
    reference = make(kind, ref_params, weight_decay, reference=True)

    def oracle_step() -> None:
        reference.zero_grad()
        _quadratic_loss(ref_params, weights, used).backward()
        reference.step()

    # Step 1 is the trace: a real eager step under gradient capture.
    tracer = Tracer(capture_grads=True)
    param_vids = {id(param): tracer.add_input(param) for param in params}
    with tracing(tracer):
        loss = _quadratic_loss(params, weights, used)
        optimizer.zero_grad()
        loss.backward()
        feeds, updates, advance = optimizer.trace_step(tracer, param_vids)
    for vid, _apply in updates:
        tracer.mark_output_vid(vid)
    compiled = CompiledGraph(optimize(tracer.graph))
    oracle_step()
    assert_same_state(optimizer, reference)
    # Later steps replay the plan and rebind the flat outputs.
    for _ in range(steps - 1):
        arrays = [param.data for param in params]
        arrays.extend(fn() for _vid, fn in feeds)
        for (_vid, apply), array in zip(updates, compiled.run(*arrays)):
            apply(array)
        advance()
        oracle_step()
        assert_same_state(optimizer, reference)


# -- gather VJPs -----------------------------------------------------------------


@st.composite
def basic_indices(draw, shape):
    """An index of ints, slices (negative steps too), None and Ellipsis."""
    per_axis = []
    for size in shape:
        kind = draw(st.sampled_from(("int", "slice", "full")))
        if kind == "int":
            entry = [draw(st.integers(-size, size - 1))]
        elif kind == "slice":
            bound = st.one_of(st.none(), st.integers(-size - 1, size + 1))
            step = draw(st.one_of(st.none(), st.sampled_from((-3, -2, -1, 1, 2, 3))))
            entry = [slice(draw(bound), draw(bound), step)]
        else:
            entry = [slice(None)]
        if draw(st.integers(0, 5)) == 0:
            entry.append(None)
        per_axis.append(entry)
    # A partial index is valid, and Ellipsis may stand anywhere: the items
    # before it index the leading axes, those after it the trailing ones.
    head = draw(st.integers(0, len(shape)))
    items = [item for entry in per_axis[:head] for item in entry]
    if draw(st.booleans()):
        tail = draw(st.integers(head, len(shape)))
        items.append(Ellipsis)
        items.extend(item for entry in per_axis[tail:] for item in entry)
    if len(items) == 1 and draw(st.booleans()):
        return items[0]
    return tuple(items)


@st.composite
def advanced_indices(draw, shape):
    """Integer arrays (with duplicates) on some axes, slices on the rest."""
    axis = draw(st.integers(0, len(shape) - 1))
    items = [slice(None)] * len(shape)
    items[axis] = np.array(draw(st.lists(
        st.integers(-shape[axis], shape[axis] - 1), min_size=1, max_size=6,
    )))
    if len(shape) > 1 and draw(st.booleans()):
        other = (axis + 1) % len(shape)
        items[other] = np.array(draw(st.lists(
            st.integers(-shape[other], shape[other] - 1),
            min_size=len(items[axis]), max_size=len(items[axis]),
        )))
    return tuple(items)


getitem_vjp = ops.get_op("getitem").vjps[0]


@settings(max_examples=300, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    advanced=st.booleans(),
    seed=st.integers(0, 2 ** 16),
    data=st.data(),
)
def test_getitem_vjp_matches_add_at(shape, advanced, seed, data):
    rng = np.random.default_rng(seed)
    strategy = advanced_indices if advanced else basic_indices
    index = data.draw(strategy(shape))
    a = rng.standard_normal(shape)
    g = spread(rng, np.shape(a[index]))
    assert_bitwise_equal(getitem_vjp(g, None, None, a, index),
                         reference_getitem_vjp(g, a, index))


upsample_vjp = ops.get_op("upsample_nearest").vjps[0]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 3)] * 4),
    factor=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
)
def test_upsample_nearest_matches_fancy_index_and_add_at(shape, factor, seed):
    rng = np.random.default_rng(seed)
    x = spread(rng, shape)
    index = reference_upsample_index(shape[1], shape[2], factor)
    forward, _ = ops.run_forward(ops.get_op("upsample_nearest"), x, factor=factor)
    assert_bitwise_equal(forward, x[index])
    g = spread(rng, forward.shape)
    assert_bitwise_equal(upsample_vjp(g, forward, None, x, factor=factor),
                         reference_getitem_vjp(g, x, index))
