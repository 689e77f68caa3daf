"""Generative parity of the short-trailing-axis kernels with plain numpy.

Where an output's last axis holds only 2 to 7 elements, numpy runs one
inner loop of that many elements per row.  Two places work column by
column instead, and both must give the plain call's bits:

* the ``<op>[cols]`` graph kernels that ``layout_operands`` picks for an
  ``add``/``sub``/``mul``/``div`` whose operand broadcasts over the rows
  (:func:`repro.graph.passes._column_kernel`), against the plain ufunc,
  with the broadcast operand on either side;
* the column folds of ``reduce_sum``/``reduce_max`` (the ``sum``/``max``
  forwards) and of ``unbroadcast_array``, against ``np.add.reduce``,
  ``np.maximum.reduce`` and the ``ndarray.sum`` loop of
  ``oracles.reference_unbroadcast``.

Hypothesis draws the width (2-7), contiguous and strided-slice operands,
``(k,)``, ``(N, 1)`` and ``(1, ..., 1, k)`` broadcasts, keepdims on and
off, and values dense in ±0, ±inf, subnormals and NaNs of both signs with
and without payloads (quiet and signalling); some rows are all zeros of
either sign.  Every result is compared byte for byte.  The one allowance:
a lane where both operands of an ``add`` or ``mul`` are NaN may hold
either operand's NaN, because numpy itself returns one or the other
depending on its inner loop (see :func:`assert_same_bits`).

A few hand-built plans pin where the pass picks column kernels: the
depthwise-conv taps of a MiniEfficientViT train step do, a MiniSegformer
served at batch 1-16 and a batch-1 decode step do not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.baselines import uniform_pwl
from repro.functions.registry import get_function
from repro.graph import CompiledGraph, CompiledTrainStep, optimize, trace
from repro.graph.ir import Graph, Node
from repro.graph.passes import GRAPH_KERNELS, _UFUNCS
from repro.nn import ops
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.optim import Adam
from repro.nn.training import prepare_quantized_model
from repro.nn.transformer import DecoderConfig, MiniDecoder, step_inputs

from oracles import reference_unbroadcast

_NAN_BITS = np.array([
    0x7FF8000000000000, 0xFFF8000000000000,  # canonical, both signs
    0x7FF8000000000001, 0xFFF800000000ABCD,  # quiet, with payloads
    0x7FF0000000000001, 0xFFF4000000000000,  # signalling
], dtype=np.uint64).view(np.float64)
_SPECIALS = np.concatenate([np.array([
    0.0, -0.0, np.inf, -np.inf,
    5e-324, -5e-324, 2.225073858507201e-308, -1e-310,  # subnormals
    1.0, -2.5,
]), _NAN_BITS])


def draw_values(rng: np.random.Generator, shape, density: float) -> np.ndarray:
    """Values over 600 decades, ``density`` of them replaced by a special
    value, and about one row in twelve all signed zeros."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    special = rng.random(shape) < density
    values[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    if len(shape) > 1:
        zero_rows = rng.random(shape[:-1]) < 1 / 12
        values[zero_rows] = rng.choice([0.0, -0.0], size=(int(zero_rows.sum()), shape[-1]))
    return values


def operand(rng: np.random.Generator, shape, density: float, strided: bool):
    """An operand of ``shape``: contiguous, or every other element along
    each axis of an array twice its size."""
    if not strided:
        return draw_values(rng, shape, density)
    wide = draw_values(rng, tuple(2 * size for size in shape), density)
    return wide[tuple(slice(None, None, 2) for _ in shape)]


def bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want, a=None, b=None) -> None:
    """``got`` and ``want`` have the same shape and bytes.

    With operands ``a`` and ``b`` (an ``add`` or ``mul``), a lane where
    both are NaN may instead hold the other operand's NaN, quieted: numpy
    returns either, depending on its loop — a plain ``(n, 3) + (3,)``
    returns the first operand's NaN at one row and the second's from four.
    """
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == want.shape
    same = bits(got) == bits(want)
    if a is not None:
        quiet = np.uint64(0x0008000000000000)
        a_bits, b_bits = (np.broadcast_to(bits(x), got.shape) for x in (a, b))
        both_nan = np.broadcast_to(np.isnan(a) & np.isnan(b), got.shape)
        either = (bits(got) == a_bits | quiet) | (bits(got) == b_bits | quiet)
        same |= both_nan & either
    assert same.all()


def column_kernel(op: str, shapes, out_shape):
    """The ``<op>[cols]`` callable for operands of ``shapes``, with the
    params :func:`~repro.graph.passes.layout_operands` gives it."""
    params = {
        "ufunc": _UFUNCS[op],
        "shape": out_shape,
        "wide": tuple(shape[-1] == out_shape[-1] for shape in shapes),
    }
    return GRAPH_KERNELS[op + "[cols]"](params)


# -- the binary column kernels --------------------------------------------------

broadcasts = st.sampled_from(("k", "n1", "ones-k"))


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(sorted(_UFUNCS)),
    width=st.integers(2, 7),
    lead=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    broadcast=broadcasts,
    operand_first=st.booleans(),
    strided=st.booleans(),
    density=st.sampled_from((0.0, 0.3, 0.9)),
    seed=st.integers(0, 2 ** 16),
)
def test_column_kernel_matches_the_plain_ufunc(
    op, width, lead, broadcast, operand_first, strided, density, seed
):
    rng = np.random.default_rng(seed)
    out_shape = lead + (width,)
    small_shape = {
        "k": (width,),
        "n1": lead + (1,),
        "ones-k": (1,) * len(lead) + (width,),
    }[broadcast]
    event("broadcast %s" % broadcast)
    full = operand(rng, out_shape, density, strided)
    small = operand(rng, small_shape, density, strided and broadcast == "n1")
    a, b = (small, full) if operand_first else (full, small)
    ufunc = _UFUNCS[op]
    with np.errstate(all="ignore"):
        want = ufunc(a, b)
        got = column_kernel(op, (a.shape, b.shape), out_shape)(a, b)
    if op in ("add", "mul"):
        assert_same_bits(got, want, a, b)
    else:
        assert_same_bits(got, want)


def test_layout_picks_a_column_kernel_only_past_the_cutoff():
    """Through the pass: ``(rows, 3) * (3,)`` becomes ``mul[cols]`` from
    2048 rows, ``(rows, 5)`` never, and an operand of the output's own
    shape or a 0-d one keeps the plain call."""
    def planned(shape, other):
        graph = Graph(inputs=[0, 1], outputs=[2], num_values=3)
        graph.avals[0] = (shape, np.dtype(np.float64))
        graph.avals[1] = (other, np.dtype(np.float64))
        graph.avals[2] = (shape, np.dtype(np.float64))
        graph.nodes.append(Node(op="mul", inputs=(0, 1), output=2))
        return optimize(graph)

    assert planned((2048, 3), (3,)).nodes[0].op == "mul[cols]"
    assert planned((8, 16, 16, 3), (8, 1, 1, 3)).nodes[0].op == "mul[cols]"
    assert planned((2047, 3), (3,)).nodes[0].op == "mul"
    assert planned((8192, 5), (5,)).nodes[0].op == "mul"
    assert planned((4096, 3), (4096, 3)).nodes[0].op == "mul"
    assert planned((4096, 3), ()).nodes[0].op == "mul"
    rng = np.random.default_rng(0)
    x = draw_values(rng, (2048, 3), 0.3)
    w = draw_values(rng, (3,), 0.3)
    with np.errstate(all="ignore"):
        assert_same_bits(CompiledGraph(planned((2048, 3), (3,))).run(x, w)[0],
                         x * w, x, w)


# -- the reductions -------------------------------------------------------------


def reduced(rng, width, layout, density):
    """A ``(rows, width)``-trailing array the folds take, in ``layout``."""
    rows = int(rng.integers(ops.FOLD_MIN_ROWS, ops.FOLD_MIN_ROWS + 300))
    if layout == "contiguous":
        return draw_values(rng, (rows, width), density)
    if layout == "3-d":
        return draw_values(rng, (2, rows // 2, width), density)
    if layout == "column-slice":
        return draw_values(rng, (rows, width + 3), density)[:, 1:width + 1]
    if layout == "row-step":
        return draw_values(rng, (2 * rows, width), density)[::2]
    return draw_values(rng, (rows, 2 * width), density)[:, ::2]  # strided


layouts = st.sampled_from(("contiguous", "3-d", "column-slice", "row-step", "strided"))


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(2, 7),
    layout=layouts,
    keepdims=st.booleans(),
    axis_spelling=st.sampled_from((-1, "last", "tuple")),
    density=st.sampled_from((0.3, 0.9)),
    seed=st.integers(0, 2 ** 16),
)
def test_short_axis_reductions_match_numpy(
    width, layout, keepdims, axis_spelling, density, seed
):
    rng = np.random.default_rng(seed)
    a = reduced(rng, width, layout, density)
    axis = {-1: -1, "last": a.ndim - 1, "tuple": (a.ndim - 1,)}[axis_spelling]
    assert ops._folds_last_axis(a, axis)
    if a.strides[-1] == a.itemsize:
        event("max folds")
    with np.errstate(all="ignore"):
        for fold, reduce in ((ops.reduce_sum, np.add.reduce),
                             (ops.reduce_max, np.maximum.reduce)):
            assert_same_bits(fold(a, axis=axis, keepdims=keepdims),
                             reduce(a, axis=axis, keepdims=keepdims))


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(2, 7),
    layout=layouts,
    target=st.sampled_from(("rows", "leading", "both")),
    density=st.sampled_from((0.3, 0.9)),
    seed=st.integers(0, 2 ** 16),
)
def test_unbroadcast_matches_the_sum_loop(width, layout, target, density, seed):
    rng = np.random.default_rng(seed)
    grad = reduced(rng, width, layout, density)
    if grad.ndim == 2:
        grad = grad[None]
    shape = {
        "rows": grad.shape[:-1] + (1,),           # a row-wise bias: (B, N, 1)
        "leading": grad.shape[1:-1] + (1,),       # (N, 1)
        "both": (1,) + grad.shape[1:-1] + (1,),   # (1, N, 1)
    }[target]
    with np.errstate(all="ignore"):
        assert_same_bits(ops.unbroadcast_array(grad, shape),
                         reference_unbroadcast(grad, shape))


def test_reductions_keep_numpy_below_the_cutoffs():
    """Too few rows, a long or unit last axis, another axis, a broadcast
    (stride-0) axis or a non-float64 dtype take numpy's reduce."""
    rows = ops.FOLD_MIN_ROWS
    assert ops._folds_last_axis(np.zeros((rows, 5)), -1)
    assert not ops._folds_last_axis(np.zeros((rows - 1, 5)), -1)
    assert not ops._folds_last_axis(np.zeros((rows, 8)), -1)
    assert not ops._folds_last_axis(np.zeros((rows, 1)), -1)
    assert not ops._folds_last_axis(np.zeros((rows, 5)), 0)
    assert not ops._folds_last_axis(np.zeros((rows, 5)), None)
    assert not ops._folds_last_axis(np.zeros((rows, 5)), (0, 1))
    assert not ops._folds_last_axis(np.broadcast_to(np.zeros(5), (rows, 5)), -1)
    assert not ops._folds_last_axis(np.zeros((rows, 5), dtype=np.float32), -1)


# -- which plans pick column kernels --------------------------------------------


def _pwl_suite(operators):
    approximations = {
        name: uniform_pwl(get_function(name)).to_fixed_point(5) for name in operators
    }
    return PWLSuite(approximations=approximations, replace=set(operators))


def _column_ops(graph) -> list:
    return [node.op for node in graph.nodes if node.op.endswith("[cols]")]


def test_finetune_train_plan_runs_the_dwconv_taps_by_column():
    """The INT8 MiniEfficientViT fine-tune step at batch 8, 32x32: its nine
    depthwise-conv taps ``(8, H, W, 3) * (3,)`` and the bias add run as
    column kernels, and ``profile`` lists them under their own names."""
    model = MiniEfficientViT(ModelConfig(), suite=_pwl_suite(("hswish", "div")))
    prepare_quantized_model(model)
    model.train()
    step = CompiledTrainStep(model, Adam(model.parameters(), lr=2e-3))
    rng = np.random.default_rng(0)
    images = rng.normal(size=(8, 32, 32, 3))
    labels = rng.integers(0, 5, size=(8, 32, 32))
    step.step(images, labels)
    step.step(images, labels)
    (plan,) = step._cache.values()
    assert plan.compiled.ops["mul[cols]"] == 9
    assert plan.compiled.ops["add[cols]"] == 1
    from repro.nn import functional as F
    arrays = [images, *(param.data for param in plan.params),
              F.one_hot(labels, plan.onehot_width),
              *(fn() for _vid, fn in plan.feeds)]
    outputs, breakdown = plan.compiled.profile(*arrays)
    assert breakdown["mul[cols]"]["count"] == 9
    for got, want in zip(outputs, plan.compiled.run(*arrays)):
        assert bits(got).tobytes() == bits(want).tobytes()


@pytest.mark.parametrize("batch", [1, 2, 4, 8, 16])
def test_segment_serve_plans_pick_no_column_kernel(batch):
    """The served MiniSegformer (INT8, pwl exp/gelu/div/rsqrt) at every
    padded batch the server uses: its one short-axis node, the
    ``(B, 64, 5) + (5,)`` head bias add, stays a plain call."""
    model = MiniSegformer(ModelConfig(), suite=_pwl_suite(("exp", "gelu", "div", "rsqrt")))
    prepare_quantized_model(model)
    model.eval()
    images = np.random.default_rng(batch).normal(size=(batch, 32, 32, 3))
    model.predict(images, engine="eager")  # calibrates the quantizers
    assert _column_ops(optimize(trace(model, images))) == []


def test_batch1_decode_plans_pick_no_column_kernel():
    config = DecoderConfig(vocab_size=32, max_seq=128, embed_dim=64,
                           depth=2, num_heads=2, seed=3)
    model = MiniDecoder(config, suite=_pwl_suite(MiniDecoder.REPLACEABLE_OPERATORS))
    prepare_quantized_model(model)
    model.eval()
    model.calibrate([1, 5, 3])
    kv = model.new_cache(batch=1)
    for length in (1, 2, 4, 8, 16, 32, 64, 128):
        arrays = list(step_inputs(model, [1], [0], kv.ensure(length)))
        arrays.extend(kv.arrays())
        assert _column_ops(optimize(trace(model.step, *arrays))) == []
