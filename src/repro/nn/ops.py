"""First-class op/VJP registry for the autograd substrate.

Every differentiable operation of :class:`repro.nn.tensor.Tensor` is a named
:class:`Op`: a pure array-level ``forward`` paired with its vector-Jacobian
products, registered in a process-wide table.  The design follows the
classic VJP-table shape of the autograd lineage (``defvjp`` per argument
number): gradients are *data*, not inline closures, so

* new kernels plug in with one :func:`register_op` call,
* the gradcheck harness (``tests/test_gradcheck.py``) can enumerate the
  whole table and finite-difference every entry,
* graph construction, ``no_grad`` short-circuiting and unbroadcast handling
  live in exactly one place (``Tensor.apply_op`` / ``Tensor.backward``)
  instead of being re-implemented per op.

An op's ``forward(*arrays, **params)`` returns the output array, or an
``(output, saved)`` pair when the backward pass needs intermediates beyond
the inputs and the output (e.g. the fused table lookup stashes the selected
slopes).  VJPs come in two flavours:

* ``vjps`` — a tuple with one function per positional input,
  ``vjp(grad, ans, saved, *arrays, **params) -> grad_for_that_input``;
  only the entries whose inputs require grad are invoked.
* ``vjp_all`` — for variadic ops (``concatenate``, ``scatter_sum``,
  ``pack``), one function returning the full list of input gradients.

VJP outputs may be broadcast-shaped; the caller sums them back to each
input's shape (the single unbroadcast site).

Gather VJPs scatter-add into zeros.  ``np.add.at`` is the general form but
dispatches per element, so the cheap equivalents are used where they round
identically: ``getitem`` with a basic index (which cannot select an element
twice) adds in place, and ``upsample_nearest`` adds its ``factor**2``
strided slices in ``add.at``'s visit order.  ``pack`` (ravel and
concatenate) lets the optimizers update every parameter with one
expression over a flat vector.  This module is Tensor-free on
purpose: ops are plain array kernels, usable and testable without
the graph machinery on top.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.quant.quantizer import clip_ufunc

Array = Any  # numpy.ndarray

_LN2 = math.log(2.0)


@dataclasses.dataclass(frozen=True)
class Op:
    """A named (forward, vjp) pair in the registry.

    Exactly one of ``vjps`` (per-input functions) and ``vjp_all`` (one
    function for every input, for variadic ops) must be provided.
    """

    name: str
    forward: Callable[..., Any]
    vjps: Optional[Tuple[Callable[..., Array], ...]] = None
    vjp_all: Optional[Callable[..., Sequence[Array]]] = None

    def __post_init__(self) -> None:
        if (self.vjps is None) == (self.vjp_all is None):
            raise ValueError(
                "op %r must define exactly one of vjps / vjp_all" % (self.name,)
            )


_REGISTRY: Dict[str, Op] = {}


def register_op(
    name: str,
    forward: Callable[..., Any],
    vjps: Optional[Sequence[Callable[..., Array]]] = None,
    vjp_all: Optional[Callable[..., Sequence[Array]]] = None,
) -> Op:
    """Register a named op; re-registering an existing name is an error."""
    if name in _REGISTRY:
        raise ValueError("op %r is already registered" % (name,))
    op = Op(
        name=name,
        forward=forward,
        vjps=tuple(vjps) if vjps is not None else None,
        vjp_all=vjp_all,
    )
    _REGISTRY[name] = op
    return op


def get_op(name: str) -> Op:
    """Look up a registered op by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown op %r; registered: %s" % (name, ", ".join(registered_ops()))
        ) from None


def registered_ops() -> Tuple[str, ...]:
    """Names of every registered op (sorted)."""
    return tuple(sorted(_REGISTRY))


#: Ops whose forward returns ``(output, saved)`` with an *array* saved
#: value.  Under gradient capture the tracer materialises that saved value
#: as a graph output of the node (``Node.saved_output``) so the traced VJP
#: can consume it instead of recomputing the forward.
SAVED_OUTPUT_OPS = frozenset({"elementwise_fused"})

#: Element-wise registry ops: same-shape (or broadcast) array-in/array-out
#: arithmetic with no data-dependent shape logic, so a traced node's
#: output shape is its inputs' broadcast shape (how
#: :meth:`repro.graph.trace.Tracer.emit` gives emitted nodes avals).
ELEMENTWISE_OPS = frozenset({
    "add", "sub", "neg", "mul", "div", "pow", "exp", "exp2", "log", "sqrt", "tanh",
    "relu", "abs", "clip", "clip_ste", "round_ste",
})


def vjp_op_name(name: str, argnum: int) -> str:
    """The registry name of the traced-VJP wrapper for ``name``/``argnum``."""
    return "vjp[%s][%d]" % (name, argnum)


def _non_differentiable(name: str):
    def vjp_all(grad, ans, saved, *arrays, **params):
        raise RuntimeError(
            "op %r is a traced-graph kernel and has no gradients" % (name,)
        )
    return vjp_all


def ensure_vjp_op(name: str, argnum: int) -> Op:
    """Register (once) and return the graph-level VJP wrapper op.

    The wrapper's forward computes the base op's gradient for input
    ``argnum`` by calling the *registered* VJP with positional array inputs
    ``(grad, ans, saved?, *base_inputs)`` — ``saved`` is present exactly
    for :data:`SAVED_OUTPUT_OPS` — plus the base op's params.  Calling the
    same function the eager backward calls makes the traced node
    bit-identical by construction.  Wrappers only appear in captured
    training graphs, never under eager autograd, so they register as
    non-differentiable.
    """
    wrapper_name = vjp_op_name(name, argnum)
    existing = _REGISTRY.get(wrapper_name)
    if existing is not None:
        return existing
    base = get_op(name)
    has_saved = name in SAVED_OUTPUT_OPS
    if base.vjp_all is not None:
        if has_saved:
            def forward(grad, ans, saved, *arrays, _fn=base.vjp_all, _i=argnum, **params):
                return _fn(grad, ans, saved, *arrays, **params)[_i]
        else:
            def forward(grad, ans, *arrays, _fn=base.vjp_all, _i=argnum, **params):
                return _fn(grad, ans, None, *arrays, **params)[_i]
    else:
        if not 0 <= argnum < len(base.vjps):
            raise ValueError(
                "op %r has %d inputs; no vjp for argnum %d"
                % (name, len(base.vjps), argnum)
            )
        if has_saved:
            def forward(grad, ans, saved, *arrays, _fn=base.vjps[argnum], **params):
                return _fn(grad, ans, saved, *arrays, **params)
        else:
            def forward(grad, ans, *arrays, _fn=base.vjps[argnum], **params):
                return _fn(grad, ans, None, *arrays, **params)
    return register_op(
        wrapper_name, forward=forward, vjp_all=_non_differentiable(wrapper_name)
    )


def run_forward(op: Op, *arrays: Array, **params: Any) -> Tuple[Array, Any]:
    """Execute an op's forward, normalising to ``(output, saved)``."""
    result = op.forward(*arrays, **params)
    if type(result) is tuple:
        out, saved = result
    else:
        out, saved = result, None
    return out, saved


def input_grads(
    op: Op,
    grad: Array,
    ans: Array,
    saved: Any,
    arrays: Sequence[Array],
    params: Dict[str, Any],
    needed: Sequence[bool],
) -> Sequence[Optional[Array]]:
    """Gradients w.r.t. each input; ``None`` where ``needed`` is false.

    For per-argnum ops only the needed VJPs run (a matmul whose weight side
    is frozen never computes the activation-side product); variadic ops
    compute the full list in one call.
    """
    if op.vjp_all is not None:
        return op.vjp_all(grad, ans, saved, *arrays, **params)
    if len(op.vjps) != len(arrays):
        raise ValueError(
            "op %r defines %d vjps but was applied to %d inputs"
            % (op.name, len(op.vjps), len(arrays))
        )
    return [
        op.vjps[i](grad, ans, saved, *arrays, **params) if needed[i] else None
        for i in range(len(arrays))
    ]


# -- arithmetic -----------------------------------------------------------------


register_op(
    "add",
    forward=lambda a, b: a + b,
    vjps=(
        lambda g, ans, s, a, b: g,
        lambda g, ans, s, a, b: g,
    ),
)

register_op(
    "sub",
    forward=lambda a, b: a - b,
    vjps=(
        lambda g, ans, s, a, b: g,
        lambda g, ans, s, a, b: -g,
    ),
)

register_op(
    "neg",
    forward=lambda a: -a,
    vjps=(lambda g, ans, s, a: -g,),
)

register_op(
    "mul",
    forward=lambda a, b: a * b,
    vjps=(
        lambda g, ans, s, a, b: g * b,
        lambda g, ans, s, a, b: g * a,
    ),
)

register_op(
    "div",
    forward=lambda a, b: a / b,
    vjps=(
        lambda g, ans, s, a, b: g / b,
        lambda g, ans, s, a, b: -g * a / (b ** 2),
    ),
)


def _pow_forward(a: Array, exponent: float) -> Array:
    if not np.isscalar(exponent):
        raise TypeError("only scalar exponents are supported")
    return a ** exponent


register_op(
    "pow",
    forward=_pow_forward,
    vjps=(lambda g, ans, s, a, exponent:
          g * exponent * np.asarray(a) ** (exponent - 1),),
)

register_op(
    "matmul",
    forward=lambda a, b: a @ b,
    vjps=(
        lambda g, ans, s, a, b: g @ np.swapaxes(b, -1, -2),
        lambda g, ans, s, a, b: np.swapaxes(a, -1, -2) @ g,
    ),
)


# -- shape manipulation ---------------------------------------------------------


register_op(
    "reshape",
    forward=lambda a, shape: a.reshape(shape),
    vjps=(lambda g, ans, s, a, shape: g.reshape(a.shape),),
)

register_op(
    "transpose",
    forward=lambda a, axes: a.transpose(axes),
    vjps=(lambda g, ans, s, a, axes: g.transpose(np.argsort(axes)),),
)


def _is_basic_index(index: Any) -> bool:
    """Whether ``index`` is numpy *basic* indexing (ints, slices, ``None``,
    ``Ellipsis``): it selects a view that touches each element at most once.
    """
    items = index if type(index) is tuple else (index,)
    return all(
        item is None or item is Ellipsis or type(item) is slice
        or (isinstance(item, (int, np.integer)) and type(item) is not bool)
        for item in items
    )


def _getitem_vjp(g: Array, ans: Array, s: Any, a: Array, index: Any) -> Array:
    full = np.zeros_like(a)
    if _is_basic_index(index):
        # A basic index hits each element at most once, so the in-place add
        # performs add.at's single ``0 + g`` per element (``-0.0`` becomes
        # ``+0.0`` either way) without its per-element dispatch.
        full[index] += g
    else:
        np.add.at(full, index, g)
    return full


register_op(
    "getitem",
    forward=lambda a, index: a[index],
    vjps=(_getitem_vjp,),
)


def unbroadcast_array(grad: Array, shape: Tuple[int, ...]) -> Array:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    The canonical sum-to-shape both the eager backward
    (:meth:`repro.nn.tensor.Tensor.backward`'s single unbroadcast site) and
    the captured training graph's ``unbroadcast`` nodes run — one
    implementation, so eager and compiled gradients agree bit for bit.
    Each sum is :func:`reduce_sum`; a 0-d result is a 0-d array, as
    eager holds every gradient.
    """
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    # Sum leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = reduce_sum(grad, axis=0)
    # Sum dimensions that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = reduce_sum(grad, axis=axis, keepdims=True)
    return np.asarray(grad).reshape(shape)


register_op(
    "unbroadcast",
    forward=unbroadcast_array,
    vjps=(lambda g, ans, s, a, shape: np.broadcast_to(g, a.shape),),
)


def _concatenate_vjp_all(g, ans, s, *arrays, axis: int = 0):
    grads = []
    offset = 0
    for arr in arrays:
        size = arr.shape[axis]
        index = [slice(None)] * g.ndim
        index[axis] = slice(offset, offset + size)
        grads.append(g[tuple(index)])
        offset += size
    return grads


register_op(
    "concatenate",
    forward=lambda *arrays, axis=0: np.concatenate(arrays, axis=axis),
    vjp_all=_concatenate_vjp_all,
)


def pack_arrays(*arrays: Array) -> Array:
    """Ravel every array and concatenate them into one flat vector."""
    return np.concatenate([np.ravel(array) for array in arrays])


def split_packed(flat: Array, shapes: Sequence[Tuple[int, ...]]) -> list:
    """Invert :func:`pack_arrays`: reshaped views of ``flat``, one per shape."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


register_op(
    "pack",
    forward=pack_arrays,
    vjp_all=lambda g, ans, s, *arrays: split_packed(
        g, [array.shape for array in arrays]
    ),
)


def _scatter_sum_forward(*arrays, slices, shape):
    out = np.zeros(shape)
    for arr, (y_slice, x_slice) in zip(arrays, slices):
        out[:, y_slice, x_slice, :] += arr
    return out


def _scatter_sum_vjp_all(g, ans, s, *arrays, slices, shape):
    return [g[:, y_slice, x_slice, :] for (y_slice, x_slice) in slices]


register_op(
    "scatter_sum",
    forward=_scatter_sum_forward,
    vjp_all=_scatter_sum_vjp_all,
)


def _upsample_nearest_forward(a: Array, factor: int) -> Array:
    return np.repeat(np.repeat(a, factor, axis=1), factor, axis=2)


def _upsample_nearest_vjp(g, ans, s, a, factor):
    # Each input pixel sums its factor x factor output block, visited in
    # the order np.add.at visits the equivalent fancy index (row offset
    # outer, column offset inner), so the sums round identically.
    full = np.zeros_like(a)
    for dy in range(factor):
        for dx in range(factor):
            full += g[:, dy::factor, dx::factor, :]
    return full


# Nearest-neighbour upsampling of channels-last ``(B, H, W, C)`` images.
register_op(
    "upsample_nearest",
    forward=_upsample_nearest_forward,
    vjps=(_upsample_nearest_vjp,),
)


def _cache_slots(cache: Array, pos_onehot: Array) -> Tuple[Array, Array]:
    """Each row's ``(row, slot)`` index pair for a ``cache_write``: the slot
    is the argmax of the row's position one-hot, inside the cache window."""
    slots = pos_onehot.argmax(axis=1)
    last = int(slots.max())
    if last >= cache.shape[2]:
        raise ValueError(
            "cache_write: position %d lies outside the cache window of %d slots"
            % (last, cache.shape[2])
        )
    return np.arange(cache.shape[0]), slots


def _cache_write_forward(cache: Array, token: Array, pos_onehot: Array) -> Array:
    rows, slots = _cache_slots(cache, pos_onehot)
    out = cache.copy()
    out[rows, :, slots] = token[:, :, 0]
    return out


def _cache_write_cache_vjp(g, ans, s, cache, token, pos_onehot):
    rows, slots = _cache_slots(cache, pos_onehot)
    grad = np.array(g, dtype=np.float64)
    grad[rows, :, slots] = 0.0
    return grad


def _cache_write_token_vjp(g, ans, s, cache, token, pos_onehot):
    rows, slots = _cache_slots(cache, pos_onehot)
    return g[rows, :, slots][:, :, None]


def _cache_write_position_vjp(g, ans, s, cache, token, pos_onehot):
    raise RuntimeError("cache_write: the position one-hot has no gradient")


# One decode token's K or V written into its KV-cache slot: ``cache`` is
# ``(B, H, capacity, d)``, ``token`` ``(B, H, 1, d)`` and ``pos_onehot``
# ``(B, max_seq)``, one-hot at each row's position.  The forward copies the
# cache and puts each row's token at its slot, so every other slot keeps its
# bits (``-0.0`` included) and the written slot holds the token's bits.
register_op(
    "cache_write",
    forward=_cache_write_forward,
    vjps=(_cache_write_cache_vjp, _cache_write_token_vjp, _cache_write_position_vjp),
)


# -- reductions -----------------------------------------------------------------

#: A float64 reduction over a last axis of 2 to ``SHORT_AXIS - 1``
#: elements, with at least ``FOLD_MIN_ROWS`` rows, folds column by column:
#: numpy runs one k-element inner loop per row, so at (8192, 5)
#: ``np.add.reduce`` takes ~80 us and ``np.maximum.reduce`` ~220 us, where
#: k ufunc calls down whole columns take ~12 and ~30 us.  Below ~128 rows
#: (k = 5) the k calls cost more than the row loops they replace.
SHORT_AXIS, FOLD_MIN_ROWS = 8, 256
_FOLD_MIN_SIZE = 2 * FOLD_MIN_ROWS  # checked first: it rejects small arrays fastest


def _folds_last_axis(a: Array, axis: Any) -> bool:
    """Whether reducing ``a`` over ``axis`` takes the column fold.  A
    stride-0 axis keeps numpy's reduce: numpy adds a stride-0 column in
    another loop, which can return the other NaN of a NaN + NaN lane."""
    if type(axis) is tuple and len(axis) == 1:
        (axis,) = axis
    ndim = getattr(a, "ndim", 0)
    if ndim == 0 or axis not in (-1, ndim - 1):
        return False
    width = a.shape[-1]
    return (2 <= width < SHORT_AXIS and a.dtype == np.float64
            and a.size >= width * FOLD_MIN_ROWS
            and all(stride or size == 1 for stride, size in zip(a.strides, a.shape)))


def _canonical_nan_prefix(width: int) -> int:
    """How many leading elements of a contiguous ``width``-element row
    ``np.maximum.reduce`` returns a NaN from as the canonical quiet NaN.
    numpy starts its reduce from the first element (and from as much of a
    short row as the host's vector loop covers), so this is measured; a
    later NaN passes on as it is, as ``np.maximum`` passes it."""
    for j in range(width):
        row = np.ones((1, width))
        row[0, j] = np.uint64(0x7FF8000000000001).view(np.float64)
        if np.maximum.reduce(row, axis=-1).view(np.uint64)[0] != 0x7FF8000000000000:
            return j
    return width


_NAN_PREFIX = {width: _canonical_nan_prefix(width) for width in range(2, SHORT_AXIS)}


def _fold_last(ufunc, a: Array, keepdims: bool, start) -> Array:
    """``ufunc`` folded over ``a``'s last axis column by column onto
    ``start(column 0)``; ``np.maximum`` canonicalizes NaNs after the row's
    :data:`_NAN_PREFIX` columns."""
    width = a.shape[-1]
    out = np.empty(a.shape[:-1] + ((1,) if keepdims else ()))
    column = out[..., 0] if keepdims else out
    start(a[..., 0], out=column)
    prefix = _NAN_PREFIX[width] if ufunc is np.maximum else -1
    for j in range(1, width + 1):
        if j == prefix:
            np.copyto(column, np.nan, where=np.isnan(column))
        if j < width:
            ufunc(column, a[..., j], out=column)
    return out


def reduce_sum(a: Array, axis: Any = None, keepdims: bool = False) -> Array:
    """``np.add.reduce``, folding a short last axis column by column: for
    under 8 elements numpy's pairwise sum adds them one at a time onto
    ``0.0``, so ``(((0.0 + a0) + a1) + ...)`` gives the same bits."""
    if a.size >= _FOLD_MIN_SIZE and _folds_last_axis(a, axis):
        return _fold_last(np.add, a, keepdims, lambda first, out: np.add(0.0, first, out=out))
    return np.add.reduce(a, axis=axis, keepdims=keepdims)


def reduce_max(a: Array, axis: Any = None, keepdims: bool = False) -> Array:
    """``np.maximum.reduce``, folding a short contiguous last axis column by
    column (a strided one is iterated differently by numpy and keeps its
    reduce)."""
    if (a.size >= _FOLD_MIN_SIZE and _folds_last_axis(a, axis)
            and a.strides[-1] == a.itemsize):
        return _fold_last(np.maximum, a, keepdims, lambda first, out: np.copyto(out, first))
    return np.maximum.reduce(a, axis=axis, keepdims=keepdims)


def _sum_vjp(g, ans, s, a, axis=None, keepdims=False):
    g = np.asarray(g, dtype=np.float64)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    return np.broadcast_to(g, a.shape)


register_op("sum", forward=reduce_sum, vjps=(_sum_vjp,))


def _max_vjp(g, ans, s, a, axis=None, keepdims=False):
    g = np.asarray(g, dtype=np.float64)
    expanded = ans
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
        expanded = np.expand_dims(ans, axis=axis)
    mask = (a == expanded).astype(np.float64)
    # Split gradient between ties, matching torch's behaviour closely
    # enough for training purposes.
    denom = reduce_sum(mask, axis=axis, keepdims=True)
    denom = np.where(denom == 0, 1.0, denom)
    return mask * g / denom


register_op("max", forward=reduce_max, vjps=(_max_vjp,))


# -- element-wise functions -----------------------------------------------------


register_op(
    "exp",
    forward=lambda a: np.exp(a),
    vjps=(lambda g, ans, s, a: g * ans,),
)

# ``2^a`` for integer-valued ``a`` (a power-of-two scale from its rounded
# exponent): ``np.ldexp`` builds the exact ``2.0 ** a``, where
# ``exp(a ln 2)`` can land an ulp off and ``np.exp2`` is not guaranteed
# exact under numpy's SIMD dispatch.  Non-integer ``a`` is truncated, so
# the forward is a step function and the VJP that of the surrogate ``2^a``.
register_op(
    "exp2",
    forward=lambda a: np.ldexp(1.0, a.astype(np.intc)),
    vjps=(lambda g, ans, s, a: g * ans * _LN2,),
)

register_op(
    "log",
    forward=lambda a: np.log(a),
    vjps=(lambda g, ans, s, a: g / a,),
)

register_op(
    "sqrt",
    forward=lambda a: np.sqrt(a),
    vjps=(lambda g, ans, s, a: g * 0.5 / np.maximum(ans, 1e-12),),
)

register_op(
    "tanh",
    forward=lambda a: np.tanh(a),
    vjps=(lambda g, ans, s, a: g * (1.0 - ans ** 2),),
)

register_op(
    "relu",
    forward=lambda a: np.maximum(a, 0.0),
    vjps=(lambda g, ans, s, a: g * (a > 0),),
)

register_op(
    "abs",
    forward=lambda a: np.abs(a),
    vjps=(lambda g, ans, s, a: g * np.sign(a),),
)

register_op(
    "clip",
    forward=lambda a, lo, hi: clip_ufunc(a, lo, hi),
    vjps=(lambda g, ans, s, a, lo, hi: g * ((a >= lo) & (a <= hi)),),
)

# Straight-through estimators: the forward is a hard quantization step, the
# VJP passes the incoming gradient through unchanged (LSQ / Eq. 2).
register_op(
    "clip_ste",
    forward=lambda a, lo, hi: clip_ufunc(a, lo, hi),
    vjps=(lambda g, ans, s, a, lo, hi: g,),
)

# ``np.rint`` is the ufunc ``np.round`` runs for ``decimals=0``.
register_op(
    "round_ste",
    forward=np.rint,
    vjps=(lambda g, ans, s, a: g,),
)


# -- generic element-wise hooks (pwl table lookups) -----------------------------


def _kernel_label(name: Optional[str]) -> str:
    """Human-readable kernel identifier for error messages and traces."""
    return "element-wise" if name is None else "element-wise kernel %r" % (name,)


def _elementwise_forward(a, forward_fn, grad_fn, name=None):
    out = np.asarray(forward_fn(a), dtype=np.float64)
    if out.shape != a.shape:
        raise ValueError("%s forward changed the shape" % _kernel_label(name))
    return out


register_op(
    "elementwise",
    forward=_elementwise_forward,
    vjps=(
        lambda g, ans, s, a, forward_fn, grad_fn, name=None: g
        * np.asarray(grad_fn(a), dtype=np.float64),
    ),
)


def _elementwise_fused_forward(a, fused_fn, name=None):
    out, slope = fused_fn(a)
    out = np.asarray(out, dtype=np.float64)
    if out.shape != a.shape:
        raise ValueError("%s forward changed the shape" % _kernel_label(name))
    slope = np.asarray(slope, dtype=np.float64)
    if slope.shape != a.shape:
        raise ValueError("%s derivative changed the shape" % _kernel_label(name))
    return out, slope


register_op(
    "elementwise_fused",
    forward=_elementwise_fused_forward,
    vjps=(lambda g, ans, slope, a, fused_fn, name=None: g * slope,),
)

# A deployed table's inference kernel: ``fn`` is the output-only lookup the
# pwl module that owns the table chose (``DenseLUT.__call__`` or
# ``MultiRangePWL.lookup``).  The modules record it only under tracing and
# only for inputs that need no gradient, so it registers non-differentiable
# like the ``vjp[...]`` wrappers.
register_op(
    "lookup",
    forward=lambda a, fn: fn(a),
    vjp_all=_non_differentiable("lookup"),
)
