"""A small reverse-mode automatic-differentiation engine over numpy arrays.

This is the substrate that replaces PyTorch for the paper's fine-tuning
experiments: it provides a :class:`Tensor` with a dynamic computation graph,
the operations needed by miniature Transformer models (matmul, layer
statistics, softmax pieces, element-wise non-linearities) and the
straight-through-estimator (STE) primitives used by LSQ quantization.

The design intentionally mirrors the familiar torch API surface
(``tensor.backward()``, ``tensor.grad``, ``no_grad()``) so the model code in
:mod:`repro.nn.layers` and :mod:`repro.nn.models` reads naturally.

Gradient rules do not live here: every differentiable operation is a named
``(forward, vjp)`` pair in the :mod:`repro.nn.ops` registry, and the Tensor
methods are thin dispatches through :func:`apply_op` — the single place that
owns graph construction and ``no_grad`` short-circuiting.  Broadcast
gradients are summed back to each input's shape in one site inside
:meth:`Tensor.backward`.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import ops as _ops

_GRAD_ENABLED = True

# The active graph tracer (at most one).  While installed, every apply_op
# dispatch and every detach alias is reported to it, which is how
# :mod:`repro.graph.trace` captures a static IR from one eager forward run
# without the model code cooperating.
_TRACER = None


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def is_tracing() -> bool:
    """Whether a graph tracer is currently capturing apply_op dispatches."""
    return _TRACER is not None


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer`` as the active capture hook for a ``with`` block.

    The tracer must provide ``record_op(name, inputs, params, out)`` and
    ``record_alias(source, alias)``.  Tracing does not nest: a second
    tracer inside an active capture raises, since the inner trace would
    steal the outer one's ops.
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("a graph tracer is already active; tracing does not nest")
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = None


# The single sum-to-shape implementation, shared with the registered
# ``unbroadcast`` op so traced training graphs replay the exact function
# the eager backward runs.
_unbroadcast = _ops.unbroadcast_array


class _OpBackward:
    """Recorded backward step: one registry op plus its forward context."""

    __slots__ = ("op", "saved", "arrays", "params", "needed")

    def __init__(self, op, saved, arrays, params, needed) -> None:
        self.op = op
        self.saved = saved
        self.arrays = arrays
        self.params = params
        self.needed = needed

    def __call__(self, grad, ans):
        return _ops.input_grads(
            self.op, grad, ans, self.saved, self.arrays, self.params, self.needed
        )


def _emit_vjp_node(tracer, node: "Tensor", argnum: int, grad_vid: int) -> int:
    """Emit graph node(s) computing one VJP of ``node`` w.r.t. input ``argnum``.

    Called from :meth:`Tensor.backward` under gradient capture, *alongside*
    the eager VJP evaluation — the returned value id computes exactly the
    array the eager call produced.  The common arithmetic VJPs lower to
    primitive nodes mirroring the registered VJP's expression term for term
    (so constant folding and chain fusion see through them); everything
    else goes through a ``vjp[<op>][<argnum>]`` wrapper op that calls the
    identical registered VJP function (bit-identical trivially).
    """
    backward = node._backward
    op_name = backward.op.name
    emit = tracer.emit
    in_vids = tuple(tracer.value_of(parent) for parent in node._parents)
    if op_name == "add":            # vjp: g
        return grad_vid
    if op_name == "neg":            # vjp: -g
        return emit("neg", (grad_vid,))
    if op_name == "mul":            # vjp: g * other
        return emit("mul", (grad_vid, in_vids[1 - argnum]))
    if op_name == "exp":            # vjp: g * ans
        return emit("mul", (grad_vid, tracer.value_of(node)))
    if op_name == "div":
        if argnum == 0:             # vjp: g / b
            return emit("div", (grad_vid, in_vids[1]))
        # vjp: -g * a / (b ** 2), in Python evaluation order
        negated = emit("neg", (grad_vid,))
        numerator = emit("mul", (negated, in_vids[0]))
        denominator = emit("pow", (in_vids[1],), {"exponent": 2})
        return emit("div", (numerator, denominator))
    if op_name == "elementwise_fused":  # vjp: g * slope (the saved output)
        saved_vid = tracer.saved_value_of(node)
        if saved_vid is None:
            raise RuntimeError(
                "elementwise_fused output has no captured slope; was the "
                "forward traced with capture_grads?"
            )
        return emit("mul", (grad_vid, saved_vid))
    wrapper = _ops.ensure_vjp_op(op_name, argnum)
    inputs = [grad_vid, tracer.value_of(node)]
    if op_name in _ops.SAVED_OUTPUT_OPS:
        saved_vid = tracer.saved_value_of(node)
        if saved_vid is None:
            raise RuntimeError(
                "op %r output has no captured saved value" % (op_name,)
            )
        inputs.append(saved_vid)
    inputs.extend(in_vids)
    return emit(wrapper.name, tuple(inputs), dict(backward.params))


class Tensor:
    """A numpy-array tensor participating in a dynamic autograd graph."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name",
        "__weakref__",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[_OpBackward] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self.name = name

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self):
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        out = Tensor(self.data, requires_grad=False)
        if _TRACER is not None:
            # Detach only cuts the *gradient* graph; the value still flows
            # from the source, so the tracer aliases the two tensors.
            _TRACER.record_alias(self, out)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- arithmetic (thin dispatches into the op registry) ---------------------

    def __add__(self, other) -> "Tensor":
        return apply_op("add", self, other)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op("neg", self)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        return apply_op("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return apply_op("div", self, other)

    def __rtruediv__(self, other) -> "Tensor":
        return apply_op("div", self._lift(other), self)

    def __pow__(self, exponent: float) -> "Tensor":
        return apply_op("pow", self, exponent=exponent)

    def __matmul__(self, other) -> "Tensor":
        return apply_op("matmul", self, other)

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op("reshape", self, shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply_op("transpose", self, axes=axes)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        return apply_op("getitem", self, index=index)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("max", self, axis=axis, keepdims=keepdims)

    # -- element-wise functions ------------------------------------------------

    def exp(self) -> "Tensor":
        return apply_op("exp", self)

    def log(self) -> "Tensor":
        return apply_op("log", self)

    def sqrt(self) -> "Tensor":
        return apply_op("sqrt", self)

    def tanh(self) -> "Tensor":
        return apply_op("tanh", self)

    def relu(self) -> "Tensor":
        return apply_op("relu", self)

    def abs(self) -> "Tensor":
        return apply_op("abs", self)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp with zero gradient outside the interval."""
        return apply_op("clip", self, lo=lo, hi=hi)

    def clip_ste(self, lo: float, hi: float) -> "Tensor":
        """Clamp whose gradient passes straight through (STE clip)."""
        return apply_op("clip_ste", self, lo=lo, hi=hi)

    def round_ste(self) -> "Tensor":
        """Round to nearest with a straight-through gradient (Eq. 2 / LSQ)."""
        return apply_op("round_ste", self)

    def apply_elementwise(self, forward_fn, grad_fn, name: Optional[str] = None) -> "Tensor":
        """Generic element-wise op: ``y = forward_fn(x)``, ``dy/dx = grad_fn(x)``.

        Used by the reference pwl modules (``tests/oracles.py``), whose
        forward is a table lookup and whose backward is the selected
        segment's slope, re-derived from the input.  ``name`` is an
        optional stable identifier for the kernel — graph traces and error
        messages would otherwise only see an opaque callable.
        """
        return apply_op(
            "elementwise", self, forward_fn=forward_fn, grad_fn=grad_fn, name=name
        )

    def apply_elementwise_fused(self, fused_fn, name: Optional[str] = None) -> "Tensor":
        """Element-wise op producing output and derivative in a single pass.

        ``fused_fn(x)`` returns ``(y, dy/dx)`` together; the derivative is
        stashed for backward instead of being re-derived from the raw input.
        This is the dense-LUT fine-tuning path: one quantize feeds both the
        output gather and the slope gather, and backward is a single
        multiply.  ``name`` identifies the kernel in traces and errors.
        """
        return apply_op("elementwise_fused", self, fused_fn=fused_fn, name=name)

    # -- graph traversal -------------------------------------------------------

    def backward(self, grad=None, retain_graph: bool = False) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Every visited tensor that requires grad accumulates its total
        incoming gradient into ``.grad``; broadcast dimensions are summed
        away here, the one unbroadcast site.  After the traversal the graph
        edges (``_backward`` hooks, parent links and their saved arrays)
        are released so long fine-tuning runs do not retain every
        intermediate activation graph; pass ``retain_graph=True`` to keep
        them (needed to call backward twice through a shared subgraph).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Under an active gradient-capturing tracer the eager traversal
        # below additionally *emits* every VJP application as graph nodes,
        # mirroring each eager expression exactly — the capture is the
        # computation, so compiled replays are bit-identical by
        # construction (see repro.graph docs).
        tracer = _TRACER
        capture = tracer is not None and getattr(tracer, "capture_grads", False)

        topo: List[Tensor] = []
        visited = set()

        def build(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        grads = {id(self): grad}
        grad_vids = {id(self): tracer.constant(grad)} if capture else None
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node_grad_vid = grad_vids.pop(id(node)) if capture else None
            if node.requires_grad:
                if capture and node.grad is not None:
                    raise RuntimeError(
                        "backward() under gradient capture requires zeroed "
                        "grads (tensor already carries a .grad the graph "
                        "cannot see)"
                    )
                node.grad = (
                    node_grad.copy() if node.grad is None else node.grad + node_grad
                )
                if capture:
                    # In reversed topo order every consumer was already
                    # processed, so this accumulated value is final.
                    tracer.note_grad(node, node_grad_vid)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad, node.data)
            for argnum, (parent, parent_grad) in enumerate(
                zip(node._parents, parent_grads)
            ):
                if parent_grad is None or not parent.requires_grad:
                    continue
                raw = np.asarray(parent_grad, dtype=np.float64)
                contribution = _unbroadcast(raw, parent.data.shape)
                if capture:
                    vid = _emit_vjp_node(tracer, node, argnum, node_grad_vid)
                    if raw.shape != parent.data.shape:
                        vid = tracer.emit(
                            "unbroadcast", (vid,), {"shape": parent.data.shape}
                        )
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + contribution
                    if capture:
                        grad_vids[id(parent)] = tracer.emit(
                            "add", (grad_vids[id(parent)], vid)
                        )
                else:
                    grads[id(parent)] = contribution
                    if capture:
                        grad_vids[id(parent)] = vid
        if not retain_graph:
            for node in topo:
                if node._backward is not None:
                    node._backward = None
                    node._parents = ()


def apply_op(op_name: str, *inputs, **params) -> Tensor:
    """Apply a registered op to tensors, recording the graph edge.

    This is the single entry point every Tensor operation routes through:
    it lifts raw values to tensors, runs the op's forward on the underlying
    arrays, and — when gradients are enabled and any input requires them —
    attaches the op's VJPs for the backward pass.  Under ``no_grad`` (or
    with detached inputs) the result carries no parents and no backward
    hook, so intermediate graphs are never built.  (The first parameter is
    ``op_name`` rather than ``name`` so op params may themselves carry a
    ``name`` keyword — the element-wise kernels use it as a stable label.)
    """
    op = _ops.get_op(op_name)
    tensors = tuple(Tensor._lift(value) for value in inputs)
    arrays = tuple(t.data for t in tensors)
    out_data, saved = _ops.run_forward(op, *arrays, **params)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires, _parents=tensors if requires else ())
    if requires:
        needed = tuple(t.requires_grad for t in tensors)
        out._backward = _OpBackward(op, saved, arrays, params, needed)
    if _TRACER is not None:
        _TRACER.record_op(op_name, tensors, params, out, saved)
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(shape, scale: float = 1.0, rng=None, requires_grad: bool = False) -> Tensor:
    generator = rng or np.random.default_rng()
    return Tensor(scale * generator.standard_normal(shape), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    return apply_op("concatenate", *tensors, axis=axis)
