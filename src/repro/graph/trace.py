"""Capture: run an eager forward once, emit a static :class:`Graph`.

The tracer piggybacks on the single dispatch point of the autograd
substrate: every Tensor operation routes through
:func:`repro.nn.tensor.apply_op`, which reports to the installed tracer
(see :func:`repro.nn.tensor.tracing`).  Running a ``Module.forward`` once
with placeholder inputs therefore yields the complete op sequence, with

* placeholder tensors becoming graph **inputs**,
* every tensor that enters a dispatch from outside the traced set
  (parameters, LUT tables, lifted Python scalars) becoming a bound
  **constant**,
* ``detach()`` recorded as an alias — detach cuts gradients, not values,
  so the detached tensor maps to the same value id as its source.

Tracing runs under ``no_grad`` (the capture targets inference), so the
eager pass builds no backward graph while being recorded.

Constants are bound **by reference**: the graph holds the same arrays the
module does at capture time.  Rebinding a parameter's ``.data`` afterwards
does not change the captured graph (the executor's model wrapper detects
this and re-traces); mutating an array *in place* would leak into compiled
results and is not something this codebase does.

Every graph input bound to a tensor and every recorded op output gets an
aval, the ``(shape, dtype)`` of its eager value (``Graph.avals``); so does
a node added with :meth:`Tracer.emit`, when its caller knows it or its
inputs' avals do.

Shape specialisation is inherent to capture: Python-level shape logic
(``reshape(batch, ...)``, grid arithmetic) executes at trace time and is
burned into node params, so a trace is valid exactly for the input
signature it was captured with.  :class:`repro.graph.executor.CompiledModel`
keys its cache on that signature and re-traces per new shape.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.ir import Aval, Graph, Node
from repro.nn.ops import ELEMENTWISE_OPS
from repro.nn.tensor import Tensor, no_grad, tracing


class Tracer:
    """Records apply_op dispatches into a :class:`Graph`.

    Tensor identity is tracked with ``id()`` keys; the tracer keeps a
    strong reference to every tensor it has mapped so ids cannot be
    recycled mid-trace.

    With ``capture_grads=True`` the tracer captures a *training* step
    rather than an inference forward: every op's saved intermediate (the
    fused LUT slope) is materialised as a ``Node.saved_output`` value id,
    ``Tensor.backward`` emits its VJP applications as graph nodes (see
    :meth:`repro.nn.tensor.Tensor.backward`), and the final gradient value
    id of every parameter is remembered (:meth:`note_grad` /
    :meth:`grad_vid`) so optimizer-update emission can consume it.
    Inference traces (the default) are unchanged — no saved ids are
    allocated, keeping their graphs identical to previous releases.
    """

    def __init__(self, capture_grads: bool = False) -> None:
        self.graph = Graph()
        self.capture_grads = capture_grads
        self._value_ids: Dict[int, int] = {}
        self._keepalive: List[Tensor] = []
        self._saved_ids: Dict[int, int] = {}
        self._grad_ids: Dict[int, int] = {}

    # -- placeholder management ------------------------------------------------

    def add_input(self, tensor: Tensor) -> int:
        vid = self.graph.new_value()
        self.graph.inputs.append(vid)
        self.graph.avals[vid] = (tensor.data.shape, tensor.data.dtype)
        self._bind(tensor, vid)
        return vid

    def add_input_array(self) -> int:
        """Allocate a graph input with no tensor bound to it.

        Used for replay-time feeds that have no trace-time Tensor — the
        dynamic optimizer scalars (learning rate, Adam bias corrections)
        the compiled train step computes in Python each step.
        """
        vid = self.graph.new_value()
        self.graph.inputs.append(vid)
        return vid

    def _bind(self, tensor: Tensor, vid: int) -> None:
        self._value_ids[id(tensor)] = vid
        self._keepalive.append(tensor)

    def _value_of(self, tensor: Tensor) -> int:
        """The value id for ``tensor``, binding it as a constant if new."""
        vid = self._value_ids.get(id(tensor))
        if vid is None:
            vid = self.graph.add_constant(tensor.data)
            self._bind(tensor, vid)
        return vid

    # Public aliases used by the backward capture and update emission.
    value_of = _value_of

    def saved_value_of(self, out: Tensor) -> Optional[int]:
        """The saved-output value id recorded for ``out``, if any."""
        return self._saved_ids.get(id(out))

    def constant(self, array: Any) -> int:
        """Bind a raw array as a graph constant and return its value id."""
        return self.graph.add_constant(array)

    def emit(self, name: str, in_vids: Sequence[int],
             params: Optional[Dict[str, Any]] = None,
             label: Optional[str] = None, aval: Optional[Aval] = None) -> int:
        """Append a node symbolically (no computation) and return its vid.

        The backward capture and the optimizer-update emission build nodes
        for computations that eager code performs on raw arrays outside
        apply_op; ``emit`` is their direct line into the graph.  Without an
        ``aval``, an element-wise op whose inputs have avals gets their
        broadcast shape and result dtype.
        """
        out_id = self.graph.new_value()
        avals = [self._aval(vid) for vid in in_vids]
        if aval is None and name in ELEMENTWISE_OPS and all(avals):
            shapes, dtypes = zip(*avals)
            aval = (np.broadcast_shapes(*shapes), np.result_type(*dtypes))
        if aval is not None:
            self.graph.avals[out_id] = aval
        self.graph.nodes.append(
            Node(op=name, inputs=tuple(in_vids), output=out_id,
                 params=dict(params) if params else {}, label=label)
        )
        return out_id

    def _aval(self, vid: int) -> Optional[Aval]:
        """``vid``'s aval, or a bound array constant's shape and dtype."""
        value = self.graph.constants.get(vid)
        if isinstance(value, np.ndarray):
            return value.shape, value.dtype
        return self.graph.avals.get(vid)

    def note_grad(self, tensor: Tensor, vid: int) -> None:
        """Remember the value id holding ``tensor``'s final gradient."""
        self._grad_ids[id(tensor)] = vid
        self._keepalive.append(tensor)

    def grad_vid(self, tensor: Tensor) -> Optional[int]:
        """The final-gradient value id captured for ``tensor``, if any."""
        return self._grad_ids.get(id(tensor))

    # -- hooks invoked by repro.nn.tensor --------------------------------------

    def record_op(self, name: str, inputs: Sequence[Tensor], params: Dict[str, Any],
                  out: Tensor, saved: Any = None) -> None:
        in_ids = tuple(self._value_of(t) for t in inputs)
        out_id = self.graph.new_value()
        self.graph.avals[out_id] = (out.data.shape, out.data.dtype)
        self._bind(out, out_id)
        saved_id = None
        if self.capture_grads and saved is not None:
            # Materialise the stashed intermediate as a graph value so the
            # traced backward consumes it instead of re-running the
            # forward.  Inference traces never allocate these.
            saved_id = self.graph.new_value()
            self._saved_ids[id(out)] = saved_id
        label = params.get("name") if name in ("elementwise", "elementwise_fused") else None
        self.graph.nodes.append(
            Node(op=name, inputs=in_ids, output=out_id, params=dict(params),
                 label=label, saved_output=saved_id)
        )

    def record_alias(self, source: Tensor, alias: Tensor) -> None:
        self._bind(alias, self._value_of(source))

    # -- finalisation ----------------------------------------------------------

    def mark_outputs(self, tensors: Sequence[Tensor]) -> None:
        for tensor in tensors:
            # An output the trace never saw (a function returning a tensor
            # it was handed, or a freshly built constant) still resolves:
            # _value_of binds it as a constant.
            self.graph.outputs.append(self._value_of(tensor))

    def mark_output_vid(self, vid: int) -> None:
        """Mark an already-allocated value id as a graph output."""
        self.graph.outputs.append(vid)


def trace(fn: Callable[..., Any], *example_inputs: Any) -> Graph:
    """Run ``fn`` once on placeholder tensors and capture its graph.

    ``fn`` is any callable taking and returning :class:`Tensor` values — a
    ``Module`` works directly.  ``example_inputs`` are arrays (or anything
    ``asarray`` accepts) defining the input signature; the capture runs the
    real eager forward on them, so trace-time side effects (quantizer
    initialisation from first data, dense-table builds) happen exactly as
    the first eager call would cause them.

    Returns the validated :class:`Graph`.  Multi-output callables may
    return a tuple/list of tensors; single tensors become one output.
    """
    tracer = Tracer()
    placeholders = []
    for example in example_inputs:
        tensor = Tensor(np.asarray(example, dtype=np.float64))
        tracer.add_input(tensor)
        placeholders.append(tensor)
    with no_grad():
        with tracing(tracer):
            result = fn(*placeholders)
    outputs: Tuple[Tensor, ...]
    if isinstance(result, Tensor):
        outputs = (result,)
    elif isinstance(result, (tuple, list)) and all(isinstance(t, Tensor) for t in result):
        outputs = tuple(result)
    else:
        raise TypeError(
            "traced callable must return a Tensor or a tuple/list of Tensors, "
            "got %r" % type(result).__name__
        )
    tracer.mark_outputs(outputs)
    tracer.graph.validate()
    return tracer.graph
