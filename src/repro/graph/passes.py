"""Optimize: deterministic rewrite passes over the traced :class:`Graph`.

Four rewrite passes, run in a fixed order by :func:`optimize` (each takes
and returns a :class:`~repro.graph.ir.Graph`, carries its avals through and
mutates nothing of its input), and the buffer plan:

* :func:`fold_constants` — evaluate every node whose inputs are all
  constants once at compile time.  This collapses the parameter-only
  subtrees the eager path re-runs per call: LSQ weight fake-quantization
  chains, power-of-two scale snapping (``abs → log → round_ste → exp2``),
  lifted scalar arithmetic.
* :func:`cse` — merge nodes that recompute a value already computed: same
  op, same inputs, equal params.  0-d constants merge by value first, so
  the twin ``1/n`` of the mean that ``Tensor.var`` recomputes merges, and
  with it the mean and ``x - mean`` every LayerNorm computes twice.
* :func:`layout_operands` — give every constant operand of a binary op
  the exact shape its node replays (a 0-d view of a one-element scale, a
  bias vector reshaped to the output's shape), ``clip`` 0-d float64
  bounds, and a binary op that broadcasts over a short trailing axis a
  column kernel, using the traced avals.  numpy's per-call cost depends on
  how operands are laid out; the values are the same bits.
* :func:`dead_code_elimination` — drop nodes (and constants) that no
  graph output transitively consumes.
* :func:`plan_memory` — not a rewrite but the liveness analysis the
  executor replays: every value gets a buffer slot, slots are released at
  each value's last use and reused for later values, so steady-state
  inference holds only the live set instead of every intermediate.

There is no LUT pass: a pwl module records its table's output-only
kernel as a ``lookup`` node when it is traced for inference, so the plan
replays what eager runs.

All passes are semantics-preserving by construction: folding runs the
exact registered forward on the exact captured arrays, CSE only drops a
node whose pure function of the same inputs is already computed, layout
only reshapes a float64 constant without moving its elements or splits
an element-wise ufunc call by columns, and DCE only removes
unobservable work.  Compiled results therefore match eager bit for bit
(pinned generatively by ``tests/test_replay_parity.py``), up to which NaN
a column kernel's add or mul of two NaNs returns (see layout).

Training graphs add one wrinkle: nodes may carry a ``saved_output`` — a
second value id holding the forward's stashed intermediate (the fused LUT
slope) that a traced VJP node consumes.  Every pass here treats it as a
real produced value.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.graph.ir import Graph, Node
from repro.nn import ops as _ops

#: The ufunc each binary registry op's forward calls (``a + b`` is
#: ``np.add(a, b)`` on arrays, and so on).
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.true_divide}


def _column_kernel(params):
    """Build the callable for a ``<op>[cols]`` node (see
    :func:`layout_operands`): one ufunc call per column ``j`` of the output
    ``shape``, into ``out[..., j]``, reading column ``j`` of an operand
    whose ``wide`` flag is set and column 0 of one with a unit last axis."""
    ufunc, shape = params["ufunc"], params["shape"]
    picks = tuple(
        tuple((Ellipsis, j if wide else 0) for j in range(shape[-1]))
        for wide in params["wide"]
    )
    columns = tuple((Ellipsis, j) for j in range(shape[-1]))

    def run(a, b):
        out = np.empty(shape)
        for column, pick_a, pick_b in zip(columns, *picks):
            ufunc(a[pick_a], b[pick_b], out=out[column])
        return out

    return run


#: Kernels the passes introduce: a binary op split by columns over a short
#: trailing axis.  Each entry maps the node's params to the array-level
#: callable the executor invokes; they live outside the :mod:`repro.nn.ops`
#: VJP registry on purpose — they have no gradients and exist only inside
#: compiled graphs.
GRAPH_KERNELS = {name + "[cols]": _column_kernel for name in _UFUNCS}


def dead_code_elimination(graph: Graph) -> Graph:
    """Remove nodes and constants no graph output transitively needs.

    Graph inputs are kept even when unused — they are the call signature.
    """
    needed = set(graph.outputs)
    kept_reversed: List[Node] = []
    for node in reversed(graph.nodes):
        saved_needed = node.saved_output is not None and node.saved_output in needed
        if node.output in needed or saved_needed:
            if node.saved_output is not None and not saved_needed:
                # The node survives but nothing consumes its saved half any
                # more; drop the extra output so the executor discards it.
                node = dataclasses.replace(node, saved_output=None)
            kept_reversed.append(node)
            needed.update(node.inputs)
    return Graph(
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        nodes=list(reversed(kept_reversed)),
        constants={v: a for v, a in graph.constants.items() if v in needed},
        num_values=graph.num_values,
        avals=dict(graph.avals),
    )


def fold_constants(graph: Graph) -> Graph:
    """Evaluate nodes whose inputs are all constants at compile time.

    The node's registered forward runs once on the captured arrays and the
    result becomes a constant, so the executor never revisits the subtree.
    Graph kernels (no registry entry) and nodes with non-constant inputs
    pass through untouched.  Run :func:`dead_code_elimination` afterwards
    to drop the source constants the folded nodes consumed.

    A result whose aval is 0-d is stored as a 0-d array, as eager's
    ``Tensor`` holds it, not as the numpy scalar a ufunc returns.
    """
    constants = dict(graph.constants)
    nodes: List[Node] = []
    for node in graph.nodes:
        try:
            op = _ops.get_op(node.op)
        except KeyError:
            nodes.append(node)
            continue
        if all(vid in constants for vid in node.inputs):
            arrays = [constants[vid] for vid in node.inputs]
            out, saved = _ops.run_forward(op, *arrays, **node.params)
            if graph.is_scalar(node.output):
                out = np.asarray(out)
            constants[node.output] = out
            if node.saved_output is not None:
                # Fold the saved half too — its consumers may fold in turn.
                constants[node.saved_output] = saved
        else:
            nodes.append(node)
    return Graph(
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        nodes=nodes,
        constants=constants,
        num_values=graph.num_values,
        avals=dict(graph.avals),
    )


def _param_key(value: Any) -> Any:
    """Hashable equality key for a node parameter (see :func:`cse`).

    Floats compare by ``float.hex`` (so ``-0.0`` and ``0.0`` stay apart),
    containers element by element, and everything else — arrays, bound
    table callables, numpy scalars — by identity.  Types are part of the
    key, so ``2`` and ``2.0`` never merge.
    """
    kind = type(value)
    if kind is float:
        return (kind, value.hex())
    if value is None or value is Ellipsis or kind in (bool, int, str):
        return (kind, value)
    if kind in (tuple, list):
        return (kind, tuple(_param_key(item) for item in value))
    if kind is slice:
        return (kind, _param_key(value.start), _param_key(value.stop),
                _param_key(value.step))
    if kind is dict:
        return (kind, tuple(sorted(
            (key, _param_key(item)) for key, item in value.items()
        )))
    return ("id", id(value))


def _constant_key(value: Any) -> Any:
    """Equality key for a graph constant: 0-d by type, dtype and bytes,
    anything larger by identity (two equal parameters stay two values)."""
    if getattr(value, "ndim", None) == 0 and hasattr(value, "tobytes"):
        return (type(value), value.dtype, value.tobytes())
    return ("id", id(value))


def cse(graph: Graph) -> Graph:
    """Common-subexpression elimination: merge nodes that recompute a value.

    Two nodes merge when they have the same op, the same (already merged)
    inputs and equal params (:func:`_param_key`); the later one is dropped
    and its consumers read the earlier one's output.  Constants merge
    first: 0-d constants by value, which folds the ``1/n`` each
    ``Tensor.mean`` lifts, larger ones by identity.  One forward walk then
    catches chains of repeats — the mean and ``x - mean`` that a
    LayerNorm's ``var`` recomputes.

    Every registry op is a pure function of its inputs and params, so a
    merged node's consumers see the same bits.  Nodes whose
    ``saved_output`` is consumed are neither merged nor merge targets, and
    a node producing a graph output is never dropped, so no two outputs
    alias one array.
    """
    output_vids = set(graph.outputs)
    consumed = set(output_vids)
    for node in graph.nodes:
        consumed.update(node.inputs)
    rename: Dict[int, int] = {}
    constants: Dict[int, Any] = {}
    first_constant: Dict[Any, int] = {}
    for vid in sorted(graph.constants):
        value = graph.constants[vid]
        first = first_constant.setdefault(_constant_key(value), vid)
        if first != vid and vid not in output_vids:
            rename[vid] = first
        else:
            constants[vid] = value
    first_node: Dict[Any, int] = {}
    nodes: List[Node] = []
    for node in graph.nodes:
        inputs = tuple(rename.get(vid, vid) for vid in node.inputs)
        if inputs != node.inputs:
            node = dataclasses.replace(node, inputs=inputs)
        if node.saved_output is not None and node.saved_output in consumed:
            nodes.append(node)
            continue
        key = (node.op, inputs, _param_key(node.params) if node.params else None)
        first = first_node.get(key)
        if first is not None and node.output not in output_vids:
            rename[node.output] = first
            continue
        first_node.setdefault(key, node.output)
        nodes.append(node)
    return Graph(
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        nodes=nodes,
        constants=constants,
        num_values=graph.num_values,
        avals=dict(graph.avals),
    )


#: Column kernels (see :func:`layout_operands`) for trailing axes of 2 to
#: ``_COLUMN_MAX_WIDTH`` elements and at least ``_COLUMN_MIN_ROWS`` rows.
_COLUMN_MAX_WIDTH, _COLUMN_MIN_ROWS = 4, 2048


def _column_kernel_node(node: Node, aval, operands) -> Node:
    """``node`` as a ``<op>[cols]`` node when its output has a short
    trailing axis and an operand (of ``operands``, each input's
    ``(shape, dtype)`` or ``None``) broadcasts over it, else ``node``."""
    shape = aval[0]
    width = shape[-1] if shape else 0
    if not 2 <= width <= _COLUMN_MAX_WIDTH or math.prod(shape) < width * _COLUMN_MIN_ROWS:
        return node
    float64 = np.dtype(np.float64)
    if any(operand is None or operand[1] != float64 or not operand[0]
           or operand[0][-1] not in (1, width) for operand in operands):
        return node
    if all(operand[0] == shape or math.prod(operand[0]) == 1 for operand in operands):
        return node  # nothing broadcasts row by row: the plain call is fast
    return dataclasses.replace(node, op=node.op + "[cols]", params={
        "ufunc": _UFUNCS[node.op],
        "shape": shape,
        "wide": tuple(operand[0][-1] == width for operand in operands),
    })


def layout_operands(graph: Graph) -> Graph:
    """Lay operands out in the exact shape each node replays.

    numpy pays per call for the way an operand is laid out, not only for
    the arithmetic: at decode sizes ``(1, 1, 64) * (1,)`` costs ~3x
    ``(1, 1, 64) * 0-d``, ``(1, 1, 64) + (64,)`` ~3x the same vector as a
    ``(1, 1, 64)`` view, and ``clip`` with Python-int bounds ~3x ``clip``
    with 0-d float64 bounds.  A plan is specialised to one signature, so
    its avals say which layout each node will see.  For an
    ``add``/``sub``/``mul``/``div`` node with one constant and one dynamic
    operand, where the dynamic operand's aval is the node's output aval
    and both are float64, the constant becomes

    * a 0-d view when it holds one element;
    * a view reshaped to the output's shape when it holds as many
      elements as the output — broadcasting then only added unit axes;

    and stays as it is otherwise (a broadcast is never materialised, so
    plan memory does not grow).  Each rewritten use gets its own constant
    id, since one constant may feed nodes of different shapes.  The
    Python-scalar ``lo``/``hi`` bounds of ``clip``/``clip_ste`` on a
    float64 input become 0-d float64 arrays.

    **Short trailing axes.**  When an operand broadcasts over the rows of
    an output whose last axis is short — ``(8, 31, 31, 3) * (3,)``, the
    depthwise-conv taps on an RGB image — numpy runs one inner loop of
    ``k`` elements per row.  Such a node becomes ``<op>[cols]``
    (:func:`_column_kernel`), one ufunc call per column.  Plain vs column
    µs, contiguous ``(rows, k)`` with a ``(k,)`` operand, 2-core x86
    container, numpy 2.4, cold cache:

    ====  ==========  ==========  ==========  ===========
    k     1024 rows   2048 rows   8192 rows   16384 rows
    ====  ==========  ==========  ==========  ===========
    3     4.0 / 3.1   7.6 / 3.8   27 / 10     54 / 26
    4     6.2 / 8.6   8.8 / 5.1   29 / 17     58 / 42
    5     4.8 / 4.6   9.1 / 6.6   35 / 25     67 / 57
    6     5.3 / 5.8   10 / 8.1    33 / 35     66 / 83
    8     6.2 / 8.4   12 / 13     43 / 70     92 / 149
    ====  ==========  ==========  ==========  ===========

    With an ``(N, 1)`` operand it lost at k = 5 from 8192 rows (27.5 vs
    24.4 µs).  So the cutoff is ``2 <= k <= 4`` and at least 2048 rows,
    where the column kernel won every case measured.  It keeps serving
    plans plain too: a MiniSegformer's only short-axis node is its
    ``(B·64, 5) + (5,)`` head bias add, where at 1024 rows a column
    kernel was no faster (warm cache: 3.7 µs plain, 4.5 µs column).

    Bits do not change: an element-wise ufunc computes each element from
    the same two float64 values whatever their layout, and float64 on
    both sides keeps the result dtype the same under numpy 2's NEP 50 and
    numpy 1's value-based casting.  The one freedom is a lane where both
    operands of an ``add`` or ``mul`` are NaN: numpy returns one of the
    two NaNs, and which one depends on its inner loop (a plain
    ``(n, 3) + (3,)`` returns the first operand's at one row and the
    second's from four), so a column kernel may return the other.  Nodes
    without an aval are left alone.
    """
    float64 = np.dtype(np.float64)
    constants = dict(graph.constants)
    num_values = graph.num_values
    # New ids share one view per (constant, shape) and one 0-d array per
    # bound value: a plan is cached per signature, so its arrays add up.
    views: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
    bounds: Dict[Any, np.ndarray] = {}
    nodes: List[Node] = []
    for node in graph.nodes:
        aval = graph.avals.get(node.output)
        if aval is None or aval[1] != float64:
            nodes.append(node)
            continue
        if node.op in _UFUNCS:
            inputs = list(node.inputs)
            is_constant = [vid in constants for vid in inputs]
            if is_constant.count(True) == 1:
                index = is_constant.index(True)
                value = constants[inputs[index]]
                shape = None
                if (graph.avals.get(inputs[1 - index]) == aval
                        and type(value) is np.ndarray and value.dtype == float64):
                    if value.size == 1:
                        shape = ()
                    elif value.size == math.prod(aval[0]):
                        shape = aval[0]
                if shape is not None and value.shape != shape:
                    key = (inputs[index], shape)
                    if key not in views:
                        views[key] = value.reshape(shape)
                    inputs[index] = num_values
                    constants[num_values] = views[key]
                    num_values += 1
                    node = dataclasses.replace(node, inputs=tuple(inputs))
            node = _column_kernel_node(node, aval, [
                (constants[vid].shape, constants[vid].dtype)
                if type(constants.get(vid)) is np.ndarray
                else graph.avals.get(vid)
                for vid in node.inputs
            ])
        elif node.op in ("clip", "clip_ste"):
            source = graph.avals.get(node.inputs[0])
            if source is not None and source[1] == float64:
                params = dict(node.params)
                for key in ("lo", "hi"):
                    value = params.get(key)
                    if type(value) in (int, float):
                        params[key] = bounds.setdefault(
                            _param_key(value), np.asarray(value, dtype=np.float64)
                        )
                node = dataclasses.replace(node, params=params)
        nodes.append(node)
    return Graph(
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        nodes=nodes,
        constants=constants,
        num_values=num_values,
        avals=dict(graph.avals),
    )


def optimize(graph: Graph) -> Graph:
    """Fold parameter subtrees, merge repeated work, lay constant operands
    out for the traced shapes, then sweep dead nodes and the folded-away
    source constants; validate the result.

    CSE runs after folding so folded constants merge too, and layout after
    CSE so a merged constant is relaid once per use.  Training graphs run
    the same pipeline.  Why each pass stays is measured in DESIGN.md
    ("One compile pipeline").
    """
    graph = fold_constants(graph)
    graph = cse(graph)
    graph = layout_operands(graph)
    graph = dead_code_elimination(graph)
    graph.validate()
    return graph


# -- liveness-based buffer planning ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class MemoryPlan:
    """Slot assignment produced by :func:`plan_memory`.

    ``slots`` maps every value id to a buffer slot in the executor's
    environment list.  ``constant_slots`` is the subset holding bound
    constants (prefilled once, never released).  ``releases[i]`` lists the
    slots to clear immediately after node ``i`` runs — each is the slot of
    a value whose last consumer was node ``i`` — which drops the array
    reference so the allocator can reuse the memory (views pin their base
    arrays through normal refcounting, so releasing a base early is safe).
    ``num_slots`` is the environment size; ``peak_live`` counts the most
    dynamic (non-constant) slots ever simultaneously occupied — the
    steady-state working set.
    """

    slots: Dict[int, int]
    constant_slots: Dict[int, int]
    releases: Tuple[Tuple[int, ...], ...]
    num_slots: int
    peak_live: int


def plan_memory(graph: Graph) -> MemoryPlan:
    """Assign buffer slots by liveness so later values reuse dead slots."""
    slots: Dict[int, int] = {}
    constant_slots: Dict[int, int] = {}
    for vid in sorted(graph.constants):
        slot = len(slots)
        slots[vid] = slot
        constant_slots[vid] = slot
    next_slot = len(slots)

    last_use: Dict[int, int] = {}
    for index, node in enumerate(graph.nodes):
        for vid in node.inputs:
            last_use[vid] = index
    never_released = set(graph.outputs) | set(constant_slots)

    free: List[int] = []
    peak_live = 0
    live = 0

    def acquire(vid: int) -> None:
        nonlocal next_slot, live, peak_live
        if free:
            slots[vid] = free.pop()
        else:
            slots[vid] = next_slot
            next_slot += 1
        live += 1
        peak_live = max(peak_live, live)

    for vid in graph.inputs:
        acquire(vid)

    releases: List[Tuple[int, ...]] = []
    for index, node in enumerate(graph.nodes):
        acquire(node.output)
        if node.saved_output is not None:
            acquire(node.saved_output)
        dead: List[int] = []
        candidates = set(node.inputs)
        # A value produced but never consumed (and not a graph output) dies
        # immediately; DCE removes these, but the plan must not rely on it.
        candidates.add(node.output)
        if node.saved_output is not None:
            candidates.add(node.saved_output)
        for vid in candidates:
            if vid in never_released:
                continue
            if last_use.get(vid, -1) <= index and vid in slots:
                slot = slots[vid]
                if slot not in dead and vid not in constant_slots:
                    dead.append(slot)
        for slot in dead:
            free.append(slot)
        live -= len(dead)
        releases.append(tuple(sorted(dead)))

    return MemoryPlan(
        slots=slots,
        constant_slots=constant_slots,
        releases=tuple(releases),
        num_slots=next_slot,
        peak_live=peak_live,
    )
