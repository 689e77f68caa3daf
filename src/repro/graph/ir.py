"""Static graph IR for compiled inference.

A :class:`Graph` is the capture → optimize → execute substrate's common
currency: a flat, topologically ordered list of :class:`Node` records over
integer *value ids*.  Each node names a registered op (the same
``(forward, vjps)`` table :mod:`repro.nn.ops` uses for eager dispatch, or
a column kernel :func:`repro.graph.passes.layout_operands` introduced), the
value ids it consumes, its parameters, and the value id it produces.

Value ids fall into three classes:

* **inputs** — the placeholder leaves the traced callable was run with;
  bound fresh on every :meth:`repro.graph.executor.CompiledGraph.run`.
* **constants** — arrays that entered the trace from outside the input
  set: module parameters, LUT tables, literal scalars.  They are bound
  once at capture time (snapshot-by-reference; see the trace docs).
* **node outputs** — everything a node produces.

Alongside the values the tracer records an *aval* — ``(shape, dtype)`` —
for every input and every op output it observed (:attr:`Graph.avals`), so
passes can specialise to the exact shapes a plan replays.

The IR is deliberately minimal — no control flow, one output per node,
edges are just ints — because the traced models are straight-line token
pipelines and every optimisation pass (:mod:`repro.graph.passes`) is a
simple list-and-dict rewrite over this shape.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

#: A value's abstract description: ``(shape, dtype)``.
Aval = Tuple[Tuple[int, ...], Any]


@dataclasses.dataclass(frozen=True)
class Node:
    """One operation of the static graph.

    ``op`` is a name in the :mod:`repro.nn.ops` registry or an
    executor-level graph kernel (see ``GRAPH_KERNELS``); ``inputs`` are the
    consumed value ids in positional order; ``params`` are the keyword
    parameters the forward is invoked with; ``output`` is the produced
    value id; ``label`` is an optional human-readable tag (e.g. the stable
    kernel name an ``apply_elementwise_fused`` caller supplied).
    """

    op: str
    inputs: Tuple[int, ...]
    output: int
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    label: Optional[str] = None
    # Second output for ops whose forward returns ``(output, saved)`` —
    # e.g. the fused LUT lookup's slope.  ``None`` (the default, and always
    # the case for inference traces) means the saved half is discarded at
    # execution time; a value id means a later node (a traced VJP) consumes
    # it, so the executor must store it instead of dropping it.
    saved_output: Optional[int] = None


@dataclasses.dataclass
class Graph:
    """A captured straight-line computation over value ids.

    ``nodes`` are in execution (topological) order — the tracer appends
    them as the eager forward runs, so index order is always valid.

    ``avals`` maps a value id to the ``(shape, dtype)`` the eager run gave
    it: every graph input bound to a tensor, every output of an op the
    tracer saw run, and the nodes ``Tracer.emit`` can give one (traced
    VJPs; not optimizer nodes fed by aval-less inputs).  Passes that read
    avals skip values without one.  Every pass carries them through;
    :class:`~repro.graph.executor.CompiledGraph` drops them, with the
    graph, once it has planned the replay.
    """

    inputs: List[int] = dataclasses.field(default_factory=list)
    outputs: List[int] = dataclasses.field(default_factory=list)
    nodes: List[Node] = dataclasses.field(default_factory=list)
    constants: Dict[int, Any] = dataclasses.field(default_factory=dict)
    num_values: int = 0
    avals: Dict[int, Aval] = dataclasses.field(default_factory=dict)

    def new_value(self) -> int:
        """Allocate a fresh value id."""
        vid = self.num_values
        self.num_values += 1
        return vid

    def add_constant(self, array: Any) -> int:
        """Bind ``array`` as a constant and return its value id."""
        vid = self.new_value()
        self.constants[vid] = array
        return vid

    def is_scalar(self, vid: int) -> bool:
        """Whether ``vid``'s aval is 0-d.  Eager holds such a value as a 0-d
        array, where a ufunc returns a numpy scalar, so folding and replay
        wrap it the same way (numpy's scalar paths can differ in the sign
        of a NaN)."""
        aval = self.avals.get(vid)
        return aval is not None and aval[0] == ()

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Every node input must be defined before use (an input, a constant,
        or an earlier node's output), outputs must be defined somewhere,
        and no value may have two definitions.
        """
        defined = set(self.inputs)
        overlap = defined & set(self.constants)
        if overlap:
            raise ValueError("value ids defined as both input and constant: %s"
                             % sorted(overlap))
        defined |= set(self.constants)
        for index, node in enumerate(self.nodes):
            for vid in node.inputs:
                if vid not in defined:
                    raise ValueError(
                        "node %d (%s) consumes undefined value %d"
                        % (index, node.op, vid)
                    )
            if node.output in defined:
                raise ValueError(
                    "node %d (%s) redefines value %d" % (index, node.op, node.output)
                )
            defined.add(node.output)
            if node.saved_output is not None:
                if node.saved_output in defined:
                    raise ValueError(
                        "node %d (%s) redefines saved value %d"
                        % (index, node.op, node.saved_output)
                    )
                defined.add(node.saved_output)
        for vid in self.outputs:
            if vid not in defined:
                raise ValueError("graph output %d is never defined" % vid)

    def __str__(self) -> str:
        """Readable multi-line dump (debugging / golden tests)."""
        lines = ["graph(inputs=%s, outputs=%s)" % (self.inputs, self.outputs)]
        for vid in sorted(self.constants):
            value = self.constants[vid]
            shape = getattr(value, "shape", ())
            lines.append("  const %%%d : shape=%s" % (vid, tuple(shape)))
        for node in self.nodes:
            label = " # %s" % node.label if node.label else ""
            lines.append(
                "  %%%d = %s(%s)%s"
                % (node.output, node.op, ", ".join("%%%d" % i for i in node.inputs), label)
            )
        return "\n".join(lines)
