"""Traced graph IR, optimisation passes and the compiled inference executor.

The capture → optimize → execute pipeline that turns one eager forward run
of a :class:`repro.nn.module.Module` into a static, replayable plan:

* :mod:`repro.graph.ir` — the :class:`Graph`/:class:`Node` IR.
* :mod:`repro.graph.trace` — capture via the ``apply_op`` dispatch hook.
* :mod:`repro.graph.passes` — constant folding, CSE, operand layout and
  column kernels, dead-code elimination, liveness-based buffer planning.
* :mod:`repro.graph.executor` — :class:`CompiledGraph` (one signature) and
  the wrappers that cache one plan per input signature and re-trace when
  the captured state is rebound: :class:`CompiledModel`,
  :class:`CompiledTrainStep` and :class:`CompiledDecodeStep`.

Compiled outputs are bit-identical to eager — the passes only remove or
pre-evaluate work, never approximate it.  Select the engine through
:mod:`repro.core.engine_config` (``REPRO_INFER_ENGINE=compiled``) or wrap
a module in :class:`CompiledModel` directly.

PR 9 extends the pipeline to whole *training* steps: a gradient-capturing
:class:`Tracer` records the backward traversal and the optimizer update as
graph nodes, and :class:`CompiledTrainStep` replays the joint
forward+backward+update plan (``REPRO_TRAIN_ENGINE=compiled``), again
bit-identical to the eager loop.

PR 10 adds autoregressive decode: :class:`CompiledDecodeStep` replays a
decoder's KV-cached single-token step per (batch, cache-capacity-bucket)
signature with the cache arrays as carried slots
(``REPRO_DECODE_ENGINE=compiled``), bit-identical logits to the eager
step.
"""

from repro.graph.executor import (
    CompiledDecodeStep,
    CompiledGraph,
    CompiledModel,
    CompiledTrainStep,
)
from repro.graph.ir import Graph, Node
from repro.graph.passes import (
    MemoryPlan,
    cse,
    dead_code_elimination,
    fold_constants,
    layout_operands,
    optimize,
    plan_memory,
)
from repro.graph.trace import Tracer, trace

__all__ = [
    "Graph",
    "Node",
    "Tracer",
    "trace",
    "optimize",
    "cse",
    "dead_code_elimination",
    "fold_constants",
    "layout_operands",
    "MemoryPlan",
    "plan_memory",
    "CompiledDecodeStep",
    "CompiledGraph",
    "CompiledModel",
    "CompiledTrainStep",
]
