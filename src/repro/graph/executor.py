"""Execute: replay an optimised :class:`Graph` on plain numpy arrays.

Two layers:

* :class:`CompiledGraph` — one graph, one input signature.  At build time
  every node is resolved to a bound array-level callable (registry op
  forwards with their params pre-bound, or a fusion-pass graph kernel) and
  the :func:`~repro.graph.passes.plan_memory` slot assignment is frozen
  into a flat step list.  ``run`` is then a tight loop over plain arrays:
  no Tensor allocation, no graph bookkeeping, no ``no_grad`` checks, and
  buffers are released at their last use so steady-state inference holds
  only the live working set.
* Three wrappers that trace lazily per input signature and replay the
  cached plan: :class:`CompiledModel` (``predict`` / no-grad forward),
  :class:`CompiledTrainStep` (forward + backward + optimizer update) and
  :class:`CompiledDecodeStep` (a KV-cached single-token step).  They share
  one plan cache, :class:`_PlanCache`: the signature → plan dict, the
  post-trace identity snapshot of the state the plans capture by
  reference, the staleness check that flushes every plan once that state
  is rebound (optimizer steps, ``load_state_dict``), and the
  ``compile_count`` / ``replay_count`` / ``stats()`` bookkeeping.  Each
  wrapper supplies only its signature, its trace and the state it
  watches.
"""

from __future__ import annotations

import functools
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.reliability.faults import fault_point
from repro.graph.ir import Graph
from repro.graph.passes import (
    DEFAULT_PASSES,
    GRAPH_KERNELS,
    MemoryPlan,
    TRAIN_PASSES,
    optimize,
    plan_memory,
)
from repro.graph.trace import Tracer, trace
from repro.nn import ops as _ops
from repro.nn.module import Module


def _output_only(forward):
    """Wrap a ``(output, saved)``-returning forward to drop the saved half."""
    def fn(*arrays):
        return forward(*arrays)[0]
    return fn


class CompiledGraph:
    """A graph frozen into an executable step list for one signature."""

    def __init__(self, graph: Graph, plan: Optional[MemoryPlan] = None) -> None:
        graph.validate()
        self.graph = graph
        self.plan = plan if plan is not None else plan_memory(graph)
        template: List[Any] = [None] * self.plan.num_slots
        for vid, slot in self.plan.constant_slots.items():
            template[slot] = graph.constants[vid]
        self._template = template
        steps = []
        for node, releases in zip(graph.nodes, self.plan.releases):
            kernel_factory = GRAPH_KERNELS.get(node.op)
            if kernel_factory is not None:
                fn = kernel_factory(node.params)
                tuple_result = False
            else:
                forward = _ops.get_op(node.op).forward
                fn = functools.partial(forward, **node.params) if node.params else forward
                tuple_result = node.op in _ops.SAVED_OUTPUT_OPS
            saved_slot = -1
            if node.saved_output is not None:
                # Training graphs keep the (output, saved) pair — e.g. the
                # fused LUT slope that feeds a traced VJP node.
                saved_slot = self.plan.slots[node.saved_output]
            elif tuple_result:
                # Discarded saved half: split at compile time so the replay
                # loop needs no per-step result-type check.
                fn = _output_only(fn)
            src = tuple(self.plan.slots[vid] for vid in node.inputs)
            steps.append((fn, src, self.plan.slots[node.output], saved_slot, releases))
        self._steps = tuple(steps)
        self._input_slots = tuple(self.plan.slots[vid] for vid in graph.inputs)
        self._output_slots = tuple(self.plan.slots[vid] for vid in graph.outputs)

    def run(self, *inputs: Any) -> List[Any]:
        """Execute the plan on raw arrays; returns the output arrays.

        Re-entrant: every call builds its own slot list from the template,
        and steps only read the shared constants, so concurrent runs of
        one plan from several threads are independent — their outputs are
        bitwise equal to serial runs (pinned by the thread tests over a
        MiniSegformer and a decode plan).  The wrappers below are not
        thread-safe: their plan caches and counters are unsynchronised.

        The loop body is pre-resolved at compile time: each step is a bound
        callable plus plain slot ints — no per-step registry/dict/attribute
        lookups and no result-shape branching (tuple-returning forwards are
        split when compiled, see ``__init__``).
        """
        if len(inputs) != len(self._input_slots):
            raise ValueError(
                "compiled graph expects %d input(s), got %d"
                % (len(self._input_slots), len(inputs))
            )
        env = list(self._template)
        for slot, array in zip(self._input_slots, inputs):
            env[slot] = array
        for fn, src, out_slot, saved_slot, releases in self._steps:
            if saved_slot < 0:
                env[out_slot] = fn(*[env[s] for s in src])
            else:
                env[out_slot], env[saved_slot] = fn(*[env[s] for s in src])
            for slot in releases:
                env[slot] = None
        return [env[slot] for slot in self._output_slots]

    @property
    def num_steps(self) -> int:
        return len(self._steps)


# -- the shared plan cache -------------------------------------------------------


StatePairs = List[Tuple[Any, Any]]


def _signature(arrays: Sequence[Any]) -> Tuple[Tuple[Tuple[int, ...], str], ...]:
    return tuple((tuple(a.shape), str(a.dtype)) for a in arrays)


def _parameter_state(module: Module) -> Callable[[], StatePairs]:
    """State declaration for plans that capture ``module``'s parameters."""
    return lambda: [(param, param.data) for param in module.parameters()]


class _PlanCache:
    """Signature → plan cache with an identity-snapshot staleness check.

    ``state`` declares what the cached plans capture by reference: it
    returns ``(owner, array)`` pairs.  The pairs are snapshotted right
    after every trace — first-call side effects such as quantizer
    initialisation rebind parameter data during capture and belong to the
    captured state, not a reason to invalidate.  Before each lookup the
    saved pairs are checked (``owner.data is array``); once any was rebound
    every plan is dropped and the next call re-traces.  The check loops
    over the saved pairs only, never the module tree.  In-place writes
    (``param.data[...] = ...``) keep identity and are not detected.
    :class:`CompiledTrainStep`, whose state includes optimizer buffer
    lists, overrides :meth:`_stale` to re-collect and compare instead.
    """

    def __init__(self, state: Callable[[], StatePairs]) -> None:
        self._state = state
        self._cache: Dict[Any, Any] = {}
        self._snapshot: StatePairs = []
        self.compile_count = 0
        self.replay_count = 0

    def _stale(self) -> bool:
        for owner, array in self._snapshot:
            if owner.data is not array:
                return True
        return False

    def _lookup(self, signature: Any) -> Any:
        """The cached plan for ``signature``, or ``None`` (trace one)."""
        if self._snapshot and self._stale():
            self.invalidate()
        return self._cache.get(signature)

    def _store(self, signature: Any, plan: Any) -> Any:
        """Cache a freshly traced plan and snapshot the state it captured."""
        self._cache[signature] = plan
        self.compile_count += 1
        self._snapshot = self._state()
        return plan

    def invalidate(self) -> None:
        """Drop every cached plan (forces re-tracing on the next call)."""
        self._cache.clear()
        self._snapshot = []

    @property
    def specializations(self) -> int:
        """Number of cached input-signature plans."""
        return len(self._cache)

    def _label(self, signature: Any) -> str:
        return repr(signature)

    def _row(self, plan: Any) -> Dict[str, int]:
        return {
            "nodes": plan.num_steps,
            "peak_live": plan.plan.peak_live,
            "num_slots": plan.plan.num_slots,
        }

    def stats(self) -> Dict[str, Any]:
        """Plan metrics per cached signature (memory regressions pin these).

        ``peak_live`` is :func:`~repro.graph.passes.plan_memory`'s count of
        dynamic buffers simultaneously live while replaying the plan — its
        working set.
        """
        return {
            "compile_count": self.compile_count,
            "replay_count": self.replay_count,
            "specializations": len(self._cache),
            "signatures": {
                self._label(signature): self._row(plan)
                for signature, plan in self._cache.items()
            },
        }


# -- compiled inference ----------------------------------------------------------


class CompiledModel(_PlanCache):
    """Traced-and-optimised inference front-end for a :class:`Module`.

    Compilation is lazy and per input signature ``(shape, dtype)``: the
    first call with a new signature traces the module's eager forward once
    (running any first-call side effects — quantizer initialisation, dense
    table builds — exactly as eager would), optimises, and caches the
    executable.  Subsequent calls replay the cached plan.  The captured
    constants reference the module's parameter arrays, so the plan cache
    watches every parameter: training between evaluations (optimiser steps
    rebind ``.data``) transparently re-compiles.

    With ``fallback=True`` a trace/compile/replay failure degrades to the
    eager forward instead of failing the call: the eager path is run, and
    only if it *succeeds* (proving the input was fine and the compiled
    path itself broke) the call counts as a degradation —
    ``fallback_count`` increments and a single ``RuntimeWarning`` is
    emitted.  If eager also fails, the input was genuinely bad and the
    eager error propagates untouched.  Eager/compiled bit-parity is
    pinned by the test suite, so a fallback changes latency, never
    results.  The default stays ``False``: in tests and debugging a
    broken trace should fail loudly; the serving tier
    (:class:`repro.serve.engine.BatchingServer`) opts in.
    """

    def __init__(
        self,
        module: Module,
        passes: Sequence[str] = DEFAULT_PASSES,
        fallback: bool = False,
    ) -> None:
        super().__init__(_parameter_state(module))
        self.module = module
        self.passes = tuple(passes)
        self.fallback = fallback
        self.fallback_count = 0
        self._fallback_warned = False

    # -- state swap (replicated serving) ---------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Copy of the wrapped module's parameters, keyed by dotted name.

        The supervisor's hot-swap protocol captures this before mutating a
        fleet so a failed swap can roll the old state back bit-exactly.
        """
        return self.module.state_dict()

    def rebind_state(self, state: Dict[str, Any], strict: bool = True) -> None:
        """Strict-load new parameters and drop every cached specialisation.

        ``load_state_dict`` rebinds parameter ``.data`` arrays, which the
        per-call staleness check would eventually notice — but a swap must
        not serve even one stale replay, so the cache is flushed here,
        synchronously, before the call returns.
        """
        self.module.load_state_dict(state, strict=strict)
        self.invalidate()

    def graph_for(self, *arrays: Any) -> CompiledGraph:
        """The cached (or freshly compiled) executable for this signature."""
        signature = _signature(arrays)
        compiled = self._lookup(signature)
        if compiled is None:
            fault_point("compiled.trace")
            captured = trace(self.module, *arrays)
            compiled = self._store(
                signature, CompiledGraph(optimize(captured, self.passes))
            )
        return compiled

    # -- inference surface -----------------------------------------------------

    def _eager_forward(self, arrays: Sequence[Any]):
        """The exact eager computation the compiled path replays."""
        from repro.nn.tensor import Tensor, no_grad

        with no_grad():
            outputs = self.module(*[Tensor(array) for array in arrays])
        if isinstance(outputs, tuple):
            return tuple(output.data for output in outputs)
        return outputs.data

    def _degrade(self, arrays: Sequence[Any], error: BaseException):
        """Answer ``arrays`` eagerly after a compiled-path failure.

        Runs the eager forward *first*: if it raises too, the request was
        bad (wrong shape, non-divisible image) and that genuine error
        propagates; only an eager success counts as a degradation.
        """
        result = self._eager_forward(arrays)
        self.fallback_count += 1
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                "compiled inference failed (%s: %s); degraded to the eager path "
                "— results are bit-identical, latency is not"
                % (type(error).__name__, error),
                RuntimeWarning,
                stacklevel=3,
            )
        return result

    def __call__(self, *inputs: Any):
        """Run the compiled forward; returns the raw output array(s)."""
        arrays = [np.asarray(value, dtype=np.float64) for value in inputs]
        try:
            compiled = self.graph_for(*arrays)
            fault_point("compiled.replay")
            outputs = compiled.run(*arrays)
        except Exception as error:
            if not self.fallback:
                raise
            outputs = self._degrade(arrays, error)
            if not isinstance(outputs, tuple):
                return outputs
        else:
            self.replay_count += 1
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    def predict(self, images: Any):
        """Per-pixel argmax class prediction (mirrors the eager predict)."""
        return np.argmax(self(images), axis=-1)


# -- compiled training ----------------------------------------------------------


class _TrainPlan:
    """One batch signature's frozen train-step executable and its plumbing."""

    __slots__ = (
        "compiled", "params", "feeds", "updates", "advance", "onehot_width"
    )

    def __init__(
        self, compiled, params, feeds, updates, advance, onehot_width
    ) -> None:
        self.compiled = compiled
        self.params = params      # trace-time parameter order (input layout)
        self.feeds = feeds        # [(vid, fn)] dynamic per-step input sources
        self.updates = updates    # [(vid, apply)] output -> state rebinding
        self.advance = advance    # per-step Python bookkeeping (Adam _step)
        self.onehot_width = onehot_width  # logits' class dim (one-hot cols)


def _train_state(model: Module, optimizer) -> StatePairs:
    """Every parameter plus every optimizer buffer (SGD velocity, Adam m/v)."""
    pairs: StatePairs = [(param, param.data) for param in model.parameters()]
    for group in ("_velocity", "_m", "_v"):
        buffers = getattr(optimizer, group, None)
        if buffers is not None:
            pairs.extend((buffers, buffer) for buffer in buffers)
    return pairs


class CompiledTrainStep(_PlanCache):
    """A whole fine-tune step — forward + backward + optimizer — replayed
    from a static plan.

    The first ``step()`` call for a batch signature runs one *real* eager
    training step under a gradient-capturing :class:`Tracer`: the forward
    records its ops, ``loss.backward()`` emits every VJP application as
    graph nodes mirroring the eager arithmetic term for term, and the
    optimizer's ``trace_step`` emits its update rules symbolically while
    performing the genuine eager update.  Parameters and optimizer buffers
    enter the graph as *inputs* (fed fresh each step) and their updated
    values are graph *outputs* rebound into the model/optimizer after each
    replay — the in-place state carry.  Dynamic scalars the Python side
    owns (the scheduled learning rate, Adam's bias corrections) are 0-d
    array inputs computed per step, so the cosine schedule stays ordinary
    Python.

    Replayed steps are bit-identical to eager steps by construction: every
    node either *is* the function the eager path calls or mirrors its
    exact expression order (pinned by the parity suite).  The per-signature
    cache re-specialises on new batch shapes (the last short batch of an
    epoch gets its own plan).  The watched state is every parameter and
    optimizer buffer, re-collected on every call: an optimizer's
    ``load_state_dict`` replaces whole buffer lists, so a saved snapshot
    could not see it.  External rebinding — checkpoint restore,
    ``load_state_dict`` — invalidates the cache so the next step re-traces
    (again a real eager step, so the training trajectory never skews).
    """

    def __init__(
        self,
        model: Module,
        optimizer,
        num_classes: int,
        schedule=None,
        passes: Sequence[str] = TRAIN_PASSES,
    ) -> None:
        super().__init__(functools.partial(_train_state, model, optimizer))
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule
        # Advisory label-space size (kept for introspection); the traced
        # one-hot encoding is sized to the model's logit width, which may
        # legitimately be wider than the labels in play.
        self.num_classes = int(num_classes)
        self.passes = tuple(passes)
        self._check_supported()

    # -- guards ----------------------------------------------------------------

    def _check_supported(self) -> None:
        from repro.nn.layers import Dropout

        for module in self.model.modules():
            if isinstance(module, Dropout) and module.p > 0:
                raise ValueError(
                    "compiled training cannot capture stochastic Dropout "
                    "masks; use train_engine='eager' for this model"
                )
        if not hasattr(self.optimizer, "trace_step"):
            raise TypeError(
                "optimizer %s does not support traced updates (no trace_step)"
                % type(self.optimizer).__name__
            )

    # -- staleness -------------------------------------------------------------

    def _stale(self) -> bool:
        current = self._state()
        if len(current) != len(self._snapshot):
            return True
        for (owner, array), (snap_owner, snap_array) in zip(
            current, self._snapshot
        ):
            if owner is not snap_owner or array is not snap_array:
                return True
        return False

    # -- capture ---------------------------------------------------------------

    def _trace(self, images: Any, labels: Any) -> Tuple[_TrainPlan, float]:
        """Run one real eager step under capture; freeze the plan."""
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor, tracing

        fault_point("compiled.train.trace")
        tracer = Tracer(capture_grads=True)
        image_t = Tensor(images)
        tracer.add_input(image_t)
        params = list(self.model.parameters())
        param_vids = {
            id(param): tracer.add_input(param) for param in params
        }
        with tracing(tracer):
            logits = self.model(image_t)
            # One-hot width follows the *logits'* class dimension, which
            # may exceed the label-space size (a wider head trained on
            # fewer classes) — exactly what eager cross_entropy indexes.
            onehot_width = logits.shape[-1]
            onehot_t = Tensor(F.one_hot(labels, onehot_width))
            tracer.add_input(onehot_t)
            loss = F.cross_entropy_onehot(logits, onehot_t)
            self.optimizer.zero_grad()
            loss.backward()
            feeds, updates, advance = self.optimizer.trace_step(
                tracer, param_vids
            )
        tracer.mark_output_vid(tracer.value_of(loss))
        for vid, _apply in updates:
            tracer.mark_output_vid(vid)
        graph = tracer.graph
        graph.validate()
        compiled = CompiledGraph(optimize(graph, self.passes))
        if self.schedule is not None:
            self.schedule.step()
        plan = _TrainPlan(compiled, params, feeds, updates, advance,
                          onehot_width)
        return plan, float(loss.data)

    # -- the step surface ------------------------------------------------------

    def step(self, images: Any, labels: Any) -> float:
        """Run one training step (images, integer labels); returns the loss.

        Semantically identical to the eager loop body ``forward → loss →
        zero_grad → backward → optimizer.step() → schedule.step()``; the
        first call per batch signature (and the first after external state
        rebinding) *is* that eager body, every other call replays the plan.
        """
        if not self.model.training:
            raise RuntimeError(
                "compiled training requires the model in train() mode"
            )
        from repro.nn import functional as F

        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels)
        signature = (
            tuple(images.shape), str(images.dtype), tuple(labels.shape)
        )
        plan = self._lookup(signature)
        if plan is None:
            # The traced step is a real step: it rebinds parameters and
            # buffers before _store snapshots them.
            plan, loss = self._trace(images, labels)
            self._store(signature, plan)
            return loss
        fault_point("compiled.train.replay")
        arrays = [images]
        arrays.extend(param.data for param in plan.params)
        arrays.append(F.one_hot(labels, plan.onehot_width))
        arrays.extend(fn() for _vid, fn in plan.feeds)
        outputs = plan.compiled.run(*arrays)
        for (vid, apply), array in zip(plan.updates, outputs[1:]):
            apply(array)
        plan.advance()
        if self.schedule is not None:
            self.schedule.step()
        self.replay_count += 1
        # Our own rebinding moved every identity; re-snapshot so only
        # *external* rebinds (checkpoint restore) trigger invalidation.
        self._snapshot = self._state()
        return float(outputs[0])

    # -- introspection ---------------------------------------------------------

    def _row(self, plan: _TrainPlan) -> Dict[str, int]:
        row = super()._row(plan.compiled)
        row["outputs"] = len(plan.updates) + 1
        return row


# -- compiled autoregressive decode ----------------------------------------------


class CompiledDecodeStep(_PlanCache):
    """The single-token decode step of a cache-carrying decoder, compiled.

    Wraps a model exposing ``step(token_onehot, pos_onehot, mask, *caches)
    -> (logits, *new_caches)`` — :class:`repro.nn.transformer.MiniDecoder` —
    and replays it from a per-signature static plan.  The KV cache arrays
    are *carried slots*: they enter each replay as plain array inputs and
    the step's outputs are handed back to the caller's
    :class:`~repro.nn.transformer.KVCache` to rebind, the same
    input→output state carry :class:`CompiledTrainStep` uses for
    parameters and optimizer buffers.  Nothing is captured by reference
    except the parameters (the watched state, as in
    :class:`CompiledModel`), so one compiled step serves any number of
    concurrent caches — the serving tier drains whole session groups
    through a single plan.

    The signature covers every input's shape/dtype, so specialisations are
    keyed by (batch, cache capacity).  Callers bucket capacity in powers
    of two (:func:`repro.nn.transformer.bucket_capacity`): a ``T``-token
    decode costs ``~log2(T)`` traces, and every step between bucket
    crossings is a pure replay.
    """

    def __init__(
        self, model: Module, passes: Sequence[str] = DEFAULT_PASSES
    ) -> None:
        if not hasattr(model, "step"):
            raise TypeError(
                "model %s has no step() method to compile"
                % type(model).__name__
            )
        super().__init__(_parameter_state(model))
        self.model = model
        self.passes = tuple(passes)

    def step(
        self,
        token_onehot: Any,
        pos_onehot: Any,
        mask: Any,
        cache_arrays: Sequence[Any],
    ) -> Tuple[Any, List[Any]]:
        """Advance one token per row; returns ``(logits, new_cache_arrays)``.

        Inputs mirror the model's ``step`` signature with the cache arrays
        flattened in :meth:`repro.nn.transformer.KVCache.arrays` order; the
        returned cache arrays go straight into
        :meth:`~repro.nn.transformer.KVCache.update`.  Logits are
        bit-identical to the eager step on the same arrays — the plan
        replays the same registry ops in the same order.
        """
        arrays = [
            np.asarray(token_onehot, dtype=np.float64),
            np.asarray(pos_onehot, dtype=np.float64),
            np.asarray(mask, dtype=np.float64),
        ]
        arrays.extend(np.asarray(array, dtype=np.float64)
                      for array in cache_arrays)
        signature = _signature(arrays)
        compiled = self._lookup(signature)
        if compiled is None:
            fault_point("compiled.decode.trace")
            captured = trace(self.model.step, *arrays)
            compiled = self._store(
                signature, CompiledGraph(optimize(captured, self.passes))
            )
        fault_point("compiled.decode.replay")
        outputs = compiled.run(*arrays)
        self.replay_count += 1
        return outputs[0], outputs[1:]

    def _label(self, signature: Any) -> str:
        batch, capacity = signature[0][0][0], signature[3][0][2]
        return "batch=%d,capacity=%d" % (batch, capacity)
