"""Execute: replay an optimised :class:`Graph` on plain numpy arrays.

Two layers:

* :class:`CompiledGraph` — one graph, one input signature.  At build time
  every node is resolved to an array-level callable (a registry op forward
  plus its keyword params, or a graph kernel a pass introduced) and the
  :func:`~repro.graph.passes.plan_memory` slot assignment is frozen into a
  step table.  From that table one Python function is generated: one line
  per step calling its kernel on local names, a ``del`` at each release,
  kernels, params and constants bound as global names.  ``run`` calls it —
  no Tensor allocation, no graph bookkeeping, no per-step loop or slot
  list, and buffers are released at their last use so steady-state
  inference holds only the live working set.  ``profile`` generates the
  same code with a timer around each step.
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

import collections
import functools
import time
import warnings
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.reliability.faults import fault_point
from repro.graph.ir import Graph
from repro.graph.passes import GRAPH_KERNELS, optimize, plan_memory
from repro.graph.trace import Tracer, trace
from repro.nn import ops as _ops
from repro.nn.module import Module


class _Step(NamedTuple):
    """One frozen node: its bound callable plus plain slot ints.

    ``fn`` is called as ``fn(*[slot values of src], **params)``.  A node
    whose forward returns ``(output, saved)`` stores both halves when
    ``saved >= 0`` and keeps only the output when ``first_only`` is set.
    ``scalar`` marks an output whose traced aval is 0-d: eager holds it as
    a 0-d array, so the replay wraps the ufunc's numpy scalar the same way.
    """

    op: str
    fn: Callable[..., Any]
    params: Dict[str, Any]
    src: Tuple[int, ...]
    out: int
    saved: int
    releases: Tuple[int, ...]
    first_only: bool
    scalar: bool


def _straight_line(
    steps: Sequence[_Step],
    constants: Dict[int, Any],
    input_slots: Sequence[int],
    output_slots: Sequence[int],
    times: Optional[List[float]] = None,
) -> Callable[..., List[Any]]:
    """Generate the replay function for a frozen step table.

    One Python line per step, a ``del`` after each step that releases
    slots, and every kernel, keyword parameter and constant bound as a
    global name of the generated function.  Dynamic slots are locals
    (``s<slot>``), constants globals (``k<slot>``), so each call has its
    own working set.  A step with a 0-d aval wraps its result in
    ``asarray``.  With ``times``, each step's line is bracketed by
    ``perf_counter`` calls that add its seconds to ``times[step]``.
    """
    namespace = {"asarray": np.asarray, "clock": time.perf_counter, "times": times}
    names: Dict[int, str] = {}
    for slot, array in constants.items():
        names[slot] = "k%d" % slot
        namespace[names[slot]] = array

    def name(slot: int) -> str:
        return names.get(slot) or "s%d" % slot

    lines = ["def replay(%s):" % ", ".join(name(slot) for slot in input_slots)]
    for index, step in enumerate(steps):
        namespace["f%d" % index] = step.fn
        args = [name(slot) for slot in step.src]
        for key, value in step.params.items():
            namespace["p%d_%s" % (index, key)] = value
            args.append("%s=p%d_%s" % (key, index, key))
        call = "f%d(%s)" % (index, ", ".join(args))
        if step.saved >= 0:
            target = "%s, %s" % (name(step.out), name(step.saved))
        else:
            target = name(step.out)
            if step.first_only:
                call += "[0]"
            if step.scalar:
                call = "asarray(%s)" % call
        if times is not None:
            lines.append("    t = clock()")
        lines.append("    %s = %s" % (target, call))
        if step.scalar and step.saved >= 0:
            lines.append("    %s = asarray(%s)" % (name(step.out), name(step.out)))
        if times is not None:
            lines.append("    times[%d] += clock() - t" % index)
        if step.releases:
            lines.append("    del %s" % ", ".join(name(s) for s in step.releases))
    lines.append("    return [%s]" % ", ".join(name(slot) for slot in output_slots))
    exec(_replay_code("\n".join(lines) + "\n"), namespace)
    # Popped so the namespace does not refer back to the function (no
    # reference cycle to wait on the cyclic collector).
    return namespace.pop("replay")


@functools.lru_cache(maxsize=64)
def _replay_code(source: str) -> Any:
    """Compiled code for a replay source.  Plans that differ only in
    shapes, params and constants (a decoder's cache buckets, batch sizes)
    generate the same source, so each is compiled once."""
    return compile(source, "<compiled graph>", "exec")


class CompiledGraph:
    """A graph frozen into an executable step list for one signature.

    It keeps the step table, the constants and a summary (:attr:`num_steps`,
    :attr:`peak_live`, :attr:`num_slots`, the op histogram :attr:`ops`),
    not the graph or its memory plan: a server caches a plan per signature.
    """

    def __init__(self, graph: Graph) -> None:
        graph.validate()
        plan = plan_memory(graph)
        steps = []
        for node, releases in zip(graph.nodes, plan.releases):
            kernel_factory = GRAPH_KERNELS.get(node.op)
            if kernel_factory is not None:
                fn, params = kernel_factory(node.params), {}
            else:
                fn, params = _ops.get_op(node.op).forward, node.params
            saved = -1
            if node.saved_output is not None:
                # Training graphs keep the (output, saved) pair — e.g. the
                # fused LUT slope that feeds a traced VJP node.
                saved = plan.slots[node.saved_output]
            steps.append(_Step(
                op=node.op,
                fn=fn,
                params=params,
                src=tuple(plan.slots[vid] for vid in node.inputs),
                out=plan.slots[node.output],
                saved=saved,
                releases=releases,
                first_only=saved < 0 and node.op in _ops.SAVED_OUTPUT_OPS,
                scalar=graph.is_scalar(node.output),
            ))
        self._steps = tuple(steps)
        self._constants = {
            slot: graph.constants[vid]
            for vid, slot in plan.constant_slots.items()
        }
        self._input_slots = tuple(plan.slots[vid] for vid in graph.inputs)
        self._output_slots = tuple(plan.slots[vid] for vid in graph.outputs)
        self._replay = _straight_line(
            self._steps, self._constants, self._input_slots, self._output_slots
        )
        self.peak_live = plan.peak_live
        self.num_slots = plan.num_slots
        self.ops = dict(collections.Counter(step.op for step in self._steps))

    def run(self, *inputs: Any) -> List[Any]:
        """Execute the plan on raw arrays; returns the output arrays.

        ``run`` calls one generated straight-line function (see
        :func:`_straight_line`): each step is a direct call of its bound
        kernel with its keyword parameters, and each release a ``del`` of
        a local.  There is no per-step loop, slot list or result-type
        check, so a replayed node costs about what its numpy call costs.

        Re-entrant: every call has its own locals, and steps only read the
        shared constants, so concurrent runs of one plan from several
        threads are independent — their outputs are bitwise equal to
        serial runs (pinned by the thread tests over a MiniSegformer and a
        decode plan).  The wrappers below are not thread-safe: their plan
        caches and counters are unsynchronised.
        """
        self._check_arity(inputs)
        return self._replay(*inputs)

    def profile(
        self, *inputs: Any, repeats: int = 1
    ) -> Tuple[List[Any], Dict[str, Dict[str, float]]]:
        """Replay ``repeats`` times, timing every step; returns
        ``(outputs, breakdown)``.

        ``breakdown`` maps each op name to ``{"count": nodes of that op in
        the plan, "seconds": their summed time per replay}`` (the mean over
        the repeats).  A column kernel counts under its own name
        (``mul[cols]``).  The replay is ``run``'s generated code with a
        ``perf_counter`` pair around each step, so each number includes
        the timer's own cost; the outputs are those of ``run``.
        """
        self._check_arity(inputs)
        if repeats < 1:
            raise ValueError("repeats must be at least 1, got %d" % repeats)
        times = [0.0] * len(self._steps)
        timed = _straight_line(self._steps, self._constants, self._input_slots,
                               self._output_slots, times)
        for _ in range(repeats):
            outputs = timed(*inputs)
        breakdown = {op: {"count": count, "seconds": 0.0} for op, count in self.ops.items()}
        for step, seconds in zip(self._steps, times):
            breakdown[step.op]["seconds"] += seconds / repeats
        return outputs, breakdown

    def _check_arity(self, inputs: Sequence[Any]) -> None:
        if len(inputs) != len(self._input_slots):
            raise ValueError(
                "compiled graph expects %d input(s), got %d"
                % (len(self._input_slots), len(inputs))
            )

    @property
    def num_steps(self) -> int:
        return len(self._steps)


# -- the shared plan cache -------------------------------------------------------


StatePairs = List[Tuple[Any, Any]]


def _signature(arrays: Sequence[Any]) -> Tuple[Tuple[Tuple[int, ...], Any], ...]:
    """The plan-cache key: every array's ``(shape, dtype)``.

    Keyed on the dtype object itself; its name is only spelled out for
    stats labels (``str(dtype)`` costs more than the rest of the key).
    """
    return tuple((a.shape, a.dtype) for a in arrays)


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
    over the saved pairs only, never the module tree.  An in-place write
    (``param.data[...] = ...``) keeps identity, so every snapshotted array
    is made read-only: such a write raises at the write instead of
    leaving a plan that baked in the old values.  State changes by
    rebinding (``param.data = ...``, ``load_state_dict``, optimizer steps).
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
        self._take_snapshot()
        return plan

    def _take_snapshot(self) -> None:
        """Save the watched state and make its arrays read-only."""
        self._snapshot = self._state()
        for _owner, array in self._snapshot:
            array.flags.writeable = False

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
            "peak_live": plan.peak_live,
            "num_slots": plan.num_slots,
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
        fallback: bool = False,
    ) -> None:
        super().__init__(_parameter_state(module))
        self.module = module
        self.fallback = fallback
        self.fallback_count = 0
        self._fallback_warned = False

    # -- state swap (replicated serving) ---------------------------------------

    def rebind_state(self, state: Dict[str, Any], strict: bool = True) -> None:
        """Strict-load new parameters and drop every cached specialisation.

        ``load_state_dict`` rebinds parameter ``.data`` arrays, which the
        per-call staleness check would eventually notice — but a swap must
        not serve even one stale replay, so the cache is flushed here,
        synchronously, before the call returns.
        """
        self.module.load_state_dict(state, strict=strict)
        self.invalidate()

    def _label(self, signature: Any) -> str:
        return repr(tuple((shape, str(dtype)) for shape, dtype in signature))

    def graph_for(self, *arrays: Any) -> CompiledGraph:
        """The cached (or freshly compiled) executable for this signature."""
        signature = _signature(arrays)
        compiled = self._lookup(signature)
        if compiled is None:
            fault_point("compiled.trace")
            captured = trace(self.module, *arrays)
            compiled = self._store(
                signature, CompiledGraph(optimize(captured))
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
        *,
        schedule=None,
    ) -> None:
        super().__init__(functools.partial(_train_state, model, optimizer))
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule
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
        del tracer  # and every tensor of the traced step, before compiling
        compiled = CompiledGraph(optimize(graph))
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
        self._take_snapshot()
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

    def __init__(self, model: Module) -> None:
        if not hasattr(model, "step"):
            raise TypeError(
                "model %s has no step() method to compile"
                % type(model).__name__
            )
        super().__init__(_parameter_state(model))
        self.model = model

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
        compiled = self.graph_for(*arrays)
        fault_point("compiled.decode.replay")
        outputs = compiled.run(*arrays)
        self.replay_count += 1
        return outputs[0], outputs[1:]

    def graph_for(self, *arrays: Any) -> CompiledGraph:
        """The cached (or freshly compiled) plan for these float64 step
        arrays, in :meth:`step` order with the cache arrays flattened."""
        signature = _signature(arrays)
        compiled = self._lookup(signature)
        if compiled is None:
            fault_point("compiled.decode.trace")
            captured = trace(self.model.step, *arrays)
            compiled = self._store(
                signature, CompiledGraph(optimize(captured))
            )
        return compiled

    def _label(self, signature: Any) -> str:
        batch, capacity = signature[0][0][0], signature[3][0][2]
        return "batch=%d,capacity=%d" % (batch, capacity)
