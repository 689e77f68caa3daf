"""Optimisers for the numpy training substrate.

``SGD`` and ``Adam`` update the whole model with one expression: each step
packs the grad-carrying parameters, their grads and their buffers into flat
vectors (the ``pack`` registry op: ravel and concatenate), runs the update
rule once on those vectors, and rebinds every ``param.data`` and per-parameter
buffer to a reshaped view of the flat result.  Every rule is element-wise,
so the packed update equals a per-parameter loop bit for bit (pinned by
``tests/test_train_step_oracle_parity.py``); the ``state_dict`` format stays
one buffer per parameter.

Both also support *traced updates* for compiled training
(:class:`repro.graph.executor.CompiledTrainStep`): ``trace_step`` emits the
same packed update as graph nodes, mirroring the eager ``step()``
arithmetic expression for expression — same ops, same evaluation order, so
replayed updates are bit-identical — and then performs the real eager step
(the trace step *is* a training step).  Hyper-parameters that are fixed for
a run (betas, eps, momentum, weight decay) become graph constants; values
the Python side advances per step (the scheduled learning rate, Adam's
bias corrections) and the packed buffers become array inputs fed at each
replay.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.ops import pack_arrays, split_packed

#: trace_step return type: (feeds, updates, advance) — per-replay input
#: sources [(vid, fn)], output rebinding [(vid, apply)], and the per-step
#: Python bookkeeping the replay must run after rebinding.
TraceStepPlan = Tuple[
    List[Tuple[int, Callable[[], Any]]],
    List[Tuple[int, Callable[[Any], None]]],
    Callable[[], None],
]


class Optimizer:
    """Base class holding the parameter list and the packing helpers."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive, got %r" % (lr,))
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Resumable state: the learning rate plus per-parameter buffers.

        Subclasses with momentum/moment buffers extend this — together
        with the model's ``state_dict`` it makes a mid-run checkpoint
        bit-exact to an uninterrupted run (pinned by the resume tests).
        """
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.lr = float(state["lr"])

    def _check_buffers(self, name: str, buffers: List[Any]) -> List[Any]:
        if len(buffers) != len(self.parameters):
            raise ValueError(
                "optimizer state has %d %s buffer(s) for %d parameter(s)"
                % (len(buffers), name, len(self.parameters))
            )
        return [np.asarray(buffer, dtype=np.float64).copy() for buffer in buffers]

    # -- packing ----------------------------------------------------------------

    def _active(self) -> List[int]:
        """Indices of the parameters this step updates (those with a grad)."""
        return [i for i, param in enumerate(self.parameters) if param.grad is not None]

    @staticmethod
    def _pack(arrays: List[Any], active: List[int]) -> Any:
        """The active entries of ``arrays`` raveled into one flat vector."""
        return pack_arrays(*[arrays[i] for i in active])

    def _unpack(self, flat: Any, active: List[int]) -> List[Any]:
        """Reshaped views of ``flat``, one per active parameter."""
        return split_packed(flat, [self.parameters[i].data.shape for i in active])

    def _rebind(self, buffers: List[Any], flat: Any, active: List[int]) -> None:
        """Point each active entry of ``buffers`` at its view of ``flat``."""
        for i, view in zip(active, self._unpack(flat, active)):
            buffers[i] = view

    def _rebind_params(self, flat: Any, active: List[int]) -> None:
        """Point each active parameter's ``.data`` at its view of ``flat``."""
        for i, view in zip(active, self._unpack(flat, active)):
            self.parameters[i].data = view

    def _trace_packed(self, tracer, param_vids: Dict[int, int],
                      active: List[int]) -> Tuple[int, int]:
        """Emit ``pack`` nodes for the active parameters and their grads."""
        grad_vids = [tracer.grad_vid(self.parameters[i]) for i in active]
        if any(vid is None for vid in grad_vids):
            raise RuntimeError(
                "parameter has a .grad but no captured gradient; was "
                "backward() run under the gradient-capturing tracer?"
            )
        param_vid = tracer.emit(
            "pack", [param_vids[id(self.parameters[i])] for i in active]
        )
        return param_vid, tracer.emit("pack", grad_vids)

    def _feed_packed(self, tracer, feeds: List[Tuple[int, Callable[[], Any]]],
                     name: str, active: List[int]) -> int:
        """A graph input fed each replay with the packed buffer list ``name``."""
        vid = tracer.add_input_array()
        feeds.append((vid, lambda: self._pack(getattr(self, name), active)))
        return vid


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        active = self._active()
        if not active:
            return
        param = self._pack([p.data for p in self.parameters], active)
        grad = self._pack([p.grad for p in self.parameters], active)
        if self.weight_decay:
            grad = grad + self.weight_decay * param
        if self.momentum:
            velocity = self._pack(self._velocity, active)
            grad = velocity * self.momentum + grad
            self._rebind(self._velocity, grad, active)
        self._rebind_params(param - self.lr * grad, active)

    def trace_step(self, tracer, param_vids: Dict[int, int]) -> TraceStepPlan:
        """Emit this step's update as graph nodes, then run the real step.

        ``param_vids`` maps ``id(param)`` to the graph-input value id the
        parameter was pre-bound to.  The emitted expressions mirror
        :meth:`step` on the same packed vectors: ``grad + wd*p``,
        ``v*mu + grad``, ``p - lr*grad`` (as ``p + (-lr*grad)`` —
        IEEE-identical).  The learning rate and the packed velocity are
        per-replay feeds, so the cosine schedule keeps driving the rate
        from Python.
        """
        feeds: List[Tuple[int, Callable[[], Any]]] = []
        updates: List[Tuple[int, Callable[[Any], None]]] = []
        active = self._active()
        if active:
            lr_vid = tracer.add_input_array()
            feeds.append((lr_vid, lambda: np.asarray(self.lr)))
            param_vid, grad_vid = self._trace_packed(tracer, param_vids, active)
            if self.weight_decay:   # grad = grad + wd * param
                wd_vid = tracer.constant(np.asarray(self.weight_decay))
                decay_vid = tracer.emit("mul", (wd_vid, param_vid))
                grad_vid = tracer.emit("add", (grad_vid, decay_vid))
            if self.momentum:       # velocity = velocity * mu + grad
                velocity_vid = self._feed_packed(tracer, feeds, "_velocity", active)
                momentum_vid = tracer.constant(np.asarray(self.momentum))
                scaled_vid = tracer.emit("mul", (velocity_vid, momentum_vid))
                grad_vid = tracer.emit("add", (scaled_vid, grad_vid))
                updates.append((
                    grad_vid,
                    lambda flat: self._rebind(self._velocity, flat, active),
                ))
            # param = param - lr * grad  (emitted as param + (-(lr * grad)))
            step_vid = tracer.emit("mul", (lr_vid, grad_vid))
            new_param = tracer.emit(
                "add", (param_vid, tracer.emit("neg", (step_vid,)))
            )
            updates.append((
                new_param, lambda flat: self._rebind_params(flat, active)
            ))
        self.step()
        return feeds, updates, lambda: None

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["velocity"] = [velocity.copy() for velocity in self._velocity]
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._velocity = self._check_buffers("velocity", state["velocity"])


class Adam(Optimizer):
    """Adam optimiser."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._step = 0

    def step(self) -> None:
        self._step += 1
        active = self._active()
        if not active:
            return
        param = self._pack([p.data for p in self.parameters], active)
        grad = self._pack([p.grad for p in self.parameters], active)
        if self.weight_decay:
            grad = grad + self.weight_decay * param
        m = self.beta1 * self._pack(self._m, active) + (1 - self.beta1) * grad
        v = self.beta2 * self._pack(self._v, active) + (1 - self.beta2) * grad ** 2
        m_hat = m / (1 - self.beta1 ** self._step)
        v_hat = v / (1 - self.beta2 ** self._step)
        self._rebind(self._m, m, active)
        self._rebind(self._v, v, active)
        self._rebind_params(
            param - self.lr * m_hat / (np.sqrt(v_hat) + self.eps), active
        )

    def trace_step(self, tracer, param_vids: Dict[int, int]) -> TraceStepPlan:
        """Emit this step's update as graph nodes, then run the real step.

        Mirrors :meth:`step` bit-for-bit on the same packed vectors:
        moment updates as ``b*m + (1-b)*g`` (with ``g**2`` via the ``pow``
        op), bias corrections ``1 - b**t`` fed per replay as 0-d inputs
        (``t`` is the *post*-advance step count, matching eager's
        increment-first order), and the parameter update
        ``p - lr*m_hat/(sqrt(v_hat)+eps)`` emitted as
        ``p + (-(lr*m_hat/(sqrt(v_hat)+eps)))`` — IEEE-identical.  The
        whole model's update is one such sequence (~17 nodes) between
        ``pack`` nodes and three flat outputs.
        """
        feeds: List[Tuple[int, Callable[[], Any]]] = []
        updates: List[Tuple[int, Callable[[Any], None]]] = []
        active = self._active()
        if active:
            lr_vid = tracer.add_input_array()
            feeds.append((lr_vid, lambda: np.asarray(self.lr)))
            correction1_vid = tracer.add_input_array()
            feeds.append((
                correction1_vid,
                lambda: np.asarray(1 - self.beta1 ** (self._step + 1)),
            ))
            correction2_vid = tracer.add_input_array()
            feeds.append((
                correction2_vid,
                lambda: np.asarray(1 - self.beta2 ** (self._step + 1)),
            ))
            param_vid, grad_vid = self._trace_packed(tracer, param_vids, active)
            if self.weight_decay:   # grad = grad + wd * param
                wd_vid = tracer.constant(np.asarray(self.weight_decay))
                decay_vid = tracer.emit("mul", (wd_vid, param_vid))
                grad_vid = tracer.emit("add", (grad_vid, decay_vid))
            m_vid = self._feed_packed(tracer, feeds, "_m", active)
            v_vid = self._feed_packed(tracer, feeds, "_v", active)
            # m = beta1*m + (1-beta1)*grad ; v = beta2*v + (1-beta2)*grad**2
            m_new = tracer.emit("add", (
                tracer.emit("mul", (tracer.constant(np.asarray(self.beta1)), m_vid)),
                tracer.emit("mul", (
                    tracer.constant(np.asarray(1 - self.beta1)), grad_vid,
                )),
            ))
            grad_sq = tracer.emit("pow", (grad_vid,), {"exponent": 2})
            v_new = tracer.emit("add", (
                tracer.emit("mul", (tracer.constant(np.asarray(self.beta2)), v_vid)),
                tracer.emit("mul", (
                    tracer.constant(np.asarray(1 - self.beta2)), grad_sq,
                )),
            ))
            updates.append((m_new, lambda flat: self._rebind(self._m, flat, active)))
            updates.append((v_new, lambda flat: self._rebind(self._v, flat, active)))
            m_hat = tracer.emit("div", (m_new, correction1_vid))
            v_hat = tracer.emit("div", (v_new, correction2_vid))
            # param = param - lr * m_hat / (sqrt(v_hat) + eps)
            numer_vid = tracer.emit("mul", (lr_vid, m_hat))
            denom_vid = tracer.emit("add", (
                tracer.emit("sqrt", (v_hat,)),
                tracer.constant(np.asarray(self.eps)),
            ))
            step_vid = tracer.emit("div", (numer_vid, denom_vid))
            new_param = tracer.emit(
                "add", (param_vid, tracer.emit("neg", (step_vid,)))
            )
            updates.append((
                new_param, lambda flat: self._rebind_params(flat, active)
            ))
        self.step()

        def advance() -> None:
            self._step += 1

        return feeds, updates, advance

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["step"] = self._step
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._step = int(state["step"])
        self._m = self._check_buffers("m", state["m"])
        self._v = self._check_buffers("v", state["v"])


class CosineSchedule:
    """Cosine learning-rate decay over a fixed number of steps."""

    def __init__(self, optimizer: Optimizer, total_steps: int, min_lr: float = 0.0) -> None:
        if total_steps < 1:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.base_lr = optimizer.lr
        self.min_lr = min_lr
        self._step = 0

    def step(self) -> float:
        """Advance one step and return the new learning rate."""
        self._step = min(self._step + 1, self.total_steps)
        progress = self._step / self.total_steps
        lr = self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + np.cos(np.pi * progress))
        self.optimizer.lr = float(lr)
        return float(lr)

    def state_dict(self) -> Dict[str, Any]:
        """Resumable state: only the step — the decay shape is config."""
        return {"step": self._step}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        step = int(state["step"])
        if not 0 <= step <= self.total_steps:
            raise ValueError(
                "schedule step %d outside [0, %d]" % (step, self.total_steps)
            )
        self._step = step
