"""One table for every engine knob, resolved kwarg > context > env > default.

Each knob is one row of :data:`KNOBS`: field name, type, default,
environment variable, validator and a short description.
:class:`EngineConfig`, the frozen snapshot of all knobs, is generated from
the table, and :func:`resolve` reads one knob with the precedence
**kwarg > context > env > default**:

1. an explicit ``override`` (a call site's keyword argument) always wins,
2. otherwise the innermost :func:`use` block that sets the field applies,
3. otherwise the knob's environment variable, when set and non-empty,
4. otherwise the table's default.

Consumers (:class:`~repro.experiments.jobs.SweepEngine`, the model
``predict``/``fit``/decode entry points, the serving tier) accept
``engine=None`` / ``workers=None`` and call
``engine_config.resolve("infer_engine", engine)``, so experiment code
selects engines once::

    from repro.core import engine_config

    with engine_config.use(infer_engine="compiled", sweep_workers=2):
        run_table4(...)          # every nested predict + sweep follows

Seeded results are bit-identical across every engine choice, so the
resolution layer can never change numbers — only speed.  An override is
parsed and checked the same way wherever it comes from: ``resolve(name,
value)`` and ``use(name=value)`` agree on every input, and a bad value
raises :class:`ValueError` at the call (or ``with``) line.

The ``use`` layers live in a :class:`contextvars.ContextVar`, so a block
scopes its overrides to the thread (or asyncio task) that entered it.  A
thread started inside a block — a server's drain thread, say — begins with
an empty context and resolves the environment and defaults, as does a
``ProcessPoolExecutor`` worker.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


def _one_of(*choices: str) -> Callable[[str, Any], None]:
    def check(name: str, value: Any) -> None:
        if value not in choices:
            raise ValueError(
                "unknown engine %r for %s; expected one of %s" % (value, name, choices)
            )
    return check


def _at_least(limit: float) -> Callable[[str, Any], None]:
    def check(name: str, value: Any) -> None:
        if value < limit:
            raise ValueError("%s must be >= %r, got %r" % (name, limit, value))
    return check


def _positive(name: str, value: Any) -> None:
    if value <= 0:
        raise ValueError("%s must be > 0, got %r" % (name, value))


@dataclasses.dataclass(frozen=True)
class Knob:
    """One engine knob: how it is named, parsed, defaulted and validated."""

    name: str
    type: type  # parses the env var; coerces int/float overrides
    default: Any
    env: str
    check: Optional[Callable[[str, Any], None]]
    doc: str


_ENGINE = _one_of("eager", "compiled")

#: The table.  Row order is :class:`EngineConfig`'s field order.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("sweep_workers", int, 0, "REPRO_SWEEP_WORKERS", _at_least(0),
         "worker count (0 runs the sweep serially)"),
    Knob("artifact_dir", str, None, "REPRO_ARTIFACT_DIR", None,
         "on-disk artifact store directory (none: in-process cache only)"),
    # ``compiled`` replays a traced, optimised repro.graph plan per input
    # signature; ``eager`` rebuilds the autograd graph per call.  The two
    # are bit-identical for predict/evaluate, whole training steps and the
    # KV-cached decode step alike.
    Knob("infer_engine", str, "eager", "REPRO_INFER_ENGINE", _ENGINE,
         "whole-model inference engine"),
    Knob("train_engine", str, "eager", "REPRO_TRAIN_ENGINE", _ENGINE,
         "Trainer.fit step engine"),
    Knob("decode_engine", str, "eager", "REPRO_DECODE_ENGINE", _ENGINE,
         "autoregressive-decode step engine"),
    Knob("sweep_run_dir", str, None, "REPRO_SWEEP_RUN_DIR", None,
         "durable sweep journal directory (none: no journal)"),
    Knob("sweep_lease_s", float, 30.0, "REPRO_SWEEP_LEASE_S", _positive,
         "work-queue lease timeout in seconds"),
    Knob("retry_attempts", int, 3, "REPRO_RETRY_ATTEMPTS", _at_least(1),
         "total attempt count (1 means no retry)"),
    Knob("retry_base_delay", float, 0.05, "REPRO_RETRY_BASE_DELAY", _at_least(0),
         "retry backoff base in seconds"),
    Knob("serve_queue_limit", int, 0, "REPRO_SERVE_QUEUE_LIMIT", _at_least(0),
         "admission-queue bound (0 means unbounded)"),
    Knob("serve_deadline_ms", float, 0.0, "REPRO_SERVE_DEADLINE_MS", _at_least(0),
         "default request deadline in ms (0 means none)"),
    Knob("serve_replicas", int, 2, "REPRO_SERVE_REPLICAS", _at_least(1),
         "replicated-serving fleet size"),
    Knob("serve_heartbeat_ms", float, 100.0, "REPRO_SERVE_HEARTBEAT_MS", _positive,
         "replica heartbeat interval in ms (5x silence is a hang)"),
    Knob("serve_crash_loop_threshold", int, 3, "REPRO_SERVE_CRASH_LOOP_THRESHOLD",
         _at_least(1), "deaths inside the crash-loop window that trip the breaker"),
)}


def _validate(config: Any) -> None:
    for knob in KNOBS.values():
        if knob.check is not None:
            knob.check(knob.name, getattr(config, knob.name))


EngineConfig = dataclasses.make_dataclass(
    "EngineConfig",
    [(knob.name, Optional[knob.type] if knob.default is None else knob.type,
      knob.default) for knob in KNOBS.values()],
    frozen=True,
    namespace={
        "__doc__": "A fully resolved snapshot of every engine knob.",
        "__post_init__": _validate,
    },
)
EngineConfig.__module__ = __name__

_LAYERS: contextvars.ContextVar[Tuple[Dict[str, Any], ...]] = contextvars.ContextVar(
    "engine_config_layers", default=()
)


def _knob(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise TypeError(
            "unknown engine-config field %r; expected one of %s" % (name, list(KNOBS))
        ) from None


def _coerce(knob: Knob, value: Any, source: str) -> Any:
    """``value`` converted to the knob's type and checked.

    ``source`` names where the value came from (the env var or the field)
    in the error.  ``None`` passes through for knobs whose default is
    ``None`` (no artifact store, no journal).
    """
    if value is None and knob.default is None:
        return None
    if knob.type is not str:
        try:
            value = knob.type(value.strip() if isinstance(value, str) else value)
        except (TypeError, ValueError):
            kind = "an integer" if knob.type is int else "a float"
            raise ValueError(
                "%s must be %s %s, got %r" % (source, kind, knob.doc, value)
            ) from None
    if knob.check is not None:
        knob.check(knob.name, value)
    return value


def _from_env(knob: Knob) -> Any:
    """The knob's environment value (validated), or its default if unset."""
    raw = os.environ.get(knob.env)
    if not raw:
        return knob.default
    return _coerce(knob, raw, knob.env)


def resolve(name: str, override: Any = None) -> Any:
    """One knob's value: ``override`` > innermost ``use`` > env > default."""
    knob = _knob(name)
    if override is not None:
        return _coerce(knob, override, name)
    for layer in reversed(_LAYERS.get()):
        if name in layer:
            return layer[name]
    return _from_env(knob)


def current() -> EngineConfig:
    """The active configuration: defaults, then env, then ``use`` overrides."""
    values = {name: _from_env(knob) for name, knob in KNOBS.items()}
    for layer in _LAYERS.get():
        values.update(layer)
    return EngineConfig(**values)


@contextlib.contextmanager
def use(**overrides: Any) -> Iterator[EngineConfig]:
    """Scope engine-knob overrides to a ``with`` block (innermost wins).

    Accepts any :class:`EngineConfig` field::

        with engine_config.use(infer_engine="compiled", sweep_workers=4):
            ...

    Values are converted and checked on entry exactly as
    ``resolve(name, value)`` does, so a typo fails at the ``with`` line.
    """
    unknown = sorted(set(overrides) - set(KNOBS))
    if unknown:
        raise TypeError(
            "unknown engine-config field(s) %s; expected %s" % (unknown, list(KNOBS))
        )
    layer = {name: _coerce(KNOBS[name], value, name) for name, value in overrides.items()}
    token = _LAYERS.set(_LAYERS.get() + (layer,))
    try:
        yield current()  # validates the merged configuration up front
    finally:
        _LAYERS.reset(token)
