"""Deterministic fault injection keyed by site name.

Production code marks its failure-prone seams with one call::

    fault_point("sweep.build:%s:%s" % (job.operator, job.method))

which is a near-free no-op (one dict lookup) until a test installs a
:class:`FaultPlan`::

    plan = FaultPlan(specs=(
        FaultSpec(site="sweep.build:gelu:*", fail_always=True),   # poison
        FaultSpec(site="compiled.trace", fail_calls=(1,)),        # transient
        FaultSpec(site="serve.batch", delay_always=True, delay_seconds=0.2),
    ))
    with inject(plan):
        ...

Semantics:

* **Sites** are plain strings matched by :func:`fnmatch.fnmatch`, so one
  spec can poison a whole operator family (``"sweep.build:gelu:*"``).
* **Determinism.**  Which calls fail is a function of the per-site call
  counter (1-based) and the spec — never of wall clock or ``random``.
  The chaos tests replay identically; the ``seed`` only parameterises
  *how* bytes are corrupted, not *whether* a fault fires.
* **Cross-process plans.**  ``inject(plan, propagate=True)`` also
  exports the plan as JSON in ``REPRO_FAULT_PLAN``, so process-pool
  workers spawned inside the block observe the same plan (each worker
  keeps its own call counters — per-process determinism).
* **Corruption** is a separate hook (:func:`corrupt_file`) because the
  artifact store must corrupt the *bytes it just wrote*, not raise: a
  torn write is a file that exists and parses wrong.

Instrumented seams (the site inventory the chaos suites target):
``sweep.build:<operator>:<method>`` (cell execution),
``compiled.trace`` / ``serve.batch`` (serving tier),
``artifact.save`` (post-write byte corruption via :func:`corrupt_file`),
and — PR 8 — ``queue.append`` (journal record append, for torn-tail and
mid-write crashes), ``queue.lease`` (lease acquisition), and
``artifact.scrub`` (per-file verification during a scrub pass).
"""

from __future__ import annotations

import contextlib
import dataclasses
import fnmatch
import hashlib
import json
import os
import threading
import time
from typing import Dict, Iterator, Optional, Tuple

from repro.reliability.errors import InjectedFault

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

# Exception classes a spec may raise, by stable name (the plan must stay
# JSON-serialisable for env propagation, so specs carry names not types).
EXCEPTIONS: Dict[str, type] = {
    "injected": InjectedFault,
    "runtime": RuntimeError,
    "value": ValueError,
    "os": OSError,
    "timeout": TimeoutError,
}


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected behaviour at every site matching ``site`` (fnmatch).

    ``fail_calls`` / ``delay_calls`` / ``corrupt_calls`` are 1-based
    per-site call indices; the ``*_always`` flags apply to every call.
    Delays are applied before failures, so a spec can model a slow crash.
    """

    site: str
    fail_calls: Tuple[int, ...] = ()
    fail_always: bool = False
    exception: str = "injected"
    message: str = "injected fault"
    delay_calls: Tuple[int, ...] = ()
    delay_always: bool = False
    delay_seconds: float = 0.0
    corrupt_calls: Tuple[int, ...] = ()
    corrupt_always: bool = False

    def __post_init__(self) -> None:
        if self.exception not in EXCEPTIONS:
            raise ValueError(
                "unknown exception %r (expected one of %s)"
                % (self.exception, sorted(EXCEPTIONS))
            )
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")

    def fails(self, call: int) -> bool:
        return self.fail_always or call in self.fail_calls

    def delays(self, call: int) -> bool:
        return (self.delay_always or call in self.delay_calls) and self.delay_seconds > 0

    def corrupts(self, call: int) -> bool:
        return self.corrupt_always or call in self.corrupt_calls


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable, JSON-round-trippable set of :class:`FaultSpec`."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def matching(self, site: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if fnmatch.fnmatch(site, s.site))

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [dataclasses.asdict(s) for s in self.specs]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(blob: str) -> "FaultPlan":
        payload = json.loads(blob)
        specs = []
        for raw in payload.get("specs", ()):
            raw = dict(raw)
            for field in ("fail_calls", "delay_calls", "corrupt_calls"):
                raw[field] = tuple(raw.get(field, ()))
            specs.append(FaultSpec(**raw))
        return FaultPlan(specs=tuple(specs), seed=int(payload.get("seed", 0)))


class _FaultState:
    """Per-process active plan plus thread-safe per-site call counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self.lock = threading.Lock()

    def next_call(self, site: str) -> int:
        with self.lock:
            call = self.counters.get(site, 0) + 1
            self.counters[site] = call
            return call


_STATE: Optional[_FaultState] = None
# Cache of the last parsed env plan, keyed by the raw env string, so the
# per-call env check in workers is one dict lookup + string compare.
_ENV_CACHE: Tuple[Optional[str], Optional[_FaultState]] = (None, None)


def _active_state() -> Optional[_FaultState]:
    global _ENV_CACHE
    if _STATE is not None:
        return _STATE
    blob = os.environ.get(FAULT_PLAN_ENV)
    if not blob:
        return None
    cached_blob, cached_state = _ENV_CACHE
    if blob != cached_blob:
        _ENV_CACHE = (blob, _FaultState(FaultPlan.from_json(blob)))
    return _ENV_CACHE[1]


def install(plan: Optional[FaultPlan], propagate: bool = False) -> None:
    """Install ``plan`` process-wide (``None`` uninstalls).

    ``propagate`` exports/clears the plan in ``REPRO_FAULT_PLAN`` so
    subprocesses spawned afterwards observe it too.
    """
    global _STATE
    _STATE = _FaultState(plan) if plan is not None else None
    if propagate:
        if plan is not None:
            os.environ[FAULT_PLAN_ENV] = plan.to_json()
        else:
            os.environ.pop(FAULT_PLAN_ENV, None)


@contextlib.contextmanager
def inject(plan: FaultPlan, propagate: bool = False) -> Iterator[FaultPlan]:
    """Scope a fault plan to a ``with`` block (counters reset on entry)."""
    install(plan, propagate=propagate)
    try:
        yield plan
    finally:
        install(None, propagate=propagate)


def active_plan() -> Optional[FaultPlan]:
    state = _active_state()
    return state.plan if state is not None else None


def fault_point(site: str) -> None:
    """Apply the active plan at ``site``: maybe delay, then maybe raise."""
    state = _active_state()
    if state is None:
        return
    specs = state.plan.matching(site)
    if not specs:
        return
    call = state.next_call(site)
    for spec in specs:
        if spec.delays(call):
            time.sleep(spec.delay_seconds)
    for spec in specs:
        if spec.fails(call):
            raise EXCEPTIONS[spec.exception](
                "%s (site=%s, call %d)" % (spec.message, site, call)
            )


def fault_flag(site: str) -> bool:
    """``True`` when a matching spec fires at this call — without raising.

    The boolean twin of :func:`fault_point` for faults that cannot be
    expressed as an exception from the seam: a replica killing its own
    process (``os._exit`` leaves no frame to raise through) or silent
    state corruption mid-swap.  The call counter and delay semantics are
    identical to :func:`fault_point`; only the firing behaviour differs —
    the caller decides what "firing" means at this seam.
    """
    state = _active_state()
    if state is None:
        return False
    specs = state.plan.matching(site)
    if not specs:
        return False
    call = state.next_call(site)
    for spec in specs:
        if spec.delays(call):
            time.sleep(spec.delay_seconds)
    return any(spec.fails(call) for spec in specs)


def corrupt_file(site: str, path: os.PathLike) -> bool:
    """Deterministically corrupt the file at ``path`` if the plan says so.

    Models a torn write: the file is truncated to half its length and its
    first byte is XOR-perturbed (seed-dependent), so it still exists but
    no longer parses.  Returns ``True`` when corruption was applied.
    """
    state = _active_state()
    if state is None:
        return False
    specs = state.plan.matching(site)
    if not specs:
        return False
    call = state.next_call(site)
    if not any(spec.corrupts(call) for spec in specs):
        return False
    with open(path, "r+b") as handle:
        data = handle.read()
        digest = hashlib.sha256(
            ("%s|%d|%d" % (site, call, state.plan.seed)).encode("utf-8")
        ).digest()
        torn = bytearray(data[: max(1, len(data) // 2)])
        torn[0] ^= digest[0] | 1  # guarantee at least one flipped bit
        handle.seek(0)
        handle.truncate()
        handle.write(bytes(torn))
    return True
