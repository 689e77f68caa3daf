"""Replicated serving supervisor: crash recovery, hot-swap, graceful drain.

:class:`ReplicatedServer` fronts N worker *processes* (one
:func:`~repro.serve.worker.worker_main` each) behind the same admission
surface as :class:`~repro.serve.engine.BatchingServer` — it *is* one: the
bounded queue, deadlines, shed semantics and batch assembly are inherited
unchanged; only :meth:`_submit_group` is overridden to enqueue padded
shape-groups for per-replica dispatcher threads instead of executing
inline.  What the supervisor adds is surviving the process itself dying,
and updating the model, without dropping traffic or returning wrong bits.

Replica lifecycle (one ``_Replica`` slot per index, states guarded by one
lock)::

    STARTING ──ready──▶ HEALTHY ◀──promote/rollback── DRAINING
        │                  │  ▲                           │
        │ sentinel/timeout │  └────────── swap drains ────┘
        ▼                  ▼
       DEAD ◀── heartbeat stale (SIGKILL) / process sentinel
        │ restart after RetryPolicy backoff
        │
        └──▶ FAILED   when >= crash_loop_threshold deaths land inside
                      crash_loop_window_s (the circuit breaker), or the
                      policy's max_elapsed restart budget is exhausted

* **Death detection** is `process.is_alive()` sentinels plus heartbeat
  staleness (5x the heartbeat interval → SIGKILL + restart).  Pipe EOF
  is deliberately *not* trusted: later-forked siblings hold copies of an
  earlier replica's pipe ends, which keep the pipe open after it dies.
  A serve loop that wedges while its heartbeat *thread* keeps beating is
  caught by ``batch_timeout_s``: every pipe exchange has a hard
  deadline, past which the replica is killed and its batch re-dispatched.
* **Re-dispatch.**  Inference is pure, so a dead replica's in-flight
  batch is re-enqueued for a survivor instead of failing its callers —
  bit-identical answers, bounded by ``max_redispatch`` attempts.  Worker
  *application* errors (bad shape) are the request's fault and propagate
  without re-dispatch, exactly like the single-process server.
* **Crash-loop breaker.**  Deaths are timestamped per slot; too many
  inside the window flips the slot to FAILED (no more restarts) and
  ``health()`` reports ``degraded``.  All slots FAILED → pending and
  future requests fail fast with ``NoHealthyReplicaError`` and the
  status is ``failed``.
* **Rolling hot-swap.**  :meth:`swap_state` validates the new state on
  the supervisor's reference model first (strict ``load_state_dict`` —
  a bad dict fails before any replica is touched, and a validation
  failure restores the old reference state before propagating, so a
  shape mismatch that aborts the load mid-loop never leaves the
  reference half-loaded), computes the expected canary prediction, then
  per replica: drain in-flight work → send the swap → bit-compare the
  returned canary prediction → promote.  Any mismatch or error rolls
  the reference model *and every already-promoted replica* back to the
  old state (verifying the canary in the rollback direction too) and
  raises ``SwapFailedError`` — the fleet never serves two silently
  different models.  Restarts are deferred while a swap is active; a
  replica that is DEAD during the swap simply restarts afterwards by
  forking the (new or rolled-back) reference model, which is always the
  promoted truth.  A replica that *missed* the swap (still STARTING
  when its turn came) carries a stale ``model_generation``: it is never
  promoted to HEALTHY — the supervisor retires and respawns it from the
  promoted reference instead, so a stale fork never takes traffic.

Fleet size, heartbeat and breaker threshold are plain constructor
arguments (defaults: 2 replicas, 100 ms, 3 deaths).  Workers are forked,
so build and warm the model (one eager predict initialises the LSQ
quantizer scales) *before* constructing the server — every replica then
shares identical frozen scales and answers are bit-identical regardless
of which replica serves them (pinned by the chaos tests).
"""

from __future__ import annotations

import builtins
import multiprocessing
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.approx import swap_lut_tables
from repro.nn.module import Module
from repro.reliability.errors import (
    NoHealthyReplicaError,
    ReplicaCrashLoopError,
    ReplicaDiedError,
    ServerClosedError,
    SwapFailedError,
)
from repro.reliability.retry import RetryPolicy
from repro.serve.engine import BatchingServer, _Request
from repro.serve.worker import (
    MSG_BATCH,
    MSG_HB,
    MSG_READY,
    MSG_RESULT,
    MSG_STOP,
    MSG_SWAP,
    MSG_SWAPPED,
    worker_main,
)

# Heartbeats older than this many intervals mean the replica is wedged.
_HEARTBEAT_STALE_FACTOR = 5.0
# A replica not ready this long after its fork is killed and restarted.
_START_TIMEOUT_S = 60.0
# How long close() lets the work queue drain before failing what is left.
_DRAIN_TIMEOUT_S = 30.0
# Default whole-fleet bound for one swap_state call.
_SWAP_TIMEOUT_S = 30.0

STARTING = "starting"
HEALTHY = "healthy"
DRAINING = "draining"
DEAD = "dead"
FAILED = "failed"


class _GroupWork:
    """One padded shape-group waiting for (or riding on) a replica."""

    __slots__ = ("group", "batch", "padded_to", "attempts")

    def __init__(self, group: List[_Request], batch: Any, padded_to: int) -> None:
        self.group = group
        self.batch = batch
        self.padded_to = padded_to
        self.attempts = 0


class _SwapCommand:
    """A targeted hot-swap command routed via one replica's direct queue."""

    __slots__ = ("state", "tables", "canary", "reply")

    def __init__(self, state, tables, canary, reply: Future) -> None:
        self.state = state
        self.tables = tables
        self.canary = canary
        self.reply = reply


class _Replica:
    """One replica slot: the current process/pipe plus lifecycle history.

    The slot object is stable across restarts — ``process`` / ``conn``
    are replaced per generation, so the dispatcher thread bound to this
    index never has to rebind anything but what it reads per loop.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.state = STARTING
        self.generation = 0  # incremented per spawn
        self.model_generation = 0  # which promoted model this replica serves
        self.started_at = 0.0
        self.last_heartbeat = 0.0
        self.fallbacks = 0
        self.batches = 0  # batches the current process answered
        self.crash_times: List[float] = []
        self.first_crash: Optional[float] = None
        self.restart_at: Optional[float] = None
        self.reason: Optional[str] = None
        self.direct: "queue.Queue" = queue.Queue()  # targeted commands (swap)
        self.in_flight: Optional[_GroupWork] = None
        self.busy = False  # dispatcher is inside a send/recv exchange


def _rebuild_error(type_name: str, message: str) -> Exception:
    """Reconstruct a worker-side application error for the caller.

    Builtins (``ValueError`` for a non-divisible image) and reliability
    errors round-trip by name; anything else degrades to ``RuntimeError``
    with the original type folded into the message.
    """
    candidate = getattr(builtins, type_name, None)
    if not (isinstance(candidate, type) and issubclass(candidate, Exception)):
        from repro.reliability import errors as _errors

        candidate = getattr(_errors, type_name, None)
    if not (isinstance(candidate, type) and issubclass(candidate, Exception)):
        return RuntimeError("%s: %s" % (type_name, message))
    try:
        return candidate(message)
    except Exception:
        return RuntimeError("%s: %s" % (type_name, message))


class ReplicatedServer(BatchingServer):
    """N replica processes behind one admission queue, supervised.

    Parameters (beyond :class:`BatchingServer`'s)
    ----------
    replicas:
        Fleet size (>= 1).
    heartbeat_ms:
        Worker heartbeat interval (> 0); staleness past 5x this is a hang
        and the replica is killed.
    crash_loop_threshold / crash_loop_window_s:
        The circuit breaker: this many deaths (>= 1) inside the window
        marks the replica FAILED instead of restarting it.
    restart_policy:
        :class:`RetryPolicy` supplying restart backoff (attempt = deaths
        in window) and, via ``max_elapsed``, an optional total restart
        budget per crash burst; ``None`` is ``RetryPolicy()``.
        ``max_attempts`` is not consulted — the breaker owns give-up
        semantics.
    canary:
        Default canary image for :meth:`swap_state` (a single ``(H,W,C)``
        array); per-call ``canary=`` overrides.
    max_redispatch:
        How many times one batch may be re-dispatched after replica
        deaths before its callers fail with ``ReplicaDiedError``.
    batch_timeout_s:
        Hard ceiling on one pipe exchange (batch or swap command).  A
        replica whose serve loop wedges while its heartbeat thread keeps
        beating never goes heartbeat-stale; this timeout is what catches
        it — the replica is killed and the in-flight batch re-dispatched
        to a survivor.
    """

    def __init__(
        self,
        model: Module,
        replicas: int = 2,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        engine: Optional[str] = None,
        max_queue: int = 0,
        deadline_ms: float = 0.0,
        heartbeat_ms: float = 100.0,
        crash_loop_threshold: int = 3,
        crash_loop_window_s: float = 5.0,
        restart_policy: Optional[RetryPolicy] = None,
        canary: Optional[Any] = None,
        max_redispatch: int = 3,
        batch_timeout_s: float = 60.0,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1, got %r" % (replicas,))
        if heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be > 0, got %r" % (heartbeat_ms,))
        if crash_loop_threshold < 1:
            raise ValueError(
                "crash_loop_threshold must be >= 1, got %r" % (crash_loop_threshold,)
            )
        if crash_loop_window_s <= 0:
            raise ValueError(
                "crash_loop_window_s must be > 0, got %r" % (crash_loop_window_s,)
            )
        if max_redispatch < 1:
            raise ValueError("max_redispatch must be >= 1, got %r" % (max_redispatch,))
        if batch_timeout_s <= 0:
            raise ValueError(
                "batch_timeout_s must be > 0, got %r" % (batch_timeout_s,)
            )
        self._replica_count = replicas
        self._heartbeat_s = heartbeat_ms / 1000.0
        self._heartbeat_stale_s = _HEARTBEAT_STALE_FACTOR * self._heartbeat_s
        self._crash_loop_threshold = crash_loop_threshold
        self._crash_loop_window_s = crash_loop_window_s
        self._restart_policy = restart_policy or RetryPolicy()
        self.max_redispatch = max_redispatch
        self._batch_timeout_s = batch_timeout_s
        self._canary = (
            np.asarray(canary, dtype=np.float64) if canary is not None else None
        )
        self._poll_s = min(0.02, self._heartbeat_s / 2.0)
        self._work: "queue.Queue" = queue.Queue()
        self._slots = [_Replica(index) for index in range(self._replica_count)]
        self._rep_lock = threading.Lock()  # guards slot state transitions
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._sup_lock = threading.Lock()
        self._sup = {
            "replica_deaths": 0,
            "restarts": 0,
            "heartbeat_kills": 0,
            "batch_timeouts": 0,
            "stale_kills": 0,
            "redispatches": 0,
            "swaps": 0,
            "rollbacks": 0,
        }
        self._swap_lock = threading.Lock()  # serialises swap_state callers
        self._swap_active = False  # monitor defers restarts while True
        self._model_generation = 0
        self._dispatch_stop = threading.Event()
        self._replicas_stopped = False
        # Workers are forked, so prefer "fork" (the model rides copy-on-write
        # memory); "spawn" platforms pickle it through the Process args.
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)

        # Base init checks the queue/deadline bounds, resolves the engine
        # and starts the serve loop (idle until the first submit, which
        # cannot happen before this constructor returns).
        super().__init__(
            model,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            engine=engine,
            max_queue=max_queue,
            deadline_ms=deadline_ms,
        )

        for slot in self._slots:
            self._spawn(slot)
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(slot.index,),
                name="repro-replica-dispatch-%d" % slot.index,
                daemon=True,
            )
            for slot in self._slots
        ]
        for thread in self._dispatchers:
            thread.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor", daemon=True
        )
        self._monitor.start()

    # -- base-class hooks ------------------------------------------------------

    def _setup_executor(self) -> None:
        # Forwards run inside the worker processes; the supervisor itself
        # never executes a batch.  The model stays as the *reference*
        # model: restarts fork it, swaps mutate it last.
        self._compiled = None

    def _submit_group(self, group: List[_Request]) -> None:
        if self._all_failed():
            self._fail_group(
                group,
                NoHealthyReplicaError(
                    "all %d replicas have tripped the crash-loop breaker"
                    % self._replica_count
                ),
            )
            return
        try:
            batch, padded_to = self._pad_group(group, self.max_batch)
        except BaseException as error:
            self._fail_group(group, error)
            return
        self._work.put(_GroupWork(group, batch, padded_to))

    def _fallback_count(self) -> int:
        return sum(slot.fallbacks for slot in self._slots)

    # -- client surface --------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every *admitted* request has been answered.

        Graceful-drain primitive: the server keeps serving (and keeps
        accepting new submissions — quiesce admission by simply not
        submitting).  Returns ``True`` when outstanding work hit zero,
        ``False`` on timeout.  Every admitted request terminates as
        exactly one of completed/failed/expired, so the counters decide.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            with self._stats_lock:
                counters = self._counters
                outstanding = (
                    counters["requests"]
                    - counters["completed"]
                    - counters["failed"]
                    - counters["expired"]
                )
            if outstanding <= 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self._poll_s)

    def close(self) -> None:
        """Graceful shutdown: drain, stop dispatchers, stop replicas."""
        with self._lock:
            already = self._closed
        super().close()  # flushes the admission queue into the work queue
        if already and self._replicas_stopped:
            return
        drained = self.drain(timeout=_DRAIN_TIMEOUT_S)
        self._dispatch_stop.set()
        for thread in self._dispatchers:
            thread.join(timeout=5.0)
        self._monitor.join(timeout=5.0)
        if not drained:
            error = ServerClosedError("server closed before the work queue drained")
            self._flush_work(error)
            for slot in self._slots:
                self._flush_direct(slot, error)
        self._stop_replicas()
        self._replicas_stopped = True

    def swap_state(
        self,
        state_dict: Dict[str, Any],
        lut_tables: Optional[Dict[str, Any]] = None,
        canary: Optional[Any] = None,
        timeout: float = _SWAP_TIMEOUT_S,
    ) -> Dict[str, Any]:
        """Rolling hot-swap: drain, reload, canary-verify, promote — per replica.

        Returns a report dict on success; raises :class:`SwapFailedError`
        after rolling every touched replica back to the old state.  The
        server keeps answering traffic on the other replicas throughout —
        each response comes uniformly from the old or the new model,
        never a mixture (the canary bit-parity gate).
        """
        canary_image = canary if canary is not None else self._canary
        if canary_image is None:
            raise ValueError(
                "swap_state needs a canary input (constructor canary= or argument)"
            )
        canary_image = np.asarray(canary_image, dtype=np.float64)
        with self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
        with self._swap_lock:
            self._swap_active = True
            try:
                return self._swap_fleet(
                    dict(state_dict), lut_tables, canary_image, timeout
                )
            finally:
                self._swap_active = False

    # -- swap internals --------------------------------------------------------

    def _reference_predict(self, canary: Any) -> Any:
        return self.model.predict(canary[None], engine="eager")[0]

    def _swap_fleet(self, state, tables, canary, timeout) -> Dict[str, Any]:
        old_state = self.model.state_dict()
        old_expected = self._reference_predict(canary)
        # The reference model goes first: a state dict that does not
        # strict-load (or tables naming an undeployed operator) raises
        # here, before any replica was touched.  A failure restores the
        # old state before propagating — a shape mismatch aborts the
        # load mid-loop, and a half-loaded reference would fork diverged
        # restarts while every replica still serves the old model.
        # (``old_state`` is a full copy and ``swap_lut_tables`` is
        # atomic, so the restore itself cannot tear.)
        old_tables = None
        try:
            self.model.load_state_dict(state, strict=True)
            if tables:
                old_tables = swap_lut_tables(self.model, tables)
            new_expected = self._reference_predict(canary)
        except BaseException:
            if old_tables:
                swap_lut_tables(self.model, old_tables)
            self.model.load_state_dict(old_state, strict=True)
            raise

        promoted: List[_Replica] = []
        failure: Optional[BaseException] = None
        failed_slot: Optional[_Replica] = None
        for slot in self._slots:
            if not self._wait_serving(slot, timeout):
                continue  # dead/failed: its restart forks the promoted reference
            try:
                self._drain_replica(slot, timeout)
                prediction = self._command_swap(slot, state, tables, canary, timeout)
                if not np.array_equal(prediction, new_expected):
                    raise SwapFailedError(
                        "replica %d canary prediction diverged from the new "
                        "model after swap" % slot.index
                    )
            except BaseException as error:
                failure = error
                failed_slot = slot
                break
            with self._rep_lock:
                if slot.state == DRAINING:
                    slot.state = HEALTHY
            slot.model_generation = self._model_generation + 1
            promoted.append(slot)

        if failure is None:
            self._model_generation += 1
            self._count_sup(swaps=1)
            return {
                "swapped": len(promoted),
                "skipped": self._replica_count - len(promoted),
                "model_generation": self._model_generation,
                "rolled_back": False,
            }

        # Rollback: reference model first (restarts must fork old state),
        # then the failing replica and every already-promoted one, with
        # the canary verified in the rollback direction too.  A replica
        # that cannot prove the old bits is killed; its restart forks the
        # restored reference model.
        self._count_sup(rollbacks=1)
        self.model.load_state_dict(old_state, strict=True)
        if old_tables:
            swap_lut_tables(self.model, old_tables)
        targets = ([failed_slot] if failed_slot is not None else []) + promoted
        for slot in targets:
            try:
                prediction = self._command_swap(
                    slot, old_state, old_tables, canary, timeout
                )
                restored = np.array_equal(prediction, old_expected)
            except BaseException:
                restored = False
            if restored:
                with self._rep_lock:
                    if slot.state == DRAINING:
                        slot.state = HEALTHY
                slot.model_generation = self._model_generation
            else:
                self._kill_slot(slot, "rollback canary failed; restarting clean")
        raise SwapFailedError(
            "hot-swap aborted at replica %d and rolled back: %s"
            % (failed_slot.index if failed_slot is not None else -1, failure)
        ) from failure

    def _wait_serving(self, slot: _Replica, timeout: float) -> bool:
        """Wait out STARTING; ``True`` iff the slot can take a swap command."""
        deadline = time.monotonic() + timeout
        while True:
            state = slot.state
            if state in (HEALTHY, DRAINING):
                return True
            if state in (DEAD, FAILED):
                return False
            if time.monotonic() >= deadline:
                return False
            time.sleep(self._poll_s)

    def _drain_replica(self, slot: _Replica, timeout: float) -> None:
        """Flip one replica to DRAINING and wait out its in-flight batch."""
        with self._rep_lock:
            if slot.state == HEALTHY:
                slot.state = DRAINING
            elif slot.state != DRAINING:
                raise ReplicaDiedError(
                    "replica %d became %s before draining" % (slot.index, slot.state)
                )
        deadline = time.monotonic() + timeout
        while slot.in_flight is not None or slot.busy:
            if slot.state not in (DRAINING,):
                raise ReplicaDiedError(
                    "replica %d died while draining" % slot.index
                )
            if time.monotonic() >= deadline:
                raise SwapFailedError(
                    "replica %d did not drain within %.1fs" % (slot.index, timeout)
                )
            time.sleep(self._poll_s)

    def _command_swap(self, slot, state, tables, canary, timeout):
        """Route one swap through the slot's dispatcher (single conn owner)."""
        reply: Future = Future()
        slot.direct.put(_SwapCommand(state, tables, canary, reply))
        return reply.result(timeout)

    # -- dispatchers -----------------------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _dispatch_loop(self, index: int) -> None:
        slot = self._slots[index]
        while not self._dispatch_stop.is_set():
            state = slot.state
            if state in (DEAD, FAILED):
                self._flush_direct(slot, self._slot_down_error(slot, state))
                if self._dispatch_stop.wait(self._poll_s):
                    return
                continue
            self._pump(slot)
            if slot.state == STARTING:
                if self._dispatch_stop.wait(self._poll_s):
                    return
                continue
            work = self._next_work(slot)
            if work is None:
                continue
            if isinstance(work, _SwapCommand):
                self._execute_swap(slot, work)
            else:
                self._execute_batch(slot, work)

    def _next_work(self, slot: _Replica):
        try:
            return slot.direct.get_nowait()
        except queue.Empty:
            pass
        if slot.state != HEALTHY:  # draining slots only serve direct commands
            self._dispatch_stop.wait(self._poll_s)
            return None
        try:
            return self._work.get(timeout=self._poll_s)
        except queue.Empty:
            return None

    def _pump(self, slot: _Replica) -> None:
        """Drain waiting heartbeats/ready messages without blocking."""
        conn = slot.conn
        while True:
            try:
                if conn is None or not conn.poll(0):
                    return
                message = conn.recv()
            except (EOFError, OSError, ValueError):
                self._mark_dead(slot, "pipe closed")
                return
            kind = message[0]
            if kind == MSG_HB:
                slot.last_heartbeat = time.monotonic()
                slot.fallbacks = message[1]
            elif kind == MSG_READY:
                stale = False
                with self._rep_lock:
                    if slot.state == STARTING:
                        if slot.model_generation != self._model_generation:
                            # Forked from a reference that a swap has
                            # since replaced: promoting it would serve
                            # old weights next to the promoted fleet.
                            stale = True
                        else:
                            slot.state = HEALTHY
                            slot.last_heartbeat = time.monotonic()
                            slot.first_crash = None
                if stale:
                    self._retire_stale(slot)
                    return
            # Anything else is a stale reply from an aborted exchange; drop.

    def _execute_batch(self, slot: _Replica, work: _GroupWork) -> None:
        if slot.state != HEALTHY:
            self._work.put(work)  # never dispatched; no attempt consumed
            return
        generation = slot.generation
        conn = slot.conn
        seq = self._next_seq()
        slot.busy = True
        slot.in_flight = work
        try:
            try:
                conn.send((MSG_BATCH, seq, work.batch))
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead(slot, "pipe send failed")
                self._redispatch(work)
                return
            reply = self._await_reply(slot, conn, generation, seq)
            if reply is None:  # the replica died with our batch in flight
                self._redispatch(work)
                return
            slot.batches += 1
            if reply[0] == MSG_RESULT:
                self._finish_group(work.group, reply[2], work.padded_to)
            else:  # MSG_ERROR: the request's fault, not the replica's
                self._fail_group(work.group, _rebuild_error(reply[2], reply[3]))
        finally:
            slot.in_flight = None
            slot.busy = False

    def _slot_down_error(self, slot: _Replica, state: str) -> Exception:
        """The error for a targeted command aimed at a non-serving slot.

        A breaker-tripped slot gets :class:`ReplicaCrashLoopError` (it
        will never restart on its own); everything else is a plain
        :class:`ReplicaDiedError`.
        """
        if state == FAILED:
            return ReplicaCrashLoopError(
                "replica %d has tripped the crash-loop breaker (%s)"
                % (slot.index, slot.reason or "no reason recorded")
            )
        return ReplicaDiedError("replica %d is %s" % (slot.index, state))

    def _execute_swap(self, slot: _Replica, command: _SwapCommand) -> None:
        if slot.state not in (HEALTHY, DRAINING):
            if not command.reply.done():
                command.reply.set_exception(
                    self._slot_down_error(slot, slot.state)
                )
            return
        generation = slot.generation
        conn = slot.conn
        seq = self._next_seq()
        slot.busy = True
        try:
            try:
                conn.send(
                    (MSG_SWAP, seq, command.state, command.tables, command.canary)
                )
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead(slot, "pipe send failed")
                if not command.reply.done():
                    command.reply.set_exception(
                        ReplicaDiedError("replica %d died mid-swap" % slot.index)
                    )
                return
            reply = self._await_reply(slot, conn, generation, seq)
            if command.reply.done():
                return  # caller timed out and moved on
            if reply is None:
                command.reply.set_exception(
                    ReplicaDiedError("replica %d died mid-swap" % slot.index)
                )
            elif reply[0] == MSG_SWAPPED:
                command.reply.set_result(reply[2])
            else:  # MSG_ERROR from the swap itself
                command.reply.set_exception(
                    SwapFailedError(
                        "replica %d swap failed: %s: %s"
                        % (slot.index, reply[2], reply[3])
                    )
                )
        finally:
            slot.busy = False

    def _await_reply(self, slot, conn, generation: int, seq: int):
        """Wait for the reply to ``seq``, absorbing heartbeats.

        Returns ``None`` when the replica died (sentinel, pipe error, or
        a restart bumped the generation) — the caller re-dispatches.
        ``batch_timeout_s`` bounds the whole exchange: a serve loop that
        wedges while its heartbeat thread keeps beating never goes
        heartbeat-stale, so past the deadline the replica is killed and
        ``None`` returned (the batch re-dispatches like any other death).
        """
        deadline = time.monotonic() + self._batch_timeout_s
        while True:
            if time.monotonic() >= deadline:
                self._count_sup(batch_timeouts=1)
                self._kill_slot(
                    slot,
                    "batch execution exceeded %.1fs; killed"
                    % self._batch_timeout_s,
                )
                return None
            try:
                ready = conn.poll(self._poll_s)
            except (OSError, ValueError):
                self._mark_dead(slot, "pipe closed")
                return None
            if ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._mark_dead(slot, "pipe EOF")
                    return None
                kind = message[0]
                if kind == MSG_HB:
                    slot.last_heartbeat = time.monotonic()
                    slot.fallbacks = message[1]
                    continue
                if kind == MSG_READY:
                    continue
                if len(message) > 1 and message[1] == seq:
                    return message
                continue  # stale reply from an aborted exchange; drop
            if slot.generation != generation or slot.state in (DEAD, FAILED):
                return None
            process = slot.process
            if process is None or not process.is_alive():
                self._mark_dead(
                    slot,
                    "process exited (exitcode %s)"
                    % (process.exitcode if process is not None else "?"),
                )
                return None

    def _redispatch(self, work: _GroupWork) -> None:
        work.attempts += 1
        if work.attempts > self.max_redispatch:
            self._fail_group(
                work.group,
                ReplicaDiedError(
                    "batch lost %d replica(s); re-dispatch budget exhausted"
                    % work.attempts
                ),
            )
            return
        self._count_sup(redispatches=1)
        self._work.put(work)

    def _flush_direct(self, slot: _Replica, error: BaseException) -> None:
        while True:
            try:
                command = slot.direct.get_nowait()
            except queue.Empty:
                return
            if isinstance(command, _SwapCommand):
                if not command.reply.done():
                    command.reply.set_exception(error)
            else:
                self._work.put(command)  # batch work can run elsewhere

    def _flush_work(self, error: BaseException) -> None:
        while True:
            try:
                work = self._work.get_nowait()
            except queue.Empty:
                return
            self._fail_group(work.group, error)

    # -- monitor ---------------------------------------------------------------

    def _monitor_loop(self) -> None:
        interval = max(0.005, self._heartbeat_s / 2.0)
        while not self._dispatch_stop.wait(interval):
            now = time.monotonic()
            for slot in self._slots:
                state = slot.state
                process = slot.process
                if state in (STARTING, HEALTHY, DRAINING):
                    if process is None or not process.is_alive():
                        self._mark_dead(
                            slot,
                            "process exited (exitcode %s)"
                            % (process.exitcode if process is not None else "?"),
                        )
                        continue
                    if (
                        state in (HEALTHY, DRAINING)
                        and now - slot.last_heartbeat > self._heartbeat_stale_s
                    ):
                        self._count_sup(heartbeat_kills=1)
                        self._kill_slot(slot, "heartbeat stalled; killed")
                        continue
                    if state == STARTING and now - slot.started_at > _START_TIMEOUT_S:
                        self._kill_slot(slot, "start timeout; killed")
                        continue
                    if (
                        state in (HEALTHY, DRAINING)
                        and not self._swap_active
                        and slot.model_generation != self._model_generation
                    ):
                        # A slot that slipped past a swap (e.g. it was
                        # STARTING when its turn came) serves old weights
                        # next to the promoted fleet; respawn it from the
                        # promoted reference.  Guarded by _swap_active:
                        # mid-swap, promoted slots legitimately run ahead
                        # of the fleet generation.
                        self._retire_stale(slot)
                        continue
                if (
                    state == DEAD
                    and not self._swap_active
                    and not slot.busy
                    and slot.restart_at is not None
                    and now >= slot.restart_at
                ):
                    self._count_sup(restarts=1)
                    self._respawn(slot)

    def _mark_dead(self, slot: _Replica, reason: str) -> None:
        """Record one death: breaker decision + restart scheduling."""
        with self._rep_lock:
            if slot.state in (DEAD, FAILED):
                return
            now = time.monotonic()
            slot.state = DEAD
            slot.reason = reason
            if slot.first_crash is None:
                slot.first_crash = now
            slot.crash_times.append(now)
            cutoff = now - self._crash_loop_window_s
            slot.crash_times = [t for t in slot.crash_times if t >= cutoff]
            policy = self._restart_policy
            tripped = len(slot.crash_times) >= self._crash_loop_threshold
            if (
                policy.max_elapsed is not None
                and now - slot.first_crash >= policy.max_elapsed
            ):
                tripped = True  # the restart budget is spent; stop trying
            if tripped:
                slot.state = FAILED
                slot.restart_at = None
            else:
                slot.restart_at = now + policy.backoff(
                    min(len(slot.crash_times), 16),
                    site="serve.replica:%d" % slot.index,
                )
        self._count_sup(replica_deaths=1)
        if slot.state == FAILED and self._all_failed():
            self._flush_work(
                NoHealthyReplicaError(
                    "all %d replicas have tripped the crash-loop breaker"
                    % self._replica_count
                )
            )

    def _retire_stale(self, slot: _Replica) -> None:
        """Kill a replica whose forked model predates the promoted one.

        Not a crash: no death is recorded and the breaker is not
        consulted — the slot respawns immediately (swap permitting),
        forking the current reference model.  The state flips *before*
        the SIGKILL so the dispatcher sees DEAD, not a dying pipe it
        would report to the breaker as a crash.
        """
        with self._rep_lock:
            if slot.state in (DEAD, FAILED):
                return
            slot.state = DEAD
            slot.reason = "stale model generation %d != %d; respawning" % (
                slot.model_generation,
                self._model_generation,
            )
            slot.restart_at = time.monotonic()
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
        self._count_sup(stale_kills=1)

    def _kill_slot(self, slot: _Replica, reason: str) -> None:
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
        self._mark_dead(slot, reason)

    def _all_failed(self) -> bool:
        return all(slot.state == FAILED for slot in self._slots)

    def _respawn(self, slot: _Replica) -> None:
        old_process, old_conn = slot.process, slot.conn
        if old_process is not None:
            old_process.join(timeout=1.0)
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:
                pass
        self._spawn(slot)

    def _spawn(self, slot: _Replica) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                self.model,
                slot.index,
                self._heartbeat_s,
                self.engine,
            ),
            name="repro-replica-%d" % slot.index,
            daemon=True,
        )
        with self._rep_lock:
            slot.generation += 1
            slot.model_generation = self._model_generation
            slot.state = STARTING
            slot.started_at = time.monotonic()
            slot.last_heartbeat = slot.started_at
            slot.conn = parent_conn
            slot.process = process
            slot.restart_at = None
            slot.reason = None
            slot.batches = 0
        process.start()
        child_conn.close()  # the parent keeps only its own end

    def _stop_replicas(self) -> None:
        for slot in self._slots:
            conn, process = slot.conn, slot.process
            if conn is not None:
                try:
                    conn.send((MSG_STOP,))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    # -- observability ---------------------------------------------------------

    def _count_sup(self, **deltas: int) -> None:
        with self._sup_lock:
            for name, delta in deltas.items():
                self._sup[name] += delta

    def health(self) -> Dict[str, Any]:
        """The base report plus per-replica lifecycle and supervisor counters.

        ``status`` is recomputed fleet-wide: ``failed`` with zero serving
        replicas, ``degraded`` while any slot has tripped the breaker (or
        a worker degraded to eager fallback), ``ok`` otherwise.
        """
        report = super().health()
        now = time.monotonic()
        replicas = []
        serving = 0
        any_failed = False
        for slot in self._slots:
            state = slot.state
            if state in (HEALTHY, DRAINING):
                serving += 1
            if state == FAILED:
                any_failed = True
            process = slot.process
            replicas.append(
                {
                    "index": slot.index,
                    "state": state,
                    "pid": process.pid if process is not None else None,
                    "generation": slot.generation,
                    "model_generation": slot.model_generation,
                    "restarts": max(0, slot.generation - 1),
                    "crashes_in_window": len(slot.crash_times),
                    "last_heartbeat_age_ms": (
                        round(1e3 * (now - slot.last_heartbeat), 1)
                        if state in (HEALTHY, DRAINING)
                        else None
                    ),
                    "fallbacks": slot.fallbacks,
                    "batches": slot.batches,
                    "reason": slot.reason,
                }
            )
        with self._sup_lock:
            supervisor = dict(self._sup)
        report["replicas"] = replicas
        report["supervisor"] = supervisor
        report["replica_count"] = self._replica_count
        report["model_generation"] = self._model_generation
        with self._lock:
            closed = self._closed
        degraded = (
            any_failed
            or report["counters"]["fallbacks"] > 0
            or self._worker_error is not None
        )
        if closed:
            status = "closed"
        elif serving == 0:
            status = "failed"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        report["status"] = status
        return report
