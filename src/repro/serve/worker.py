"""Replica worker: the in-process batching core behind a request pipe.

One :func:`worker_main` runs per replica process of a
:class:`~repro.serve.supervisor.ReplicatedServer`.  The protocol is a
duplex ``multiprocessing.Pipe`` carrying plain tuples (picklable, tiny):

Supervisor → worker
    ``(MSG_BATCH, seq, batch)``            one padded, shape-uniform batch
    ``(MSG_SWAP, seq, state, tables, canary)``  hot-swap command
    ``(MSG_STOP,)``                        graceful shutdown

Worker → supervisor
    ``(MSG_READY, pid)``                   executor built, accepting work
    ``(MSG_RESULT, seq, predictions)``     answered batch
    ``(MSG_ERROR, seq, type_name, message)``  application error (bad
    shape etc.) — the *request's* fault, not the replica's; no restart
    ``(MSG_SWAPPED, seq, canary_prediction)``  swap applied; the
    supervisor bit-compares the canary before promoting
    ``(MSG_HB, fallback_count)``           heartbeat (daemon thread)

Design constraints the implementation encodes:

* **Fork-safety.**  Workers are forked, so the parent's fault-injection
  state (and its held lock, if the fork raced a ``fault_point``) is
  inherited.  The worker reinstalls the active plan first thing — a
  fresh ``_FaultState`` with a fresh lock and *fresh per-site counters*
  (chaos plans see each worker generation as call 1, 2, ...).
* **Heartbeats are a thread, not the serve loop.**  A replica wedged
  mid-batch still beats; a replica whose *process* hangs (the
  ``replica.heartbeat:<i>`` delay seam) stops beating and the supervisor
  SIGKILLs it.  Missing heartbeats — not pipe EOF — are the hang signal,
  because sibling replicas forked later hold copies of this pipe's child
  end, which keeps it open after this process dies.
* **Crash seams use ``os._exit``.**  ``fault_flag("replica.kill:<i>")``
  and ``replica.boot.kill:<i>`` model SIGKILL-grade death: no cleanup,
  no exception, no flush — exactly what the supervisor must survive.

Every fault site is suffixed with the replica index, so chaos tests can
kill replica 0 while replica 1 serves (``"replica.kill:0"``) or target
the whole fleet with a glob (``"replica.kill:*"``).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

import numpy as np

from repro.nn.approx import swap_lut_tables
from repro.nn.module import Module
from repro.reliability import faults
from repro.reliability.faults import fault_flag, fault_point

MSG_BATCH = "batch"
MSG_SWAP = "swap"
MSG_STOP = "stop"
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_SWAPPED = "swapped"
MSG_HB = "hb"

# Exit codes for the self-inflicted crash seams (visible in the
# supervisor's death reason, so chaos tests can tell seam deaths apart).
BOOT_KILL_EXIT = 13
BATCH_KILL_EXIT = 17


class _Worker:
    """Per-process serving state: the executor and its model."""

    def __init__(self, model: Module, index: int, engine: str) -> None:
        self.model = model
        self.index = index
        self.engine = engine
        if engine == "compiled":
            from repro.graph.executor import CompiledModel

            self.compiled: Optional["CompiledModel"] = CompiledModel(
                model, fallback=True
            )
        else:
            self.compiled = None

    def predict(self, batch: Any) -> Any:
        if self.compiled is not None:
            return self.compiled.predict(batch)
        return self.model.predict(batch, engine="eager")

    def fallback_count(self) -> int:
        return self.compiled.fallback_count if self.compiled is not None else 0

    def apply_swap(
        self,
        state: Dict[str, Any],
        tables: Optional[Dict[str, Any]],
        canary: Any,
    ) -> Any:
        """Strict-load new weights (+ LUTs), return the canary prediction."""
        if fault_flag("replica.swap.corrupt:%d" % self.index):
            # Silent corruption seam: the state still strict-loads (same
            # keys, same shapes) but every tensor's bits are wrong — only
            # the canary parity check downstream can catch this.
            state = {
                key: -np.asarray(value) - 1.0 for key, value in state.items()
            }
        if self.compiled is not None:
            self.compiled.rebind_state(state)
        else:
            self.model.load_state_dict(state, strict=True)
        if tables:
            swap_lut_tables(self.model, tables)
            if self.compiled is not None:
                self.compiled.invalidate()
        return self.predict(canary[None])[0]


def worker_main(
    conn: Any,
    model: Module,
    index: int,
    heartbeat_seconds: float,
    engine: str = "compiled",
) -> None:
    """Entry point of one replica process (runs until stop/EOF/kill)."""
    # Reinstall fault state: a fresh lock (the forked copy may be held by
    # a parent thread that no longer exists here) and fresh counters.
    faults.install(faults.active_plan())
    if fault_flag("replica.boot.kill:%d" % index):
        os._exit(BOOT_KILL_EXIT)

    worker = _Worker(model, index, engine)
    stop = threading.Event()
    send_lock = threading.Lock()  # heartbeat thread and serve loop share conn

    def _beat() -> None:
        while not stop.is_set():
            # The hang seam: a delay spec here stalls the beat, modelling
            # a process that is alive but wedged.
            fault_point("replica.heartbeat:%d" % index)
            try:
                with send_lock:
                    conn.send((MSG_HB, worker.fallback_count()))
            except (OSError, ValueError, BrokenPipeError):
                return  # supervisor went away; the serve loop will exit too
            stop.wait(heartbeat_seconds)

    try:
        conn.send((MSG_READY, os.getpid()))
        heartbeat = threading.Thread(
            target=_beat, name="repro-replica-heartbeat-%d" % index, daemon=True
        )
        heartbeat.start()
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == MSG_STOP:
                return
            if kind == MSG_BATCH:
                _handle_batch(conn, send_lock, worker, message)
            elif kind == MSG_SWAP:
                _handle_swap(conn, send_lock, worker, message)
    finally:
        stop.set()


def _handle_batch(conn: Any, send_lock: threading.Lock, worker: _Worker, message) -> None:
    seq, batch = message[1], message[2]
    if fault_flag("replica.kill:%d" % worker.index):
        os._exit(BATCH_KILL_EXIT)  # die with the batch in flight
    try:
        fault_point("replica.batch:%d" % worker.index)
        predictions = worker.predict(batch)
    except Exception as error:
        reply = (MSG_ERROR, seq, type(error).__name__, str(error))
    else:
        reply = (MSG_RESULT, seq, predictions)
    with send_lock:
        conn.send(reply)


def _handle_swap(conn: Any, send_lock: threading.Lock, worker: _Worker, message) -> None:
    seq, state, tables, canary = message[1], message[2], message[3], message[4]
    try:
        fault_point("replica.swap:%d" % worker.index)
        canary_prediction = worker.apply_swap(state, tables, canary)
    except Exception as error:
        reply = (MSG_ERROR, seq, type(error).__name__, str(error))
    else:
        reply = (MSG_SWAPPED, seq, canary_prediction)
    with send_lock:
        conn.send(reply)
