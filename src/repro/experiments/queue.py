"""Durable, journaled work-queue state for resumable sweeps.

A sweep used to be a process lifetime: kill the coordinator and the whole
grid's progress — which cells completed, which were in flight, which were
quarantined as poison — died with it.  :class:`DurableQueue` turns that
state into an on-disk object: an append-only, fsync'd JSONL journal under a
``run_dir`` records every per-cell transition, so a coordinator (or any of
its pool workers) can be SIGKILLed at any instant and a fresh process can
replay the journal and finish the sweep bit-identical to an uninterrupted
run.

Every sweep runs through a queue.  ``DurableQueue(None)`` is the same
state machine with the journal kept in memory (no file, no fsync, no
replay): a sweep without a ``run_dir`` takes the identical code path and
simply forgets its state with the process.

Journal format
--------------

One JSON object per line, appended with ``flush`` + ``os.fsync`` so a
record either fully reaches the disk or is a *torn tail* — a final line
cut short mid-append.  Replay tolerates exactly that: an undecodable
**final** record is dropped (losing at most the last transition, which
resume recovers by rebuilding every cell without an artifact); an
undecodable record **before** the tail means real corruption and raises
:class:`~repro.reliability.errors.JournalCorruptError` rather than
silently resuming from a hole.

Record types (all carry ``"key"`` except ``meta`` / ``clear_quarantine``):

==================== ========================================================
``meta``              journal header: format version
``enqueue``           cell registered (carries the full job payload)
``lease``             cell handed to a builder
``done``              cell completed and its artifact persisted
``quarantine``        attempts exhausted; cell embargoed (survives restarts)
``clear_quarantine``  every embargo lifted
``reopen``            a done cell's artifact vanished; back to pending
==================== ========================================================

Journals written before leases lost their expiry also hold ``renew`` and
``fail`` records and ``worker`` / ``expires`` fields on ``lease``; replay
ignores them, so such a journal still resumes.

State machine
-------------

::

    pending --lease--> leased --done--> done
       ^                 |
       |                 +--quarantine--> quarantined
       +--clear_quarantine / reopen------+

Nothing reads whether a cell is pending or leased: resume rebuilds every
journaled cell that is not quarantined and has no artifact in the store,
which is how a dead coordinator's in-flight cells are recovered.  A
``done`` is only written after its artifact is persisted, and completion
is idempotent by construction — cells are addressed by their SHA-256
content key and artifacts live in the content-addressed store — so two
builders finishing the same cell (a straggler re-dispatch) converge on
bit-identical bytes.

The journal has a **single writer**: the coordinator process.  Pool
workers never append — their lifecycle is recorded by the coordinator on
their behalf, which keeps the journal free of multi-process interleaving
while still surviving the death of either side.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Optional, Union

from repro.reliability.errors import JournalCorruptError
from repro.reliability.faults import fault_point

JOURNAL_NAME = "journal.jsonl"
# Bump on incompatible record-shape changes; replay refuses newer journals
# instead of misreading them.
JOURNAL_FORMAT_VERSION = 1

# Cell states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"


@dataclasses.dataclass
class CellRecord:
    """In-memory state of one journaled cell (rebuilt by replay)."""

    key: str
    payload: Dict[str, Any]
    state: str = PENDING
    attempts: int = 0
    error: str = ""
    error_type: str = ""


class DurableQueue:
    """Work-queue state for one sweep, journaled to disk or kept in memory.

    Parameters
    ----------
    run_dir:
        Directory holding the journal (created on first use).  Artifacts
        conventionally live next to it under ``run_dir/artifacts`` (the
        sweep engine attaches a store there when it has none).  ``None``
        keeps the journal in memory: every transition still goes through
        the same :meth:`_apply`, but nothing is written, fsync'd or
        replayed, so the state lives as long as the object.
    """

    def __init__(self, run_dir: Optional[Union[str, Path]] = None) -> None:
        self.cells: Dict[str, CellRecord] = {}
        # Set when replay dropped an undecodable final record (a crash
        # mid-append); exposed for tests and health reporting.
        self.torn_tail = False
        self._handle: Optional[IO[str]] = None
        self.run_dir: Optional[Path] = None
        self.journal_path: Optional[Path] = None
        if run_dir is None:
            return
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.run_dir / JOURNAL_NAME
        fresh = not self.journal_path.exists()
        if not fresh:
            self._replay()
        self._handle = open(self.journal_path, "a", encoding="utf-8")
        if fresh:
            self._append({"type": "meta", "format": JOURNAL_FORMAT_VERSION})

    # -- journal I/O -----------------------------------------------------

    def _replay(self) -> None:
        raw = self.journal_path.read_bytes()
        chunks = raw.split(b"\n")
        offset = 0
        for index, chunk in enumerate(chunks):
            if not chunk.strip():
                offset += len(chunk) + 1
                continue
            try:
                record = json.loads(chunk.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError):
                if index == len(chunks) - 1:
                    # Torn tail: the append was cut by a crash.  The lost
                    # transition is recovered by resume rebuilding every
                    # cell without an artifact, never by guessing at
                    # partial bytes.  The torn bytes are truncated away so
                    # later appends start a fresh line instead of merging
                    # into the fragment (which would turn a recoverable
                    # tear into mid-journal corruption on the next replay).
                    self.torn_tail = True
                    with open(self.journal_path, "r+b") as handle:
                        handle.truncate(offset)
                    break
                raise JournalCorruptError(
                    "undecodable journal record %d of %s (not the tail): %r"
                    % (index + 1, self.journal_path, chunk[:80])
                ) from None
            self._apply(record)
            offset += len(chunk) + 1

    def _append(self, record: Dict[str, Any]) -> None:
        """Apply ``record`` in memory, then append + fsync it to the journal.

        In-memory state is updated through the same :meth:`_apply` replay
        uses, so a resumed process reconstructs exactly the state a live
        one held.  An in-memory queue stops after the apply.
        """
        fault_point("queue.append")
        self._apply(record)
        if self._handle is None:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("type")
        if kind == "meta":
            version = int(record.get("format", 0))
            if version > JOURNAL_FORMAT_VERSION:
                raise JournalCorruptError(
                    "journal %s has format %d; this build reads <= %d"
                    % (self.journal_path, version, JOURNAL_FORMAT_VERSION)
                )
            return
        if kind == "clear_quarantine":
            for cell in self.cells.values():
                if cell.state == QUARANTINED:
                    cell.state = PENDING
                    cell.error = cell.error_type = ""
            return
        key = record.get("key")
        if not key:
            return  # unknown / extension record: ignore for forward compat
        # ``renew`` and ``fail`` records of older journals fall through
        # every branch below as no-ops.
        if kind == "enqueue":
            if key not in self.cells:
                self.cells[key] = CellRecord(key=key, payload=record.get("job", {}))
            return
        cell = self.cells.get(key)
        if cell is None:
            return  # transition for a cell whose enqueue we never saw
        if kind == "lease":
            cell.state = LEASED
        elif kind == "done":
            cell.state = DONE
            cell.error = cell.error_type = ""
        elif kind == "quarantine":
            cell.state = QUARANTINED
            cell.attempts = int(record.get("attempts", cell.attempts))
            cell.error = record.get("error", "")
            cell.error_type = record.get("error_type", "")
        elif kind == "reopen":
            cell.state = PENDING

    # -- transitions -----------------------------------------------------

    def enqueue(self, key: str, payload: Dict[str, Any]) -> bool:
        """Register a cell; idempotent (``False`` when already known)."""
        if key in self.cells:
            return False
        self._append({"type": "enqueue", "key": key, "job": payload})
        return True

    def lease(self, key: str) -> None:
        """Hand ``key`` to a builder.

        Leasing an already-leased cell is accepted: a straggler
        re-dispatch or a resumed run builds the cell again.
        """
        fault_point("queue.lease")
        cell = self._known(key)
        if cell.state == QUARANTINED:
            raise ValueError("cannot lease quarantined cell %s" % key[:16])
        self._append({"type": "lease", "key": key})

    def complete(self, key: str) -> None:
        """Mark ``key`` done (idempotent; valid from any non-quarantined state)."""
        cell = self._known(key)
        if cell.state == DONE:
            return
        self._append({"type": "done", "key": key})

    def quarantine(self, key: str, error: BaseException, attempts: int) -> None:
        """Embargo ``key``: later runs fail it fast until cleared."""
        self._known(key)
        self._append({
            "type": "quarantine", "key": key, "attempts": int(attempts),
            "error": str(error), "error_type": type(error).__name__,
        })

    def clear_quarantine(self) -> None:
        """Lift every embargo (the persisted record included)."""
        self._append({"type": "clear_quarantine"})

    def reopen(self, key: str) -> None:
        """A done cell's artifact vanished; make it buildable again."""
        cell = self._known(key)
        if cell.state == DONE:
            self._append({"type": "reopen", "key": key})

    def _known(self, key: str) -> CellRecord:
        cell = self.cells.get(key)
        if cell is None:
            raise KeyError("cell %s was never enqueued" % key[:16])
        return cell

    # -- views -----------------------------------------------------------

    def state(self, key: str) -> Optional[str]:
        cell = self.cells.get(key)
        return cell.state if cell is not None else None

    def quarantined(self) -> Dict[str, CellRecord]:
        return {
            key: cell for key, cell in self.cells.items()
            if cell.state == QUARANTINED
        }

    def jobs(self) -> Dict[str, Dict[str, Any]]:
        """Every journaled cell's payload, keyed by content key."""
        return {key: cell.payload for key, cell in self.cells.items()}

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()

    def __enter__(self) -> "DurableQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
