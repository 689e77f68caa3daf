"""Exception inventory for the reliability layer.

Every error a caller can *handle* (shed load, retry elsewhere, report a
cell as failed) gets its own class here, so handlers never have to match
on message strings.  ``DeadlineExceededError`` additionally subclasses
:class:`TimeoutError` so generic timeout handlers catch it for free.
"""

from __future__ import annotations


class ReliabilityError(RuntimeError):
    """Base class for every error raised by the reliability layer."""


class QueueFullError(ReliabilityError):
    """Admission rejected: the server's bounded queue is at capacity.

    Raised by ``BatchingServer.submit`` *before* the request is enqueued
    — load is shed at the door instead of growing the queue unboundedly.
    """


class DeadlineExceededError(ReliabilityError, TimeoutError):
    """A request's deadline expired before it reached batch assembly."""


class ServerClosedError(ReliabilityError):
    """A request was stranded in the queue when the server shut down."""


class InjectedFault(ReliabilityError):
    """The default exception raised by :func:`repro.reliability.faults.fault_point`."""


class JobQuarantinedError(ReliabilityError):
    """A sweep job was refused because its key is quarantined as poison."""


class JournalCorruptError(ReliabilityError):
    """A sweep journal record failed to parse *before* the tail.

    A torn tail (the final record cut short by a crash mid-append) is
    expected and tolerated on replay; an undecodable record with valid
    records after it means the journal was edited or the disk corrupted
    mid-file, and resuming from it could silently drop completed work.
    """


class PersistedQuarantineError(ReliabilityError):
    """A quarantine record reloaded from a durable run's journal.

    Stands in for the original exception (whose type/traceback died with
    the process that quarantined the cell); the message preserves the
    original error type and text so ``JobFailure.describe()`` stays
    informative across restarts.
    """


class ReplicaDiedError(ReliabilityError):
    """A serving replica process died while work was pending on it.

    Callers normally never see this — the supervisor re-dispatches the
    dead replica's in-flight batch to a survivor (inference is pure).  It
    surfaces only when the re-dispatch budget is exhausted or a targeted
    command (swap, drain) was aimed at the replica that died.
    """


class ReplicaCrashLoopError(ReliabilityError):
    """A replica died too many times inside the crash-loop window.

    The supervisor's circuit breaker stops restarting the replica and
    marks it failed; ``health()`` reports the server as degraded.
    Raised to the caller of a targeted command (swap) that was aimed at
    a breaker-tripped slot — unlike :class:`ReplicaDiedError`, the slot
    will never come back on its own.
    """


class NoHealthyReplicaError(ReliabilityError):
    """Every replica has tripped the crash-loop breaker; nothing can serve."""


class SwapFailedError(ReliabilityError):
    """A rolling hot-swap aborted and the fleet was rolled back.

    Raised by ``ReplicatedServer.swap_state`` after a replica failed the
    canary bit-parity check (or errored mid-swap): the old state has been
    restored on every already-promoted replica, so the fleet keeps serving
    the previous model uniformly.
    """


class CheckpointCorruptError(ReliabilityError):
    """A training checkpoint failed its content checksum on load.

    Restoring from corrupt bytes would silently resume a different run;
    the trainer refuses loudly instead (the atomic write protocol makes a
    torn *write* impossible, so this means real on-disk corruption).
    """
