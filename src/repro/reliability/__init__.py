"""Reliability layer: admission errors, retry policies, fault injection.

This package is deliberately separate from the compiled-inference core
(the goldstone-mgmt split: thin protocol/ops daemons over one shared
core, with health and telemetry first-class).  Nothing here knows about
graphs, tensors or pwl tables — it provides the generic machinery the
serving tier (:mod:`repro.serve.engine`), the sweep engine
(:mod:`repro.experiments.jobs`) and the artifact store
(:mod:`repro.experiments.artifacts`) compose into fault-tolerant paths:

* :mod:`repro.reliability.errors` — the admission-control / deadline /
  quarantine exception inventory;
* :mod:`repro.reliability.retry` — :class:`RetryPolicy` (max attempts,
  exponential backoff with deterministic jitter, retryable-exception
  classification) and the ``run_with_retry`` driver;
* :mod:`repro.reliability.faults` — a deterministic, seeded fault
  injection harness (fail-on-Nth-call, injected delays, artifact-byte
  corruption; plans keyed by site name) used by the chaos tests to prove
  every degradation path actually degrades.
"""

from repro.reliability.errors import (
    CheckpointCorruptError,
    DeadlineExceededError,
    InjectedFault,
    JobQuarantinedError,
    JournalCorruptError,
    NoHealthyReplicaError,
    PersistedQuarantineError,
    QueueFullError,
    ReliabilityError,
    ReplicaCrashLoopError,
    ReplicaDiedError,
    ServerClosedError,
    SwapFailedError,
)
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    corrupt_file,
    fault_flag,
    fault_point,
    inject,
)
from repro.reliability.retry import RetryPolicy, RetryResult, run_with_retry

__all__ = [
    "CheckpointCorruptError",
    "DeadlineExceededError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JobQuarantinedError",
    "JournalCorruptError",
    "NoHealthyReplicaError",
    "PersistedQuarantineError",
    "QueueFullError",
    "ReliabilityError",
    "ReplicaCrashLoopError",
    "ReplicaDiedError",
    "RetryPolicy",
    "RetryResult",
    "ServerClosedError",
    "SwapFailedError",
    "corrupt_file",
    "fault_flag",
    "fault_point",
    "inject",
    "run_with_retry",
]
