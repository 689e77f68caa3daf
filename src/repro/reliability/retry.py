"""Retry policies: bounded attempts, exponential backoff, deterministic jitter.

The sweep engine re-dispatches failed cells and the artifact store
re-reads torn files through the same small primitive::

    outcome = run_with_retry(job.build, policy=RetryPolicy(max_attempts=3),
                             site="sweep.build:gelu:gqa-rm")
    if outcome.error is not None:
        quarantine(outcome)          # attempts exhausted -> poison

Design points:

* **Deterministic jitter.**  Backoff delays are jittered to de-correlate
  retry storms, but the jitter is a hash of ``(site, attempt, seed)`` —
  not ``random()`` — so a replayed run sleeps the exact same schedule.
  Reproducibility is the repo-wide contract and the reliability layer is
  not exempt.
* **Classification, not blanket retry.**  A policy carries ``retryable``
  and ``fatal`` exception inventories; ``fatal`` wins, so a
  deterministic failure (bad job spec, poisoned cell) is quarantined on
  first sight instead of burning attempts.  ``BaseException``\\ s that are
  not ``Exception``\\ s (``KeyboardInterrupt``, ``SystemExit``) always
  propagate immediately.
* **Outcome objects.**  ``run_with_retry`` never raises for a failing
  callable — it returns a :class:`RetryResult` carrying the value *or*
  the final error plus the attempt count, which is exactly the shape the
  sweep manifest records.

``RetryPolicy()`` is the default everywhere a policy is optional: three
attempts, a 0.05 s base delay doubling up to 2 s.  A caller that wants
another budget passes its own policy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, how long to wait, and what counts as transient.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retry).
    base_delay:
        Backoff before the second attempt, in seconds; attempt ``n``
        waits ``base_delay * multiplier**(n-1)`` capped at ``max_delay``.
    jitter:
        Fraction of the backoff added as deterministic jitter: the delay
        lands in ``[backoff, backoff * (1 + jitter))``, positioned by a
        hash of ``(site, attempt, seed)``.
    retryable / fatal:
        Exception classes considered transient / permanent.  ``fatal``
        wins on overlap; anything matching neither propagates as fatal.
    max_elapsed:
        Optional total-elapsed budget in seconds (``None`` = unbounded).
        Retrying gives up once the *next* attempt could not start inside
        the budget — i.e. when ``elapsed + backoff > max_elapsed`` — so a
        deadline-driven caller (a serving supervisor restarting replicas,
        a request with an SLA) never sleeps past its deadline just
        because attempts remain.  The first attempt always runs.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable: Tuple[type, ...] = (Exception,)
    fatal: Tuple[type, ...] = ()
    max_elapsed: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1, got %r" % (self.max_attempts,))
        for name in ("base_delay", "max_delay", "jitter"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, got %r" % (name, getattr(self, name)))
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1, got %r" % (self.multiplier,))
        if self.max_elapsed is not None and self.max_elapsed < 0:
            raise ValueError("max_elapsed must be >= 0, got %r" % (self.max_elapsed,))

    def is_retryable(self, error: BaseException) -> bool:
        """``True`` when ``error`` is transient under this policy."""
        if not isinstance(error, Exception):
            return False  # KeyboardInterrupt / SystemExit always propagate
        if self.fatal and isinstance(error, self.fatal):
            return False
        return isinstance(error, self.retryable)

    def backoff(self, attempt: int, site: str = "") -> float:
        """Delay (seconds) after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based, got %r" % (attempt,))
        base = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if base <= 0 or self.jitter <= 0:
            return base
        digest = hashlib.sha256(
            ("%s|%d|%d" % (site, attempt, self.seed)).encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (1.0 + self.jitter * fraction)


@dataclasses.dataclass
class RetryResult:
    """Outcome of ``run_with_retry``: a value or a final error, plus accounting."""

    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 0
    site: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


def run_with_retry(
    fn: Callable[[], Any],
    policy: Optional[RetryPolicy] = None,
    site: str = "",
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> RetryResult:
    """Call ``fn`` under ``policy``; never raises for ``Exception`` failures.

    ``sleep`` and ``clock`` are injectable so tests assert the backoff
    schedule (and the ``max_elapsed`` budget) without actually waiting.
    ``None`` runs under ``RetryPolicy()``.
    """
    policy = policy or RetryPolicy()
    started = clock()
    attempts = 0
    while True:
        attempts += 1
        try:
            return RetryResult(value=fn(), attempts=attempts, site=site)
        except Exception as error:  # noqa: BLE001 — classified below
            if attempts >= policy.max_attempts or not policy.is_retryable(error):
                return RetryResult(error=error, attempts=attempts, site=site)
            delay = policy.backoff(attempts, site=site)
            if policy.max_elapsed is not None:
                # Budget check covers the sleep we are *about* to take: a
                # retry that could only start past the deadline is pointless
                # work for a caller that has already given up waiting.
                if (clock() - started) + delay > policy.max_elapsed:
                    return RetryResult(error=error, attempts=attempts, site=site)
            if delay > 0:
                sleep(delay)
