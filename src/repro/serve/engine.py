"""Micro-batching serving front-end over the compiled inference executor.

:class:`BatchingServer` is the heavy-traffic entry point the ROADMAP's
north star asks for: many concurrent callers submit single images, a
background worker drains them into batches, pads each batch up to a fixed
bucket size, runs **one** compiled forward per batch, and splits the
result back to per-request futures.

Why each piece exists:

* **Batching** amortises the per-call Python dispatch over many requests —
  one compiled replay for up to ``max_batch`` images instead of one per
  image.  The worker collects until ``max_batch`` requests are waiting or
  ``max_wait_ms`` has elapsed since the batch opened (the classic
  throughput/latency knob pair) — but it opens that window only on a
  fresh server or after a batch that held more than one request.  After
  a batch of one it runs whatever is already queued without waiting, so
  a lone client pays its replay, not the window, while concurrent
  traffic (which keeps producing multi-request batches) still fuses.
* **Bucket padding** rounds every batch up to the next power-of-two size
  (by repeating the last image) so the compiled executor's
  shape-specialisation cache sees a handful of signatures instead of one
  per distinct batch size; padded rows are dropped before responding.
  Results are per-row independent (every model op is batch-parallel), so
  padding never changes a real request's prediction — pinned by the
  serving parity tests.
* **Shape grouping** keeps correctness for mixed workloads: only requests
  with identical image shapes are stacked together, so no request is ever
  resized or spatially padded.  A failing shape-group fails only its own
  requests; the other groups in the same batch still answer.

Reliability tier (PR 6) — admission control, deadlines, degradation:

* **Bounded admission queue.**  ``max_queue`` caps queued requests;
  ``submit`` on a full queue raises
  :class:`~repro.reliability.errors.QueueFullError` *without enqueuing* —
  overload sheds at the door instead of growing memory and latency
  unboundedly.  ``0`` keeps the queue unbounded (the benchmark-burst
  configuration).
* **Per-request deadlines.**  ``submit(image, deadline_ms=...)`` (or the
  server-wide ``deadline_ms`` default) stamps an absolute expiry; the
  worker rejects expired requests with
  :class:`~repro.reliability.errors.DeadlineExceededError` *before* batch
  assembly, so a backlogged server never wastes a forward on an answer
  nobody is waiting for.
* **Caller timeouts.**  ``predict(timeout=...)`` / ``predict_many``
  bound the wait on the response future, so a wedged batch (worker
  stall, injected delay) cannot hang callers forever.
* **Graceful degradation.**  The compiled executor is always built as
  ``CompiledModel(model, fallback=True)``: a trace/replay failure
  degrades that batch to the eager path (bit-identical results, one
  warning, counted) instead of failing requests — an un-traceable model
  still serves.
* **Observability.**  Counters live in a lock-guarded mutable record;
  :meth:`BatchingServer.stats` returns an immutable snapshot (the
  previous unlocked ``stats`` attribute was a data race with the worker
  thread).  :meth:`BatchingServer.health` returns an endpoint-shaped
  dict: queue depth, shed/expired counters, fallback count, and
  p50/p95/p99 latency overall and per padding bucket.

``max_queue`` and ``deadline_ms`` are plain constructor arguments
(defaults: unbounded queue, no deadline).  Only the engines resolve
through :mod:`repro.core.engine_config`: they are selected per run.

Autoregressive decode tier (PR 10) — sequence-bucketed KV-cached serving:

* **Sessions.**  :meth:`BatchingServer.open_session` opens one live
  stream (prompt + growing KV cache) against a cache-carrying decoder
  (:class:`repro.nn.transformer.MiniDecoder`); :meth:`submit_decode`
  enqueues *one token step* for a session through the same admission
  queue (bounds, deadlines, close ordering all shared with prefill).
* **One step per drain.**  Each drain's live decode requests run as
  **one** batched step at the largest cache capacity bucket among their
  sessions (powers of two, see
  :func:`repro.nn.transformer.bucket_capacity`).  Rows are independent
  and a smaller session's cache joins zero-padded: the slots past its
  position are masked out of its attention, so sessions in different
  buckets share the step, and each keeps only its own capacity of the
  result.  Group sizes pad to the next power of two (ghost rows repeat
  the last session, outputs discarded), so the compiled decode executor
  sees a handful of (batch, capacity) signatures under arbitrary
  traffic.
* **Engine knob.**  ``decode_engine`` (kwarg > context >
  ``REPRO_DECODE_ENGINE`` > ``"eager"``) picks the batched step:
  :class:`repro.graph.executor.CompiledDecodeStep` replay or the eager
  step.  Greedy token streams are identical either way.

Responses are plain ``concurrent.futures.Future`` objects; exceptions
raised by a shape-group propagate to every request in it.  The server is
a context manager — ``close()`` stops the worker after the queue empties,
then assert-drains the queue: anything still there is a stranded request
(a bug), which is failed loudly rather than left hanging.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import engine_config
from repro.nn.module import Module
from repro.reliability.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
)
from repro.reliability.faults import fault_point

_STOP = object()

# Latency samples kept per histogram (overall + per padding bucket); a
# bounded window so a long-lived server's memory stays flat while the
# percentiles track recent behaviour.
_LATENCY_WINDOW = 4096


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Immutable snapshot of a server's lifetime counters.

    ``requests`` counts admitted submissions; ``completed``/``failed``
    partition answered requests by outcome; ``shed`` and ``expired`` are
    the admission-control rejections (queue full / deadline passed) and
    are *not* part of ``requests``/``failed``.  ``fallbacks`` counts
    batches answered by the eager path after a compiled failure.
    ``decode_steps``/``decode_batches`` count answered single-token
    decode requests and the batched steps (one per drain) that served
    them — ``decode_steps > decode_batches`` is the direct evidence that
    concurrent sessions shared steps.
    """

    requests: int = 0
    batches: int = 0
    padded_rows: int = 0
    max_batch_size: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    expired: int = 0
    fallbacks: int = 0
    decode_steps: int = 0
    decode_batches: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0


class _Request:
    """One queued image with its response future and timing metadata."""

    __slots__ = ("image", "future", "enqueued", "deadline")

    def __init__(self, image: Any, future: "Future", deadline: Optional[float]) -> None:
        self.image = image
        self.future = future
        self.enqueued = time.monotonic()
        self.deadline = deadline

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    # Every answer path goes through these two, so subclasses can attach
    # cleanup (the decode request releases its session's in-flight latch).

    def resolve(self, value: Any) -> None:
        self.future.set_result(value)

    def fail(self, error: BaseException) -> None:
        self.future.set_exception(error)


class DecodeSession:
    """One live autoregressive stream: its token history and KV cache.

    Created by :meth:`BatchingServer.open_session`; advanced one token at
    a time by :meth:`BatchingServer.submit_decode`.  ``tokens`` holds the
    prompt plus every token generated so far; ``cache`` carries the
    attention prefix at the session's power-of-two capacity bucket.  The
    worker thread owns both between submit and resolution — the
    ``_inflight`` latch makes a double-submit fail fast instead of racing
    two steps of the same stream.
    """

    _ids = itertools.count()

    def __init__(self, prompt: Sequence[int], cache: Any) -> None:
        self.session_id = next(DecodeSession._ids)
        self.tokens: List[int] = [int(token) for token in prompt]
        self.prompt_len = len(self.tokens)
        self.cache = cache
        self._inflight = False

    @property
    def position(self) -> int:
        """The next position to consume (= tokens already in the cache)."""
        return self.cache.length

    @property
    def generated(self) -> List[int]:
        """Tokens produced after the prompt, in order."""
        return self.tokens[self.prompt_len:]


class _DecodeRequest(_Request):
    """One queued single-token decode step for a live session."""

    __slots__ = ("session",)

    def __init__(
        self, session: DecodeSession, future: "Future", deadline: Optional[float]
    ) -> None:
        super().__init__(None, future, deadline)
        self.session = session

    def resolve(self, value: Any) -> None:
        self.session._inflight = False
        super().resolve(value)

    def fail(self, error: BaseException) -> None:
        self.session._inflight = False
        super().fail(error)


def _bucket_size(count: int, max_batch: int) -> int:
    """The padded batch size: next power of two, capped at ``max_batch``."""
    size = 1
    while size < count:
        size *= 2
    return min(size, max_batch)


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Endpoint-shaped latency summary (milliseconds) of one window."""
    if not samples:
        return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    array = np.asarray(samples, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(array, (50.0, 95.0, 99.0))
    return {
        "count": int(array.size),
        "p50_ms": float(p50),
        "p95_ms": float(p95),
        "p99_ms": float(p99),
    }


class BatchingServer:
    """Batches concurrent ``submit`` calls into single compiled forwards.

    Parameters
    ----------
    model:
        The segmentation model to serve.  Put it in ``eval()`` mode first
        if it contains train-only layers; the server does not change modes.
    max_batch:
        Largest number of requests fused into one forward (and the padding
        bucket cap).
    max_wait_ms:
        Upper bound on how long an open batch waits for more requests
        before running under-full.  The wait applies only on a fresh
        server or after a batch that held more than one request; after a
        batch of one (and always at ``0``) the worker runs whatever a
        single queue drain finds.
    engine:
        Inference engine for the batched forward, resolved through
        :mod:`repro.core.engine_config` (kwarg > context >
        ``REPRO_INFER_ENGINE`` > default).  The server exists to feed the
        ``"compiled"`` executor, but ``"eager"`` is honoured for
        comparisons — predictions are bit-identical either way.
    max_queue:
        Admission bound: queued (not yet batch-assembled) requests beyond
        this are shed with :class:`QueueFullError`.  ``0`` = unbounded.
    deadline_ms:
        Default per-request deadline; ``0`` disables.  Per-call
        ``submit(..., deadline_ms=...)`` overrides.
    decode_engine:
        Engine for the batched decode steps (only consulted when
        the served model is a cache-carrying decoder), resolved through
        :mod:`repro.core.engine_config` (kwarg > context >
        ``REPRO_DECODE_ENGINE`` > default).
    """

    def __init__(
        self,
        model: Module,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        engine: Optional[str] = None,
        max_queue: int = 0,
        deadline_ms: float = 0.0,
        decode_engine: Optional[str] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %d" % max_batch)
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0, got %r" % (max_wait_ms,))
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0, got %r" % (max_queue,))
        if deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0, got %r" % (deadline_ms,))
        self.model = model
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self.engine = engine_config.resolve("infer_engine", engine)
        self.decode_engine = engine_config.resolve("decode_engine", decode_engine)
        self.max_queue = max_queue
        self.default_deadline = deadline_ms / 1000.0
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()  # guards _closed + _depth (admission)
        self._depth = 0
        self._decode_step = None       # lazy CompiledDecodeStep
        self._decode_lock = threading.Lock()  # session open / calibration
        # Counters are mutated by the worker thread and read by any caller:
        # one lock guards the mutable record; stats() snapshots under it.
        self._stats_lock = threading.Lock()
        self._counters = {field.name: 0 for field in dataclasses.fields(ServerStats)}
        self._latency: List[float] = []
        self._bucket_latency: Dict[Any, List[float]] = {}
        self._worker_error: Optional[BaseException] = None
        self._window_open = True  # worker-thread state, see _collect
        self._setup_executor()
        self._worker = threading.Thread(
            target=self._serve_loop, name="repro-batching-server", daemon=True
        )
        self._worker.start()

    def _setup_executor(self) -> None:
        """Build the in-process executor.  The replicated supervisor
        overrides this with a no-op — its forwards run in worker processes."""
        if self.engine == "compiled":
            from repro.graph.executor import CompiledModel

            self._compiled: Optional["CompiledModel"] = CompiledModel(
                self.model, fallback=True
            )
        else:
            self._compiled = None

    # -- client surface --------------------------------------------------------

    def submit(self, image: Any, deadline_ms: Optional[float] = None) -> "Future":
        """Enqueue one image ``(H, W, C)``; resolves to its ``(H, W)`` labels.

        Raises :class:`QueueFullError` (and sheds the request) when the
        admission queue is at ``max_queue``.  ``deadline_ms`` bounds how
        long the request may wait for batch assembly; an expired request
        fails with :class:`DeadlineExceededError` instead of running.
        """
        # Convert outside the lock: for non-float64 inputs asarray copies,
        # and serialising that across client threads would bottleneck
        # submission on single-threaded preprocessing.
        return self._admit(np.asarray(image, dtype=np.float64), None, deadline_ms)

    def predict(
        self,
        image: Any,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ):
        """Synchronous wrapper: ``submit(image).result(timeout)``.

        ``timeout`` (seconds) bounds the wait on the response, so a wedged
        batch cannot hang the caller; ``concurrent.futures.TimeoutError``
        propagates when it expires.
        """
        return self.submit(image, deadline_ms=deadline_ms).result(timeout)

    def predict_many(
        self, images: Sequence[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        """Submit a burst of images and wait for all results (in order).

        ``timeout`` bounds the *total* wait across the burst.
        """
        futures = [self.submit(image) for image in images]
        if timeout is None:
            return [future.result() for future in futures]
        deadline = time.monotonic() + timeout
        return [
            future.result(max(0.0, deadline - time.monotonic())) for future in futures
        ]

    # -- decode client surface -------------------------------------------------

    def open_session(self, prompt: Sequence[int]) -> DecodeSession:
        """Open a live decode stream for ``prompt`` (a token-id sequence).

        Calibrates the decoder's operator quantizers from the prompt on
        the first session (identical to every other decode path — the
        stream-parity precondition) and allocates the session's KV cache
        at the smallest capacity bucket.
        """
        if not hasattr(self.model, "step"):
            raise TypeError(
                "model %s is not a cache-carrying decoder (no step())"
                % type(self.model).__name__
            )
        prompt = [int(token) for token in prompt]
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        if len(prompt) >= self.model.config.max_seq:
            raise ValueError(
                "prompt length %d leaves no room to decode (max_seq %d)"
                % (len(prompt), self.model.config.max_seq)
            )
        with self._decode_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            self.model.calibrate(prompt)
            if self._decode_step is None and self.decode_engine == "compiled":
                from repro.graph.executor import CompiledDecodeStep

                self._decode_step = CompiledDecodeStep(self.model)
        return DecodeSession(prompt, self.model.new_cache(batch=1))

    def submit_decode(
        self, session: DecodeSession, deadline_ms: Optional[float] = None
    ) -> "Future":
        """Enqueue one token step; resolves to the predicted next token.

        While the session's position is inside the prompt this is a
        prefill step (the prediction is reported but the next prompt
        token is what enters the cache); once past it, each step appends
        its greedy prediction to ``session.tokens``.  A session supports
        one in-flight step at a time — a second submit before the first
        resolves raises ``RuntimeError`` instead of racing the cache.

        Shares the prefill path's admission control: ``QueueFullError``
        on a full queue, deadline expiry before batch assembly.
        """
        if session.position + 1 >= self.model.config.max_seq:
            raise ValueError(
                "session %d is at max_seq %d; cannot decode further"
                % (session.session_id, self.model.config.max_seq)
            )
        return self._admit(None, session, deadline_ms)

    def _admit(
        self,
        array: Any,
        session: Optional[DecodeSession],
        deadline_ms: Optional[float],
    ) -> "Future":
        """The admission step ``submit`` and ``submit_decode`` share.

        Checks and stamps the deadline, then under ``_lock`` refuses a
        closed server (and a session with a step already in flight), sheds
        with :class:`QueueFullError` at ``max_queue``, or enqueues
        ``array``'s prefill request — ``session``'s decode step when one is
        given, latching it in flight under the same lock acquisition.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0, got %r" % (deadline_ms,))
        deadline_s = (
            deadline_ms / 1000.0 if deadline_ms is not None else self.default_deadline
        )
        deadline = time.monotonic() + deadline_s if deadline_s > 0 else None
        with self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if session is not None and session._inflight:
                raise RuntimeError(
                    "session %d already has a step in flight" % session.session_id
                )
            shed = bool(self.max_queue) and self._depth >= self.max_queue
            if not shed:
                self._depth += 1
                future: Future = Future()
                if session is None:
                    self._queue.put(_Request(array, future, deadline))
                else:
                    session._inflight = True
                    self._queue.put(_DecodeRequest(session, future, deadline))
        if shed:
            self._count(shed=1)
            raise QueueFullError(
                "admission queue full (%d queued, limit %d)"
                % (self.max_queue, self.max_queue)
            )
        self._count(requests=1)
        return future

    def generate(
        self,
        prompt: Sequence[int],
        num_new: int,
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Greedy-decode ``num_new`` tokens after ``prompt``; returns them.

        Sequential per session — the batching win comes from *concurrent*
        sessions whose steps share a drain, so run ``generate``
        from several threads to exercise it (the decode benchmark does).
        """
        session = self.open_session(prompt)
        steps = len(prompt) + num_new - 1
        for _ in range(steps):
            self.submit_decode(session).result(timeout)
        return session.generated

    def close(self) -> None:
        """Stop the worker after every queued request has been answered.

        The stop sentinel is enqueued *under the admission lock*, so no
        submit can slip a request behind it.  After the worker joins, the
        queue is assert-drained: a remaining request would mean the
        ordering contract broke — its future is failed with
        :class:`ServerClosedError` and the bug is raised loudly.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._worker.join()
        self._assert_drained()

    def _assert_drained(self) -> None:
        stranded = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Request):
                stranded.append(item)
        if stranded:
            error = ServerClosedError(
                "server closed with %d unserved request(s) stranded in the queue"
                % len(stranded)
            )
            for request in stranded:
                request.fail(error)
            raise AssertionError(
                "BatchingServer.close() ordering contract violated: "
                "%d request(s) were queued behind the stop sentinel" % len(stranded)
            )

    def __enter__(self) -> "BatchingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ---------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                self._counters[name] += delta

    def _observe_max_batch(self, count: int) -> None:
        with self._stats_lock:
            if count > self._counters["max_batch_size"]:
                self._counters["max_batch_size"] = count

    def _record_latency(self, bucket: Any, seconds: float) -> None:
        """Add one sample to the overall and per-bucket windows.

        ``bucket`` is the padded batch size (int) for prefill groups, or a
        ``"decode/batch<G>/cap<C>"`` string for decode groups — the cache
        capacity is part of the key so a decode group never aliases a
        prefill group of the same padded size in the percentile stats.
        """
        with self._stats_lock:
            window = self._bucket_latency.setdefault(bucket, [])
            window.append(seconds)
            del window[:-_LATENCY_WINDOW]
            self._latency.append(seconds)
            del self._latency[:-_LATENCY_WINDOW]

    def _fallback_count(self) -> int:
        """Eager-degradation count; subclasses aggregate across replicas."""
        return self._compiled.fallback_count if self._compiled is not None else 0

    def stats(self) -> ServerStats:
        """An immutable, internally consistent snapshot of the counters."""
        fallbacks = self._fallback_count()
        with self._stats_lock:
            values = dict(self._counters)
        values["fallbacks"] = fallbacks
        return ServerStats(**values)

    def health(self) -> Dict[str, Any]:
        """Endpoint-shaped health report (JSON-serialisable).

        Carries everything a load balancer or dashboard needs: liveness,
        queue depth against its bound, the admission-control counters,
        the compiled-fallback count, and p50/p95/p99 latency overall and
        per padding bucket.
        """
        snapshot = self.stats()
        with self._lock:
            depth = self._depth
            closed = self._closed
        with self._stats_lock:
            latency = _percentiles(self._latency)
            # Prefill keys are padded batch sizes (ints, sorted numerically
            # first); decode keys are "decode/batch<G>/cap<C>" strings —
            # distinct key spaces, so the two tiers never alias.
            buckets = {
                str(bucket): _percentiles(window)
                for bucket, window in sorted(
                    self._bucket_latency.items(),
                    key=lambda item: (isinstance(item[0], str), str(item[0])),
                )
            }
        degraded = snapshot.fallbacks > 0 or self._worker_error is not None
        if closed:
            status = "closed"
        elif self._worker_error is not None or not self._worker.is_alive():
            status = "failed"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "engine": self.engine,
            "queue_depth": depth,
            "queue_limit": self.max_queue,
            "worker_alive": self._worker.is_alive(),
            "worker_error": (
                repr(self._worker_error) if self._worker_error is not None else None
            ),
            "counters": dataclasses.asdict(snapshot),
            "latency_ms": latency,
            "bucket_latency_ms": buckets,
        }

    # -- worker ----------------------------------------------------------------

    def _take(self, item: Any, now: float) -> Optional[_Request]:
        """Account one dequeued item; expire it here if its deadline passed."""
        if not isinstance(item, _Request):
            return None
        with self._lock:
            self._depth -= 1
        if item.expired(now):
            self._count(expired=1)
            item.fail(
                DeadlineExceededError(
                    "deadline expired %.1f ms before batch assembly"
                    % (1e3 * (now - item.deadline))
                )
            )
            return None
        return item

    def _collect(self) -> Tuple[List[_Request], bool]:
        """Block for the next request, then drain up to a full batch.

        The drain waits up to ``max_wait`` for more requests only while
        the window is open (fresh server, or the previous batch held more
        than one request); otherwise it takes only what is already queued.

        Returns ``(requests, stop)``; ``stop`` is set when the shutdown
        sentinel was consumed (after which no request follows it — close()
        enqueues it last *under the admission lock* and submit() refuses
        once closed).  Requests whose deadline already passed are rejected
        here — before batch assembly — and never occupy a batch slot.
        """
        pending: List[_Request] = []
        while not pending:
            first = self._queue.get()
            if first is _STOP:
                return [], True
            taken = self._take(first, time.monotonic())
            if taken is not None:
                pending.append(taken)
        deadline = None
        while len(pending) < self.max_batch:
            if self.max_wait <= 0 or not self._window_open:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                if deadline is None:
                    deadline = time.monotonic() + self.max_wait
                    remaining = self.max_wait
                else:
                    remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is _STOP:
                return pending, True
            taken = self._take(item, time.monotonic())
            if taken is not None:
                pending.append(taken)
        self._window_open = len(pending) > 1
        return pending, False

    def _run_batch(self, requests: List[_Request]) -> None:
        fault_point("serve.batch")
        # A second expiry sweep: time passed while the batch filled.
        now = time.monotonic()
        live: List[_Request] = []
        for request in requests:
            if request.expired(now):
                self._count(expired=1)
                request.fail(
                    DeadlineExceededError("deadline expired during batch collection")
                )
            else:
                live.append(request)
        decode = [r for r in live if isinstance(r, _DecodeRequest)]
        prefill = [r for r in live if not isinstance(r, _DecodeRequest)]
        # Group by image shape so no request is spatially padded; each
        # group becomes one stacked forward.
        groups: Dict[Tuple[int, ...], List[_Request]] = {}
        for request in prefill:
            groups.setdefault(request.image.shape, []).append(request)
        for _, group in sorted(groups.items()):
            self._submit_group(group)
        self._run_decode(decode)

    @staticmethod
    def _pad_group(group: List[_Request], max_batch: int) -> Tuple[Any, int]:
        """Stack one shape-group into its padded batch array.

        Returns ``(batch, padded_to)``; padding repeats the last image up
        to the power-of-two bucket so the compiled executor's signature
        cache stays small.
        """
        images = [request.image for request in group]
        count = len(images)
        padded_to = _bucket_size(count, max_batch)
        if padded_to > count:
            images = images + [images[-1]] * (padded_to - count)
        return np.stack(images, axis=0), padded_to

    def _submit_group(self, group: List[_Request]) -> None:
        """Answer one shape-group.  The base server executes inline; the
        replicated supervisor overrides this to enqueue the padded batch
        for a worker-process dispatcher instead."""
        try:
            batch, padded_to = self._pad_group(group, self.max_batch)
            predictions = self._predict_batch(batch)
        except BaseException as error:  # propagate to every caller in the group
            self._fail_group(group, error)
            return
        self._finish_group(group, predictions, padded_to)

    def _predict_batch(self, batch: Any) -> Any:
        """One forward over a stacked batch via the configured engine."""
        if self._compiled is not None:
            return self._compiled.predict(batch)
        return self.model.predict(batch, engine="eager")

    def _finish_group(self, group: List[_Request], predictions: Any, padded_to: int) -> None:
        """Account a served group and resolve its futures (padding dropped)."""
        done = time.monotonic()
        count = len(group)
        self._count(batches=1, completed=count, padded_rows=padded_to - count)
        self._observe_max_batch(count)
        for index, request in enumerate(group):
            self._record_latency(padded_to, done - request.enqueued)
            request.resolve(predictions[index])

    def _fail_group(self, group: List[_Request], error: BaseException) -> None:
        """Fail every caller in a group with the same error."""
        self._count(failed=len(group))
        for request in group:
            request.fail(error)

    # -- decode drain ----------------------------------------------------------

    def _run_decode(self, requests: List["_DecodeRequest"]) -> None:
        """Serve this drain's decode requests as one batched step.

        Each session's cache is first grown to the bucket holding its next
        position; then every request of the drain runs in a single step at
        the largest of their capacities (:meth:`_decode_group`).  A failing
        step fails every decode request of the drain.
        """
        if not requests:
            return
        for request in requests:
            request.session.cache.ensure(request.session.position + 1)
        try:
            self._decode_group(requests)
        except BaseException as error:
            self._fail_group(requests, error)

    def _decode_group(self, group: List["_DecodeRequest"]) -> None:
        """One batched compiled/eager step over a drain's decode requests.

        The step runs at the largest cache capacity in the group; smaller
        caches join zero-padded (:func:`~repro.nn.transformer.stack_caches`)
        and each session keeps only its own capacity of the step's new
        caches, so session memory does not grow with the group's.
        """
        from repro.nn.transformer import stack_caches, step_inputs

        sessions = [request.session for request in group]
        count = len(sessions)
        padded_to = _bucket_size(count, self.max_batch)
        # Ghost rows repeat the last session; per-row outputs beyond the
        # real count are discarded.  Reading one cache twice is safe — the
        # step is functional in the cache arrays.
        rows = sessions + [sessions[-1]] * (padded_to - count)
        capacity = max(session.cache.capacity for session in sessions)
        positions = [session.position for session in rows]
        tokens = [session.tokens[position]
                  for session, position in zip(rows, positions)]
        token_onehot, pos_onehot, mask = step_inputs(
            self.model, tokens, positions, capacity
        )
        stacked = stack_caches([session.cache for session in rows], capacity)
        logits, new_caches = self._decode_predict(
            token_onehot, pos_onehot, mask, stacked.arrays()
        )
        done = time.monotonic()
        self._count(decode_batches=1, decode_steps=count,
                    padded_rows=padded_to - count)
        bucket_key = "decode/batch%d/cap%d" % (padded_to, capacity)
        for index, request in enumerate(group):
            session = request.session
            own = session.cache.capacity
            session.cache.update(
                [array[index:index + 1, :, :own].copy() for array in new_caches]
            )
            predicted = int(np.argmax(logits[index]))
            if session.cache.length == len(session.tokens):
                session.tokens.append(predicted)
            self._record_latency(bucket_key, done - request.enqueued)
            request.resolve(predicted)

    def _decode_predict(
        self, token_onehot: Any, pos_onehot: Any, mask: Any,
        cache_arrays: Sequence[Any],
    ) -> Tuple[Any, Sequence[Any]]:
        """One batched decode step via the configured decode engine."""
        if self._decode_step is not None:
            return self._decode_step.step(
                token_onehot, pos_onehot, mask, cache_arrays
            )
        return self.model.eager_step(token_onehot, pos_onehot, mask, cache_arrays)

    def _serve_loop(self) -> None:
        try:
            while True:
                requests, stop = self._collect()
                if requests:
                    self._run_batch(requests)
                if stop:
                    return
        except BaseException as error:  # worker must never die silently
            self._worker_error = error
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Request):
                    with self._lock:
                        self._depth -= 1
                    self._count(failed=1)
                    item.fail(error)
            raise
