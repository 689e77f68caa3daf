"""Declarative experiment cells and the parallel sweep engine.

The paper's evaluation is a grid of independent cells: every table and
figure is assembled from ``(operator, method, num_entries, budget)``
approximations, each of which owns an explicit seed.  This module turns a
cell into a declarative :class:`ApproximationJob` with a canonical,
content-addressed cache key, and executes batches of jobs through
:class:`SweepEngine`:

* duplicate jobs inside a batch are collapsed before any work happens;
* previously built cells are answered from the two-tier
  :class:`~repro.experiments.artifacts.ArtifactCache` (in-process dict plus
  optional on-disk ``.npz`` store);
* the remaining cells run either serially (``workers=0``, the debugging and
  coverage path) or fanned out over a ``ProcessPoolExecutor``.

Because each cell is seeded and side-effect free, the parallel and serial
paths are bit-identical by construction — the tests assert it, the
benchmarks gate on it.

Every batch is also a **journaled** sweep: each per-cell transition
goes through a :class:`~repro.experiments.queue.DurableQueue` — pending →
leased → done/quarantined.
Give :meth:`SweepEngine.run_manifest` a ``run_dir`` (kwarg, engine
attribute or ``REPRO_SWEEP_RUN_DIR``) and that journal is an fsync'd file
while artifacts land in a store under ``run_dir/artifacts``; without one
the journal lives in memory and the code path is the same.  SIGKILL a
durable coordinator or any worker at any instant and
:meth:`SweepEngine.resume` replays the journal, answers completed cells
from the content-addressed store (zero rebuilds), rebuilds every other
cell that is not quarantined (those the dead coordinator had leased
included), and finishes bit-identical to an uninterrupted run.  A
quarantine is a verdict about a run, so it lives in that run's journal:
poisoned cells of a durable run fail fast across process restarts until
:meth:`SweepEngine.clear_quarantine` lifts the embargo, while an engine
without a ``run_dir`` keeps its quarantine for its own lifetime.

The process-wide :func:`default_engine` is what
:func:`repro.experiments.methods.build_approximation` routes through, so any
two experiment runners in one process (or two processes sharing a
``REPRO_ARTIFACT_DIR``) never compute the same approximation twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core import engine_config
from repro.core.pwl import PiecewiseLinear
from repro.experiments.artifacts import ArtifactCache, ArtifactStore
from repro.experiments.methods import (
    ApproximationBudget,
    compute_approximation,
    resolved_method,
)
from repro.experiments.queue import DONE, JOURNAL_NAME, DurableQueue
from repro.reliability.errors import JobQuarantinedError, PersistedQuarantineError
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, run_with_retry

# Bump when the artifact layout or the build semantics change incompatibly;
# part of every cache key, so stale on-disk artifacts can never be returned.
# Version 2: the GA scoring engine left ApproximationBudget (it resolves
# through repro.core.engine_config and never changes seeded results), so
# budget payloads — and therefore keys — changed shape.  Keying a cell by
# its resolved method (``gqa-rm`` -> ``gqa-wo-rm`` where RM cannot fire)
# did not bump it: the twins' artifacts are bit-identical, and the old
# ``gqa-rm`` keys of those cells merely become unreachable.
ARTIFACT_FORMAT_VERSION = 2


@dataclasses.dataclass(frozen=True)
class ApproximationJob:
    """One cell of the evaluation grid, ready to be keyed and executed."""

    operator: str
    method: str
    num_entries: int = 8
    budget: ApproximationBudget = ApproximationBudget()

    @property
    def key(self) -> str:
        """Canonical content hash of the job (stable across processes).

        The key covers every field that influences the built artifact —
        including the full budget (seed included) and the artifact format
        version — serialised canonically (sorted keys, no
        whitespace) and hashed with SHA-256.  It hashes the search the cell
        runs, not the label it was requested under: a ``gqa-rm`` cell
        whose operator cannot fire RM (:func:`resolved_method`) shares its
        ``gqa-wo-rm`` twin's key, so the engine builds that search once.
        """
        payload = {
            "format": ARTIFACT_FORMAT_VERSION,
            "operator": self.operator,
            "method": resolved_method(self.operator, self.method),
            "num_entries": self.num_entries,
            "budget": dataclasses.asdict(self.budget),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build(self) -> PiecewiseLinear:
        """Execute the cell directly (no cache involvement)."""
        return compute_approximation(
            self.operator, self.method, num_entries=self.num_entries, budget=self.budget
        )


def _job_site(job: ApproximationJob) -> str:
    """The fault-injection / retry-jitter site name for one cell."""
    return "sweep.build:%s:%s" % (job.operator, job.method)


def _job_payload(job: ApproximationJob) -> Dict[str, Any]:
    """JSON-serialisable description a journal can rebuild the job from."""
    return {
        "operator": job.operator,
        "method": job.method,
        "num_entries": job.num_entries,
        "budget": dataclasses.asdict(job.budget),
    }


def _job_from_payload(payload: Dict[str, Any]) -> ApproximationJob:
    """Inverse of :func:`_job_payload` (used by resume and quarantine load)."""
    return ApproximationJob(
        operator=payload["operator"],
        method=payload["method"],
        num_entries=int(payload["num_entries"]),
        budget=ApproximationBudget(**payload["budget"]),
    )


def _execute_job(item: Tuple[str, ApproximationJob]) -> Tuple[str, PiecewiseLinear]:
    """Worker entry point: build one keyed job (picklable, module level)."""
    key, job = item
    fault_point(_job_site(job))
    return key, job.build()


@dataclasses.dataclass
class SweepStats:
    """Work accounting for one ``SweepEngine.run`` (or an engine lifetime).

    ``requested`` counts jobs as submitted, ``deduped`` the duplicates
    collapsed within the batch; ``memory_hits``/``disk_hits``/``builds``
    partition the unique keys by how they were satisfied.
    """

    requested: int = 0
    deduped: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    builds: int = 0
    # Reliability accounting (PR 6): ``retries`` counts extra attempts
    # after a failure, ``redispatches`` duplicate submissions after a
    # straggler timeout, ``failures`` cells that exhausted their policy
    # (including quarantine fast-fails on later runs).
    retries: int = 0
    redispatches: int = 0
    failures: int = 0

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def add(self, other: "SweepStats") -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


@dataclasses.dataclass
class JobFailure:
    """One quarantined cell: which job, what it raised, how hard we tried."""

    key: str
    job: ApproximationJob
    error: BaseException
    attempts: int

    @property
    def error_type(self) -> str:
        return type(self.error).__name__

    def describe(self) -> str:
        return "%s:%s (%s after %d attempt(s): %s)" % (
            self.job.operator, self.job.method, self.error_type, self.attempts, self.error
        )


@dataclasses.dataclass
class SweepResult:
    """Manifest of one fault-tolerant sweep: built cells plus failures.

    A failing cell no longer aborts the batch — it is reported here while
    every healthy cell still completes with cache-parity artifacts.
    """

    results: Dict[str, PiecewiseLinear]
    failures: Dict[str, JobFailure]
    stats: SweepStats

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self) -> Dict[str, PiecewiseLinear]:
        """The all-or-nothing view: raise the first failure if any."""
        if self.failures:
            raise next(iter(self.failures.values())).error
        return self.results


class SweepEngine:
    """Deduplicating, cache-backed, optionally parallel executor for jobs.

    Parameters
    ----------
    cache:
        The two-tier artifact cache; a fresh memory-only cache by default.
    workers:
        Default process count for :meth:`run`.  ``0`` (or ``1``) executes
        in-process — the serial path used for debugging and coverage; ``>=
        2`` fans the missing cells over a ``ProcessPoolExecutor``.  Each
        cell owns an explicit seed, so the two paths are bit-identical.
        ``None`` re-resolves through :mod:`repro.core.engine_config`
        (context > ``REPRO_SWEEP_WORKERS`` > ``0``) on every :meth:`run`.
    retry:
        The :class:`~repro.reliability.retry.RetryPolicy` for failing
        cells; ``None`` runs under ``RetryPolicy()`` (three attempts,
        0.05 s base delay).  Retries never change results — every cell
        is seeded and side-effect free, so attempt N is bit-identical to
        attempt 1.
    straggler_timeout:
        Seconds the pool path waits without *any* completion before
        re-dispatching every unresolved cell to another worker (first
        copy to finish wins; copies are bit-identical).  ``None``
        disables straggler handling: the pool path then blocks until a
        completion.
    run_dir:
        Default durable-run directory for :meth:`run_manifest` /
        :meth:`resume`.  ``None`` re-resolves through the engine config
        (context > ``REPRO_SWEEP_RUN_DIR`` > none) on every run; any
        directory makes sweeps journaled on disk and crash-safe, none
        journals in memory (see :mod:`repro.experiments.queue`).

    Cells whose retry budget is exhausted are **quarantined** on the
    engine: their :class:`JobFailure` is reported in the
    :class:`SweepResult` manifest and later runs fail them fast (as a
    :class:`~repro.reliability.errors.JobQuarantinedError`) instead of
    re-poisoning a worker.  :meth:`clear_quarantine` lifts the embargo.
    The run journal is the only persisted quarantine record: a durable
    run's embargo survives process restarts, an in-memory run's lasts
    as long as the engine.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        straggler_timeout: Optional[float] = None,
        run_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        self.workers = workers
        self.retry = retry
        self.straggler_timeout = straggler_timeout
        self.run_dir = str(run_dir) if run_dir is not None else None
        self.stats = SweepStats()
        self.last_run = SweepStats()
        self.quarantine: Dict[str, JobFailure] = {}
        self._queue = DurableQueue()
        # True while ``cache.store`` is the one ``_open_queue`` attached
        # under a run directory: that store follows the run directory, a
        # store the caller passed in stays put.
        self._store_attached = False

    # -- journal ---------------------------------------------------------

    def _adopt_persisted_failure(
        self, key: str, payload: Dict[str, Any], error_type: str,
        message: str, attempts: int,
    ) -> None:
        """Rebuild a :class:`JobFailure` from a journal's quarantine record."""
        try:
            job = _job_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return  # record from an incompatible build: skip, don't crash
        error = PersistedQuarantineError(
            "%s: %s" % (error_type or "UnknownError", message)
        )
        self.quarantine[key] = JobFailure(
            key=key, job=job, error=error, attempts=attempts
        )

    def _open_queue(self, run_dir: Optional[str]) -> DurableQueue:
        """The journal for ``run_dir`` (cached while the directory is stable).

        ``None`` is an in-memory journal.  Opening a run directory also
        (1) attaches an artifact store at ``run_dir/artifacts`` when the
        engine's cache has none, or moves a store attached that way to
        the new run directory — resume bit-parity requires completed cells
        to be loadable from their own run — and (2) merges the journal's
        persisted quarantine into the engine's in-memory set, so poison
        recorded by a dead coordinator still fails fast here.
        """
        target = Path(run_dir) if run_dir is not None else None
        if self._queue.run_dir == target:
            return self._queue
        queue = DurableQueue(target)
        self._queue.close()
        if target is not None and (self.cache.store is None or self._store_attached):
            self.cache.store = ArtifactStore(target / "artifacts")
            self._store_attached = True
        for key, cell in queue.quarantined().items():
            if key not in self.quarantine:
                self._adopt_persisted_failure(
                    key, cell.payload, cell.error_type, cell.error, cell.attempts
                )
        self._queue = queue
        return queue

    def close(self) -> None:
        """Release the journal handle (the engine stays usable without it)."""
        self._queue.close()
        self._queue = DurableQueue()

    def clear_quarantine(self) -> None:
        """Forget every poisoned key (they become eligible to run again).

        The open run journal records the clear too, so the embargo stays
        lifted across process restarts.
        """
        self.quarantine.clear()
        self._queue.clear_quarantine()

    def run(
        self,
        jobs: Iterable[ApproximationJob],
        workers: Optional[int] = None,
        run_dir: Optional[Union[str, Path]] = None,
    ) -> Dict[str, PiecewiseLinear]:
        """Execute ``jobs`` and return ``{job.key: PiecewiseLinear}``.

        Duplicate jobs are built once; cached cells are never rebuilt.  The
        result covers every distinct key in ``jobs`` (duplicates collapse
        onto the same entry).  This is the all-or-nothing surface the
        experiment runners need: a cell that still fails after retries
        raises.  Use :meth:`run_manifest` for the fault-tolerant view.
        """
        return self.run_manifest(jobs, workers=workers, run_dir=run_dir).require()

    def resume(
        self,
        run_dir: Optional[Union[str, Path]] = None,
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Finish an interrupted durable sweep from its journal.

        Replays ``run_dir``'s journal (torn tail tolerated), rebuilds the
        job list from the journaled payloads, answers completed cells from
        the content-addressed artifact store (zero rebuilds), rebuilds
        every other cell — a dead coordinator's leased ones included, its
        lease state is never read — and fails persisted quarantine fast.
        Because every cell is seeded, the resumed result set is
        bit-identical to an uninterrupted run's.  A directory with
        no journal raises :class:`FileNotFoundError` and is left untouched.
        """
        resolved = engine_config.resolve(
            "sweep_run_dir", str(run_dir) if run_dir is not None else self.run_dir
        )
        if not resolved:
            raise ValueError(
                "resume() needs a run_dir (kwarg, engine attribute, or %s)"
                % engine_config.KNOBS["sweep_run_dir"].env
            )
        journal = Path(resolved) / JOURNAL_NAME
        if not journal.is_file():
            raise FileNotFoundError("no sweep journal to resume at %s" % journal)
        queue = self._open_queue(resolved)
        jobs = [
            _job_from_payload(payload)
            for payload in queue.jobs().values()
            if payload
        ]
        return self.run_manifest(jobs, workers=workers, run_dir=resolved)

    def run_manifest(
        self,
        jobs: Iterable[ApproximationJob],
        workers: Optional[int] = None,
        run_dir: Optional[Union[str, Path]] = None,
    ) -> SweepResult:
        """Fault-tolerant execution: failures land in the manifest.

        Every healthy cell completes (retried under the policy, straggler
        re-dispatched on the pool path); each poisoned cell is reported as
        a :class:`JobFailure` and quarantined instead of aborting the
        batch.

        Cells are journaled through a
        :class:`~repro.experiments.queue.DurableQueue` (leased while
        building, marked done once the artifact is persisted).  With a
        ``run_dir`` (kwarg > engine attribute > engine config) that
        journal is on disk, so a SIGKILL at any instant is recoverable
        via :meth:`resume`; without one it is in memory.
        """
        if workers is None:
            workers = engine_config.resolve("sweep_workers", self.workers)
        policy = self.retry or RetryPolicy()
        resolved_dir = engine_config.resolve(
            "sweep_run_dir", str(run_dir) if run_dir is not None else self.run_dir
        )
        queue = self._open_queue(resolved_dir or None)
        run_stats = SweepStats()
        memory_hits_before = self.cache.memory_hits
        disk_hits_before = self.cache.disk_hits
        results: Dict[str, PiecewiseLinear] = {}
        failures: Dict[str, JobFailure] = {}
        missing: Dict[str, ApproximationJob] = {}
        for job in jobs:
            run_stats.requested += 1
            key = job.key
            if key in results or key in missing or key in failures:
                run_stats.deduped += 1
                continue
            queue.enqueue(key, _job_payload(job))
            if key in self.quarantine:
                # Fail fast: this key poisoned an earlier run.  Re-wrap so
                # the manifest names the quarantine, keeping the original
                # error as the cause.
                previous = self.quarantine[key]
                error = JobQuarantinedError(
                    "job %s is quarantined: %s" % (key[:16], previous.describe())
                )
                error.__cause__ = previous.error
                failures[key] = JobFailure(key, job, error, previous.attempts)
                run_stats.failures += 1
                continue
            # A memory hit is written through to this run's store if the
            # store lacks it, so the ``done`` below never lacks its artifact.
            hit = self.cache.load(key)
            if hit is not None:
                results[key] = hit
                # A journaled cell satisfied from cache is complete —
                # record it so resume accounting never re-leases it.
                queue.complete(key)
            else:
                if queue.state(key) == DONE:
                    # The journal says done but the artifact vanished
                    # (store lost / scrub quarantined it): self-heal by
                    # making the cell buildable again.
                    queue.reopen(key)
                missing[key] = job
        # Memory/disk split of the hits comes from the cache's counters.
        run_stats.memory_hits = self.cache.memory_hits - memory_hits_before
        run_stats.disk_hits = self.cache.disk_hits - disk_hits_before

        if missing:
            # Both paths persist each artifact and journal its completion
            # *as it lands* — a crash mid-batch must not orphan finished
            # work — so the loop below only does the result bookkeeping.
            if workers and workers > 1 and len(missing) > 1:
                built = self._run_pool(
                    missing, workers, policy, run_stats, failures, queue
                )
            else:
                built = self._run_serial(
                    missing, policy, run_stats, failures, queue
                )
            for key, pwl in built:
                results[key] = pwl
                run_stats.builds += 1

        self.last_run = run_stats
        self.stats.add(run_stats)
        return SweepResult(results=results, failures=failures, stats=run_stats)

    def _quarantine(
        self,
        failures: Dict[str, JobFailure],
        run_stats: SweepStats,
        key: str,
        job: ApproximationJob,
        error: BaseException,
        attempts: int,
        queue: DurableQueue,
    ) -> None:
        record = JobFailure(key=key, job=job, error=error, attempts=attempts)
        failures[key] = record
        self.quarantine[key] = record
        run_stats.failures += 1
        queue.quarantine(key, error, attempts)

    def _commit(
        self,
        key: str,
        pwl: PiecewiseLinear,
        queue: DurableQueue,
    ) -> None:
        """Persist one built cell, *then* journal its completion.

        The order is the crash-safety contract: an artifact may exist
        without a ``done`` record (the resume intake turns that into a
        cache-hit completion at zero cost), but a ``done`` record must
        never exist without its artifact.
        """
        self.cache.put(key, pwl)
        queue.complete(key)

    def _run_serial(
        self,
        missing: Dict[str, ApproximationJob],
        policy: RetryPolicy,
        run_stats: SweepStats,
        failures: Dict[str, JobFailure],
        queue: DurableQueue,
    ) -> List[Tuple[str, PiecewiseLinear]]:
        built: List[Tuple[str, PiecewiseLinear]] = []
        for key, job in missing.items():
            queue.lease(key)
            outcome = run_with_retry(
                lambda item=(key, job): _execute_job(item)[1],
                policy=policy,
                site=_job_site(job),
            )
            run_stats.retries += outcome.retries
            if outcome.ok:
                self._commit(key, outcome.value, queue)
                built.append((key, outcome.value))
            else:
                self._quarantine(
                    failures, run_stats, key, job, outcome.error,
                    outcome.attempts, queue,
                )
        return built

    def _run_pool(
        self,
        missing: Dict[str, ApproximationJob],
        workers: int,
        policy: RetryPolicy,
        run_stats: SweepStats,
        failures: Dict[str, JobFailure],
        queue: DurableQueue,
    ) -> List[Tuple[str, PiecewiseLinear]]:
        """Fan ``missing`` over a process pool with retry + re-dispatch.

        Each cell has a dispatch budget of ``policy.max_attempts`` shared
        between failure retries and straggler duplicates.  When a wait
        window (the engine's ``straggler_timeout``) passes with no
        completion at all, every unresolved cell with budget left is
        duplicated onto another worker — results are seeded, so whichever
        copy finishes first is the answer and late copies are ignored.  A cell whose budget is
        exhausted *and* whose in-flight copies outlive one further grace
        window is abandoned as a straggler failure; the pool is then shut
        down without waiting so a wedged worker cannot hang the sweep.

        The coordinator journals on the workers' behalf (the journal is
        single-writer): a ``lease`` record per dispatch, ``done`` once the
        artifact is persisted.  A failed attempt journals nothing; the
        retry is one more ``lease``.
        """
        built: List[Tuple[str, PiecewiseLinear]] = []
        unresolved = dict(missing)
        dispatched: Dict[str, int] = {}
        grace_strikes: Dict[str, int] = {}
        inflight: Dict[object, str] = {}
        abandoned = False
        straggler_timeout = self.straggler_timeout
        pool = ProcessPoolExecutor(max_workers=workers)

        def dispatch(key: str, job: ApproximationJob) -> None:
            queue.lease(key)
            inflight[pool.submit(_execute_job, (key, job))] = key
            dispatched[key] = dispatched.get(key, 0) + 1

        try:
            for key, job in missing.items():
                dispatch(key, job)
            while unresolved and inflight:
                done, _ = wait(
                    set(inflight), timeout=straggler_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Straggler window expired with zero progress: duplicate
                    # what budget allows, strike out what has none left.
                    for key in list(unresolved):
                        job = unresolved[key]
                        if dispatched[key] < policy.max_attempts:
                            dispatch(key, job)
                            run_stats.redispatches += 1
                        else:
                            grace_strikes[key] = grace_strikes.get(key, 0) + 1
                            if grace_strikes[key] >= 2:
                                error: BaseException = TimeoutError(
                                    "cell %s:%s straggled past %d dispatch(es) x %.3gs"
                                    % (job.operator, job.method, dispatched[key],
                                       straggler_timeout)
                                )
                                self._quarantine(
                                    failures, run_stats, key, job, error,
                                    dispatched[key], queue,
                                )
                                del unresolved[key]
                                abandoned = True
                    continue
                for future in done:
                    key = inflight.pop(future)
                    if key not in unresolved:
                        continue  # a duplicate already answered (or failed) it
                    job = unresolved[key]
                    error = future.exception()
                    if error is None:
                        _, pwl = future.result()
                        self._commit(key, pwl, queue)
                        built.append((key, pwl))
                        del unresolved[key]
                        continue
                    if (
                        dispatched[key] < policy.max_attempts
                        and policy.is_retryable(error)
                    ):
                        time.sleep(policy.backoff(dispatched[key], site=_job_site(job)))
                        dispatch(key, job)
                        run_stats.retries += 1
                    else:
                        self._quarantine(
                            failures, run_stats, key, job, error,
                            dispatched[key], queue,
                        )
                        del unresolved[key]
        finally:
            # A wedged straggler must not hang the whole sweep on shutdown;
            # its worker process is reaped at interpreter exit instead.
            pool.shutdown(wait=not abandoned)
        return built

    def build(self, job: ApproximationJob, workers: Optional[int] = None) -> PiecewiseLinear:
        """Run a single job through the cache and return its artifact."""
        return self.run([job], workers=workers)[job.key]


_DEFAULT_ENGINE: Optional[SweepEngine] = None
# The artifact directory the default engine was built against; when the
# resolved configuration moves (a later ``engine_config.use(artifact_dir=...)``
# block or env change), the default engine is rebuilt instead of silently
# keeping the stale store.
_DEFAULT_ENGINE_DIR: Optional[str] = None
_DEFAULT_ENGINE_PINNED = False


def default_engine() -> SweepEngine:
    """The process-wide engine behind ``build_approximation``.

    Created lazily.  The artifact directory re-resolves through
    :mod:`repro.core.engine_config` (context > ``REPRO_ARTIFACT_DIR`` >
    none) on every call — if it changed since the engine was built, a new
    engine (with a store at the new directory and a fresh in-process
    cache) replaces the old one, so a ``use(artifact_dir=...)`` block is
    honoured even after earlier builds.  The worker count is left
    unresolved so every :meth:`SweepEngine.run` re-reads the active
    configuration.  An engine installed via :func:`set_default_engine` is
    pinned and never rebuilt.
    """
    global _DEFAULT_ENGINE, _DEFAULT_ENGINE_DIR
    directory = engine_config.resolve("artifact_dir")
    stale = (
        _DEFAULT_ENGINE is not None
        and not _DEFAULT_ENGINE_PINNED
        and directory != _DEFAULT_ENGINE_DIR
    )
    if _DEFAULT_ENGINE is None or stale:
        store = ArtifactStore(directory) if directory else None
        _DEFAULT_ENGINE = SweepEngine(cache=ArtifactCache(store=store))
        _DEFAULT_ENGINE_DIR = directory
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[SweepEngine]) -> None:
    """Replace (or, with ``None``, reset) the process-wide default engine.

    An explicitly installed engine is pinned: it is returned as-is by
    :func:`default_engine` regardless of later artifact-dir changes.
    """
    global _DEFAULT_ENGINE, _DEFAULT_ENGINE_DIR, _DEFAULT_ENGINE_PINNED
    _DEFAULT_ENGINE = engine
    _DEFAULT_ENGINE_DIR = None
    _DEFAULT_ENGINE_PINNED = engine is not None


def approximation_jobs(
    operators: Iterable[str],
    methods: Iterable[str],
    num_entries: int = 8,
    budget: ApproximationBudget = ApproximationBudget(),
) -> List[ApproximationJob]:
    """The job list behind ``build_approximations`` (operator-major order)."""
    operators, methods = tuple(operators), tuple(methods)
    return [
        ApproximationJob(operator=operator, method=method,
                         num_entries=num_entries, budget=budget)
        for operator in operators
        for method in methods
    ]
