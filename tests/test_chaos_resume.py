"""Chaos tests for durable sweeps: kill, tear, corrupt — then resume.

The PR 8 crash-safety contract, exercised end to end:

* SIGKILL the coordinator mid-pool-dispatch and a fresh process resumes
  from the journal with zero completed cells rebuilt and bit-identical
  results (cache parity with an uninterrupted run);
* a journal whose final record was torn by the crash replays cleanly
  (the tear is truncated, everything before it is kept);
* resume reads no lease state: a cell leased and never done is rebuilt at
  once, and a journal with the older lease expiry, ``renew`` and ``fail``
  records resumes bit-identically without rebuilding a done cell;
* two concurrent ``gc()`` passes racing a live writer never delete a
  just-committed artifact (the grace window is the invariant);
* a durable run's quarantine set survives process restarts through its
  journal and ``clear_quarantine()`` lifts it; an engine with only a
  store keeps its quarantine in memory and writes no record beside the
  artifacts;
* ``scrub()`` detects an injected bit-flip, moves the corrupt artifact
  aside, and the next access self-heals by recomputing.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    ApproximationBudget,
    ApproximationJob,
    ArtifactCache,
    ArtifactStore,
    SweepEngine,
    approximation_jobs,
)
from repro.experiments import jobs as jobs_module
from repro.experiments.queue import DONE, DurableQueue
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobQuarantinedError,
    PersistedQuarantineError,
    RetryPolicy,
    inject,
)

QUICK = ApproximationBudget.quick()
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)

KILL_OPERATORS = ("exp", "gelu", "div")
KILL_METHODS = ("nn-lut", "gqa-wo-rm")

# The coordinator a test SIGKILLs: a durable pool sweep whose builds are
# slowed by an injected delay (propagated to the workers via the env), so
# the parent reliably catches it mid-flight.
_COORDINATOR = """\
import sys
from repro.experiments.jobs import SweepEngine, approximation_jobs
from repro.experiments.methods import ApproximationBudget
from repro.reliability import FaultPlan, FaultSpec, inject

run_dir = sys.argv[1]
plan = FaultPlan(specs=(
    FaultSpec(site="sweep.build:*", delay_always=True, delay_seconds=0.5),
))
jobs = approximation_jobs(
    (%r, %r, %r), (%r, %r), budget=ApproximationBudget.quick()
)
engine = SweepEngine(run_dir=run_dir)
with inject(plan, propagate=True):
    engine.run_manifest(jobs, workers=2)
""" % (KILL_OPERATORS + KILL_METHODS)


def assert_pwl_equal(a, b):
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.slopes, b.slopes)
    assert np.array_equal(a.intercepts, b.intercepts)


def record_builds(monkeypatch):
    """The keys the serial sweep path builds from now on, in order."""
    built = []
    execute = jobs_module._execute_job

    def recording(item):
        built.append(item[0])
        return execute(item)

    monkeypatch.setattr(jobs_module, "_execute_job", recording)
    return built


def journal_done_count(run_dir: Path) -> int:
    journal = run_dir / "journal.jsonl"
    if not journal.exists():
        return 0
    return sum(
        1 for line in journal.read_text().splitlines()
        if line and json.loads(line).get("type") == "done"
    )


class TestKillResume:
    def test_sigkill_mid_pool_then_resume_is_bit_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        script = tmp_path / "coordinator.py"
        script.write_text(_COORDINATOR)
        jobs = approximation_jobs(KILL_OPERATORS, KILL_METHODS, budget=QUICK)
        unique = len({job.key for job in jobs})

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        child = subprocess.Popen(
            [sys.executable, str(script), str(run_dir)],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while journal_done_count(run_dir) < 1:
                if child.poll() is not None:
                    break  # finished before we could kill: still resumable
                if time.monotonic() > deadline:
                    pytest.fail("coordinator made no progress within 120s")
                time.sleep(0.01)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()

        done_before = journal_done_count(run_dir)
        assert done_before >= 1

        fresh = SweepEngine()
        resumed = fresh.resume(run_dir, workers=0)
        assert resumed.ok
        assert len(resumed.results) == unique
        # Zero completed cells rebuilt: the resume only built what the
        # dead coordinator had not journaled as done.
        assert resumed.stats.builds <= unique - done_before
        assert resumed.stats.cache_hits >= done_before
        fresh.close()

        # Bit parity with an uninterrupted (no journal, no kill) run.
        clean = SweepEngine().run(jobs, workers=0)
        for key, pwl in clean.items():
            assert_pwl_equal(resumed.results[key], pwl)

    def test_resume_after_torn_journal_tail(self, tmp_path):
        run_dir = tmp_path / "run"
        jobs = approximation_jobs(("gelu",), ("nn-lut", "gqa-wo-rm"), budget=QUICK)
        engine = SweepEngine(run_dir=run_dir)
        first = engine.run_manifest(jobs)
        assert first.ok
        engine.close()

        journal = run_dir / "journal.jsonl"
        raw = journal.read_bytes()
        # A crash mid-append: half a record dangles at the tail.
        journal.write_bytes(raw + b'{"type":"enqueue","key":"dead')

        fresh = SweepEngine()
        resumed = fresh.resume(run_dir)
        assert resumed.ok
        assert resumed.stats.builds == 0  # everything before the tear kept
        assert set(resumed.results) == {job.key for job in jobs}
        for key, pwl in first.results.items():
            assert_pwl_equal(resumed.results[key], pwl)
        fresh.close()


class TestResumeReadsNoLeaseState:
    JOBS = approximation_jobs(("gelu", "exp"), ("nn-lut", "gqa-wo-rm"), budget=QUICK)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_leased_cells_without_done_are_rebuilt_at_once(
        self, tmp_path, monkeypatch, workers,
    ):
        run_dir = tmp_path / "run"
        # Two open cells, so that ``workers=2`` resumes through the pool.
        done_job, leased_jobs = self.JOBS[0], self.JOBS[1:3]
        engine = SweepEngine(run_dir=run_dir)
        assert engine.run_manifest([done_job]).ok
        engine.close()
        # A coordinator that leased cells and died before their ``done``.
        with DurableQueue(run_dir) as queue:
            for job in leased_jobs:
                queue.enqueue(job.key, jobs_module._job_payload(job))
                queue.lease(job.key)

        # The pool pickles the build function, so only the serial path can
        # record its builds; the stats count them on both paths.
        built = record_builds(monkeypatch) if workers == 0 else None
        fresh = SweepEngine()
        resumed = fresh.resume(run_dir, workers=workers)
        fresh.close()
        assert resumed.ok
        if built is not None:
            assert sorted(built) == sorted(job.key for job in leased_jobs)
        assert (resumed.stats.builds, resumed.stats.disk_hits) == (2, 1)
        assert set(resumed.results) == {job.key for job in self.JOBS[:3]}
        with DurableQueue(run_dir) as queue:
            assert all(queue.state(job.key) == DONE for job in leased_jobs)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_journal_with_lease_expiry_records_resumes_bit_identically(
        self, tmp_path, monkeypatch, workers,
    ):
        run_dir = tmp_path / "run"
        done_jobs, open_jobs = self.JOBS[:2], self.JOBS[2:]
        # The done cells' artifacts, in the store resume attaches.
        SweepEngine(
            cache=ArtifactCache(store=ArtifactStore(run_dir / "artifacts"))
        ).run(done_jobs, workers=0)
        live = time.time() + 3600.0
        records = [{"type": "meta", "format": 1, "lease_s": 30.0}]
        records += [
            {"type": "enqueue", "key": job.key, "job": jobs_module._job_payload(job)}
            for job in self.JOBS
        ]
        for job in done_jobs:
            records += [
                {"type": "lease", "key": job.key, "worker": "pool", "expires": live},
                {"type": "renew", "key": job.key, "expires": live + 10.0},
                {"type": "done", "key": job.key},
            ]
        failed, leased = open_jobs
        records += [
            {"type": "lease", "key": failed.key, "worker": "pool", "expires": live},
            {"type": "fail", "key": failed.key, "attempts": 1,
             "error": "boom", "error_type": "ValueError"},
            {"type": "lease", "key": failed.key, "worker": "pool", "expires": live},
            {"type": "lease", "key": leased.key, "worker": "pool", "expires": live},
        ]
        (run_dir / "journal.jsonl").write_text(
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        )

        built = record_builds(monkeypatch) if workers == 0 else None
        fresh = SweepEngine()
        resumed = fresh.resume(run_dir, workers=workers)
        fresh.close()
        assert resumed.ok
        if built is not None:
            assert sorted(built) == sorted(job.key for job in open_jobs)
        assert (resumed.stats.builds, resumed.stats.disk_hits) == (
            len(open_jobs), len(done_jobs)
        )

        clean = SweepEngine().run(self.JOBS, workers=0)
        assert set(resumed.results) == set(clean)
        for key, pwl in clean.items():
            assert_pwl_equal(resumed.results[key], pwl)

    def test_torn_done_record_is_answered_from_the_store(self, tmp_path, monkeypatch):
        # The crash hit between the artifact landing and its ``done``.
        run_dir = tmp_path / "run"
        engine = SweepEngine(run_dir=run_dir)
        first = engine.run_manifest(self.JOBS[:2], workers=0)
        engine.close()
        journal = run_dir / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[-1])["type"] == "done"
        journal.write_bytes(b"".join(lines[:-1]) + lines[-1][:12])

        built = record_builds(monkeypatch)
        fresh = SweepEngine()
        resumed = fresh.resume(run_dir, workers=0)
        fresh.close()
        assert built == []
        assert resumed.stats.disk_hits == 2
        for key, pwl in first.results.items():
            assert_pwl_equal(resumed.results[key], pwl)


class TestGCRaces:
    def test_concurrent_gc_never_deletes_a_just_committed_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        committed = []
        stop = threading.Event()
        from repro.core.pwl import PiecewiseLinear

        def writer():
            index = 0
            while not stop.is_set() and index < 40:
                key = ("%02x" % (index % 256)) + "ab" * 31
                pwl = PiecewiseLinear(
                    breakpoints=np.array([float(index)]),
                    slopes=np.array([1.0, 2.0]),
                    intercepts=np.array([0.0, 1.0]),
                )
                store.save(key, pwl)
                committed.append(key)
                index += 1

        def collector(reports):
            while not stop.is_set():
                # ``referenced=set()``: every artifact is unreferenced, so
                # only the grace window protects the writer's output.
                reports.append(store.gc(referenced=set()))
                time.sleep(0.001)

        reports_a, reports_b = [], []
        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=collector, args=(reports_a,)),
            threading.Thread(target=collector, args=(reports_b,)),
        ]
        threads[0].start(); threads[1].start(); threads[2].start()
        threads[0].join()
        stop.set()
        threads[1].join(); threads[2].join()

        assert len(committed) == 40
        for key in committed:
            assert store.load(key) is not None, "gc deleted a live artifact"
        assert all(r.unreferenced_removed == 0 for r in reports_a + reports_b)

    def test_gc_reclaims_old_tmp_and_unreferenced_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        from repro.core.pwl import PiecewiseLinear
        pwl = PiecewiseLinear(
            breakpoints=np.array([0.0]),
            slopes=np.array([1.0, 2.0]),
            intercepts=np.array([0.0, 1.0]),
        )
        key = "ab" * 32
        store.save(key, pwl)
        orphan = tmp_path / "ab" / ".orphan.npz.tmp"
        orphan.write_bytes(b"half a write")
        future = time.time() + 3600.0
        report = store.gc(referenced=set(), now=future)
        assert report.tmp_removed == 1
        assert report.unreferenced_removed == 1
        assert not orphan.exists()
        assert store.load(key) is None

    def test_gc_reaps_aged_json_tmp_orphans_and_keeps_fresh_ones(self, tmp_path):
        # A crash between mkstemp and os.replace leaves the temp file of a
        # shard manifest behind in the shard; the root scan reaps the
        # orphans earlier builds left in the store root.
        store = ArtifactStore(tmp_path)
        (tmp_path / "ab").mkdir()
        aged = [tmp_path / "ab" / ".manifest-x1.json.tmp",
                tmp_path / ".quarantine-x2.json.tmp"]
        fresh = tmp_path / ".quarantine-x3.json.tmp"
        now = time.time()
        for path in aged + [fresh]:
            path.write_text("{")
        for path in aged:
            os.utime(path, (now - 120.0, now - 120.0))
        report = store.gc(grace_s=60.0, now=now)
        assert report.tmp_removed == 2
        assert report.kept_recent == 1
        assert not any(path.exists() for path in aged)
        assert fresh.exists()


class TestPersistedQuarantine:
    POISON = FaultPlan(specs=(
        FaultSpec(site="sweep.build:gelu:nn-lut", fail_always=True),
    ))
    BAD_JOB = ApproximationJob("gelu", "nn-lut", 8, QUICK)

    def test_journal_quarantine_survives_restart_and_clears(self, tmp_path):
        run_dir = tmp_path / "run"
        engine = SweepEngine(run_dir=run_dir, retry=FAST_RETRY)
        with inject(self.POISON):
            manifest = engine.run_manifest([self.BAD_JOB])
        assert not manifest.ok
        engine.close()

        fresh = SweepEngine(retry=FAST_RETRY)
        resumed = fresh.resume(run_dir)
        assert not resumed.ok
        failure = resumed.failures[self.BAD_JOB.key]
        assert isinstance(failure.error, JobQuarantinedError)
        assert isinstance(failure.error.__cause__, PersistedQuarantineError)
        assert resumed.stats.builds == 0  # failed fast, never re-poisoned

        fresh.clear_quarantine()
        healed = fresh.resume(run_dir)
        assert healed.ok
        assert healed.stats.builds == 1
        fresh.close()

        # The clear itself is journaled: one more restart stays clean.
        final = SweepEngine()
        assert final.resume(run_dir).ok
        final.close()

    def test_store_only_quarantine_stays_in_memory(self, tmp_path):
        # Without a run_dir the journal is in memory: the engine keeps its
        # verdict for its lifetime and writes nothing but artifacts.
        store_dir = tmp_path / "store"
        good = ApproximationJob("exp", "nn-lut", 8, QUICK)
        engine = SweepEngine(
            cache=ArtifactCache(store=ArtifactStore(store_dir)), retry=FAST_RETRY
        )
        with inject(self.POISON):
            manifest = engine.run_manifest([self.BAD_JOB, good])
        assert set(manifest.failures) == {self.BAD_JOB.key}
        root = [(path.name, path.is_dir()) for path in store_dir.iterdir()]
        assert root == [(good.key[:2], True)]

        blocked = engine.run_manifest([self.BAD_JOB])
        assert isinstance(blocked.failures[self.BAD_JOB.key].error, JobQuarantinedError)
        fresh = SweepEngine(cache=ArtifactCache(store=ArtifactStore(store_dir)))
        assert fresh.run_manifest([self.BAD_JOB]).ok


class TestScrubHeals:
    JOB = ApproximationJob("gelu", "gqa-rm", 8, QUICK)

    def test_bit_flip_is_detected_quarantined_and_healed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = SweepEngine(cache=ArtifactCache(store=store))
        built = engine.build(self.JOB)

        path = store.path_for(self.JOB.key)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))

        report = store.scrub()
        assert report.scanned == 1
        assert report.corrupt == 1
        assert report.quarantined == [self.JOB.key]
        assert not path.exists()  # moved aside, not deleted
        assert (tmp_path / "quarantine" / path.name).exists()

        # Self-heal: the next access misses, recomputes, rewrites.
        healer = SweepEngine(cache=ArtifactCache(store=ArtifactStore(tmp_path)))
        healed = healer.build(self.JOB)
        assert healer.stats.builds == 1
        assert_pwl_equal(healed, built)

        clean = ArtifactStore(tmp_path).scrub()
        assert clean.corrupt == 0
        assert clean.ok == 1

    def test_scrub_fault_seam_fires(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = SweepEngine(cache=ArtifactCache(store=store))
        engine.build(self.JOB)
        plan = FaultPlan(specs=(FaultSpec(site="artifact.scrub", fail_always=True),))
        with inject(plan):
            with pytest.raises(InjectedFault):
                store.scrub()
