"""Chaos tests for durable sweeps: kill, tear, corrupt — then resume.

The PR 8 crash-safety contract, exercised end to end:

* SIGKILL the coordinator mid-pool-dispatch and a fresh process resumes
  from the journal with zero completed cells rebuilt and bit-identical
  results (cache parity with an uninterrupted run);
* a journal whose final record was torn by the crash replays cleanly
  (the tear is truncated, everything before it is kept);
* two concurrent ``gc()`` passes racing a live writer never delete a
  just-committed artifact (the grace window is the invariant);
* the quarantine set survives process restarts — via the journal on a
  durable run, via the ``quarantine.json`` sidecar when only a disk
  store is attached — and ``clear_quarantine()`` lifts both;
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
        # shard manifest (in the shard) or of the quarantine sidecar (in
        # the store root) behind.
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

    def test_sidecar_quarantine_survives_restart_and_clears(self, tmp_path):
        store_dir = tmp_path / "store"
        engine = SweepEngine(
            cache=ArtifactCache(store=ArtifactStore(store_dir)), retry=FAST_RETRY
        )
        with inject(self.POISON):
            manifest = engine.run_manifest([self.BAD_JOB])
        assert not manifest.ok
        assert (store_dir / "quarantine.json").exists()

        fresh = SweepEngine(
            cache=ArtifactCache(store=ArtifactStore(store_dir)), retry=FAST_RETRY
        )
        blocked = fresh.run_manifest([self.BAD_JOB])
        assert not blocked.ok
        failure = blocked.failures[self.BAD_JOB.key]
        assert isinstance(failure.error, JobQuarantinedError)
        assert isinstance(failure.error.__cause__, PersistedQuarantineError)

        fresh.clear_quarantine()
        final = SweepEngine(
            cache=ArtifactCache(store=ArtifactStore(store_dir)), retry=FAST_RETRY
        )
        assert final.run_manifest([self.BAD_JOB]).ok


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
