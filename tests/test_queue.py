"""Unit tests for the durable, journaled sweep work-queue.

:class:`~repro.experiments.queue.DurableQueue` is the crash-safety
substrate of resumable sweeps: these tests pin the journal format
(append-only JSONL, fsync'd, torn tail tolerated, older records
ignored), the state machine (pending → leased → done/quarantined),
replay equivalence (a reopened queue reconstructs exactly the state a
live one held), and the fault seams the chaos suite drives.  The lifecycle, lease and
quarantine classes run twice: journaled on disk, and again through an
``*InMemory`` subclass with ``DurableQueue(None)``.
"""

import json

import pytest

from repro.experiments.queue import (
    DONE,
    JOURNAL_FORMAT_VERSION,
    LEASED,
    PENDING,
    QUARANTINED,
    DurableQueue,
)
from repro.reliability import FaultPlan, FaultSpec, InjectedFault, inject
from repro.reliability.errors import JournalCorruptError

KEY = "a" * 64
OTHER = "b" * 64
PAYLOAD = {"operator": "gelu", "method": "nn-lut", "num_entries": 8}


@pytest.fixture
def make_queue(request, tmp_path):
    """Queue factory: journaled under ``tmp_path/run`` (every call reopens
    the same journal), or in memory in a class that sets ``run_dir = None``."""
    run_dir = getattr(request.cls, "run_dir", tmp_path / "run")

    def make():
        return DurableQueue(run_dir)

    return make


def record_appends(queue, monkeypatch):
    """Every record ``queue`` appends from now on, in order."""
    appended = []
    append = queue._append
    monkeypatch.setattr(
        queue, "_append", lambda record: (appended.append(record), append(record))
    )
    return appended


class TestLifecycle:
    def test_enqueue_lease_complete(self, make_queue):
        with make_queue() as queue:
            assert queue.enqueue(KEY, PAYLOAD) is True
            assert queue.state(KEY) == PENDING
            queue.lease(KEY)
            assert queue.state(KEY) == LEASED
            queue.complete(KEY)
            assert queue.state(KEY) == DONE

    def test_enqueue_is_idempotent(self, make_queue):
        with make_queue() as queue:
            assert queue.enqueue(KEY, PAYLOAD) is True
            assert queue.enqueue(KEY, {"different": "payload"}) is False
            # First payload wins; the duplicate did not journal.
            assert queue.jobs()[KEY] == PAYLOAD

    def test_complete_is_idempotent(self, make_queue, monkeypatch):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.lease(KEY)
            queue.complete(KEY)
            appended = record_appends(queue, monkeypatch)
            queue.complete(KEY)  # no-op, no duplicate record
            assert appended == []

    def test_unknown_key_raises(self, make_queue):
        with make_queue() as queue:
            with pytest.raises(KeyError):
                queue.lease(KEY)
            with pytest.raises(KeyError):
                queue.complete(KEY)

    def test_state_of_unknown_key_is_none(self, make_queue):
        with make_queue() as queue:
            assert queue.state(KEY) is None


class TestLeases:
    def test_re_leasing_a_leased_cell_is_accepted(self, make_queue):
        # A straggler re-dispatch or a resumed run leases the cell again.
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.lease(KEY)
            queue.lease(KEY)
            assert queue.state(KEY) == LEASED
            queue.complete(KEY)
            assert queue.state(KEY) == DONE

    def test_lease_record_names_only_the_cell(self, make_queue, monkeypatch):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            appended = record_appends(queue, monkeypatch)
            queue.lease(KEY)
            assert appended == [{"type": "lease", "key": KEY}]


class TestQuarantine:
    def test_quarantined_cell_cannot_be_leased(self, make_queue):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.quarantine(KEY, RuntimeError("poison"), attempts=3)
            assert queue.state(KEY) == QUARANTINED
            assert KEY in queue.quarantined()
            with pytest.raises(ValueError):
                queue.lease(KEY)

    def test_clear_quarantine_persists_across_reopen(self, make_queue):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.quarantine(KEY, RuntimeError("poison"), attempts=3)
            queue.clear_quarantine()
            assert queue.state(KEY) == PENDING
        if queue.journal_path is None:
            return  # an in-memory journal ends with its queue
        with make_queue() as reopened:
            assert reopened.state(KEY) == PENDING
            assert reopened.quarantined() == {}

    def test_reopen_only_from_done(self, make_queue):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.reopen(KEY)  # pending: no-op
            assert queue.state(KEY) == PENDING
            queue.lease(KEY)
            queue.complete(KEY)
            queue.reopen(KEY)
            assert queue.state(KEY) == PENDING


class TestLifecycleInMemory(TestLifecycle):
    run_dir = None

    def test_nothing_touches_the_disk(self, make_queue, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.lease(KEY)
            queue.complete(KEY)
            assert queue.journal_path is None
        assert list(tmp_path.iterdir()) == []


class TestLeasesInMemory(TestLeases):
    run_dir = None


class TestQuarantineInMemory(TestQuarantine):
    run_dir = None


class TestReplay:
    def test_reopened_queue_reconstructs_exact_state(self, make_queue):
        third = "c" * 64
        with make_queue() as queue:
            for key in (KEY, OTHER, third):
                queue.enqueue(key, PAYLOAD)
            queue.lease(KEY)
            queue.complete(KEY)
            queue.lease(OTHER)
            queue.quarantine(third, RuntimeError("poison"), attempts=3)
            live = {k: (c.state, c.attempts, c.error)
                    for k, c in queue.cells.items()}
        with make_queue() as reopened:
            replayed = {k: (c.state, c.attempts, c.error)
                        for k, c in reopened.cells.items()}
            assert replayed == live
            assert reopened.jobs() == {KEY: PAYLOAD, OTHER: PAYLOAD, third: PAYLOAD}
            assert not reopened.torn_tail

    def test_journal_header_carries_only_the_format(self, make_queue, tmp_path):
        make_queue().close()
        journal = tmp_path / "run" / "journal.jsonl"
        header = json.loads(journal.read_text().splitlines()[0])
        assert header == {"type": "meta", "format": JOURNAL_FORMAT_VERSION}

    def test_older_lease_fields_and_records_replay_as_no_ops(self, tmp_path):
        # Journals written while leases expired carry a lease timeout in
        # the header, a worker and an expiry on each lease, and ``renew``
        # / ``fail`` records; replay reads none of them.
        run = tmp_path / "run"
        run.mkdir()
        records = [
            {"type": "meta", "format": 1, "lease_s": 30.0},
            {"type": "enqueue", "key": KEY, "job": PAYLOAD},
            {"type": "enqueue", "key": OTHER, "job": PAYLOAD},
            {"type": "lease", "key": KEY, "worker": "pool", "expires": 1.0},
            {"type": "renew", "key": KEY, "expires": 2.0},
            {"type": "done", "key": KEY},
            {"type": "lease", "key": OTHER, "worker": "pool", "expires": 1.0},
            {"type": "fail", "key": OTHER, "attempts": 1,
             "error": "boom", "error_type": "ValueError"},
        ]
        (run / "journal.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        with DurableQueue(run) as queue:
            assert queue.state(KEY) == DONE
            assert queue.state(OTHER) == LEASED
            assert (queue.cells[OTHER].attempts, queue.cells[OTHER].error) == (0, "")
            assert not queue.torn_tail

    def test_torn_tail_is_tolerated(self, make_queue, tmp_path):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            queue.lease(KEY)
            queue.complete(KEY)
        journal = tmp_path / "run" / "journal.jsonl"
        # Simulate a crash mid-append: the final record is cut short.
        raw = journal.read_bytes()
        journal.write_bytes(raw + b'{"type":"enqueue","key":"' + b"c" * 30)
        with make_queue() as reopened:
            assert reopened.torn_tail
            assert reopened.state(KEY) == DONE  # everything before the tear
        # Replay truncated the torn bytes, so later appends start a fresh
        # line and the journal stays replayable.
        with make_queue() as again:
            assert not again.torn_tail
            again.enqueue(OTHER, PAYLOAD)
        with make_queue() as final:
            assert final.state(KEY) == DONE
            assert final.state(OTHER) == PENDING

    def test_mid_journal_corruption_raises(self, make_queue, tmp_path):
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
        journal = tmp_path / "run" / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[0] = b"garbage that is not json\n"
        journal.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptError):
            make_queue()

    def test_newer_journal_format_is_refused(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "journal.jsonl").write_text(
            json.dumps({"type": "meta", "format": JOURNAL_FORMAT_VERSION + 1}) + "\n"
        )
        with pytest.raises(JournalCorruptError):
            DurableQueue(run)

    def test_unknown_record_types_are_ignored(self, make_queue, tmp_path):
        # Forward compatibility: an older build must replay a journal
        # containing record types it does not know.
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
        journal = tmp_path / "run" / "journal.jsonl"
        with open(journal, "a") as handle:
            handle.write(json.dumps({"type": "future_extension", "x": 1}) + "\n")
        with make_queue() as reopened:
            assert reopened.state(KEY) == PENDING


class TestFaultSeams:
    def test_append_seam_fires(self, make_queue):
        plan = FaultPlan(specs=(FaultSpec(site="queue.append", fail_calls=(2,)),))
        with make_queue() as queue:
            with inject(plan):
                queue.enqueue(KEY, PAYLOAD)  # call 1 (meta was pre-plan)
                with pytest.raises(InjectedFault):
                    queue.enqueue(OTHER, PAYLOAD)  # call 2 fails
            # The failed append journaled nothing: a reopened queue does
            # not know the cell.
        with make_queue() as reopened:
            assert reopened.state(KEY) == PENDING
            assert reopened.state(OTHER) is None

    def test_lease_seam_fires(self, make_queue):
        plan = FaultPlan(specs=(FaultSpec(site="queue.lease", fail_always=True),))
        with make_queue() as queue:
            queue.enqueue(KEY, PAYLOAD)
            with inject(plan):
                with pytest.raises(InjectedFault):
                    queue.lease(KEY)
            assert queue.state(KEY) == PENDING
