"""Two-tier content-addressed cache for approximation artifacts.

Every cell of the paper's evaluation grid — one ``(operator, method,
num_entries, budget)`` approximation — produces a small, immutable
:class:`~repro.core.pwl.PiecewiseLinear`.  The cells are rebuilt by several
experiments (Table 3, Fig. 2, Fig. 3, the Table 4/5 fine-tuning and the
benchmarks all draw from the same grid), so the sweep engine addresses them
by a stable content hash of the job description (see
:mod:`repro.experiments.jobs`) and stores the results in two tiers:

* **memory** — a plain in-process dict, shared by every experiment runner
  that goes through the same :class:`~repro.experiments.jobs.SweepEngine`;
* **disk** (optional) — one ``.npz`` per artifact holding the pwl's
  breakpoints/slopes/intercepts, so table, figure and benchmark invocations
  in *different* processes share results too.

On-disk layout: artifacts **fan out into key-sharded directories**
(``ab/abcd1234….npz``, shard = first two hex chars of the key) so a
10-100x grid never lands a hundred thousand files in one directory.
:meth:`ArtifactStore.gc` removes orphaned temp files and
unreferenced entries (age-gated, so a gc pass racing a live writer never
deletes a just-committed artifact); :meth:`ArtifactStore.scrub` is the
integrity sweep — it verifies every embedded SHA-256, moves corrupt files
into a ``quarantine/`` directory, and thereby arranges self-healing: the
next access misses, recomputes the seeded cell, and rewrites a valid
artifact.

The disk store is deliberately forgiving: a missing, truncated or otherwise
unreadable artifact is treated as a miss and the cell is recomputed (and the
artifact rewritten), never raised to the caller.  Reads are hardened
against torn/corrupt files from concurrent writers: every artifact embeds
a SHA-256 content checksum which is verified on load (a file that unzips
but carries perturbed bytes, or no checksum at all, is still a miss,
counted in ``corrupt_reads``), and writes stay atomic (temp file +
``os.replace``) so a reader racing a writer only ever sees a complete old
or new file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import struct
import tempfile
import time
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.pwl import PiecewiseLinear
from repro.reliability.faults import corrupt_file, fault_point

# Array names stored per artifact; everything else about a pwl is derived.
_ARRAY_FIELDS = ("breakpoints", "slopes", "intercepts")

# Exceptions a torn/corrupt/foreign artifact file can raise on read.
_READ_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    zipfile.BadZipFile,
    EOFError,
    zlib.error,
    struct.error,
)

# Shard directories are the first SHARD_CHARS hex chars of the key.
SHARD_CHARS = 2
_SHARD_RE = re.compile(r"^[0-9a-f]{%d}$" % SHARD_CHARS)
QUARANTINE_DIR = "quarantine"


def _content_digest(arrays: Dict[str, np.ndarray]) -> bytes:
    """SHA-256 over shapes + bytes of the pwl arrays, field order fixed."""
    digest = hashlib.sha256()
    for field in _ARRAY_FIELDS:
        array = np.ascontiguousarray(arrays[field], dtype=np.float64)
        digest.update(field.encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.digest()


@dataclasses.dataclass
class ScrubReport:
    """Outcome of one :meth:`ArtifactStore.scrub` integrity sweep."""

    scanned: int = 0
    ok: int = 0
    corrupt: int = 0
    quarantined: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class GCReport:
    """Outcome of one :meth:`ArtifactStore.gc` pass."""

    tmp_removed: int = 0
    unreferenced_removed: int = 0
    kept_recent: int = 0


class ArtifactStore:
    """On-disk artifact tier: one ``.npz`` of pwl arrays per cache key.

    Parameters
    ----------
    directory:
        Directory holding the artifacts; created on first use.  Selectable
        per-engine or process-wide through the ``REPRO_ARTIFACT_DIR``
        environment variable (see :func:`repro.experiments.jobs.default_engine`).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Reads that unzipped but failed checksum/shape validation — i.e.
        # actual corruption survived to the content layer, not just a
        # missing file.  Exposed for health reporting and the chaos tests.
        self.corrupt_reads = 0

    # -- layout ----------------------------------------------------------

    def shard_for(self, key: str) -> str:
        """The shard directory name owning ``key``."""
        return key[:SHARD_CHARS]

    def path_for(self, key: str) -> Path:
        """The (sharded) artifact file backing ``key``."""
        return self.directory / self.shard_for(key) / ("%s.npz" % key)

    def _shard_dirs(self) -> List[Path]:
        return sorted(
            child for child in self.directory.iterdir()
            if child.is_dir() and _SHARD_RE.match(child.name)
        )

    def _artifact_files(self) -> List[Path]:
        """Every artifact file, sorted for determinism."""
        files: List[Path] = []
        for shard in self._shard_dirs():
            files.extend(sorted(shard.glob("*.npz")))
        return files

    def keys(self) -> list:
        """Keys of every (syntactically valid) artifact currently on disk."""
        return sorted({path.stem for path in self._artifact_files()})

    # -- read / write ----------------------------------------------------

    def _read_arrays(
        self, path: Path
    ) -> Tuple[Dict[str, np.ndarray], Optional[bytes]]:
        """Raw arrays + embedded checksum (``None`` when it has none)."""
        with np.load(path, allow_pickle=False) as data:
            arrays = {field: np.asarray(data[field]) for field in _ARRAY_FIELDS}
            checksum = (
                np.asarray(data["checksum"]).tobytes()
                if "checksum" in data.files
                else None
            )
        return arrays, checksum

    def load(self, key: str) -> Optional[PiecewiseLinear]:
        """Read an artifact; ``None`` on miss *or* on a corrupted file.

        A file without an embedded checksum counts as corrupt: every
        writer embeds one, so its content cannot be trusted.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        fault_point("artifact.load")
        try:
            arrays, checksum = self._read_arrays(path)
            if checksum != _content_digest(arrays):
                self.corrupt_reads += 1
                return None
            return PiecewiseLinear(**arrays)
        except _READ_ERRORS:
            # Corrupted or foreign file: treat as a miss so the engine
            # recomputes the cell and rewrites a valid artifact.  A torn
            # write can never be observed here — writes go through a temp
            # file + atomic ``os.replace`` — so this path means a crashed
            # foreign writer or actual on-disk corruption.
            return None

    def save(self, key: str, pwl: PiecewiseLinear) -> Path:
        """Write an artifact atomically (write-to-temp + rename), sharded."""
        fault_point("artifact.save")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".%s-" % key[:16], suffix=".npz.tmp", dir=str(path.parent)
        )
        try:
            arrays = {
                "breakpoints": pwl.breakpoints,
                "slopes": pwl.slopes,
                "intercepts": pwl.intercepts,
            }
            checksum = np.frombuffer(_content_digest(arrays), dtype=np.uint8)
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, checksum=checksum, **arrays)
            # Chaos hook: models a torn write that still got renamed into
            # place (worst-case foreign writer) — readers must fall back.
            corrupt_file("artifact.save", tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- gc / scrub ------------------------------------------------------

    def gc(
        self,
        referenced: Optional[Iterable[str]] = None,
        grace_s: float = 60.0,
        now: Optional[float] = None,
    ) -> GCReport:
        """Remove orphaned temp files and (optionally) unreferenced entries.

        Orphans are the temp files of interrupted atomic writes
        (``*.npz.tmp``) in the shard directories.  The store root and
        ``*.json.tmp`` files (per-shard manifests) are scanned too, for
        the orphans earlier builds left.  Everything younger than
        ``grace_s`` is kept, which is the entire concurrency story: a live
        writer's temp file and a just-committed artifact both have fresh
        mtimes, so any number of gc passes racing the writer — or each
        other — cannot delete in-progress or just-landed work.  Removals tolerate losing the race to another gc
        pass (a vanished file is already the desired outcome).

        ``referenced`` is the caller's live-key set (e.g. a run journal's
        cells); when given, artifacts outside it that are older than the
        grace window are deleted.  ``None`` removes temp orphans only.
        """
        report = GCReport()
        now = time.time() if now is None else now
        directories = [self.directory] + self._shard_dirs()
        for directory in directories:
            # ``Path.glob``'s ``*`` also matches dot-prefixed names.
            for pattern in ("*.npz.tmp", "*.json.tmp"):
                for tmp in directory.glob(pattern):
                    if self._older_than(tmp, now, grace_s):
                        self._unlink_quiet(tmp)
                        report.tmp_removed += 1
                    else:
                        report.kept_recent += 1
        if referenced is not None:
            keep: Set[str] = set(referenced)
            for artifact in self._artifact_files():
                if artifact.stem in keep:
                    continue
                if self._older_than(artifact, now, grace_s):
                    self._unlink_quiet(artifact)
                    report.unreferenced_removed += 1
                else:
                    report.kept_recent += 1
        return report

    @staticmethod
    def _older_than(path: Path, now: float, grace_s: float) -> bool:
        try:
            return now - path.stat().st_mtime > grace_s
        except OSError:
            return False  # vanished under us: nothing to remove

    @staticmethod
    def _unlink_quiet(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def scrub(self) -> ScrubReport:
        """Verify every artifact's embedded SHA-256; quarantine corruption.

        A file whose recomputed digest disagrees with its embedded
        checksum — or that no longer parses at all — is moved into
        ``quarantine/`` (never deleted: the bytes stay available for
        forensics).  A file with no embedded checksum is quarantined too:
        nothing can vouch for its bytes.  The store then *self-heals*: the
        next access misses, the seeded cell recomputes, and a
        checksum-valid artifact is rewritten in place.
        """
        report = ScrubReport()
        quarantine_dir = self.directory / QUARANTINE_DIR
        for artifact in self._artifact_files():
            fault_point("artifact.scrub")
            report.scanned += 1
            corrupt = False
            try:
                arrays, checksum = self._read_arrays(artifact)
                corrupt = checksum != _content_digest(arrays)
            except _READ_ERRORS:
                corrupt = True
            if not corrupt:
                report.ok += 1
                continue
            report.corrupt += 1
            self.corrupt_reads += 1
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(artifact, quarantine_dir / artifact.name)
                report.quarantined.append(artifact.stem)
            except OSError:
                pass  # lost a race with a rewriting engine: it healed first
        return report


class ArtifactCache:
    """Two-tier cache: in-process dict backed by an optional disk store.

    A disk hit is promoted into the memory tier, so repeated pulls of the
    same cell within one process read the file once.  Hit/miss counters are
    cumulative over the cache's lifetime; :class:`SweepEngine` snapshots
    them around each run to report per-run statistics.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store
        self._memory: Dict[str, PiecewiseLinear] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def load(self, key: str) -> Optional[PiecewiseLinear]:
        """Look ``key`` up through both tiers, counting the hit level.

        A memory hit is written through to the store when the store lacks
        it (one ``stat`` per memory hit while a store is attached): the
        memory tier may hold a cell built under an earlier run's store,
        and a caller that journals the hit as done must find it on disk.
        """
        hit = self._memory.get(key)
        if hit is not None:
            self.memory_hits += 1
            if self.store is not None and not self.store.path_for(key).is_file():
                self.store.save(key, hit)
            return hit
        if self.store is not None:
            hit = self.store.load(key)
            if hit is not None:
                self._memory[key] = hit
                self.disk_hits += 1
                return hit
        self.misses += 1
        return None

    def put(self, key: str, pwl: PiecewiseLinear) -> None:
        """Insert into the memory tier and persist when a store is attached."""
        self._memory[key] = pwl
        if self.store is not None:
            self.store.save(key, pwl)

    def __len__(self) -> int:
        return len(self._memory)
