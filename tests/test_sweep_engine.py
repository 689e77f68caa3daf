"""Tests for the parallel sweep engine and the artifact cache.

The engine's contract: (1) jobs are content-addressed — any field change
(budget, seed, entries, ...) changes the key; (2) serial (``workers=0``) and
process-pool (``workers=2``) execution are bit-identical to each other and
to the legacy sequential ``compute_approximation`` loops; (3) the on-disk
artifact tier round-trips losslessly, invalidates on key changes and falls
back to recomputation on corrupted files.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import engine_config
from repro.experiments import (
    ApproximationBudget,
    ApproximationJob,
    ArtifactCache,
    ArtifactStore,
    SweepEngine,
    build_approximation,
    compute_approximation,
    run_fig2,
    run_fig3,
    run_table3,
)
from repro.experiments.protocol import average_mse, scale_sweep_mse

QUICK = ApproximationBudget.quick()


def fresh_engine(tmp_path=None, workers: int = 0) -> SweepEngine:
    store = ArtifactStore(tmp_path) if tmp_path is not None else None
    return SweepEngine(cache=ArtifactCache(store=store), workers=workers)


def assert_pwl_equal(a, b):
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
    np.testing.assert_array_equal(a.slopes, b.slopes)
    np.testing.assert_array_equal(a.intercepts, b.intercepts)


class TestJobKeys:
    def test_key_is_stable_and_hex(self):
        job = ApproximationJob("gelu", "gqa-rm", 8, QUICK)
        assert job.key == ApproximationJob("gelu", "gqa-rm", 8, QUICK).key
        assert len(job.key) == 64
        int(job.key, 16)  # raises if not hex

    @pytest.mark.parametrize(
        "other",
        [
            ApproximationJob("exp", "gqa-rm", 8, QUICK),
            ApproximationJob("gelu", "gqa-wo-rm", 8, QUICK),
            ApproximationJob("gelu", "gqa-rm", 16, QUICK),
            ApproximationJob("gelu", "gqa-rm", 8, dataclasses.replace(QUICK, seed=1)),
            ApproximationJob("gelu", "gqa-rm", 8, dataclasses.replace(QUICK, generations=26)),
            ApproximationJob("gelu", "gqa-rm", 8, dataclasses.replace(QUICK, nn_lut_samples=3001)),
        ],
    )
    def test_any_field_change_changes_key(self, other):
        assert ApproximationJob("gelu", "gqa-rm", 8, QUICK).key != other.key


class TestEngineExecution:
    def test_engine_build_matches_direct_compute(self):
        engine = fresh_engine()
        built = engine.build(ApproximationJob("gelu", "gqa-rm", 8, QUICK))
        direct = compute_approximation("gelu", "gqa-rm", 8, QUICK)
        assert_pwl_equal(built, direct)

    def test_duplicates_collapse_within_a_batch(self):
        engine = fresh_engine()
        job = ApproximationJob("exp", "gqa-wo-rm", 8, QUICK)
        results = engine.run([job, job, job])
        assert len(results) == 1
        assert engine.stats.builds == 1
        assert engine.stats.deduped == 2

    def test_memory_cache_answers_second_run(self):
        engine = fresh_engine()
        job = ApproximationJob("div", "gqa-wo-rm", 8, QUICK)
        first = engine.build(job)
        second = engine.build(job)
        assert first is second
        assert engine.stats.builds == 1
        assert engine.stats.memory_hits == 1

    def test_parallel_pool_matches_serial(self):
        jobs = [
            ApproximationJob("gelu", "gqa-rm", 8, QUICK),
            ApproximationJob("gelu", "nn-lut", 8, QUICK),
            ApproximationJob("div", "gqa-wo-rm", 8, QUICK),
        ]
        serial = fresh_engine().run(jobs, workers=0)
        parallel = fresh_engine().run(jobs, workers=2)
        assert set(serial) == set(parallel)
        for key in serial:
            assert_pwl_equal(serial[key], parallel[key])

    def test_build_approximation_uses_given_engine(self):
        engine = fresh_engine()
        pwl = build_approximation("gelu", "gqa-rm", budget=QUICK, engine=engine)
        again = build_approximation("gelu", "gqa-rm", budget=QUICK, engine=engine)
        assert pwl is again
        assert engine.stats.builds == 1


class TestExperimentEquivalence:
    OPERATORS = ("gelu", "div")
    METHODS = ("nn-lut", "gqa-rm")

    def test_table3_parallel_matches_serial(self):
        serial = run_table3(operators=self.OPERATORS, methods=self.METHODS,
                            entries=(8,), budget=QUICK,
                            engine=fresh_engine(), workers=0)
        parallel = run_table3(operators=self.OPERATORS, methods=self.METHODS,
                              entries=(8,), budget=QUICK,
                              engine=fresh_engine(), workers=2)
        assert serial.mse == parallel.mse

    def test_table3_engine_matches_legacy_sequential_path(self):
        result = run_table3(operators=self.OPERATORS, methods=self.METHODS,
                            entries=(8,), budget=QUICK, engine=fresh_engine())
        for method in self.METHODS:
            for operator in self.OPERATORS:
                pwl = compute_approximation(operator, method, 8, QUICK)
                assert result.value(method, 8, operator) == average_mse(operator, pwl)

    def test_fig3_parallel_matches_serial_and_legacy(self):
        kwargs = dict(operators=("gelu",), methods=self.METHODS,
                      entries=(8,), budget=QUICK)
        serial = run_fig3(engine=fresh_engine(), workers=0, **kwargs)
        parallel = run_fig3(engine=fresh_engine(), workers=2, **kwargs)
        assert len(serial.series) == len(parallel.series) == 2
        for s, p in zip(serial.series, parallel.series):
            assert (s.operator, s.method, s.num_entries) == (p.operator, p.method, p.num_entries)
            assert s.sweep == p.sweep
            legacy = scale_sweep_mse(
                s.operator, compute_approximation(s.operator, s.method, s.num_entries, QUICK)
            )
            assert s.sweep == legacy

    def test_fig2_shared_cell_is_not_rebuilt(self):
        """The in-run duplicate: fig2b's gqa-wo-rm cell reuses fig2a's."""
        engine = fresh_engine()
        run_fig2(budget=QUICK, engine=engine, fig2a_operator="gelu",
                 fig2b_operator="gelu")
        # Three method cells built once; the fig2b pull and the panel
        # re-pulls are all cache hits.
        assert engine.stats.builds == 3
        assert engine.stats.deduped + engine.stats.memory_hits >= 1


class TestManifestSurface:
    """run_manifest on the healthy path: all cells, empty failure set."""

    def test_healthy_manifest(self):
        engine = fresh_engine()
        jobs = [
            ApproximationJob("gelu", "gqa-rm", 8, QUICK),
            ApproximationJob("div", "gqa-wo-rm", 8, QUICK),
        ]
        manifest = engine.run_manifest(jobs, workers=0)
        assert manifest.ok
        assert manifest.failures == {}
        assert set(manifest.results) == {job.key for job in jobs}
        assert manifest.stats.retries == 0
        assert manifest.stats.redispatches == 0
        assert manifest.stats.failures == 0
        assert manifest.require() is manifest.results


class TestDefaultEngine:
    """default_engine() honours the engine-config artifact directory."""

    def setup_method(self):
        from repro.experiments import set_default_engine

        set_default_engine(None)

    teardown_method = setup_method

    def test_rebuilds_when_artifact_dir_changes(self, tmp_path):
        from repro.experiments import default_engine

        first = default_engine()
        assert first.cache.store is None
        assert default_engine() is first
        # A later context override must not be silently ignored just
        # because the engine was already created.
        with engine_config.use(artifact_dir=str(tmp_path)):
            scoped = default_engine()
            assert scoped is not first
            assert scoped.cache.store is not None
            assert scoped.cache.store.directory == tmp_path
            assert default_engine() is scoped
        assert default_engine().cache.store is None

    def test_explicitly_installed_engine_is_pinned(self, tmp_path):
        from repro.experiments import default_engine, set_default_engine

        engine = fresh_engine()
        set_default_engine(engine)
        with engine_config.use(artifact_dir=str(tmp_path)):
            assert default_engine() is engine


class TestArtifactStore:
    JOB = ApproximationJob("gelu", "gqa-rm", 8, QUICK)

    def test_round_trip_through_disk(self, tmp_path):
        first = fresh_engine(tmp_path)
        built = first.build(self.JOB)
        assert first.stats.builds == 1

        warm = fresh_engine(tmp_path)
        loaded = warm.build(self.JOB)
        assert warm.stats.builds == 0
        assert warm.stats.disk_hits == 1
        assert_pwl_equal(built, loaded)

    def test_key_invalidation_on_budget_change(self, tmp_path):
        fresh_engine(tmp_path).build(self.JOB)
        other = fresh_engine(tmp_path)
        other.build(ApproximationJob("gelu", "gqa-rm", 8,
                                     dataclasses.replace(QUICK, seed=3)))
        assert other.stats.builds == 1
        assert other.stats.disk_hits == 0

    def test_corrupted_artifact_falls_back_to_recompute(self, tmp_path):
        fresh_engine(tmp_path).build(self.JOB)
        store = ArtifactStore(tmp_path)
        store.path_for(self.JOB.key).write_bytes(b"not an npz file")

        recovered = fresh_engine(tmp_path)
        pwl = recovered.build(self.JOB)
        assert recovered.stats.builds == 1
        assert_pwl_equal(pwl, compute_approximation("gelu", "gqa-rm", 8, QUICK))
        # The artifact was rewritten and is valid again.
        rewritten = ArtifactStore(tmp_path).load(self.JOB.key)
        assert rewritten is not None
        assert_pwl_equal(rewritten, pwl)

    def test_missing_key_loads_none(self, tmp_path):
        assert ArtifactStore(tmp_path).load("0" * 64) is None

    def _write_checksumless(self, store, pwl):
        path = store.path_for(self.JOB.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, breakpoints=pwl.breakpoints, slopes=pwl.slopes,
                 intercepts=pwl.intercepts)
        return path

    def test_checksumless_artifact_is_a_corrupt_miss(self, tmp_path):
        # Every writer embeds a checksum, so a file without one cannot be
        # trusted: it reads as a miss, counts as corruption, and the next
        # build rewrites it with a checksum.
        built = fresh_engine().build(self.JOB)
        store = ArtifactStore(tmp_path)
        self._write_checksumless(store, built)
        assert store.load(self.JOB.key) is None
        assert store.corrupt_reads == 1
        assert store.rebuild_manifest()["unreadable"] == 1
        assert store.read_manifest(self.JOB.key[:2])["count"] == 0

        engine = SweepEngine(cache=ArtifactCache(store=store))
        assert_pwl_equal(engine.build(self.JOB), built)
        assert engine.stats.builds == 1
        assert_pwl_equal(ArtifactStore(tmp_path).load(self.JOB.key), built)

    def test_scrub_quarantines_checksumless_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = self._write_checksumless(store, fresh_engine().build(self.JOB))
        report = store.scrub()
        assert (report.scanned, report.ok, report.corrupt) == (1, 0, 1)
        assert report.quarantined == [self.JOB.key]
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_store_keys_listing(self, tmp_path):
        engine = fresh_engine(tmp_path)
        engine.build(self.JOB)
        assert ArtifactStore(tmp_path).keys() == [self.JOB.key]


class TestShardedLayout:
    JOB = ApproximationJob("gelu", "gqa-rm", 8, QUICK)

    def test_save_writes_into_key_prefix_shard(self, tmp_path):
        engine = fresh_engine(tmp_path)
        built = engine.build(self.JOB)
        key = self.JOB.key
        sharded = tmp_path / key[:2] / ("%s.npz" % key)
        assert sharded.exists()
        assert not (tmp_path / ("%s.npz" % key)).exists()
        loaded = ArtifactStore(tmp_path).load(key)
        assert_pwl_equal(loaded, built)

    def test_rebuild_manifest_writes_per_shard_manifests(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = SweepEngine(cache=ArtifactCache(store=store))
        built = engine.build(self.JOB)
        store.rebuild_manifest()
        shard = self.JOB.key[:2]
        manifest = store.read_manifest(shard)
        assert manifest is not None
        assert manifest["shard"] == shard
        assert manifest["count"] == 1
        checksum = manifest["entries"][self.JOB.key]
        assert len(checksum) == 64
        assert_pwl_equal(store.load(self.JOB.key), built)


class TestDurableRunDir:
    def test_run_dir_journals_every_cell(self, tmp_path):
        import json as json_module

        run_dir = tmp_path / "run"
        engine = SweepEngine(run_dir=run_dir)
        jobs = [
            ApproximationJob("gelu", "gqa-rm", 8, QUICK),
            ApproximationJob("exp", "gqa-rm", 8, QUICK),
        ]
        manifest = engine.run_manifest(jobs)
        assert manifest.ok
        engine.close()

        journal = run_dir / "journal.jsonl"
        records = [json_module.loads(line) for line in journal.read_text().splitlines()]
        kinds = [record["type"] for record in records]
        assert kinds.count("enqueue") == 2
        assert kinds.count("done") == 2
        # Artifacts landed in the auto-attached store next to the journal.
        store = ArtifactStore(run_dir / "artifacts")
        assert set(store.keys()) == {job.key for job in jobs}

    def test_second_run_over_same_run_dir_rebuilds_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        job = ApproximationJob("gelu", "gqa-rm", 8, QUICK)
        first = SweepEngine(run_dir=run_dir)
        built = first.run_manifest([job])
        assert first.last_run.builds == 1
        first.close()

        second = SweepEngine(run_dir=run_dir)
        again = second.run_manifest([job])
        assert second.last_run.builds == 0
        assert second.last_run.disk_hits == 1
        assert_pwl_equal(again.results[job.key], built.results[job.key])
        second.close()

    def test_run_dir_resolves_from_engine_config_env(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "env-run"
        monkeypatch.setenv("REPRO_SWEEP_RUN_DIR", str(run_dir))
        engine = SweepEngine()
        manifest = engine.run_manifest([ApproximationJob("gelu", "gqa-rm", 8, QUICK)])
        assert manifest.ok
        assert (run_dir / "journal.jsonl").exists()
        engine.close()
