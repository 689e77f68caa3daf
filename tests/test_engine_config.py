"""Resolution-order tests for the unified engine configuration.

The contract: every engine knob resolves **kwarg > context > env >
default**, the ``use`` context manager nests innermost-wins, and the
consumers (GeneticSearch, the pwl modules, NNLUT.deploy, SweepEngine)
actually route through it.
"""

import threading

import pytest

from repro.core import engine_config
from repro.core.engine_config import KNOBS, EngineConfig, current, resolve, use


class TestTable:
    def test_fields_defaults_and_env_vars(self):
        assert {name: (knob.default, knob.env) for name, knob in KNOBS.items()} == {
            "ga_engine": ("batch", "REPRO_GA_ENGINE"),
            "pwl_engine": ("dense", "REPRO_PWL_ENGINE"),
            "sweep_workers": (0, "REPRO_SWEEP_WORKERS"),
            "artifact_dir": (None, "REPRO_ARTIFACT_DIR"),
            "infer_engine": ("eager", "REPRO_INFER_ENGINE"),
            "train_engine": ("eager", "REPRO_TRAIN_ENGINE"),
            "decode_engine": ("eager", "REPRO_DECODE_ENGINE"),
            "sweep_run_dir": (None, "REPRO_SWEEP_RUN_DIR"),
            "sweep_lease_s": (30.0, "REPRO_SWEEP_LEASE_S"),
            "retry_attempts": (3, "REPRO_RETRY_ATTEMPTS"),
            "retry_base_delay": (0.05, "REPRO_RETRY_BASE_DELAY"),
            "serve_queue_limit": (0, "REPRO_SERVE_QUEUE_LIMIT"),
            "serve_deadline_ms": (0.0, "REPRO_SERVE_DEADLINE_MS"),
            "serve_replicas": (2, "REPRO_SERVE_REPLICAS"),
            "serve_heartbeat_ms": (100.0, "REPRO_SERVE_HEARTBEAT_MS"),
            "serve_crash_loop_threshold": (3, "REPRO_SERVE_CRASH_LOOP_THRESHOLD"),
        }
        assert list(EngineConfig.__dataclass_fields__) == list(KNOBS)
        assert current() == EngineConfig()

    def test_empty_env_var_is_unset(self, monkeypatch):
        for knob in KNOBS.values():
            monkeypatch.setenv(knob.env, "")
        assert current() == EngineConfig()
        assert resolve("sweep_workers") == 0

    def test_overrides_coerce_numbers_and_validate(self):
        assert resolve("sweep_lease_s", 2) == 2.0
        assert isinstance(resolve("sweep_lease_s", 2), float)
        with pytest.raises(ValueError, match="sweep_lease_s must be > 0"):
            resolve("sweep_lease_s", 0)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve("ga_engine", "turbo")

    def test_resolve_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown engine-config field"):
            resolve("engine")


class TestDefaults:
    def test_defaults(self):
        config = current()
        assert config.ga_engine == "batch"
        assert config.pwl_engine == "dense"
        assert config.sweep_workers == 0
        assert config.artifact_dir is None
        assert config.infer_engine == "eager"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(ga_engine="turbo")
        with pytest.raises(ValueError):
            EngineConfig(pwl_engine="sparse")
        with pytest.raises(ValueError):
            EngineConfig(sweep_workers=-1)
        with pytest.raises(ValueError):
            EngineConfig(infer_engine="jit")
        with pytest.raises(ValueError):
            EngineConfig(train_engine="jit")

    def test_infer_engine_resolution_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_INFER_ENGINE", "compiled")
        assert resolve("infer_engine") == "compiled"
        with use(infer_engine="eager"):
            assert resolve("infer_engine") == "eager"
            assert resolve("infer_engine", "compiled") == "compiled"
        with pytest.raises(ValueError):
            resolve("infer_engine", "jit")

    def test_train_engine_defaults_to_eager(self):
        assert current().train_engine == "eager"
        assert resolve("train_engine") == "eager"

    def test_train_engine_resolution_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_ENGINE", "compiled")
        assert resolve("train_engine") == "compiled"
        with use(train_engine="eager"):
            assert resolve("train_engine") == "eager"
            assert resolve("train_engine", "compiled") == "compiled"
        with pytest.raises(ValueError):
            resolve("train_engine", "jit")

    def test_train_engine_independent_of_infer_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_INFER_ENGINE", "compiled")
        assert resolve("train_engine") == "eager"
        with use(train_engine="compiled"):
            assert resolve("infer_engine") == "compiled"
            assert resolve("train_engine") == "compiled"


class TestResolutionOrder:
    def test_kwarg_beats_context(self):
        with use(ga_engine="legacy"):
            assert resolve("ga_engine", "batch") == "batch"
            assert resolve("ga_engine") == "legacy"

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PWL_ENGINE", "legacy")
        assert resolve("pwl_engine") == "legacy"
        with use(pwl_engine="dense"):
            assert resolve("pwl_engine") == "dense"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_GA_ENGINE", "legacy")
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "/tmp/artifacts-here")
        config = current()
        assert config.ga_engine == "legacy"
        assert config.sweep_workers == 3
        assert config.artifact_dir == "/tmp/artifacts-here"

    def test_contexts_nest_innermost_wins(self):
        with use(ga_engine="legacy", sweep_workers=2):
            with use(ga_engine="batch"):
                assert resolve("ga_engine") == "batch"
                assert resolve("sweep_workers") == 2  # outer layer still applies
            assert resolve("ga_engine") == "legacy"
        assert resolve("ga_engine") == "batch"

    def test_nested_equal_layers_restore_the_exiting_layer(self):
        with use(infer_engine="compiled"):
            with use(infer_engine="eager"):
                with use(infer_engine="compiled"):
                    assert resolve("infer_engine") == "compiled"
                assert resolve("infer_engine") == "eager"
            assert resolve("infer_engine") == "compiled"
        assert resolve("infer_engine") == "eager"

    def test_thread_started_inside_use_sees_env_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "compiled")
        seen = {}

        def drain():
            seen["infer"] = resolve("infer_engine")
            seen["decode"] = resolve("decode_engine")
            seen["current"] = current().infer_engine

        with use(infer_engine="compiled", decode_engine="eager"):
            thread = threading.Thread(target=drain)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert resolve("infer_engine") == "compiled"
        assert seen == {"infer": "eager", "decode": "compiled", "current": "eager"}

    def test_use_validates_on_entry(self):
        with pytest.raises(ValueError):
            with use(pwl_engine="turbo"):
                pass  # pragma: no cover - never reached
        # The broken layer must not leak into later resolutions.
        assert resolve("pwl_engine") == "dense"

    def test_use_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown engine-config field"):
            with use(engine="dense"):
                pass  # pragma: no cover - never reached

    def test_bad_env_worker_count_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        with pytest.raises(ValueError, match="integer worker count"):
            current()

    def test_artifact_dir_kwarg_override(self):
        assert resolve("artifact_dir", "/tmp/override") == "/tmp/override"
        with use(artifact_dir="/tmp/ctx"):
            assert resolve("artifact_dir") == "/tmp/ctx"


class TestConsumers:
    def test_genetic_search_resolves_engine(self):
        from repro.core.genetic import GeneticSearch
        from repro.core.fitness import FitnessFunction

        class _Width(FitnessFunction):
            def __call__(self, breakpoints):
                return float(breakpoints[-1] - breakpoints[0])

        with use(ga_engine="legacy"):
            assert GeneticSearch(_Width(), (-1.0, 1.0)).engine == "legacy"
        assert GeneticSearch(_Width(), (-1.0, 1.0)).engine == "batch"
        assert GeneticSearch(_Width(), (-1.0, 1.0), engine="legacy").engine == "legacy"
        with pytest.raises(ValueError):
            GeneticSearch(_Width(), (-1.0, 1.0), engine="turbo")

    def test_pwl_modules_resolve_engine(self):
        from repro.core.pwl import fit_pwl, uniform_breakpoints
        from repro.functions.registry import get_function
        from repro.nn.approx import PWLActivation, PWLWideRange

        fn = get_function("gelu")
        pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, 8),
                      fn.search_range).to_fixed_point(5)
        with use(pwl_engine="legacy"):
            assert PWLActivation("gelu", pwl).engine == "legacy"
            assert PWLWideRange("div", pwl).engine == "legacy"
        assert PWLActivation("gelu", pwl).engine == "dense"
        assert PWLActivation("gelu", pwl, engine="legacy").engine == "legacy"

    def test_nnlut_deploy_resolves_engine(self):
        from repro.baselines.nn_lut import NNLUT, NNLUTTrainingConfig
        from repro.core.lut import DenseLUT, QuantizedLUT
        from repro.functions.registry import get_function

        nn = NNLUT(get_function("gelu"), num_entries=8,
                   config=NNLUTTrainingConfig(num_samples=500, iterations=30, seed=0))
        nn.train()
        assert isinstance(nn.deploy(0.25), DenseLUT)
        with use(pwl_engine="legacy"):
            assert isinstance(nn.deploy(0.25), QuantizedLUT)
        assert isinstance(nn.deploy(0.25, engine="legacy"), QuantizedLUT)

    def test_sweep_engine_resolves_workers(self):
        from repro.experiments.jobs import SweepEngine

        engine = SweepEngine()
        assert engine.workers is None  # re-resolved per run
        with use(sweep_workers=2):
            assert resolve("sweep_workers", engine.workers) == 2
        assert resolve("sweep_workers", engine.workers) == 0
        assert resolve("sweep_workers", 4) == 4
