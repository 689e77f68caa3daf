"""Tests for the replicated serving supervisor (no injected faults here).

Contract: replicated serving is observably the *same server* as the
single-process tier — every response bit-identical to a direct eager
predict regardless of which replica answers — plus the supervisor
surface: per-replica health, graceful drain, and the canary-verified
rolling hot-swap.  Crash/chaos behaviour lives in
``test_chaos_replicated.py``.
"""

import json
import time

import numpy as np
import pytest

from repro.core import engine_config
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLActivation, PWLSuite, swap_lut_tables
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.serve import ReplicatedServer

OPERATORS = ("exp", "gelu", "div", "rsqrt")


def build_model():
    suite = PWLSuite(
        approximations={
            op: fit_pwl(
                get_function(op).fn,
                uniform_breakpoints(*get_function(op).search_range, 8),
                get_function(op).search_range,
            ).to_fixed_point(5)
            for op in OPERATORS
        },
        replace=set(OPERATORS),
    )
    model = MiniSegformer(ModelConfig(image_size=16, embed_dim=16, depth=1), suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def served_model():
    model = build_model()
    # Initialise the LSQ quantizers before any fork: every replica then
    # shares identical frozen scales, which is what makes responses
    # bit-identical regardless of the serving replica.
    model.predict(np.random.default_rng(0).normal(size=(1, 16, 16, 3)), engine="eager")
    return model


def make_images(count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(16, 16, 3)) for _ in range(count)]


def perturbed_head_state(model, scale=7.0):
    """A valid new state dict whose predictions visibly differ."""
    state = dict(model.state_dict())
    key = next(name for name in state if "head" in name and name.endswith("bias"))
    state[key] = state[key] + np.arange(state[key].size, dtype=np.float64) * scale
    return state


class TestReplicatedServer:
    @pytest.mark.parametrize("engine", ["compiled", "eager"])
    def test_responses_match_direct_predict(self, served_model, engine):
        images = make_images(8)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        with ReplicatedServer(
            served_model, replicas=2, max_batch=4, max_wait_ms=2.0, engine=engine
        ) as server:
            results = server.predict_many(images, timeout=120)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got, want)

    def test_requests_are_fused_and_counted(self, served_model):
        images = make_images(12)
        with ReplicatedServer(
            served_model, replicas=2, max_batch=4, max_wait_ms=20.0
        ) as server:
            server.predict_many(images, timeout=120)
            stats = server.stats()
        assert stats.requests == 12
        assert stats.completed == 12
        assert stats.failed == 0
        assert stats.batches < 12  # fusion still happens behind the supervisor

    def test_health_report_shape_and_json(self, served_model):
        with ReplicatedServer(served_model, replicas=2, max_wait_ms=1.0) as server:
            server.predict_many(make_images(4), timeout=120)
            report = server.health()
            assert report["status"] == "ok"
            assert report["replica_count"] == 2
            assert report["model_generation"] == 0
            assert len(report["replicas"]) == 2
            states = {entry["state"] for entry in report["replicas"]}
            assert states <= {"starting", "healthy"}
            for entry in report["replicas"]:
                assert entry["pid"] is not None
                assert entry["generation"] == 1
                assert entry["restarts"] == 0
            for counter in (
                "replica_deaths",
                "restarts",
                "heartbeat_kills",
                "batch_timeouts",
                "stale_kills",
                "redispatches",
                "swaps",
                "rollbacks",
            ):
                assert report["supervisor"][counter] == 0
            json.dumps(report)  # endpoint-shaped: fully serialisable

    def test_drain_waits_out_outstanding_requests(self, served_model):
        images = make_images(6)
        with ReplicatedServer(served_model, replicas=2, max_wait_ms=1.0) as server:
            futures = [server.submit(image) for image in images]
            assert server.drain(timeout=120)
            # After a successful drain every future is already resolved.
            assert all(future.done() for future in futures)

    def test_close_is_idempotent_and_final(self, served_model):
        server = ReplicatedServer(served_model, replicas=2, max_wait_ms=1.0)
        server.predict(make_images(1)[0], timeout=120)
        server.close()
        server.close()
        assert server.health()["status"] == "closed"
        with pytest.raises(RuntimeError):
            server.submit(make_images(1)[0])

    def test_replica_count_resolves_through_engine_config(self, served_model):
        with engine_config.use(serve_replicas=1):
            with ReplicatedServer(served_model, max_wait_ms=1.0) as server:
                assert server.health()["replica_count"] == 1
                server.predict(make_images(1)[0], timeout=120)

    def test_invalid_knobs_rejected(self, served_model):
        with pytest.raises(ValueError):
            ReplicatedServer(served_model, replicas=0)
        with pytest.raises(ValueError):
            ReplicatedServer(served_model, crash_loop_window_s=0.0)
        with pytest.raises(ValueError):
            ReplicatedServer(served_model, max_redispatch=0)
        with pytest.raises(ValueError):
            ReplicatedServer(served_model, batch_timeout_s=0.0)


class TestHotSwap:
    def test_rolling_swap_promotes_every_replica(self, served_model):
        images = make_images(6)
        old_state = served_model.state_dict()  # restored afterwards
        old_reference = [
            served_model.predict(im[None], engine="eager")[0] for im in images
        ]
        new_state = perturbed_head_state(served_model)
        canary = images[0]
        try:
            with ReplicatedServer(
                served_model, replicas=2, max_wait_ms=1.0, canary=canary
            ) as server:
                before = server.predict_many(images, timeout=120)
                for got, want in zip(before, old_reference):
                    np.testing.assert_array_equal(got, want)
                report = server.swap_state(new_state)
                assert report["rolled_back"] is False
                assert report["swapped"] == 2
                assert report["model_generation"] == 1
                # The reference model is now the new one; the fleet agrees.
                new_reference = [
                    served_model.predict(im[None], engine="eager")[0] for im in images
                ]
                changed = sum(
                    not np.array_equal(old, new)
                    for old, new in zip(old_reference, new_reference)
                )
                assert changed > 0  # the perturbation actually changed answers
                after = server.predict_many(images, timeout=120)
                for got, want in zip(after, new_reference):
                    np.testing.assert_array_equal(got, want)
                health = server.health()
                assert health["supervisor"]["swaps"] == 1
                assert health["model_generation"] == 1
                assert all(
                    entry["model_generation"] == 1 for entry in health["replicas"]
                )
        finally:
            # The fixture is module-scoped: put the old weights back.
            served_model.load_state_dict(old_state, strict=True)

    def test_swap_requires_a_canary(self, served_model):
        with ReplicatedServer(served_model, replicas=1, max_wait_ms=1.0) as server:
            with pytest.raises(ValueError, match="canary"):
                server.swap_state(dict(served_model.state_dict()))

    def test_failed_validation_restores_the_reference_model(self, served_model):
        """A state with matching keys but one bad shape aborts the strict
        load *mid-loop*, after earlier params were already overwritten.
        The reference model must come back bit-exact — a half-loaded
        reference would fork diverged restarts while the replicas still
        serve the old model."""
        images = make_images(4)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        bad_state = {
            name: np.asarray(value) + 1.0
            for name, value in served_model.state_dict().items()
        }
        last = list(bad_state)[-1]  # loaded last: everything before it mutates
        bad_state[last] = np.zeros(np.asarray(bad_state[last]).shape + (2,))
        with ReplicatedServer(
            served_model, replicas=1, max_wait_ms=1.0, canary=images[0]
        ) as server:
            with pytest.raises(ValueError, match="shape mismatch"):
                server.swap_state(bad_state)
            restored = [
                served_model.predict(im[None], engine="eager")[0] for im in images
            ]
            for got, want in zip(restored, reference):
                np.testing.assert_array_equal(got, want)
            # Unknown LUT names are rejected the same way: the state load
            # that preceded the table check is rolled back too.
            with pytest.raises(KeyError, match="nope"):
                server.swap_state(
                    dict(served_model.state_dict()), lut_tables={"nope": None}
                )
            restored = [
                served_model.predict(im[None], engine="eager")[0] for im in images
            ]
            for got, want in zip(restored, reference):
                np.testing.assert_array_equal(got, want)
            health = server.health()
            assert health["supervisor"]["swaps"] == 0
            assert health["model_generation"] == 0

    def test_stale_generation_replica_is_retired_not_promoted(self, served_model):
        """A replica left behind by a swap (its slot still runs the
        pre-swap fork once the fleet's generation moves on) must be
        respawned from the promoted reference, never allowed to serve
        stale weights next to the new fleet."""
        images = make_images(4)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        with ReplicatedServer(
            served_model, replicas=2, max_wait_ms=1.0, canary=images[0]
        ) as server:
            server.predict_many(images, timeout=120)  # both replicas up
            # Simulate a completed swap that slot 0 missed: the fleet
            # generation advanced while slot 0 stayed on generation 0.
            # (The reference model is unchanged, so the respawned fork
            # must keep answering bit-identically.)
            server._model_generation += 1
            server._slots[1].model_generation += 1

            def retired_and_respawned():
                entry = server.health()["replicas"][0]
                return (
                    entry["state"] == "healthy"
                    and entry["model_generation"] == server._model_generation
                )

            deadline = time.monotonic() + 30.0
            while not retired_and_respawned():
                assert time.monotonic() < deadline, (
                    "stale replica was never retired: %r" % server.health()
                )
                time.sleep(0.02)
            health = server.health()
            assert health["supervisor"]["stale_kills"] >= 1
            # Not a crash: the breaker was never consulted.
            assert health["supervisor"]["replica_deaths"] == 0
            assert health["replicas"][0]["crashes_in_window"] == 0
            results = server.predict_many(images, timeout=120)
            for got, want in zip(results, reference):
                np.testing.assert_array_equal(got, want)

    def test_bad_state_dict_fails_before_touching_the_fleet(self, served_model):
        images = make_images(4)
        reference = [served_model.predict(im[None], engine="eager")[0] for im in images]
        bad_state = dict(served_model.state_dict())
        bad_state.pop(sorted(bad_state)[0])  # strict load must refuse this
        with ReplicatedServer(
            served_model, replicas=2, max_wait_ms=1.0, canary=images[0]
        ) as server:
            with pytest.raises(KeyError):
                server.swap_state(bad_state)
            health = server.health()
            assert health["supervisor"]["swaps"] == 0
            assert health["supervisor"]["rollbacks"] == 0
            assert health["model_generation"] == 0
            results = server.predict_many(images, timeout=120)
            for got, want in zip(results, reference):
                np.testing.assert_array_equal(got, want)


class TestSwapLutTables:
    def _named_pwl_module(self, entries=8):
        fn = get_function("gelu")
        pwl = fit_pwl(
            fn.fn, uniform_breakpoints(*fn.search_range, entries), fn.search_range
        ).to_fixed_point(5)
        return PWLActivation("gelu", pwl), pwl

    def _forward(self, module, x):
        from repro.nn.tensor import Tensor, no_grad

        with no_grad():
            return module(Tensor(x)).data

    def test_swap_replaces_tables_and_returns_previous(self):
        module, old_pwl = self._named_pwl_module(entries=8)
        _, new_pwl = self._named_pwl_module(entries=16)
        x = np.linspace(-3.0, 3.0, 64)
        before = self._forward(module, x)
        previous = swap_lut_tables(module, {"gelu": new_pwl})
        assert previous["gelu"] is old_pwl
        after = self._forward(module, x)
        assert not np.array_equal(before, after)  # the new table is live
        # Swapping the old table back restores the output bit-exactly —
        # the rollback direction of the supervisor's hot-swap.
        swap_lut_tables(module, previous)
        np.testing.assert_array_equal(self._forward(module, x), before)

    def test_unknown_operator_name_is_rejected(self):
        module, pwl = self._named_pwl_module()
        with pytest.raises(KeyError, match="softmax"):
            swap_lut_tables(module, {"softmax": pwl})

    def test_rejected_swap_touches_nothing(self):
        """One known and one unknown name: the whole swap is refused
        atomically — the known module keeps its old table, so a rejected
        rolling swap never needs a table rollback."""
        module, _ = self._named_pwl_module(entries=8)
        _, new_pwl = self._named_pwl_module(entries=16)
        x = np.linspace(-3.0, 3.0, 64)
        before = self._forward(module, x)
        with pytest.raises(KeyError, match="softmax"):
            swap_lut_tables(module, {"gelu": new_pwl, "softmax": new_pwl})
        np.testing.assert_array_equal(self._forward(module, x), before)
