"""Replicated serving benchmark: throughput scaling and chaos SLOs.

Drives a :class:`repro.serve.ReplicatedServer` through the supervisor
tier end to end:

1. **Throughput vs replicas** — closed-loop batch load at each fleet
   size.  Recorded for the scaling curve but never gated: the container
   is frequently single-core, where extra replicas cannot help.
2. **Kill SLO** — sustained single-image load while the ``replica.kill``
   seam SIGKILL-crashes a replica mid-batch.  Every admitted request must
   still resolve (zero dropped) and every response must stay bit-identical
   to the eager reference (zero corrupted) — the supervisor re-dispatches
   the dead replica's in-flight batch.  p99 latency over the incident is
   the tolerance-gated timing claim.
3. **Swap SLO** — sustained load while ``swap_state`` rolls a new
   checkpoint across the fleet replica by replica.  Zero dropped, and
   every mid-swap response must equal *either* the old or the new model's
   answer — never a mix — with the fleet fully on the new weights after.

Semantic outcomes (``zero_dropped``, ``identical_results``,
``no_mixed_responses``, ``identical_after_swap``) are exact-parity keys;
the incident p99s are tolerance-gated timing keys.

Results are written to ``BENCH_replicated_serving.json`` at the
repository root::

    PYTHONPATH=src python benchmarks/bench_replicated_serving.py
    PYTHONPATH=src python benchmarks/bench_replicated_serving.py --smoke --output /tmp/r.json
"""

from __future__ import annotations

import argparse
import json
import platform
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy, inject
from repro.serve import ReplicatedServer

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_replicated_serving.json"
)

OPERATORS = ("exp", "gelu", "div", "rsqrt")

# Fast supervisor knobs so the chaos incidents resolve in benchmark time.
FAST = dict(
    max_wait_ms=1.0,
    heartbeat_ms=40.0,
    restart_policy=RetryPolicy(base_delay=0.01, multiplier=1.0, jitter=0.0),
)


def build_model(model_config: ModelConfig):
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
    model = MiniSegformer(model_config, suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


def make_images(model_config: ModelConfig, count: int, seed: int):
    rng = np.random.default_rng(seed)
    size = model_config.image_size
    return [rng.normal(size=(size, size, 3)) for _ in range(count)]


def perturbed_head_state(model, scale: float = 7.0):
    """A valid new checkpoint whose predictions visibly differ."""
    state = dict(model.state_dict())
    key = next(name for name in state if "head" in name and name.endswith("bias"))
    state[key] = state[key] + np.arange(state[key].size, dtype=np.float64) * scale
    return state


def _percentiles_seconds(samples):
    if not samples:
        return {"p50_seconds": 0.0, "p95_seconds": 0.0, "p99_seconds": 0.0}
    p50, p95, p99 = np.percentile(
        np.asarray(samples, dtype=np.float64), (50.0, 95.0, 99.0)
    )
    return {
        "p50_seconds": float(p50),
        "p95_seconds": float(p95),
        "p99_seconds": float(p99),
    }


def bench_throughput(model, model_config, fleet_sizes, requests: int) -> dict:
    """Closed-loop throughput at each fleet size (recorded, never gated)."""
    images = make_images(model_config, 16, seed=1)
    batch = [images[i % len(images)] for i in range(requests)]
    levels = []
    for replicas in fleet_sizes:
        with ReplicatedServer(
            model, replicas=replicas, max_batch=8, **FAST
        ) as server:
            server.predict_many(images[:4], timeout=120.0)  # warm every path
            start = time.perf_counter()
            server.predict_many(batch, timeout=300.0)
            elapsed = time.perf_counter() - start
        levels.append(
            {
                "replicas": replicas,
                "requests": requests,
                "seconds": elapsed,
                "images_per_second": requests / elapsed,
            }
        )
        print(
            "throughput  replicas=%d   %6.1f img/s   (%d requests in %.2fs)"
            % (replicas, levels[-1]["images_per_second"], requests, elapsed)
        )
    return {"levels": levels}


class _Pounder:
    """Background single-image load; records (image_index, result, latency)."""

    def __init__(self, server, images):
        self.server = server
        self.images = images
        self.records = []
        self.errors = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        index = 0
        while not self._stop.is_set():
            image_index = index % len(self.images)
            start = time.perf_counter()
            try:
                result = self.server.predict(self.images[image_index], timeout=120.0)
            except Exception as error:  # noqa: BLE001 — any drop is the finding
                self.errors.append(repr(error))
            else:
                self.records.append(
                    (image_index, result, time.perf_counter() - start)
                )
            index += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=180.0)


def _wait_until(predicate, timeout: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def bench_kill(model, model_config, replicas: int) -> dict:
    """SIGKILL a replica mid-batch under load: nothing dropped or corrupted."""
    images = make_images(model_config, 8, seed=2)
    reference = [model.predict(im[None], engine="eager")[0] for im in images]
    plan = FaultPlan(specs=(FaultSpec(site="replica.kill:0", fail_calls=(1,)),))
    # Fault counters are per process, so every replica forked under the plan
    # dies on its first batch.  Only the initial fleet inherits it: restarts
    # fork a plan-free supervisor, so replica 0 is killed exactly once.
    with inject(plan):
        server = ReplicatedServer(model, replicas=replicas, max_batch=4, **FAST)

    def fleet_healthy() -> bool:
        return all(entry["state"] == "healthy"
                   for entry in server.health()["replicas"])

    with server:
        server.predict_many(images[:2], timeout=120.0)
        with _Pounder(server, images) as pounder:
            died = _wait_until(
                lambda: server.health()["supervisor"]["replica_deaths"] >= 1
            )
            recovered = _wait_until(fleet_healthy)
            time.sleep(0.2)  # a little steady-state traffic post-recovery
            recovered = recovered and fleet_healthy()  # and it stayed healthy
        health = server.health()
    identical = all(
        np.array_equal(result, reference[image_index])
        for image_index, result, _ in pounder.records
    )
    latencies = [latency for _, _, latency in pounder.records]
    return {
        "replicas": replicas,
        "requests": len(pounder.records),
        "replica_died": bool(died),
        "recovered": bool(recovered),
        "dropped": len(pounder.errors),
        "zero_dropped": not pounder.errors,
        "identical_results": bool(identical and pounder.records),
        "redispatches": health["supervisor"]["redispatches"],
        "restarts": health["supervisor"]["restarts"],
        **_percentiles_seconds(latencies),
    }


def bench_swap(model, model_config, replicas: int) -> dict:
    """Rolling hot-swap under load: old-or-new responses, never mixed."""
    images = make_images(model_config, 8, seed=3)
    old_state = model.state_dict()
    old_reference = [model.predict(im[None], engine="eager")[0] for im in images]
    new_state = perturbed_head_state(model)
    try:
        with ReplicatedServer(
            model, replicas=replicas, max_batch=4, canary=images[0], **FAST
        ) as server:
            server.predict_many(images[:2], timeout=120.0)
            with _Pounder(server, images) as pounder:
                time.sleep(0.1)  # some pre-swap traffic
                swap_started = time.perf_counter()
                swap_report = server.swap_state(new_state)
                swap_seconds = time.perf_counter() - swap_started
                time.sleep(0.1)  # some post-swap traffic
            # The reference model now carries the new weights.
            new_reference = [
                model.predict(im[None], engine="eager")[0] for im in images
            ]
            after = server.predict_many(images, timeout=120.0)
    finally:
        model.load_state_dict(old_state, strict=True)
    mixed = sum(
        not (
            np.array_equal(result, old_reference[image_index])
            or np.array_equal(result, new_reference[image_index])
        )
        for image_index, result, _ in pounder.records
    )
    identical_after = all(
        np.array_equal(got, want) for got, want in zip(after, new_reference)
    )
    latencies = [latency for _, _, latency in pounder.records]
    return {
        "replicas": replicas,
        "requests": len(pounder.records),
        "swapped": swap_report["swapped"],
        "model_generation": swap_report["model_generation"],
        "swap_seconds": swap_seconds,
        "dropped": len(pounder.errors),
        "zero_dropped": not pounder.errors,
        "mixed_responses": mixed,
        "no_mixed_responses": mixed == 0,
        "identical_after_swap": bool(identical_after),
        **_percentiles_seconds(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced budget: tiny model, small fleet")
    args = parser.parse_args(argv)

    if args.smoke:
        model_config = ModelConfig(image_size=16, embed_dim=16, depth=1)
        fleet_sizes, requests, chaos_replicas = (1, 2), 32, 2
    else:
        model_config = ModelConfig(image_size=16, embed_dim=16, depth=1)
        fleet_sizes, requests, chaos_replicas = (1, 2, 4), 96, 2

    model = build_model(model_config)
    # One eager call initialises the LSQ quantizers before any fork, so
    # every replica shares identical frozen scales — the precondition for
    # bit-identical responses regardless of which replica answers.
    model.predict(np.random.default_rng(0).normal(
        size=(1, model_config.image_size, model_config.image_size, 3)))

    report = {
        "benchmark": "replicated_serving",
        "config": {
            "image_size": model_config.image_size,
            "embed_dim": model_config.embed_dim,
            "depth": model_config.depth,
            "fleet_sizes": list(fleet_sizes),
            "requests": requests,
            "chaos_replicas": chaos_replicas,
            "smoke": bool(args.smoke),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }

    report["throughput"] = bench_throughput(
        model, model_config, fleet_sizes, requests
    )

    kill = bench_kill(model, model_config, chaos_replicas)
    report["kill"] = kill
    print(
        "kill: %d requests over the incident   dropped=%d   identical=%s   "
        "p99 %6.1fms   (died=%s recovered=%s redispatches=%d)"
        % (kill["requests"], kill["dropped"], kill["identical_results"],
           1e3 * kill["p99_seconds"], kill["replica_died"], kill["recovered"],
           kill["redispatches"])
    )

    swap = bench_swap(model, model_config, chaos_replicas)
    report["swap"] = swap
    print(
        "swap: %d requests over the roll   dropped=%d   mixed=%d   "
        "after-swap identical=%s   p99 %6.1fms   (%d promoted in %.2fs)"
        % (swap["requests"], swap["dropped"], swap["mixed_responses"],
           swap["identical_after_swap"], 1e3 * swap["p99_seconds"],
           swap["swapped"], swap["swap_seconds"])
    )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)

    failures = []
    if not kill["replica_died"]:
        failures.append("the kill seam never fired — nothing was measured")
    if not kill["recovered"]:
        failures.append("the fleet did not return to full health after the kill")
    if not kill["zero_dropped"]:
        failures.append("requests were dropped during the replica kill")
    if not kill["identical_results"]:
        failures.append("responses diverged from eager during the replica kill")
    if not swap["zero_dropped"]:
        failures.append("requests were dropped during the rolling swap")
    if not swap["no_mixed_responses"]:
        failures.append("a mid-swap response matched neither old nor new model")
    if not swap["identical_after_swap"]:
        failures.append("post-swap responses diverged from the new reference")
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
