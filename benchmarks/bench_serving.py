"""Serving benchmark: latency/shed curves under rising offered load.

Drives a :class:`repro.serve.BatchingServer` through the reliability tier
end to end:

1. **Load ladder** — an open-loop generator submits single-image requests
   at a paced offered RPS, doubling the rate level by level until the
   server saturates (achieved throughput falls measurably short of
   offered, or admission control starts shedding).  Each level reports
   achieved RPS, client-observed p50/p95/p99 latency, and the shed rate.
2. **Latency** — the lowest (uncontended) level's percentiles, gated by
   ``check_bench_parity.py`` as within-noise timings.
3. **Shedding** — an unpaced burst against a deliberately tiny admission
   queue: the queue depth must stay bounded by the limit and the overflow
   must be shed with ``QueueFullError`` (never queued, never hung).
4. **Degradation** — the same traffic with an injected trace failure
   (``compiled.trace`` fails always): every response must stay
   bit-identical to the eager reference while the server counts the
   fallbacks.

Semantic outcomes (``identical_results``, ``bounded``) are exact-parity
keys; the latency percentiles are tolerance-gated timing keys.

Results are written to ``BENCH_serving.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --output /tmp/s.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.reliability import FaultPlan, FaultSpec, QueueFullError, inject
from repro.serve import BatchingServer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

OPERATORS = ("exp", "gelu", "div", "rsqrt")


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


def _percentiles_seconds(samples):
    if not samples:
        return {"p50_seconds": 0.0, "p95_seconds": 0.0, "p99_seconds": 0.0}
    p50, p95, p99 = np.percentile(np.asarray(samples, dtype=np.float64),
                                  (50.0, 95.0, 99.0))
    return {
        "p50_seconds": float(p50),
        "p95_seconds": float(p95),
        "p99_seconds": float(p99),
    }


def run_level(server: BatchingServer, images, offered_rps: float,
              duration_seconds: float) -> dict:
    """Open-loop paced submission at ``offered_rps`` for one level.

    Latency is client-observed (submit to future resolution, recorded by
    a done-callback so the pacing loop never blocks on results).  The
    level's ``batches`` and ``mean_batch_size`` come from the server's
    counters, so the record shows whether the level ran as batches of
    one or fused requests.
    """
    before = server.stats()
    interval = 1.0 / offered_rps
    latencies: list = []  # list.append is atomic; callbacks run in the worker
    shed = 0
    offered = 0
    futures = []
    start = time.perf_counter()
    next_submit = start
    while True:
        now = time.perf_counter()
        if now - start >= duration_seconds:
            break
        if now < next_submit:
            time.sleep(next_submit - now)
        submitted_at = time.perf_counter()
        try:
            future = server.submit(images[offered % len(images)])
        except QueueFullError:
            shed += 1
        else:
            future.add_done_callback(
                lambda f, t0=submitted_at: latencies.append(time.perf_counter() - t0)
            )
            futures.append(future)
        offered += 1
        next_submit += interval
    for future in futures:
        future.result(timeout=60.0)
    elapsed = time.perf_counter() - start
    completed = len(futures)
    after = server.stats()
    batches = after.batches - before.batches
    return {
        "offered_rps": offered_rps,
        "offered": offered,
        "completed": completed,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "achieved_rps": completed / elapsed,
        "batches": batches,
        "mean_batch_size": (
            (after.completed - before.completed) / batches if batches else 0.0
        ),
        **_percentiles_seconds(latencies),
    }


def bench_load(model, model_config, start_rps: float, duration_seconds: float,
               max_levels: int, max_batch: int) -> dict:
    """Double the offered rate until the server saturates."""
    images = make_images(model_config, 32, seed=1)
    reference = [model.predict(image[None], engine="eager")[0] for image in images]

    with BatchingServer(model, max_batch=max_batch, max_wait_ms=2.0,
                        engine="compiled", max_queue=512) as server:
        # Correctness first, at zero contention: every served response is
        # bit-identical to the eager reference.
        served = server.predict_many(images, timeout=60.0)
        identical = all(np.array_equal(a, b) for a, b in zip(served, reference))

        levels = []
        offered = start_rps
        saturation_rps = None
        for _ in range(max_levels):
            level = run_level(server, images, offered, duration_seconds)
            levels.append(level)
            saturated = (
                level["shed_rate"] > 0.0
                or level["achieved_rps"] < 0.8 * level["offered_rps"]
            )
            if saturated:
                saturation_rps = level["offered_rps"]
                break
            offered *= 2.0
    return {
        "identical_results": bool(identical),
        "levels": levels,
        "saturation_rps": saturation_rps,
        "saturated": saturation_rps is not None,
    }


def bench_shedding(model, model_config, burst: int, queue_limit: int) -> dict:
    """Unpaced burst against a tiny queue: depth bounded, overflow shed."""
    images = make_images(model_config, 16, seed=2)
    max_depth = 0
    shed = 0
    futures = []
    with BatchingServer(model, max_batch=4, max_wait_ms=0.0, engine="compiled",
                        max_queue=queue_limit) as server:
        for index in range(burst):
            try:
                futures.append(server.submit(images[index % len(images)]))
            except QueueFullError:
                shed += 1
            max_depth = max(max_depth, server.health()["queue_depth"])
        for future in futures:
            future.result(timeout=60.0)
        stats = server.stats()
    return {
        "burst": burst,
        "queue_limit": queue_limit,
        "admitted": len(futures),
        "completed": stats.completed,
        "shed": shed,
        "max_observed_depth": max_depth,
        "bounded": bool(max_depth <= queue_limit and stats.completed == len(futures)),
    }


def bench_degradation(model, model_config, requests: int) -> dict:
    """Injected trace failure: eager fallback must stay bit-identical."""
    images = make_images(model_config, requests, seed=3)
    reference = [model.predict(image[None], engine="eager")[0] for image in images]
    plan = FaultPlan(specs=(FaultSpec(site="compiled.trace", fail_always=True),))
    with inject(plan):
        with BatchingServer(model, max_batch=4, max_wait_ms=2.0,
                            engine="compiled") as server:
            served = server.predict_many(images, timeout=60.0)
            stats = server.stats()
            status = server.health()["status"]
    identical = all(np.array_equal(a, b) for a, b in zip(served, reference))
    return {
        "requests": requests,
        "identical_results": bool(identical),
        "fallback_count": stats.fallbacks,
        "health_status": status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--start-rps", type=float, default=None,
                        help="offered RPS of the first load level")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds per load level")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced budget: tiny model, short levels")
    args = parser.parse_args(argv)

    if args.smoke:
        model_config = ModelConfig(image_size=16, embed_dim=16, depth=1)
        start_rps = args.start_rps or 50.0
        duration = args.duration or 0.5
        max_levels, max_batch = 4, 8
        burst, queue_limit = 64, 8
        degradation_requests = 8
    else:
        model_config = ModelConfig()
        start_rps = args.start_rps or 25.0
        duration = args.duration or 2.0
        max_levels, max_batch = 8, 16
        burst, queue_limit = 256, 16
        degradation_requests = 24

    model = build_model(model_config)
    # One eager call initialises the LSQ quantizers so every path (eager
    # reference, compiled serving, fallback) sees identical frozen scales.
    model.predict(np.random.default_rng(0).normal(
        size=(1, model_config.image_size, model_config.image_size, 3)))

    report = {
        "benchmark": "serving",
        "config": {
            "image_size": model_config.image_size,
            "embed_dim": model_config.embed_dim,
            "depth": model_config.depth,
            "start_rps": start_rps,
            "duration_seconds": duration,
            "max_batch": max_batch,
            "burst": burst,
            "queue_limit": queue_limit,
            "smoke": bool(args.smoke),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }

    load = bench_load(model, model_config, start_rps, duration, max_levels, max_batch)
    report["load"] = load
    for level in load["levels"]:
        print(
            "load %8.1f rps offered   %8.1f achieved   p50 %6.1fms  p99 %6.1fms"
            "   shed %5.1f%%   mean batch %5.2f"
            % (level["offered_rps"], level["achieved_rps"],
               1e3 * level["p50_seconds"], 1e3 * level["p99_seconds"],
               100.0 * level["shed_rate"], level["mean_batch_size"])
        )
    print("saturation: %s   low-rate bit-parity: %s"
          % (load["saturation_rps"], load["identical_results"]))

    # The uncontended level is the latency claim parity gates on.
    lowest = load["levels"][0]
    report["latency"] = {
        "p50_seconds": lowest["p50_seconds"],
        "p95_seconds": lowest["p95_seconds"],
        "p99_seconds": lowest["p99_seconds"],
    }

    shedding = bench_shedding(model, model_config, burst, queue_limit)
    report["shedding"] = shedding
    print("shedding: %d/%d shed at queue_limit=%d (max depth %d, bounded=%s)"
          % (shedding["shed"], shedding["burst"], shedding["queue_limit"],
             shedding["max_observed_depth"], shedding["bounded"]))

    degradation = bench_degradation(model, model_config, degradation_requests)
    report["degradation"] = degradation
    print("degradation: %d requests via eager fallback (%d fallbacks, "
          "identical=%s, status=%s)"
          % (degradation["requests"], degradation["fallback_count"],
             degradation["identical_results"], degradation["health_status"]))

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)

    failures = []
    if not load["identical_results"]:
        failures.append("served responses diverged from eager at low rate")
    if not shedding["bounded"]:
        failures.append("admission queue was not bounded under overload")
    if not degradation["identical_results"]:
        failures.append("eager fallback diverged from the eager reference")
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
