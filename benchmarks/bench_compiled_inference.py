"""Compiled-inference benchmark (traced graph executor vs. eager autograd).

Measures the capture → optimize → execute pipeline of :mod:`repro.graph`
on the paper's two deployed model families, each with every replaceable
operator swapped for its 8-entry pwl and INT8-quantized Linear layers:

1. **Single-image predict** — ``model.predict`` under ``engine="eager"``
   (dynamic graph rebuilt per call) vs. ``engine="compiled"`` (optimised
   plan replayed through the buffer-reuse executor), for MiniSegformer and
   MiniEfficientViT.  Before timing, eager and compiled predictions over
   a seeded evaluation set are asserted bit-identical to the eager
   predictions of the reference per-pass pwl pipeline in
   ``tests/oracles.py``.  The compiled
   speedup is the headline gated by ``--min-predict-speedup``.
2. **Micro-batched serving** — a :class:`repro.serve.BatchingServer` burst
   (single-image submissions fused into padded batches, one compiled call
   per batch) vs. sequential eager requests, asserting bit-identical
   responses and that batching actually occurred.

The report carries a SHA-256 checksum of the compiled predictions over the
seeded evaluation set; ``check_bench_parity.py`` compares it exactly
against the recorded baseline, so semantic drift between eager and
compiled (or across refactors) fails the build even when every in-run
parity flag still passes.

Results are written to ``BENCH_compiled_inference.json`` at the repository
root; CI runs the default budget and gates through check_bench_parity.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled_inference.py
    PYTHONPATH=src python benchmarks/bench_compiled_inference.py \
        --smoke --output /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines import uniform_pwl
from repro.functions.registry import get_function
from repro.graph import optimize, plan_memory, trace
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.serve import BatchingServer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import ReferencePWLSuite  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_compiled_inference.json"

MODELS = (
    ("segformer", MiniSegformer, ("exp", "gelu", "div", "rsqrt")),
    ("efficientvit", MiniEfficientViT, ("hswish", "div")),
)


def build_model(model_cls, operators, model_config, suite_cls=PWLSuite):
    suite = suite_cls(
        approximations={op: uniform_pwl(get_function(op)).to_fixed_point(5) for op in operators},
        replace=set(operators),
    )
    model = model_cls(model_config, suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


def _timed(fn_call, repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn_call()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def bench_predict(name, model_cls, operators, model_config, eval_images,
                  repeats: int, inner: int) -> dict:
    """Eager vs. compiled predict; both bit-identical to the oracle."""
    single = eval_images[:1]
    # First predict call initialises the LSQ quantizers from the evaluation
    # set — identically for the oracle and the model under test.
    oracle = build_model(model_cls, operators, model_config, ReferencePWLSuite)
    expected = oracle.predict(eval_images, engine="eager")
    model = build_model(model_cls, operators, model_config)
    reference = model.predict(eval_images, engine="eager")
    compiled = model.predict(eval_images, engine="compiled")
    identical = np.array_equal(expected, reference) and np.array_equal(expected, compiled)
    if not identical:
        raise AssertionError("%s: predictions diverged from the oracle" % name)

    graph = trace(model, single)
    optimized = optimize(graph)
    plan = plan_memory(optimized)

    model.predict(single, engine="compiled")  # warm the (1, H, W, C) plan
    t_eager = _timed(lambda: model.predict(single, engine="eager"), repeats, inner)
    t_compiled = _timed(lambda: model.predict(single, engine="compiled"), repeats, inner)
    checksum = hashlib.sha256(
        np.ascontiguousarray(reference, dtype=np.int64).tobytes()
    ).hexdigest()
    return {
        "model": model_cls.__name__,
        "image_size": model_config.image_size,
        "eval_images": int(eval_images.shape[0]),
        "traced_nodes": len(graph.nodes),
        "optimized_nodes": len(optimized.nodes),
        "fused_lookups": sum(node.op == "lookup" for node in optimized.nodes),
        "buffer_slots": plan.num_slots,
        "peak_live_buffers": plan.peak_live,
        "eager_seconds": t_eager,
        "compiled_seconds": t_compiled,
        "speedup": t_eager / t_compiled,
        "identical_results": True,
        "predictions_sha256": checksum,
    }


def bench_serving(model_cls, operators, model_config, num_requests: int,
                  max_batch: int) -> dict:
    """Sequential eager requests vs. a micro-batched compiled burst."""
    model = build_model(model_cls, operators, model_config)
    rng = np.random.default_rng(7)
    images = [
        rng.normal(scale=1.0, size=(model_config.image_size, model_config.image_size, 3))
        for _ in range(num_requests)
    ]

    start = time.perf_counter()
    eager = [model.predict(image[None], engine="eager")[0] for image in images]
    eager_seconds = time.perf_counter() - start

    with BatchingServer(model, max_batch=max_batch, max_wait_ms=1.0, engine="compiled") as server:
        start = time.perf_counter()
        served = server.predict_many(images)
        served_seconds = time.perf_counter() - start
        stats = server.stats()

    identical = all(np.array_equal(a, b) for a, b in zip(eager, served))
    if not identical:
        raise AssertionError("served responses diverged from eager predictions")
    if stats.batches >= num_requests:
        raise AssertionError("no micro-batching occurred (one batch per request)")
    return {
        "model": model_cls.__name__,
        "requests": num_requests,
        "batches": stats.batches,
        "mean_batch_size": stats.mean_batch_size,
        "padded_rows": stats.padded_rows,
        "eager_seconds": eager_seconds,
        "served_seconds": served_seconds,
        "eager_rps": num_requests / eager_seconds,
        "served_rps": num_requests / served_seconds,
        "speedup": eager_seconds / served_seconds,
        "identical_results": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--inner", type=int, default=40,
                        help="predict calls per timing repeat")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget: tiny models, few requests, no speedup gate",
    )
    parser.add_argument(
        "--min-predict-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if either model's compiled predict speedup falls "
        "below this factor (default 2.0 for full runs, disabled with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        model_config = ModelConfig(image_size=16, embed_dim=16, depth=1)
        repeats, inner = 3, 10
        num_requests, max_batch = 24, 8
        min_speedup = args.min_predict_speedup or 0.0
    else:
        model_config = ModelConfig()  # the Table 4/5 miniature defaults
        repeats, inner = args.repeats, args.inner
        num_requests, max_batch = 64, 16
        # The compiled plan lands around 2.5-3x on single-image predict in
        # this container (Python dispatch dominates eager at these model
        # sizes); 2.0 gates regressions without flaking on scheduler noise.
        min_speedup = 2.0 if args.min_predict_speedup is None else args.min_predict_speedup

    rng = np.random.default_rng(args.seed)
    eval_images = rng.normal(
        size=(4, model_config.image_size, model_config.image_size, 3)
    )

    report = {
        "benchmark": "compiled_inference",
        "config": {
            "image_size": model_config.image_size,
            "embed_dim": model_config.embed_dim,
            "depth": model_config.depth,
            "repeats": repeats,
            "inner": inner,
            "requests": num_requests,
            "max_batch": max_batch,
            "seed": args.seed,
            "smoke": bool(args.smoke),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }

    failures = []
    for section, model_cls, operators in MODELS:
        stats = bench_predict(
            section, model_cls, operators, model_config, eval_images, repeats, inner
        )
        report["%s_predict" % section] = stats
        print(
            "%-22s eager %7.3fms   compiled %7.3fms   speedup %4.2fx   "
            "(%d -> %d nodes, %d fused, %d/%d buffers)"
            % (
                stats["model"],
                1e3 * stats["eager_seconds"],
                1e3 * stats["compiled_seconds"],
                stats["speedup"],
                stats["traced_nodes"],
                stats["optimized_nodes"],
                stats["fused_lookups"],
                stats["peak_live_buffers"],
                stats["buffer_slots"],
            )
        )
        if stats["speedup"] < min_speedup:
            failures.append(
                "%s compiled predict speedup %.2fx below required %.2fx"
                % (stats["model"], stats["speedup"], min_speedup)
            )

    serving = bench_serving(MODELS[0][1], MODELS[0][2], model_config, num_requests, max_batch)
    report["serving"] = serving
    print(
        "serving (%d requests)  eager %6.1f req/s   batched %6.1f req/s   "
        "speedup %4.2fx   (%d batches, mean %.1f)"
        % (
            serving["requests"],
            serving["eager_rps"],
            serving["served_rps"],
            serving["speedup"],
            serving["batches"],
            serving["mean_batch_size"],
        )
    )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)

    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
