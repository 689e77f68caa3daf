"""KV-cached autoregressive decode benchmark (cached/compiled vs uncached).

Measures the PR 10 decode stack on a quantized :class:`MiniDecoder` (every
replaceable operator on its 8-entry pwl, INT8-quantized Linears):

1. **Greedy decode** — four paths over the same prompt/model state:
   uncached eager (the O(T²) full-forward-per-token baseline), uncached
   compiled, cached eager (O(T) KV-cached steps on the dynamic graph) and
   cached compiled (:class:`repro.graph.executor.CompiledDecodeStep`
   replays, one specialisation per power-of-two cache bucket).  Before
   timing, the greedy token streams of all four paths are asserted
   identical to the stream of the reference per-pass pwl pipeline in
   ``tests/oracles.py`` (uncached eager); the cached-compiled over
   uncached-eager speedup is the headline gated by
   ``--min-decode-speedup``.  The report's ``breakdown`` section splits
   the last step's batch-1 plan per op (``CompiledGraph.profile``: node
   count and microseconds per op), taken in the same run.
2. **Batched serving** — concurrent sessions decoding through
   :meth:`repro.serve.BatchingServer.submit_decode` (one batched compiled
   step per drain, at the largest cache bucket among its sessions, the
   smaller caches zero-padded) asserted token-identical to direct
   decode, with evidence the sessions actually shared steps.  Session
   ``i`` starts once session ``i - 1`` has taken ``STAGGER_STEPS`` steps,
   so the sessions sit at different positions and drains mix cache
   buckets; ``cross_bucket_drains`` counts the drains that did.

The report carries a SHA-256 of the reference token stream;
``check_bench_parity.py`` compares it exactly against the recorded
baseline, so decode-semantics drift fails the build even when the in-run
parity flags still pass.

Results are written to ``BENCH_decode.json`` at the repository root; CI
runs the smoke budget and gates through check_bench_parity.

Usage::

    PYTHONPATH=src python benchmarks/bench_decode.py
    PYTHONPATH=src python benchmarks/bench_decode.py \
        --smoke --output /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.baselines import uniform_pwl
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.training import prepare_quantized_model
from repro.nn.transformer import DecoderConfig, MiniDecoder, greedy_generate, step_inputs
from repro.serve import BatchingServer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import ReferencePWLSuite  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decode.json"

OPERATORS = ("exp", "gelu", "div", "rsqrt")

#: Steps a served session takes before the next one opens.
STAGGER_STEPS = 3


def build_model(config: DecoderConfig, suite_cls=PWLSuite) -> MiniDecoder:
    suite = suite_cls(
        approximations={op: uniform_pwl(get_function(op)).to_fixed_point(5) for op in OPERATORS},
        replace=set(OPERATORS),
    )
    model = MiniDecoder(config, suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


def _timed_decode(model, prompt, num_new, cache, engine, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one full greedy decode loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        greedy_generate(model, prompt, num_new, cache=cache, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def bench_decode(config: DecoderConfig, prompt, num_new: int,
                 repeats: int) -> Tuple[dict, dict]:
    """4-way stream parity against the oracle, then timing of the four paths;
    returns the report section and the batch-1 plan's per-op breakdown."""
    oracle = greedy_generate(
        build_model(config, ReferencePWLSuite), prompt, num_new, cache=False, engine="eager"
    )
    streams = {}
    for cache in (False, True):
        for engine in ("eager", "compiled"):
            model = build_model(config)
            streams[(cache, engine)] = greedy_generate(
                model, prompt, num_new, cache=cache, engine=engine
            )
    # ``model`` is left at the cached-compiled one, whose step plans are warm.
    reference = streams[(False, "eager")]
    identical = all(stream == oracle for stream in streams.values())
    if not identical:
        raise AssertionError("decode: token streams diverged from the oracle: %r" % streams)

    step = model.compiled_step()
    total = len(prompt) + num_new

    timings = {
        "uncached_eager": _timed_decode(model, prompt, num_new, False, "eager", repeats),
        "uncached_compiled": _timed_decode(model, prompt, num_new, False, "compiled", repeats),
        "cached_eager": _timed_decode(model, prompt, num_new, True, "eager", repeats),
        "cached_compiled": _timed_decode(model, prompt, num_new, True, "compiled", repeats),
    }
    checksum = hashlib.sha256(
        np.asarray(reference, dtype=np.int64).tobytes()
    ).hexdigest()
    breakdown = profile_decode_step(model, list(prompt) + reference[:-1], 200)
    return {
        "model": "MiniDecoder",
        "vocab_size": config.vocab_size,
        "max_seq": config.max_seq,
        "embed_dim": config.embed_dim,
        "depth": config.depth,
        "prompt_len": len(prompt),
        "new_tokens": num_new,
        "sequence_length": total,
        "trace_specializations": step.specializations,
        "uncached_eager_seconds": timings["uncached_eager"],
        "uncached_compiled_seconds": timings["uncached_compiled"],
        "cached_eager_seconds": timings["cached_eager"],
        "cached_compiled_seconds": timings["cached_compiled"],
        "cached_compiled_ms_per_token": 1e3 * timings["cached_compiled"] / num_new,
        "speedup": timings["uncached_eager"] / timings["cached_compiled"],
        "cached_speedup_eager": timings["uncached_eager"] / timings["cached_eager"],
        "compiled_step_speedup": timings["cached_eager"] / timings["cached_compiled"],
        "identical_streams": True,
        "tokens_sha256": checksum,
    }, breakdown


def profile_decode_step(model, tokens, repeats: int) -> dict:
    """Per-op split of the batch-1 plan that decodes the last of ``tokens``.

    Decodes ``tokens`` through the model's compiled step to fill a real KV
    cache, then replays the last step's plan ``repeats`` times under
    :meth:`CompiledGraph.profile` (one timer pair per node, so the op
    times sum to more than a plain ``run``).
    """
    step = model.compiled_step()
    kv = model.new_cache(batch=1)
    for position, token in enumerate(tokens[:-1]):
        capacity = kv.ensure(position + 1)
        inputs = step_inputs(model, [token], [position], capacity)
        kv.update(step.step(*inputs, kv.arrays())[1])
    position = len(tokens) - 1
    capacity = kv.ensure(position + 1)
    arrays = [np.asarray(array, dtype=np.float64) for array in
              (*step_inputs(model, [tokens[-1]], [position], capacity), *kv.arrays())]
    plan = step.graph_for(*arrays)
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        plan.run(*arrays)
        runs.append(time.perf_counter() - start)
    _, ops = plan.profile(*arrays, repeats=repeats)
    return {
        "batch": 1,
        "capacity": capacity,
        "nodes": plan.num_steps,
        "run_us": 1e6 * float(np.median(runs)),
        "profiled_us": 1e6 * sum(row["seconds"] for row in ops.values()),
        "ops": {
            name: {"count": row["count"], "us": 1e6 * row["seconds"]}
            for name, row in sorted(ops.items(), key=lambda item: -item[1]["seconds"])
        },
    }


class _DrainCountingServer(BatchingServer):
    """Counts the decode drains whose sessions sit in more than one cache
    bucket (each such step zero-pads the smaller caches)."""

    cross_bucket_drains = 0

    def _decode_group(self, group) -> None:
        if len({request.session.cache.capacity for request in group}) > 1:
            self.cross_bucket_drains += 1
        super()._decode_group(group)


def bench_serving_decode(config: DecoderConfig, num_sessions: int,
                         num_new: int, max_batch: int) -> dict:
    """Staggered concurrent batched serving vs direct per-session decode."""
    rng = np.random.default_rng(11)
    prompts = [
        [int(t) for t in rng.integers(0, config.vocab_size, size=length)]
        for length in rng.integers(2, 9, size=num_sessions)
    ]

    direct_model = build_model(config)
    direct_model.calibrate(prompts[0])
    direct = [
        greedy_generate(direct_model, prompt, num_new, cache=True, engine="eager")
        for prompt in prompts
    ]

    served_model = build_model(config)
    served_model.calibrate(prompts[0])
    with _DrainCountingServer(served_model, max_batch=max_batch, max_wait_ms=2.0,
                              decode_engine="compiled") as server:
        results = [None] * num_sessions
        opened = [threading.Event() for _ in range(num_sessions + 1)]
        opened[0].set()

        def run(index: int) -> None:
            opened[index].wait()
            try:
                session = server.open_session(prompts[index])
                for step in range(len(prompts[index]) + num_new - 1):
                    if step == STAGGER_STEPS:
                        opened[index + 1].set()
                    server.submit_decode(session).result(600)
                results[index] = session.generated
            finally:
                opened[index + 1].set()

        start = time.perf_counter()
        threads = [threading.Thread(target=run, args=(i,)) for i in range(num_sessions)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served_seconds = time.perf_counter() - start
        stats = server.stats()

    identical = results == direct
    if not identical:
        raise AssertionError("served decode streams diverged from direct decode")
    batched = stats.decode_steps > stats.decode_batches
    if not batched:
        raise AssertionError(
            "no decode batching occurred (%d steps in %d batches)"
            % (stats.decode_steps, stats.decode_batches)
        )
    return {
        "sessions": num_sessions,
        "new_tokens_per_session": num_new,
        "max_batch": max_batch,
        "decode_steps": stats.decode_steps,
        "decode_batches": stats.decode_batches,
        "mean_group_size": stats.decode_steps / stats.decode_batches,
        "cross_bucket_drains": server.cross_bucket_drains,
        "served_seconds": served_seconds,
        "tokens_per_second": num_sessions * num_new / served_seconds,
        "identical_results": True,
        "batched": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget: shorter sequence, fewer sessions, 3x gate",
    )
    parser.add_argument(
        "--min-decode-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if cached-compiled decode is not at least this "
        "many times faster than uncached eager decode (default 5.0 for full "
        "runs, 3.0 with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        config = DecoderConfig(vocab_size=32, max_seq=48, embed_dim=48,
                               depth=2, num_heads=2, seed=3)
        prompt_len, num_new = 4, 28       # sequence length 32
        num_sessions, serve_new, max_batch = 4, 10, 8
        min_speedup = 3.0 if args.min_decode_speedup is None else args.min_decode_speedup
    else:
        config = DecoderConfig(vocab_size=32, max_seq=192, embed_dim=64,
                               depth=2, num_heads=2, seed=3)
        prompt_len, num_new = 8, 152      # sequence length 160 (floor is 128)
        num_sessions, serve_new, max_batch = 6, 24, 8
        # The O(T^2) -> O(T) cache win plus the compiled single-token plan
        # land well above 5x by T=160 at this width; 5.0 gates regressions
        # without flaking on scheduler noise.
        min_speedup = 5.0 if args.min_decode_speedup is None else args.min_decode_speedup

    prompt = [(3 * index + 1) % config.vocab_size for index in range(prompt_len)]

    report = {
        "benchmark": "decode",
        "config": {
            "vocab_size": config.vocab_size,
            "max_seq": config.max_seq,
            "embed_dim": config.embed_dim,
            "depth": config.depth,
            "prompt_len": prompt_len,
            "new_tokens": num_new,
            "repeats": args.repeats,
            "sessions": num_sessions,
            "smoke": bool(args.smoke),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }

    failures = []
    decode, breakdown = bench_decode(config, prompt, num_new, args.repeats)
    report["decode"] = decode
    report["breakdown"] = breakdown
    print(
        "decode T=%-4d uncached-eager %7.2fs   cached-eager %6.2fs   "
        "cached-compiled %6.2fs   speedup %5.2fx   (%d bucket plans)"
        % (
            decode["sequence_length"],
            decode["uncached_eager_seconds"],
            decode["cached_eager_seconds"],
            decode["cached_compiled_seconds"],
            decode["speedup"],
            decode["trace_specializations"],
        )
    )
    print("batch-1 plan (capacity %d, %d nodes): run %.1f us, per-op profile "
          "%.1f us" % (breakdown["capacity"], breakdown["nodes"],
                       breakdown["run_us"], breakdown["profiled_us"]))
    for name, row in breakdown["ops"].items():
        print("  %-20s %4d nodes %8.1f us" % (name, row["count"], row["us"]))
    if decode["speedup"] < min_speedup:
        failures.append(
            "cached compiled decode speedup %.2fx below required %.2fx"
            % (decode["speedup"], min_speedup)
        )

    serving = bench_serving_decode(config, num_sessions, serve_new, max_batch)
    report["serving_decode"] = serving
    print(
        "serving (%d sessions x %d tokens)  %6.1f tok/s   "
        "%d steps in %d batches (mean group %.1f, %d across buckets)"
        % (
            serving["sessions"],
            serving["new_tokens_per_session"],
            serving["tokens_per_second"],
            serving["decode_steps"],
            serving["decode_batches"],
            serving["mean_group_size"],
            serving["cross_bucket_drains"],
        )
    )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)

    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
