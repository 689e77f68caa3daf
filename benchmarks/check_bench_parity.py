"""Guard a fresh benchmark report against a recorded BENCH_*.json baseline.

Used after refactors that touch the hot paths (e.g. the op-registry /
backend-dispatch rework): rerun the benchmark, then assert

1. **exact parity** of every deterministic outcome the report carries —
   engine bit-identity flags, seeded GA work counters (`evaluations`,
   `fitness_calls`, `cache_hits`), `best_fitness`, fine-tune `steps` and
   `val_miou`.  These are timing-independent; any drift means the refactor
   changed semantics, not just speed.
2. **within-noise timing parity** — the fresh fast-path timings
   (`dense_seconds` / `batch_seconds`) may not exceed the baseline by more
   than ``--tolerance`` (default 1.5x, generous because the container is
   shared).  Catches dispatch overhead regressions without flaking on
   scheduler noise.

Sections neither list names — the per-op ``breakdown`` of
``bench_decode.py`` and ``bench_finetune_throughput.py`` among them — are
not compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_ga_throughput.py --output /tmp/ga.json
    python benchmarks/check_bench_parity.py \
        --baseline BENCH_ga_throughput.json --fresh /tmp/ga.json

Exits non-zero with a per-check report on any violation.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

# (section, key) pairs that must be exactly equal between baseline and
# fresh report when present in both: seeded, timing-independent outcomes.
EXACT_KEYS = (
    ("search", "identical_results"),
    ("search", "evaluations"),
    ("search", "fitness_calls"),
    ("search", "cache_hits"),
    ("search", "best_fitness"),
    ("operator", "identical_results"),
    ("pwl_step", "identical_results"),
    ("model_finetune", "identical_losses"),
    ("model_finetune", "steps"),
    ("model_finetune", "val_miou"),
    # Compiled-training benchmark section: the traced whole-step replay
    # must stay bit-identical to the eager loop (losses, final weights,
    # and the downstream validation mIoU) over the same step count.
    ("compiled_train", "identical_losses"),
    ("compiled_train", "identical_weights"),
    ("compiled_train", "steps"),
    ("compiled_train", "val_miou"),
    # Compiled-inference benchmark: the 4-way eager/compiled x dense/legacy
    # parity flags, the seeded prediction checksums (drift between the
    # traced executor and the eager forward changes the hash even when the
    # in-run flags pass vacuously), and the serving response parity.
    ("segformer_predict", "identical_results"),
    ("segformer_predict", "predictions_sha256"),
    ("efficientvit_predict", "identical_results"),
    ("efficientvit_predict", "predictions_sha256"),
    # ... and the structure of the plans they replay: a change to tracing
    # or to a rewrite pass moves these counts, so the recorded baseline
    # keeps describing the plans it pins.
    ("segformer_predict", "traced_nodes"),
    ("segformer_predict", "optimized_nodes"),
    ("segformer_predict", "fused_lookups"),
    ("segformer_predict", "buffer_slots"),
    ("efficientvit_predict", "traced_nodes"),
    ("efficientvit_predict", "optimized_nodes"),
    ("efficientvit_predict", "fused_lookups"),
    ("efficientvit_predict", "buffer_slots"),
    ("serving", "identical_results"),
    # Serving benchmark (bench_serving.py): bit-parity at low rate and
    # under injected-fault eager degradation, and the admission queue
    # staying bounded under an overload burst.
    ("load", "identical_results"),
    ("degradation", "identical_results"),
    ("shedding", "bounded"),
    # Replicated-serving benchmark (bench_replicated_serving.py): the
    # chaos SLOs are all-or-nothing semantics — no request dropped or
    # corrupted across a replica SIGKILL, and a rolling hot-swap that
    # serves old-or-new (never mixed) and lands fully on the new weights.
    ("kill", "zero_dropped"),
    ("kill", "identical_results"),
    ("swap", "zero_dropped"),
    ("swap", "no_mixed_responses"),
    ("swap", "identical_after_swap"),
    # Sweep-resilience benchmark (bench_sweep_resilience.py): a SIGKILLed
    # durable sweep resumes with zero completed cells rebuilt and
    # bit-identical artifacts, and a scrub pass detects an injected
    # bit-flip, heals it on the next access, and leaves the store clean.
    ("kill_resume", "zero_rebuilds"),
    ("kill_resume", "identical_results"),
    ("scrub", "detected"),
    ("scrub", "healed"),
    ("scrub", "post_heal_corrupt"),
    # Decode benchmark (bench_decode.py): the 8-way cached/uncached x
    # eager/compiled x dense/legacy greedy-stream parity, the SHA-256 of
    # the reference token stream (semantics drift changes the hash even
    # when the in-run flags pass), the power-of-two bucket specialization
    # count, and the served-vs-direct decode parity.  decode_steps is a
    # seeded work counter (sessions x steps); decode_batches is
    # scheduling-dependent and deliberately not pinned.
    ("decode", "identical_streams"),
    ("decode", "tokens_sha256"),
    ("decode", "trace_specializations"),
    ("serving_decode", "identical_results"),
    ("serving_decode", "batched"),
    ("serving_decode", "decode_steps"),
)

# (section, key) fast-path timings gated by the noise tolerance.
TIMING_KEYS = (
    ("search", "batch_seconds"),
    ("fitness", "batch_seconds"),
    ("operator", "dense_seconds"),
    ("pwl_step", "dense_seconds"),
    ("model_finetune", "dense_seconds"),
    ("compiled_train", "compiled_seconds"),
    ("segformer_predict", "compiled_seconds"),
    ("efficientvit_predict", "compiled_seconds"),
    # Uncontended serving latency (bench_serving.py's lowest load level).
    ("latency", "p50_seconds"),
    ("latency", "p99_seconds"),
    # Client-observed p99 across the chaos incidents
    # (bench_replicated_serving.py); throughput-vs-replicas is recorded
    # but never gated — the container is frequently single-core.
    ("kill", "p99_seconds"),
    ("swap", "p99_seconds"),
    # Journal replay + finish time for the resumed sweep
    # (bench_sweep_resilience.py); the kill phase itself is not gated.
    ("kill_resume", "resume_seconds"),
    # Cached compiled decode loop (bench_decode.py) — the headline path;
    # uncached baselines are recorded but not gated.
    ("decode", "cached_compiled_seconds"),
)


def _lookup(report: dict, section: str, key: str):
    value = report.get(section)
    if not isinstance(value, dict):
        return None
    return value.get(key)


def compare(baseline: dict, fresh: dict, tolerance: float):
    """Yield (ok, message) for every applicable check.

    A key present in exactly one of the two reports is itself a failure:
    the reports' shapes diverged (renamed section, dropped metric), which
    would otherwise let the guard pass vacuously.  Keys absent from both
    are fine — EXACT_KEYS/TIMING_KEYS span every benchmark this guard
    understands, and each report only carries its own sections.
    """
    for section, key in EXACT_KEYS:
        base = _lookup(baseline, section, key)
        new = _lookup(fresh, section, key)
        if base is None and new is None:
            continue
        if base is None or new is None:
            yield False, "%s.%s: present in only one report (baseline=%r fresh=%r)" % (
                section, key, base, new
            )
            continue
        ok = base == new
        yield ok, "%s.%s: baseline=%r fresh=%r%s" % (
            section, key, base, new, "" if ok else "  <-- DIVERGED"
        )
    for section, key in TIMING_KEYS:
        base = _lookup(baseline, section, key)
        new = _lookup(fresh, section, key)
        if base is None and new is None:
            continue
        if base is None or new is None:
            yield False, "%s.%s: present in only one report (baseline=%r fresh=%r)" % (
                section, key, base, new
            )
            continue
        ok = new <= base * tolerance
        yield ok, "%s.%s: baseline=%.4fs fresh=%.4fs (x%.2f, limit x%.2f)%s" % (
            section, key, base, new, new / base, tolerance,
            "" if ok else "  <-- REGRESSED"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="max allowed fresh/baseline ratio on fast-path timings",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    if baseline.get("benchmark") != fresh.get("benchmark"):
        print("FAIL: comparing different benchmarks: %r vs %r"
              % (baseline.get("benchmark"), fresh.get("benchmark")))
        return 1

    failures = 0
    executed = 0
    for ok, message in compare(baseline, fresh, args.tolerance):
        print(("ok   " if ok else "FAIL ") + message)
        executed += 1
        failures += 0 if ok else 1
    if executed == 0:
        # An unknown benchmark shape must not pass silently.
        print("FAIL: no known parity keys found in %r — nothing was checked"
              % baseline.get("benchmark"))
        return 1
    if failures:
        print("%d of %d parity check(s) failed" % (failures, executed))
        return 1
    print("parity holds (%s, %d checks)" % (baseline.get("benchmark"), executed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
