"""GA fitness-engine throughput benchmark (batched vs. legacy scoring).

Measures two things for the genetic breakpoint search:

1. **Fitness throughput** — evaluations/second of the population-batched
   :meth:`GridMSEFitness.batch_call` versus the scalar per-individual
   ``__call__`` loop, on identical populations (scores are asserted to be
   bit-identical).
2. **End-to-end search time** — a full seeded ``GQALUT.search`` under
   ``engine="batch"`` (dedup + cross-generation score cache + batched
   fitness) versus ``engine="legacy"`` (one fitness call per individual).
   Both engines share the same generation loop (rows held as Python float
   lists, vectorized random draws, list slice swaps) and random stream,
   so the searched breakpoints are asserted to be bit-identical; the timing
   difference is purely the scoring path.  The seeded work counters
   (``evaluations``, ``fitness_calls``, ``cache_hits``) and ``best_fitness``
   are exact; ``check_bench_parity.py`` holds them against the recorded
   ``BENCH_ga_throughput.json``.

Defaults follow Table 1 (GELU, 8-entry LUT, population 50, 500
generations).  Results are written to ``BENCH_ga_throughput.json`` at the
repository root so the performance trajectory is tracked across PRs; CI
runs a reduced-budget smoke pass (see ``--generations``/``--repeats``),
then a full-budget ``--repeats 1`` pass checked against the recorded file.

Usage::

    PYTHONPATH=src python benchmarks/bench_ga_throughput.py
    PYTHONPATH=src python benchmarks/bench_ga_throughput.py \
        --generations 25 --repeats 2 --output /tmp/smoke.json
    PYTHONPATH=src python benchmarks/bench_ga_throughput.py \
        --repeats 1 --output /tmp/full.json
    python benchmarks/check_bench_parity.py \
        --baseline BENCH_ga_throughput.json --fresh /tmp/full.json --tolerance 8.0
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.fitness import GridMSEFitness
from repro.core.search import GQALUT
from repro.functions.registry import get_function

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ga_throughput.json"


def bench_fitness_throughput(
    operator: str, population_size: int, num_breakpoints: int, repeats: int, seed: int
) -> dict:
    """Evaluations/second of batched vs. scalar fitness on one population."""
    fn = get_function(operator)
    fitness = GridMSEFitness(fn, grid_step=0.01, frac_bits=5)
    rng = np.random.default_rng(seed)
    population = np.sort(
        rng.uniform(*fn.search_range, size=(population_size, num_breakpoints)), axis=1
    )

    batch_scores = fitness.batch_call(population)
    scalar_scores = np.array([fitness(row) for row in population])
    if not np.array_equal(batch_scores, scalar_scores):
        raise AssertionError("batched fitness diverged from the scalar path")

    def timed(fn_call) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn_call()
            best = min(best, time.perf_counter() - start)
        return best

    t_scalar = timed(lambda: [fitness(row) for row in population])
    t_batch = timed(lambda: fitness.batch_call(population))
    return {
        "population_size": population_size,
        "scalar_evals_per_sec": population_size / t_scalar,
        "batch_evals_per_sec": population_size / t_batch,
        "scalar_seconds": t_scalar,
        "batch_seconds": t_batch,
        "speedup": t_scalar / t_batch,
    }


def bench_search(
    operator: str,
    num_entries: int,
    generations: int,
    population_size: int,
    seed: int,
) -> dict:
    """End-to-end seeded search time, batch engine vs. legacy engine."""
    timings = {}
    outcomes = {}
    for engine in ("legacy", "batch"):
        searcher = GQALUT.for_operator(operator, num_entries=num_entries)
        start = time.perf_counter()
        outcomes[engine] = searcher.search(
            generations=generations,
            population_size=population_size,
            seed=seed,
            engine=engine,
        )
        timings[engine] = time.perf_counter() - start

    legacy, batch = outcomes["legacy"].ga_result, outcomes["batch"].ga_result
    identical = bool(
        np.array_equal(legacy.best_breakpoints, batch.best_breakpoints)
        and legacy.best_fitness == batch.best_fitness
    )
    if not identical:
        raise AssertionError("batch and legacy engines returned different results")
    return {
        "operator": operator,
        "num_entries": num_entries,
        "generations": generations,
        "population_size": population_size,
        "seed": seed,
        "legacy_seconds": timings["legacy"],
        "batch_seconds": timings["batch"],
        "speedup": timings["legacy"] / timings["batch"],
        "identical_results": identical,
        "evaluations": batch.evaluations,
        "fitness_calls": batch.fitness_calls,
        "cache_hits": batch.cache_hits,
        "best_fitness": batch.best_fitness,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--operator", default="gelu")
    parser.add_argument("--entries", type=int, default=8)
    parser.add_argument("--generations", type=int, default=500)
    parser.add_argument("--population", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--min-search-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) if the end-to-end speedup falls below this factor",
    )
    args = parser.parse_args(argv)

    fitness_stats = bench_fitness_throughput(
        args.operator, args.population, args.entries - 1, args.repeats, args.seed
    )
    search_stats = bench_search(
        args.operator, args.entries, args.generations, args.population, args.seed
    )

    report = {
        "benchmark": "ga_throughput",
        "config": {
            "operator": args.operator,
            "num_entries": args.entries,
            "generations": args.generations,
            "population_size": args.population,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "fitness": fitness_stats,
        "search": search_stats,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print("fitness throughput (%s, pop %d):" % (args.operator, args.population))
    print(
        "  scalar %10.0f evals/s   batch %10.0f evals/s   speedup %5.1fx"
        % (
            fitness_stats["scalar_evals_per_sec"],
            fitness_stats["batch_evals_per_sec"],
            fitness_stats["speedup"],
        )
    )
    print(
        "end-to-end search (%s, %d entries, %d generations, pop %d):"
        % (args.operator, args.entries, args.generations, args.population)
    )
    print(
        "  legacy %6.2fs   batch %6.2fs   speedup %5.1fx   (results identical: %s)"
        % (
            search_stats["legacy_seconds"],
            search_stats["batch_seconds"],
            search_stats["speedup"],
            search_stats["identical_results"],
        )
    )
    print(
        "  %d logical evaluations -> %d fitness calls (%d cache hits)"
        % (
            search_stats["evaluations"],
            search_stats["fitness_calls"],
            search_stats["cache_hits"],
        )
    )
    print("wrote %s" % args.output)

    if search_stats["speedup"] < args.min_search_speedup:
        print(
            "FAIL: speedup %.1fx below required %.1fx"
            % (search_stats["speedup"], args.min_search_speedup)
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
