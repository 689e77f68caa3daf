"""Experiment-sweep engine benchmark (deduplicated parallel vs. sequential).

The paper's evaluation requests 64 approximation cells across Table 3,
Fig. 2, Fig. 3 and the Table 4/5 fine-tuning at the default experiment
configurations — but only 26 of them are distinct (the figures and the
fine-tuning re-use Table 3 cells, Fig. 2 repeats one of its own, and a
DIV/RSQRT ``gqa-rm`` cell runs its ``gqa-wo-rm`` twin's search because
Table 1 sets ``theta_r = 0`` there).  This benchmark measures the
orchestration layer introduced for that grid:

1. **Sequential baseline** — every experiment builds its own cells with the
   raw ``compute_approximation`` loop, exactly like the pre-engine runners:
   no sharing, 64 builds.
2. **Deduplicated parallel pass** — the union of all cells goes through one
   ``SweepEngine.run`` batch (duplicates collapse, the rest fan out over a
   process pool), then each experiment pulls its cells from the warm cache.
   Every cell is asserted bit-identical to the sequential baseline.
3. **Warm-cache rerun** — a fresh engine attached to the same on-disk
   artifact store answers the full union with zero GA / NN-LUT
   recomputation (asserted).

Results are written to ``BENCH_experiment_sweep.json`` at the repository
root so the performance trajectory is tracked across PRs; the default run
gates on a >= 2x wall-clock speedup (the dedup ratio alone guarantees it
even on a single core), and CI runs ``--smoke`` which checks every
correctness assertion at the quick budget without the speedup gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_experiment_sweep.py
    PYTHONPATH=src python benchmarks/bench_experiment_sweep.py \
        --smoke --output /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.experiments import ApproximationBudget, compute_approximation
from repro.experiments.artifacts import ArtifactCache, ArtifactStore
from repro.experiments.jobs import ApproximationJob, SweepEngine
from repro.experiments.run_all import all_experiment_jobs

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_experiment_sweep.json"


def select_budget(mode: str) -> ApproximationBudget:
    if mode == "paper":
        return ApproximationBudget.paper()
    if mode == "quick":
        return ApproximationBudget.quick()
    return ApproximationBudget(generations=150, population_size=50,
                               nn_lut_samples=20_000, nn_lut_iterations=2000, seed=0)


def bench_sequential(per_experiment: Dict[str, List[ApproximationJob]]) -> dict:
    """Per-experiment raw build loops: the pre-engine sequential baseline."""
    results: Dict[str, list] = {}
    timings: Dict[str, float] = {}
    start_all = time.perf_counter()
    for name, jobs in per_experiment.items():
        start = time.perf_counter()
        results[name] = [
            compute_approximation(job.operator, job.method, job.num_entries, job.budget)
            for job in jobs
        ]
        timings[name] = time.perf_counter() - start
    total = time.perf_counter() - start_all
    return {"seconds": total, "per_experiment_seconds": timings, "results": results}


def bench_parallel(
    per_experiment: Dict[str, List[ApproximationJob]],
    store_dir: Path,
    workers: int,
    run_dir: Optional[Path] = None,
) -> dict:
    """One deduplicated engine pass over the union, then per-experiment pulls.

    With ``run_dir`` the prefetch batch is journaled (durable, resumable);
    journaling never changes which cells build or what they produce, so
    the recorded numbers are comparable either way.
    """
    engine = SweepEngine(cache=ArtifactCache(store=ArtifactStore(store_dir)))
    union = [job for jobs in per_experiment.values() for job in jobs]

    start = time.perf_counter()
    engine.run(union, workers=workers, run_dir=run_dir)
    prefetch_seconds = time.perf_counter() - start
    prefetch = engine.last_run

    results: Dict[str, list] = {}
    start = time.perf_counter()
    for name, jobs in per_experiment.items():
        built = engine.run(jobs)
        results[name] = [built[job.key] for job in jobs]
    pull_seconds = time.perf_counter() - start

    return {
        "seconds": prefetch_seconds + pull_seconds,
        "prefetch_seconds": prefetch_seconds,
        "pull_seconds": pull_seconds,
        "workers": workers,
        "requested_cells": prefetch.requested,
        "unique_cells": prefetch.builds + prefetch.cache_hits,
        "cross_experiment_duplicates": prefetch.deduped,
        "builds": prefetch.builds,
        "pull_cache_hits": engine.stats.memory_hits,
        "results": results,
    }


def bench_warm(per_experiment: Dict[str, List[ApproximationJob]], store_dir: Path) -> dict:
    """A fresh engine over the same store must answer without recomputing."""
    engine = SweepEngine(cache=ArtifactCache(store=ArtifactStore(store_dir)))
    union = [job for jobs in per_experiment.values() for job in jobs]
    start = time.perf_counter()
    engine.run(union)
    seconds = time.perf_counter() - start
    stats = engine.last_run
    if stats.builds != 0:
        raise AssertionError(
            "warm-cache run recomputed %d cells (expected 0)" % stats.builds
        )
    return {
        "seconds": seconds,
        "builds": stats.builds,
        "disk_hits": stats.disk_hits,
        "deduped": stats.deduped,
    }


def check_identical(sequential: dict, parallel: dict) -> bool:
    """Every cell of every experiment must match the baseline bitwise."""
    for name, baseline in sequential["results"].items():
        engine_results = parallel["results"][name]
        if len(baseline) != len(engine_results):
            raise AssertionError("cell count mismatch for %s" % name)
        for index, (a, b) in enumerate(zip(baseline, engine_results)):
            if not (
                np.array_equal(a.breakpoints, b.breakpoints)
                and np.array_equal(a.slopes, b.slopes)
                and np.array_equal(a.intercepts, b.intercepts)
            ):
                raise AssertionError(
                    "engine result diverged from sequential path: %s[%d]" % (name, index)
                )
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", choices=("quick", "medium", "paper"), default="medium")
    parser.add_argument("--workers", type=int, default=None,
                        help="process count for the parallel pass (default: cpu count)")
    parser.add_argument("--artifact-dir", type=Path, default=None,
                        help="persistent artifact store (default: a throwaway temp dir)")
    parser.add_argument("--run-dir", type=Path, default=None,
                        help="journal the parallel pass into this durable run "
                             "directory (resumable; recorded numbers unchanged)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) below this sequential/parallel factor "
             "(default 2.0; disabled under --smoke)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="quick budget, no speedup gate (CI)")
    args = parser.parse_args(argv)

    if args.smoke:
        budget_mode = "quick"
        min_speedup = args.min_speedup if args.min_speedup is not None else 0.0
    else:
        budget_mode = args.budget
        min_speedup = args.min_speedup if args.min_speedup is not None else 2.0
    budget = select_budget(budget_mode)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)

    per_experiment = all_experiment_jobs(budget)
    requested = sum(len(jobs) for jobs in per_experiment.values())
    unique = len({job.key for jobs in per_experiment.values() for job in jobs})
    print("experiment grid: %d requested cells, %d unique" % (requested, unique))

    if args.artifact_dir is not None:
        store_dir, cleanup = args.artifact_dir, False
    else:
        store_dir, cleanup = Path(tempfile.mkdtemp(prefix="repro-artifacts-")), True

    try:
        sequential = bench_sequential(per_experiment)
        parallel = bench_parallel(per_experiment, store_dir, workers,
                                  run_dir=args.run_dir)
        identical = check_identical(sequential, parallel)
        warm = bench_warm(per_experiment, store_dir)
    finally:
        if cleanup:
            shutil.rmtree(store_dir, ignore_errors=True)

    speedup = sequential["seconds"] / parallel["seconds"]
    report = {
        "benchmark": "experiment_sweep",
        "config": {
            "budget": budget_mode,
            "generations": budget.generations,
            "nn_lut_iterations": budget.nn_lut_iterations,
            "workers": workers,
            "seed": budget.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "cells": {
            "requested": requested,
            "unique": unique,
            "cross_experiment_duplicates": requested - unique,
        },
        "sequential": {
            "seconds": sequential["seconds"],
            "per_experiment_seconds": sequential["per_experiment_seconds"],
        },
        "parallel": {key: value for key, value in parallel.items() if key != "results"},
        "warm": warm,
        "speedup": speedup,
        "identical_results": identical,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print("sequential per-experiment baseline: %6.2fs  (%d builds)"
          % (sequential["seconds"], requested))
    print("deduplicated parallel pass:         %6.2fs  (%d builds, %d duplicate cells "
          "answered from cache, %d workers)"
          % (parallel["seconds"], parallel["builds"],
             parallel["cross_experiment_duplicates"], workers))
    print("warm-cache rerun:                   %6.2fs  (%d builds, %d disk hits)"
          % (warm["seconds"], warm["builds"], warm["disk_hits"]))
    print("speedup %.2fx   (results identical: %s)" % (speedup, identical))
    print("wrote %s" % args.output)

    if speedup < min_speedup:
        print("FAIL: speedup %.2fx below required %.2fx" % (speedup, min_speedup))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
