"""Repository benchmark: one command per workload, metrics on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 12 --trace 0

``--workload`` is one of ``lut_search``, ``segment_serve``, ``decode`` and
``finetune`` (see ``perfbench/README.md``).  Inputs are generated from
``--seed``; each workload measures for about ``--seconds`` seconds.

Standard output ends with two JSON lines:

* the workload report: every named end-to-end metric of the workload with
  its unit and sample count, plus the set-up times, all wall-clock, and the
  host-speed entries (``host_factor``, ``host_parts``, ``host_normalized``);
* the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
  ``--trace 0`` ``metrics`` holds the end-to-end metrics listed in
  ``BENCHMARK.json``, the timings among them host-normalized where
  ``host_normalized`` says so (see ``hostspeed.py``); with ``--trace 1`` it
  holds the per-layer metrics, measured by wrapping each layer's public
  entry points, and the spans are written to ``perfbench/out/``.

Any failed operation or reference mismatch makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_environment() -> None:
    """Fix the thread count and the allocator before numpy is imported.

    One BLAS thread: with the client thread and the server's drain thread
    the load stays at two busy threads, the core count of the reference
    machine.

    By default glibc adapts its mmap threshold as large arrays are freed and
    trims the heap whenever enough of its top is free, so whether an array
    reuses heap pages or is faulted in afresh depends on the interleaving of
    the two threads' frees.  On a 2-core x86 machine that flipped the
    16-client serving throughput between about 700 and 1450 images/s from
    run to run.  A fixed 32 MiB mmap threshold (the adaptive maximum) and no
    trimming give every run the adaptive steady state.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to pin
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 1 << 30)


def declared_metrics(kind: str) -> dict:
    """``{name: unit}`` for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the pinned environment and the source tree
    from hostspeed import HostProbe
    from tracing import LAYER_ORDER, Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    probe = HostProbe(workloads.REFERENCE_PARTS[args.workload])
    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_lut_tracing(tracer)
        workloads.install_model_tracing(tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, workloads.SIZES[args.size], probe, tracer, workdir)
    finally:
        if tracer is not None:
            tracer.restore()

    # ``setup_s`` and the compute-bound gated timings are host-normalized
    # (see ``hostspeed``); the report line keeps their wall-clock values.
    end_to_end = {
        "setup_s": statistics.median(outcome.setup_normalized),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - outcome.failed / outcome.attempted,
        "throughput_per_s": outcome.throughput_per_s,
        "unit_p50_ms": outcome.unit_p50_ms,
    }
    report = dict(outcome.report)
    report["setup_s"] = workloads.entry(
        statistics.median(outcome.setup_seconds), "s", len(outcome.setup_seconds))
    report["wall_throughput_per_s"] = workloads.entry(outcome.wall_throughput_per_s, "1/s", 1)
    report["wall_unit_p50_ms"] = workloads.entry(outcome.wall_unit_p50_ms, "ms", 1)
    report["host_factor"] = workloads.entry(probe.factor(), "ratio", len(probe.slowdowns))
    report["host_parts"] = list(probe.parts)
    report["host_normalized"] = ["setup_s"] + list(outcome.normalized)
    report["peak_rss_mb"] = workloads.entry(end_to_end["peak_rss_mb"], "MB", 1)
    report["error_rate"] = workloads.entry(
        outcome.failed / outcome.attempted, "ratio", outcome.attempted)

    if tracer is None:
        values = end_to_end
        units = declared_metrics("end_to_end")
    else:
        units = declared_metrics("per_layer")
        start, end = outcome.window
        values = dict.fromkeys(units, 0.0)
        values.update(outcome.layers)
        for layer, seconds in tracer.self_times(start, end).items():
            values["%s.self_share" % layer] = seconds / (end - start)
        values["traced.throughput_per_s"] = end_to_end["throughput_per_s"]
        values["traced.unit_p50_ms"] = end_to_end["unit_p50_ms"]
        unknown = set(values) - set(units)
        if unknown:
            raise RuntimeError("undeclared per-layer metrics: %s" % sorted(unknown))
        tracer.write(
            str(workdir / ("trace-%s-%d.json" % (args.workload, args.seed))),
            {"workload": args.workload, "seed": args.seed, "window": [start, end],
             "layers": list(LAYER_ORDER)},
        )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": report,
                      "setup_seconds": outcome.setup_seconds,
                      "failures": outcome.failures}))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
