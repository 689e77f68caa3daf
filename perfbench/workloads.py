"""The four benchmark workloads.

Each workload function takes the seed, the measuring time, a sizing table
and an optional :class:`~tracing.Tracer`, and returns an :class:`Outcome`:
set-up times, attempted/failed operation counts, the gated end-to-end
metrics, the workload's named report metrics, and (traced runs only) the
per-layer metrics.

Load comes from one process: the client side is a single thread that keeps
requests in flight through futures, so together with the server's drain
thread at most two threads run.  Every input is generated from the seed.
Reference checks run after the timed phases (comparisons against
references computed before timing are a constant-time array compare).
"""

from __future__ import annotations

import dataclasses
import math
import queue
import shutil
import tempfile
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.fitness import GridMSEFitness
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.core.search import GQALUT
from repro.data.synthetic_segmentation import (
    SyntheticSegmentationConfig,
    SyntheticSegmentationDataset,
)
from repro.experiments import protocol
from repro.experiments.artifacts import ArtifactCache, ArtifactStore
from repro.experiments.jobs import ApproximationJob, SweepEngine
from repro.experiments.methods import ApproximationBudget
from repro.experiments.queue import DurableQueue
from repro.functions.registry import get_function
from repro.graph.executor import CompiledDecodeStep, CompiledModel, CompiledTrainStep
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model
from repro.nn import transformer
from repro.nn.transformer import DecoderConfig, MiniDecoder, bucket_capacity, encode_tokens
from repro.nn.tensor import Tensor, no_grad
from repro.serve import BatchingServer

from hostspeed import ARRAY_PARTS, DISPATCH_PARTS, HostProbe, slowdown
from tracing import Tracer, union_seconds

# Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
# Host-speed samples taken before and after each set-up, and at each
# boundary of a phase slice that is normalized as a whole.
SETUP_PROBES = SLICE_PROBES = 3
# A closed loop with many clients never idles, so it runs in bursts of this
# length with a host-speed sample between them.
BURST_SECONDS = 0.25
# Workloads with two timed phases alternate them in this many slices each,
# so both phases sample the whole run and not one half of it.
PHASE_SLICES = 8

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "lut_operators": ("gelu", "hswish", "exp", "div", "rsqrt"),
        "lut_entries": (8, 16),
        "lut_generations": 500,
        "lut_population": 50,
        "seg_pool": 32,
        "seg_clients": 16,
        "dec_prompts": 256,
        "dec_prompt_len": (4, 32),
        "dec_new": 32,
        "dec_live": 8,
        "dec_uncached_checks": 3,
        "dec_min_direct": 16,
        "ft_train": 64,
        "ft_val": 32,
        "ft_epochs": 2,
        "ft_batch": 8,
    },
    "tiny": {
        "lut_operators": ("gelu", "div"),
        "lut_entries": (8,),
        "lut_generations": 10,
        "lut_population": 12,
        "seg_pool": 4,
        "seg_clients": 4,
        "dec_prompts": 16,
        "dec_prompt_len": (2, 6),
        "dec_new": 4,
        "dec_live": 4,
        "dec_uncached_checks": 1,
        "dec_min_direct": 4,
        "ft_train": 16,
        "ft_val": 8,
        "ft_epochs": 1,
        "ft_batch": 8,
    },
}

GQA_METHODS = ("gqa-rm", "gqa-wo-rm")
SEGMENT_OPERATORS = ("exp", "gelu", "div", "rsqrt")
FINETUNE_OPERATORS = ("hswish", "div")


@dataclasses.dataclass
class Outcome:
    """Everything one workload run measured."""

    setup_seconds: List[float]
    attempted: int
    failures: Dict[str, int]
    # The gated timings.  ``setup_s`` and the compute-bound ones are
    # host-normalized (see ``hostspeed``) and named in ``normalized``; the
    # ``wall_`` fields keep the wall-clock values.
    setup_normalized: List[float]
    throughput_per_s: float
    unit_p50_ms: float
    normalized: tuple
    wall_throughput_per_s: float
    wall_unit_p50_ms: float
    report: Dict[str, Dict[str, Any]]
    window: tuple  # (start, end) of the measured region
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def tail(values: Sequence[float]) -> tuple:
    """``(percentile, value)``: the highest of p99.9/p99/p90/p50 that has at
    least ten samples beyond it (p50 when there are too few samples)."""
    count = len(values)
    for pct in (99.9, 99.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50.0, median(values)


def within(spans: Sequence[tuple], windows: Sequence[tuple]) -> List[tuple]:
    """The spans that lie inside one of the ``(start, end)`` windows."""
    return [s for s in spans if any(b <= s[2] and s[3] <= e for b, e in windows)]


def entry(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def geometric_mean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def timed_setups(build: Callable[[], Any], probe: HostProbe) -> tuple:
    """Run ``build`` SETUP_REPEATS times, sampling the host's speed before
    and after each; returns (wall durations, normalized durations, results)."""
    spans, results = [], []
    slowdown(probe.parts)  # warms the probe's own code paths
    probe.sample(SETUP_PROBES)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        results.append(build())
        spans.append((start, time.perf_counter()))
        probe.sample(SETUP_PROBES)
    return ([end - start for start, end in spans],
            [probe.normalized(start, end, SETUP_PROBES) for start, end in spans],
            results)


def uniform_fxp(operator: str, entries: int = 8, frac_bits: int = 5):
    """An ``entries``-entry FXP table on uniform breakpoints.

    Lookup cost does not depend on where the breakpoints sit, so the model
    workloads skip the GA search.
    """
    fn = get_function(operator)
    pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, entries), fn.search_range)
    return pwl.to_fixed_point(frac_bits)


def pwl_suite(operators: Sequence[str]) -> PWLSuite:
    return PWLSuite(
        approximations={op: uniform_fxp(op) for op in operators},
        replace=set(operators),
        engine="dense",
    )


# -- lut_search -----------------------------------------------------------------


def lut_search(seed: int, seconds: float, size: Dict[str, Any], probe: HostProbe,
               tracer: Optional[Tracer], workdir: Path) -> Outcome:
    """The Table 3 grid through ``SweepEngine.run_manifest``, one cell at a
    time into a fresh durable run directory and artifact store per round,
    each cell scored with ``protocol.average_mse`` at INT8 once built."""
    budget = ApproximationBudget(
        generations=size["lut_generations"],
        population_size=size["lut_population"],
        seed=seed,
    )
    jobs = [
        ApproximationJob(operator=operator, method=method, num_entries=entries,
                         budget=budget)
        for operator in size["lut_operators"]
        for method in GQA_METHODS
        for entries in size["lut_entries"]
    ]

    def fresh_engine() -> tuple:
        run_dir = Path(tempfile.mkdtemp(prefix="lut-", dir=str(workdir)))
        store = ArtifactStore(run_dir / "store")
        engine = SweepEngine(cache=ArtifactCache(store), workers=0,
                             run_dir=run_dir / "journal")
        return run_dir, engine

    def setup() -> None:
        # Engine, journal and store creation plus a short warm-up search per
        # operator (fitness grids, mutation tables, numpy code paths).
        run_dir, engine = fresh_engine()
        warm_budget = ApproximationBudget(generations=20, population_size=20, seed=seed)
        engine.run_manifest([
            ApproximationJob(operator=operator, method=GQA_METHODS[0],
                             num_entries=size["lut_entries"][0], budget=warm_budget)
            for operator in size["lut_operators"]
        ]).require()
        engine.close()
        shutil.rmtree(run_dir)

    setup_seconds, setup_normalized, _ = timed_setups(setup, probe)

    if tracer is not None:
        tracer.notes["lut_counters"].update(dict.fromkeys(tracer.notes["lut_counters"], 0))
    cell_spans: List[tuple] = []
    round_mse: List[List[float]] = []
    failures: Counter = Counter()
    attempted = 0
    start = time.perf_counter()
    round_seconds = 0.0
    # Whole rounds only; stop at the round count that ends nearest ``seconds``.
    while not round_mse or time.perf_counter() - start + round_seconds / 2 < seconds:
        round_start = time.perf_counter()
        run_dir, engine = fresh_engine()
        mses = []
        for job in jobs:
            probe.sample()
            attempted += 1
            began = time.perf_counter()
            manifest = engine.run_manifest([job])
            pwl = manifest.results.get(job.key)
            mse = protocol.average_mse(job.operator, pwl, bits=8) if pwl is not None else None
            cell_spans.append((began, time.perf_counter()))
            if pwl is None or manifest.failures or job.key in engine.quarantine:
                failures["cell_failed"] += 1
            mses.append(mse)
        engine.close()
        shutil.rmtree(run_dir)
        round_mse.append(mses)
        round_seconds = time.perf_counter() - round_start
    probe.sample()
    end = time.perf_counter()

    # Reference checks: every cell present, none quarantined (counted
    # above), and every round reproduces the first bit for bit.
    reference = round_mse[0]
    for mses in round_mse[1:]:
        if mses != reference:
            failures["round_mismatch"] += sum(1 for a, b in zip(mses, reference) if a != b)
    finite = [m for m in reference if m is not None and m > 0 and math.isfinite(m)]
    if len(finite) != len(reference):
        failures["mse_not_finite"] += len(reference) - len(finite)

    cell_seconds = [e - b for b, e in cell_spans]
    cell_normalized = [probe.normalized(b, e) for b, e in cell_spans]

    def round_ms_per_cell(seconds: List[float]) -> float:
        """Median over rounds of the mean ms per cell."""
        return median([1e3 * sum(seconds[i:i + len(jobs)]) / len(jobs)
                       for i in range(0, len(seconds), len(jobs))])

    cells_per_s = len(cell_seconds) / sum(cell_seconds)
    report = {
        "cells_per_s": entry(cells_per_s, "1/s", len(cell_seconds)),
        "lut_mse": entry(geometric_mean(finite) if finite else float("nan"),
                         "mse", len(finite)),
        "cell_p50_ms": entry(1e3 * median(cell_seconds), "ms", len(cell_seconds)),
        "round_ms_per_cell_p50": entry(round_ms_per_cell(cell_seconds), "ms", len(round_mse)),
    }
    pct, value = tail(cell_seconds)
    report["cell_p%g_ms" % pct] = entry(1e3 * value, "ms", len(cell_seconds))
    outcome = Outcome(
        setup_seconds=setup_seconds, attempted=attempted, failures=+failures,
        setup_normalized=setup_normalized,
        throughput_per_s=len(cell_normalized) / sum(cell_normalized),
        unit_p50_ms=round_ms_per_cell(cell_normalized),
        normalized=("throughput_per_s", "unit_p50_ms"),
        wall_throughput_per_s=cells_per_s,
        wall_unit_p50_ms=round_ms_per_cell(cell_seconds),
        report=report, window=(start, end),
    )
    if tracer is not None:
        outcome.layers = lut_layers(tracer, start, end, len(cell_seconds))
    return outcome


def install_lut_tracing(tracer: Tracer) -> None:
    """Spans around the sweep, journal, store, protocol and GA entry points."""
    counters = dict.fromkeys(("searches", "fitness_calls", "evaluations", "cache_hits"), 0)
    tracer.wrap(SweepEngine, "run_manifest", "experiments.sweep")
    tracer.wrap(DurableQueue, "enqueue", "experiments.journal")
    tracer.wrap(DurableQueue, "lease", "experiments.journal")
    tracer.wrap(DurableQueue, "complete", "experiments.journal")
    tracer.wrap(ArtifactStore, "save", "experiments.store_save")
    tracer.wrap(protocol, "average_mse", "experiments.protocol_mse")
    tracer.wrap(GQALUT, "search", "core.search")
    tracer.wrap(GridMSEFitness, "batch_call", "core.fitness")

    def count_search(args, result, start, end) -> None:
        ga = result.ga_result
        counters["searches"] += 1
        counters["fitness_calls"] += ga.fitness_calls
        counters["evaluations"] += ga.evaluations
        counters["cache_hits"] += ga.cache_hits

    tracer.observers["core.search"].append(count_search)
    tracer.notes["lut_counters"] = counters


def _children_seconds(tracer: Tracer, parents: set) -> float:
    return sum(s[3] - s[2] for s in tracer.spans if s[4] in parents)


def lut_layers(tracer: Tracer, start: float, end: float, cells: int) -> Dict[str, float]:
    counters = tracer.notes["lut_counters"]
    sweeps = tracer.named("experiments.sweep", start, end)
    sweep_ids = {s[0] for s in sweeps}
    sweep_self = sum(s[3] - s[2] for s in sweeps) - _children_seconds(tracer, sweep_ids)
    journal = tracer.durations("experiments.journal", start, end)
    searches = max(counters["searches"], 1)

    def per_cell(name: str) -> float:
        return sum(tracer.durations(name, start, end)) / cells

    return {
        "core.search_s": per_cell("core.search"),
        "core.fitness_s": per_cell("core.fitness"),
        "core.fitness_calls": counters["fitness_calls"] / searches,
        "core.evaluations": counters["evaluations"] / searches,
        "core.fitness_cache_hit_ratio": (
            counters["cache_hits"] / counters["evaluations"] if counters["evaluations"] else 0.0
        ),
        "experiments.sweep_self_s": sweep_self / cells,
        "experiments.journal_ops": len(journal) / cells,
        "experiments.journal_s": sum(journal) / cells,
        "experiments.store_save_s": per_cell("experiments.store_save"),
        "experiments.protocol_mse_s": per_cell("experiments.protocol_mse"),
    }


# -- segment_serve --------------------------------------------------------------


def segment_serve(seed: int, seconds: float, size: Dict[str, Any], probe: HostProbe,
                  tracer: Optional[Tracer], workdir: Path) -> Outcome:
    """An INT8 MiniSegformer served through ``BatchingServer`` (compiled,
    ``max_batch=16``): a 1-client and a 16-client closed loop, alternating."""
    rng = np.random.default_rng(seed)
    config = ModelConfig()
    pool = [rng.normal(size=(config.image_size, config.image_size, 3))
            for _ in range(size["seg_pool"])]
    padded_sizes = (1, 2, 4, 8, 16)

    def setup() -> tuple:
        model = MiniSegformer(config, suite=pwl_suite(SEGMENT_OPERATORS))
        prepare_quantized_model(model)
        model.eval()
        model.predict(pool[0][None], engine="eager")  # calibrates the quantizers
        server = BatchingServer(model, max_batch=16, engine="compiled")
        for padded in padded_sizes:  # warm-up: trace every padded batch size
            for _ in range(5):
                server.predict_many(pool[:1] * padded, timeout=60.0)
                if str(padded) in server.health()["bucket_latency_ms"]:
                    break
        return model, server

    setup_seconds, setup_normalized, servers = timed_setups(setup, probe)
    for _, stale in servers[:-1]:
        stale.close()
    model, server = servers[-1]
    warm_buckets = set(server.health()["bucket_latency_ms"])
    references = [model.predict(image[None], engine="eager")[0] for image in pool]

    failures: Counter = Counter()
    slice_seconds = seconds / (2 * PHASE_SLICES)
    before = server.stats()
    solo: List[float] = []
    loaded: List[float] = []
    solo_windows: List[tuple] = []
    loaded_windows: List[tuple] = []
    loaded_stats: Counter = Counter()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    issued = 0

    def launch() -> None:
        nonlocal issued
        image_index = issued % len(pool)
        issued += 1
        began = time.perf_counter()
        future = server.submit(pool[image_index])
        future.add_done_callback(
            lambda f, b=began, i=image_index, r=issued:
            done.put((f, b, time.perf_counter(), i, r))
        )

    def check(future, began: float, finished: float, image_index: int,
              request_id: int, samples: List[tuple]) -> None:
        if future.exception() is not None:
            failures["request_failed"] += 1
            return
        samples.append((began, finished))
        if tracer is not None:
            tracer.add("serve.request", began, finished, rid=request_id)
        if not np.array_equal(future.result(), references[image_index]):
            failures["label_mismatch"] += 1

    # The two closed loops alternate in slices, so each samples the whole run.
    for _ in range(PHASE_SLICES):
        # One client: the next request goes out when the previous returns.
        slice_start = time.perf_counter()
        while time.perf_counter() - slice_start < slice_seconds:
            launch()
            check(*done.get(), solo)
        solo_windows.append((slice_start, time.perf_counter()))

        # ``seg_clients`` clients, all driven by this one thread, in bursts
        # of BURST_SECONDS with a host-speed sample between bursts.
        stats_before = server.stats()
        slice_start = time.perf_counter()
        while time.perf_counter() - slice_start < slice_seconds:
            probe.sample()
            burst_start = burst_end = time.perf_counter()
            for _ in range(size["seg_clients"]):
                launch()
            in_flight = size["seg_clients"]
            while in_flight:
                result = done.get()
                in_flight -= 1
                burst_end = result[2]
                check(*result, loaded)
                if time.perf_counter() - burst_start < BURST_SECONDS:
                    launch()
                    in_flight += 1
            loaded_windows.append((burst_start, burst_end))
        probe.sample()
        stats_after = server.stats()
        for field in ("batches", "completed", "padded_rows"):
            loaded_stats[field] += getattr(stats_after, field) - getattr(stats_before, field)
    attempted = issued
    after = server.stats()
    retraced = set(server.health()["bucket_latency_ms"]) - warm_buckets
    server.close()
    failures["shed"] += after.shed
    failures["expired"] += after.expired

    images_per_s = len(loaded) / sum(e - b for b, e in loaded_windows)
    image_p50 = 1e3 * median([e - b for b, e in solo])
    loaded_latency = [e - b for b, e in loaded]
    report = {
        "image_p50_ms": entry(image_p50, "ms", len(solo)),
        "images_per_s": entry(images_per_s, "1/s", len(loaded)),
        "image_p99_ms": entry(1e3 * float(np.percentile(loaded_latency, 99.0)), "ms",
                              len(loaded)),
        "loaded_batch_size": entry(loaded_stats["completed"] / max(1, loaded_stats["batches"]),
                                   "count", loaded_stats["batches"]),
    }
    outcome = Outcome(
        setup_seconds=setup_seconds, attempted=attempted, failures=+failures,
        setup_normalized=setup_normalized,
        # The 16-client phase computes full batches back to back.  A
        # 1-client request is mostly the server's fixed batching wait
        # (``max_wait_ms``) and thread hand-offs, which do not follow the
        # host's compute speed, so its latency stays wall-clock.
        throughput_per_s=len(loaded) / sum(probe.normalized(b, e) for b, e in loaded_windows),
        unit_p50_ms=image_p50,
        normalized=("throughput_per_s",),
        wall_throughput_per_s=images_per_s, wall_unit_p50_ms=image_p50,
        report=report, window=(solo_windows[0][0], loaded_windows[-1][1]),
    )
    if tracer is not None:
        layers = {}
        predicts = tracer.named("graph.predict", *outcome.window)
        for padded in padded_sizes:
            layers["graph.predict_ms.b%d" % padded] = 1e3 * median(
                [s[3] - s[2] for s in predicts if s[5] == padded])
        solo_predict = [s[3] - s[2] for s in within(predicts, solo_windows)]
        loaded_predict = within(predicts, loaded_windows)
        batches = loaded_stats["batches"]
        completed = loaded_stats["completed"]
        padded_rows = loaded_stats["padded_rows"]
        layers.update({
            "graph.plan_steps": median([
                compiled.graph_for(np.zeros((padded,) + pool[0].shape)).num_steps
                for compiled in tracer.notes["predict_models"][-1:] for padded in padded_sizes
            ]),
            "graph.timed_retraces": float(len(retraced)),
            "serve.solo_overhead_ms": 1e3 * (median([e - b for b, e in solo])
                                             - median(solo_predict)),
            "serve.replay_share": union_seconds([(s[2], s[3]) for s in loaded_predict])
            / sum(e - b for b, e in loaded_windows),
            "serve.mean_batch_size": completed / batches if batches else 0.0,
            "serve.padded_row_ratio": padded_rows / (completed + padded_rows) if batches else 0.0,
            "serve.shed": float(after.shed - before.shed),
            "serve.expired": float(after.expired - before.expired),
            "serve.fallbacks": float(after.fallbacks - before.fallbacks),
        })
        outcome.layers = layers
    return outcome


# -- decode ---------------------------------------------------------------------


DECODE_CONFIG = DecoderConfig(vocab_size=32, max_seq=128, embed_dim=64,
                              depth=2, num_heads=2, seed=3)
DECODE_GROUPS = (1, 2, 4, 8)


def decode(seed: int, seconds: float, size: Dict[str, Any], probe: HostProbe,
           tracer: Optional[Tracer], workdir: Path) -> Outcome:
    """An INT8 MiniDecoder: direct cached-compiled greedy decode, one prompt
    after another, alternating with the same prompts as served sessions (8
    live, closed loop) through ``BatchingServer.open_session``/``submit_decode``."""
    rng = np.random.default_rng(seed)
    low, high = size["dec_prompt_len"]
    num_new = size["dec_new"]
    prompts = [
        [int(t) for t in rng.integers(0, DECODE_CONFIG.vocab_size, size=length)]
        for length in rng.integers(low, high + 1, size=size["dec_prompts"])
    ]
    longest = high + num_new
    capacities = sorted({bucket_capacity(n, DECODE_CONFIG.max_seq)
                         for n in range(1, longest)})

    def setup() -> tuple:
        model = MiniDecoder(DECODE_CONFIG, suite=pwl_suite(MiniDecoder.REPLACEABLE_OPERATORS))
        prepare_quantized_model(model)
        model.eval()
        model.calibrate(prompts[0])
        # Direct path: one decode long enough to trace every cache bucket.
        warm_prompt = [0] * high
        transformer.greedy_generate(model, warm_prompt, num_new, cache=True, engine="compiled")
        server = BatchingServer(model, max_batch=max(DECODE_GROUPS),
                                decode_engine="compiled")
        # Served path: every (group size, cache bucket) the timed phase can
        # hit, by stepping ``group`` sessions in lockstep to the longest
        # sequence length (repeated if a drain split a group).
        for group in DECODE_GROUPS:
            for _ in range(3):
                sessions = [server.open_session(warm_prompt) for _ in range(group)]
                for _ in range(longest - 1):
                    futures = [server.submit_decode(session) for session in sessions]
                    for future in futures:
                        future.result(60.0)
                seen = set(server.health()["bucket_latency_ms"])
                if all("decode/batch%d/cap%d" % (group, c) in seen for c in capacities):
                    break
        return model, server

    setup_seconds, setup_normalized, built = timed_setups(setup, probe)
    for _, stale in built[:-1]:
        stale.close()
    model, server = built[-1]
    direct_step = model.compiled_step()
    direct_traces = direct_step.compile_count
    warm_buckets = set(server.health()["bucket_latency_ms"])

    failures: Counter = Counter()
    slice_seconds = seconds / (2 * PHASE_SLICES)
    before = server.stats()
    direct_runs: List[tuple] = []
    direct_spans: List[tuple] = []  # (start, end, steps)
    direct_windows: List[tuple] = []
    served_windows: List[tuple] = []
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    ttft: List[float] = []
    gaps: List[float] = []
    reserved = filled = served_tokens = 0
    served_streams: List[tuple] = []
    next_prompt = opened = 0
    live: Dict[int, dict] = {}

    def submit(state: dict) -> None:
        began = time.perf_counter()
        future = server.submit_decode(state["session"])
        future.add_done_callback(
            lambda f, s=state, b=began: done.put((s, f, b, time.perf_counter()))
        )

    def open_next() -> None:
        # Sessions reuse the prompts the direct phase has decoded so far.
        nonlocal opened
        prompt_index = opened % min(next_prompt, len(prompts))
        opened += 1
        began = time.perf_counter()
        session = server.open_session(prompts[prompt_index])
        state = {"session": session, "prompt": prompt_index, "opened": began,
                 "steps": 0, "total": len(prompts[prompt_index]) + num_new - 1,
                 "last": None, "first": False, "paused": False}
        live[session.session_id] = state
        submit(state)

    def on_step(state: dict, future, began: float, finished: float) -> bool:
        """Account one answered step; True when the session has more steps."""
        nonlocal reserved, filled, served_tokens
        session = state["session"]
        if tracer is not None:
            tracer.add("serve.decode", began, finished, rid=session.session_id)
        if future.exception() is not None:
            failures["step_failed"] += 1
            del live[session.session_id]
            return False
        state["steps"] += 1
        if state["steps"] >= len(prompts[state["prompt"]]):
            served_tokens += 1
            # A pause between slices is not part of any latency sample.
            if not state["first"]:
                state["first"] = True
                if not state["paused"]:
                    ttft.append(finished - state["opened"])
            elif state["last"] is not None:
                gaps.append(finished - state["last"])
            state["last"] = finished
        if state["steps"] < state["total"]:
            return True
        del live[session.session_id]
        served_streams.append((state["prompt"], session.generated))
        reserved += session.cache.capacity
        filled += session.cache.length
        if tracer is not None:
            tracer.add("serve.session", state["opened"], finished, rid=session.session_id)
        return False

    # The direct and served phases alternate in slices.  Live sessions
    # pause between served slices and resume in the next one; the last
    # served slice runs every live session to completion.
    for index in range(PHASE_SLICES):
        last = index == PHASE_SLICES - 1
        probe.sample(SLICE_PROBES)
        slice_start = time.perf_counter()
        while (time.perf_counter() - slice_start < slice_seconds
               or (last and next_prompt < size["dec_min_direct"])):
            probe.maybe()
            prompt = prompts[next_prompt % len(prompts)]
            began = time.perf_counter()
            stream = transformer.greedy_generate(model, prompt, num_new, cache=True,
                                                 engine="compiled")
            direct_spans.append((began, time.perf_counter(), len(prompt) + num_new - 1))
            direct_runs.append((next_prompt % len(prompts), stream))
            next_prompt += 1
        direct_windows.append((slice_start, time.perf_counter()))

        probe.sample(SLICE_PROBES)
        slice_start = slice_end = time.perf_counter()
        for state in list(live.values()):
            state["last"] = None
            state["paused"] = state["paused"] or not state["first"]
            submit(state)
        while len(live) < size["dec_live"]:
            open_next()
        in_flight = len(live)
        while in_flight:
            state, future, began, finished = done.get()
            in_flight -= 1
            slice_end = finished
            more = on_step(state, future, began, finished)
            running = time.perf_counter() - slice_start < slice_seconds
            if more and (running or last):
                submit(state)
                in_flight += 1
            elif not more and running:
                open_next()
                in_flight += 1
        served_windows.append((slice_start, slice_end))
    probe.sample(SLICE_PROBES)
    after = server.stats()
    served_buckets = set(server.health()["bucket_latency_ms"])
    server.close()
    attempted = next_prompt + opened
    failures["shed"] += after.shed
    failures["expired"] += after.expired

    # Reference checks (untimed): a prompt decoded twice gives one stream,
    # served == direct, direct == uncached eager.
    direct_streams: Dict[int, List[int]] = {}
    for prompt_index, stream in direct_runs:
        if direct_streams.setdefault(prompt_index, stream) != stream:
            failures["direct_repeat_mismatch"] += 1
    for prompt_index, stream in served_streams:
        if stream != direct_streams[prompt_index]:
            failures["served_mismatch"] += 1
    # On a seeded subset of the direct prompts: the cached eager decode must
    # give the direct stream exactly, and so should the uncached eager
    # decode.  The cached and uncached paths differ in the last bits of the
    # logits (different float association), so where the quantized logits
    # tie exactly, the uncached greedy stream can take the other tied token.
    # Such a divergence is reported (``uncached_tie_divergences``); a
    # failure is a direct token that is not a maximal uncached logit when
    # the uncached forward is fed the direct stream's own prefix.
    check_rng = np.random.default_rng(seed + 1)
    checked = check_rng.choice(size["dec_min_direct"], replace=False,
                               size=size["dec_uncached_checks"])
    tie_divergences = 0
    for prompt_index in checked:
        attempted += 1
        prompt = prompts[int(prompt_index)]
        stream = direct_streams[int(prompt_index)]
        uncached = transformer.greedy_generate(model, prompt, num_new, cache=False,
                                               engine="eager")
        if uncached != stream:
            tie_divergences += 1
        cached = transformer.greedy_generate(model, prompt, num_new, cache=True, engine="eager")
        if cached != stream:
            failures["cached_eager_mismatch"] += 1
        elif not is_greedy_path(model, prompt, stream):
            failures["uncached_mismatch"] += 1

    served_seconds = sum(e - b for b, e in served_windows)
    direct_seconds = sum(e - b for b, e, _ in direct_spans)
    per_token = [(e - b) / steps for b, e, steps in direct_spans]
    direct_tokens_per_s = num_new * next_prompt / direct_seconds
    tokens_per_s = served_tokens / served_seconds
    report = {
        "direct_tokens_per_s": entry(direct_tokens_per_s, "1/s", next_prompt),
        "direct_ms_per_token_p50": entry(1e3 * median(per_token), "ms", len(per_token)),
        "tokens_per_s": entry(tokens_per_s, "1/s", served_tokens),
        "ttft_p50_ms": entry(1e3 * median(ttft), "ms", len(ttft)),
        "ttft_p90_ms": entry(1e3 * float(np.percentile(ttft, 90.0)), "ms", len(ttft)),
        "itl_p50_ms": entry(1e3 * median(gaps), "ms", len(gaps)),
        "itl_p99_ms": entry(1e3 * float(np.percentile(gaps, 99.0)), "ms", len(gaps)),
        "uncached_tie_divergences": entry(tie_divergences, "count", len(checked)),
        "served_group_size": entry(
            (after.decode_steps - before.decode_steps)
            / max(1, after.decode_batches - before.decode_batches),
            "count", after.decode_batches - before.decode_batches),
    }
    outcome = Outcome(
        setup_seconds=setup_seconds, attempted=attempted, failures=+failures,
        setup_normalized=setup_normalized,
        # Live sessions cannot pause between steps without changing the
        # latencies measured, so a served slice is normalized as a whole.
        throughput_per_s=served_tokens / sum(probe.normalized(b, e, SLICE_PROBES)
                                             for b, e in served_windows),
        unit_p50_ms=1e3 * median([probe.normalized(b, e) / steps for b, e, steps in direct_spans]),
        normalized=("throughput_per_s", "unit_p50_ms"),
        wall_throughput_per_s=tokens_per_s, wall_unit_p50_ms=1e3 * median(per_token),
        report=report, window=(direct_windows[0][0], served_windows[-1][1]),
    )
    if tracer is not None:
        layers = {}
        steps = tracer.named("graph.decode_step", *outcome.window)
        for group in DECODE_GROUPS:
            layers["graph.decode_step_ms.g%d" % group] = 1e3 * median(
                [s[3] - s[2] for s in steps if s[5] == group])
        served_steps = within(steps, served_windows)
        plans = [stats["nodes"] for step in tracer.notes["decode_steps"]
                 for stats in step.stats()["signatures"].values()]
        steps = after.decode_steps - before.decode_steps
        batches = after.decode_batches - before.decode_batches
        layers.update({
            "graph.plan_steps": median(plans),
            "graph.timed_retraces": float(
                len(served_buckets - warm_buckets)
                + direct_step.compile_count - direct_traces
            ),
            "serve.replay_share": union_seconds([(s[2], s[3]) for s in served_steps])
            / served_seconds,
            "serve.decode_group_size": steps / batches if batches else 0.0,
            "serve.shed": float(after.shed - before.shed),
            "serve.expired": float(after.expired - before.expired),
            "serve.fallbacks": float(after.fallbacks - before.fallbacks),
            "nn.kv_reserved_ratio": reserved / filled if filled else 0.0,
        })
        outcome.layers = layers
    return outcome


def is_greedy_path(model: MiniDecoder, prompt: List[int], stream: List[int]) -> bool:
    """Whether every token of ``stream`` is a maximal logit (to 1e-9) of the
    uncached eager forward over the prompt and the stream's own prefix."""
    tokens = list(prompt) + list(stream[:-1])
    with no_grad():
        logits = model(Tensor(encode_tokens(tokens, model.config.vocab_size)[None])).data[0]
    for offset, token in enumerate(stream):
        row = logits[len(prompt) - 1 + offset]
        top = row.max()
        if row[token] < top - 1e-9 * max(1.0, abs(top)):
            return False
    return True


# -- finetune -------------------------------------------------------------------


def finetune(seed: int, seconds: float, size: Dict[str, Any], probe: HostProbe,
             tracer: Optional[Tracer], workdir: Path) -> Outcome:
    """QAT fine-tuning of an INT8 MiniEfficientViT (hswish + div on pwl
    tables) through ``Trainer.fit(train_engine="compiled")``."""
    config = ModelConfig()
    training = TrainingConfig(epochs=size["ft_epochs"], batch_size=size["ft_batch"],
                              learning_rate=2e-3, seed=seed)

    def fit(data: SyntheticSegmentationDataset, suite: PWLSuite, engine: str) -> tuple:
        """One fit from fresh weights; returns ``(result, (start, end))`` of
        ``Trainer.fit``."""
        # Every fit of a run shares one suite, so the process-wide dense-table
        # cache holds one set of tables however many fits the run makes.
        model = MiniEfficientViT(config, suite=suite)
        prepare_quantized_model(model)
        began = time.perf_counter()
        result = Trainer(model, training).fit(
            data.train_images, data.train_labels, data.val_images, data.val_labels,
            num_classes=data.num_classes, train_engine=engine,
        )
        return result, (began, time.perf_counter())

    def setup() -> tuple:
        data = SyntheticSegmentationDataset(SyntheticSegmentationConfig(
            image_size=config.image_size, num_classes=config.num_classes,
            num_train=size["ft_train"], num_val=size["ft_val"], seed=seed,
        ))
        suite = pwl_suite(FINETUNE_OPERATORS)
        # Warm-up fit: the trace and evaluation code paths.
        return data, suite, fit(data, suite, "compiled")[0]

    setup_seconds, setup_normalized, built = timed_setups(setup, probe)
    data, suite, warm = built[-1]
    if tracer is not None:
        warm_traces = list(tracer.notes["train_traces"])

    steps_per_fit = len(warm.losses)
    fit_spans: List[tuple] = []
    results = []
    failures: Counter = Counter()
    attempted = 0
    start = time.perf_counter()
    while not fit_spans or time.perf_counter() - start < seconds:
        probe.sample()
        attempted += 1
        result, span = fit(data, suite, "compiled")
        fit_spans.append(span)
        results.append(result)
    probe.sample()
    end = time.perf_counter()

    # Reference checks (untimed): every timed fit repeats the warm-up fit
    # bit for bit, and an eager fit matches the compiled one.
    eager = fit(data, suite, "eager")[0]
    attempted += 1
    for result in results + [eager]:
        if result.losses != warm.losses or result.val_miou != warm.val_miou:
            failures["fit_mismatch"] += 1

    fit_seconds = [e - b for b, e in fit_spans]
    fit_normalized = [probe.normalized(b, e) for b, e in fit_spans]
    total_steps = steps_per_fit * len(fit_seconds)
    steps_per_s = total_steps / sum(fit_seconds)
    ms_per_step = [1e3 * s / steps_per_fit for s in fit_seconds]
    report = {
        "train_steps_per_s": entry(steps_per_s, "1/s", total_steps),
        "val_miou": entry(warm.val_miou, "miou", len(results)),
        "fit_ms_per_step_p50": entry(median(ms_per_step), "ms", len(fit_seconds)),
    }
    outcome = Outcome(
        setup_seconds=setup_seconds, attempted=attempted, failures=+failures,
        setup_normalized=setup_normalized,
        throughput_per_s=total_steps / sum(fit_normalized),
        unit_p50_ms=median([1e3 * s / steps_per_fit for s in fit_normalized]),
        normalized=("throughput_per_s", "unit_p50_ms"),
        wall_throughput_per_s=steps_per_s, wall_unit_p50_ms=median(ms_per_step),
        report=report, window=(start, end),
    )
    if tracer is not None:
        trace_spans = {s[0] for s in tracer.notes["train_traces"]}
        steps = [s for s in tracer.named("graph.train_step", start, end)
                 if s[0] not in trace_spans]
        traces = [s for s in tracer.notes["train_traces"] if start <= s[2] <= end]
        per_fit_warm = len(warm_traces) / SETUP_REPEATS
        outcome.layers = {
            "graph.train_step_ms": 1e3 * median([s[3] - s[2] for s in steps]),
            "graph.train_trace_s": median([s[3] - s[2] for s in traces]),
            "graph.plan_steps": median(tracer.notes["train_plan_steps"]),
            "graph.timed_retraces": max(0.0, len(traces) - per_fit_warm * len(fit_seconds)),
            "nn.evaluate_s": sum(tracer.durations("nn.evaluate", start, end)) / len(fit_seconds),
        }
    return outcome


# -- tracing hooks for the model workloads --------------------------------------


def install_model_tracing(tracer: Tracer) -> None:
    """Spans around the graph executors and the trainer's evaluation."""
    tracer.wrap(CompiledModel, "predict", "graph.predict",
                rid=lambda self, images: int(np.shape(images)[0]))
    tracer.wrap(CompiledDecodeStep, "step", "graph.decode_step",
                rid=lambda self, token, *rest: int(np.shape(token)[0]))
    tracer.wrap(CompiledTrainStep, "step", "graph.train_step")
    tracer.wrap(transformer, "greedy_generate", "nn.generate")
    tracer.wrap(Trainer, "fit", "nn.fit")
    tracer.wrap(Trainer, "evaluate", "nn.evaluate")
    tracer.notes.update(predict_models=[], decode_steps=[], train_traces=[],
                        train_plan_steps=[])
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def note(instances: List[Any]) -> Callable:
        def observer(args, result, start, end) -> None:
            if all(args[0] is not known for known in instances):
                instances.append(args[0])
        return observer

    def note_train(args, result, start, end) -> None:
        step = args[0]
        if step.compile_count != seen.get(step, 0):
            seen[step] = step.compile_count
            # The span just recorded is this call's: the first step of a
            # new batch signature, i.e. a trace.
            span = next(s for s in reversed(tracer.spans) if s[1] == "graph.train_step"
                        and s[2] == start)
            tracer.notes["train_traces"].append(span)
            tracer.notes["train_plan_steps"].extend(
                stats["nodes"] for stats in step.stats()["signatures"].values())

    tracer.observers["graph.predict"].append(note(tracer.notes["predict_models"]))
    tracer.observers["graph.decode_step"].append(note(tracer.notes["decode_steps"]))
    tracer.observers["graph.train_step"].append(note_train)


# The host-speed reference parts (see ``hostspeed``) that match each
# workload's own work.  GA population scoring and the image models are
# batched array work; single-token decoding is dispatch-bound (batches of
# at most 8 tokens of width 64).
REFERENCE_PARTS = {
    "lut_search": ARRAY_PARTS,
    "segment_serve": ARRAY_PARTS,
    "decode": DISPATCH_PARTS,
    "finetune": ARRAY_PARTS,
}

WORKLOADS = {
    "lut_search": lut_search,
    "segment_serve": segment_serve,
    "decode": decode,
    "finetune": finetune,
}
