"""Fine-tuning throughput benchmark (dense tables vs. the reference pipeline).

The reference side of every comparison is the per-pass Fig. 1b pipeline
kept as an oracle in ``tests/oracles.py``; the report calls it ``legacy``.
Measures four layers of the quantized fine-tuning stack:

1. **Operator throughput** — one training step's worth of Fig. 1b unit work
   (forward lookup + selected-segment slope) through the
   :class:`QuantizedLUT` comparer pipeline versus the fused
   :class:`DenseLUT` gather, on a ``(16, 64, 64)`` activation.  Outputs and
   slopes are asserted bit-identical.
2. **PWL fine-tuning step** — forward + backward through the operator
   modules (``PWLActivation`` for GELU/EXP, ``PWLWideRange`` for DIV/RSQRT)
   versus their reference twins, including the autograd plumbing
   (`apply_elementwise_fused` vs. `apply_elementwise`).  Gradients are
   asserted bit-identical; the combined speedup across the four operators
   is the headline number gated by ``--min-step-speedup``.
3. **Model fine-tune** — a seeded MiniSegformer quantization-aware
   fine-tune (all four operators replaced) on the dense suite and on the
   reference suite.  Losses and validation mIoU are asserted *identical*,
   pinning the contract end to end; the fit-time speedup is reported
   (matmuls, LSQ fake-quant and optimizer work are shared between the
   two, so this ratio is smaller than the operator-level one).
4. **Compiled training** — the same fine-tune under
   ``train_engine="compiled"`` (the whole forward + backward + optimizer
   step traced once and replayed from a static plan) versus the eager
   loop.  Losses, final weights and validation mIoU are asserted
   bit-identical; the fit-time speedup is the headline gated by
   ``--min-train-speedup``.

Results are written to ``BENCH_finetune_throughput.json`` at the repository
root so the performance trajectory is tracked across PRs; CI runs a reduced
``--smoke`` pass that checks the bit-parity contract without the speedup
gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_finetune_throughput.py
    PYTHONPATH=src python benchmarks/bench_finetune_throughput.py \
        --smoke --output /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.lut import DenseLUT, QuantizedLUT
from repro.core.pwl import PiecewiseLinear, fit_pwl, uniform_breakpoints
from repro.data.synthetic_segmentation import (
    SyntheticSegmentationConfig,
    SyntheticSegmentationDataset,
)
from repro.experiments.finetune import FinetuneBudget
from repro.functions.registry import get_function
from repro.nn.approx import PWLActivation, PWLSuite, PWLWideRange
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.tensor import Tensor
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (  # noqa: E402
    ReferencePWLActivation,
    ReferencePWLSuite,
    ReferencePWLWideRange,
    quantized_lut_slope,
)

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_finetune_throughput.json"

OPERATORS = ("exp", "gelu", "div", "rsqrt")
WIDE_RANGE = {"div", "rsqrt"}


def build_approximation(operator: str, num_entries: int = 8, frac_bits: int = 5) -> PiecewiseLinear:
    """A deterministic uniform-breakpoint FXP pwl (no search needed here)."""
    fn = get_function(operator)
    pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, num_entries), fn.search_range)
    return pwl.to_fixed_point(frac_bits)


def _timed(fn_call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_call()
        best = min(best, time.perf_counter() - start)
    return best


def bench_operator_throughput(shape, repeats: int, seed: int) -> dict:
    """Raw Fig. 1b unit: comparer pipeline vs. dense gather (GELU)."""
    pwl = build_approximation("gelu")
    scale = 2.0 ** -4
    legacy = QuantizedLUT(pwl=pwl, scale=scale)
    dense = DenseLUT.from_quantized(legacy)
    x = np.random.default_rng(seed).normal(scale=0.7, size=shape)

    def legacy_step():
        return legacy(x), quantized_lut_slope(legacy, x)

    out_legacy, slope_legacy = legacy_step()
    out_dense, slope_dense = dense.lookup_with_slope(x)
    if not (np.array_equal(out_legacy, out_dense) and np.array_equal(slope_legacy, slope_dense)):
        raise AssertionError("dense operator diverged from the legacy pipeline")

    t_legacy = _timed(legacy_step, repeats)
    t_dense = _timed(lambda: dense.lookup_with_slope(x), repeats)
    return {
        "shape": list(shape),
        "legacy_seconds": t_legacy,
        "dense_seconds": t_dense,
        "speedup": t_legacy / t_dense,
        "identical_results": True,
    }


def bench_pwl_step(shape, repeats: int, seed: int) -> dict:
    """Forward + backward through the pwl operator modules and their oracles."""
    rng = np.random.default_rng(seed)
    base = rng.normal(scale=0.7, size=shape)

    def module_step(module, data):
        x = Tensor(data, requires_grad=True)
        y = module(x)
        y.backward(np.ones_like(data))
        return y.data, x.grad

    per_operator = {}
    totals = {"legacy": 0.0, "dense": 0.0}
    for operator in OPERATORS:
        # Wide-range inputs span I_R, every Table 2 sub-range and beyond.
        data = np.abs(base) * 300 + 0.3 if operator in WIDE_RANGE else base
        pwl = build_approximation(operator)
        modules, results = {}, {}
        for engine in ("legacy", "dense"):
            if operator in WIDE_RANGE:
                module_cls = {"legacy": ReferencePWLWideRange, "dense": PWLWideRange}[engine]
            else:
                module_cls = {"legacy": ReferencePWLActivation, "dense": PWLActivation}[engine]
            module = module_cls(operator, pwl)
            module_step(module, data)  # initialise quantizer / warm caches
            modules[engine] = module
            results[engine] = module_step(module, data)
        if not (
            np.array_equal(results["legacy"][0], results["dense"][0])
            and np.array_equal(results["legacy"][1], results["dense"][1])
        ):
            raise AssertionError("engines diverged for operator %r" % operator)
        times = {
            engine: _timed(lambda m=module: module_step(m, data), repeats)
            for engine, module in modules.items()
        }
        totals["legacy"] += times["legacy"]
        totals["dense"] += times["dense"]
        per_operator[operator] = {
            "legacy_seconds": times["legacy"],
            "dense_seconds": times["dense"],
            "speedup": times["legacy"] / times["dense"],
        }
    return {
        "shape": list(shape),
        "operators": per_operator,
        "legacy_seconds": totals["legacy"],
        "dense_seconds": totals["dense"],
        "speedup": totals["legacy"] / totals["dense"],
        "identical_results": True,
    }


def bench_model_finetune(budget: FinetuneBudget, epochs: int) -> dict:
    """Seeded quantization-aware fine-tune on the dense and reference suites."""
    approximations = {op: build_approximation(op) for op in OPERATORS}
    dataset = SyntheticSegmentationDataset(
        SyntheticSegmentationConfig(
            image_size=budget.image_size,
            num_classes=budget.num_classes,
            num_train=budget.num_train,
            num_val=budget.num_val,
            seed=budget.seed + 101,
        )
    )
    model_config = ModelConfig(
        image_size=budget.image_size,
        num_classes=budget.num_classes,
        embed_dim=budget.embed_dim,
        depth=budget.depth,
        seed=budget.seed,
    )

    timings, results = {}, {}
    for engine in ("legacy", "dense"):
        suite_cls = {"legacy": ReferencePWLSuite, "dense": PWLSuite}[engine]
        suite = suite_cls(approximations=approximations, replace=set(OPERATORS))
        model = MiniSegformer(model_config, suite=suite)
        prepare_quantized_model(model)
        trainer = Trainer(
            model,
            TrainingConfig(
                epochs=epochs,
                batch_size=budget.batch_size,
                learning_rate=budget.finetune_lr,
                seed=budget.seed,
            ),
        )
        start = time.perf_counter()
        results[engine] = trainer.fit(
            dataset.train_images, dataset.train_labels,
            dataset.val_images, dataset.val_labels,
            num_classes=dataset.num_classes,
        )
        timings[engine] = time.perf_counter() - start

    legacy, dense = results["legacy"], results["dense"]
    identical = bool(
        legacy.losses == dense.losses and legacy.val_miou == dense.val_miou
    )
    if not identical:
        raise AssertionError("dense and reference fine-tuning trajectories diverged")
    return {
        "model": "MiniSegformer",
        "image_size": budget.image_size,
        "embed_dim": budget.embed_dim,
        "depth": budget.depth,
        "epochs": epochs,
        "steps": len(dense.losses),
        "legacy_seconds": timings["legacy"],
        "dense_seconds": timings["dense"],
        "speedup": timings["legacy"] / timings["dense"],
        "identical_losses": identical,
        "val_miou": dense.val_miou,
    }


def bench_compiled_train(budget: FinetuneBudget, epochs: int) -> dict:
    """Compiled train engine vs. eager: bit-identical, then timed.

    Both runs use the dense pwl tables; only the training engine differs.
    Losses, final weights and validation mIoU must match bitwise — the
    compiled-training contract — before any timing is reported.
    """
    approximations = {op: build_approximation(op) for op in OPERATORS}
    dataset = SyntheticSegmentationDataset(
        SyntheticSegmentationConfig(
            image_size=budget.image_size,
            num_classes=budget.num_classes,
            num_train=budget.num_train,
            num_val=budget.num_val,
            seed=budget.seed + 101,
        )
    )
    model_config = ModelConfig(
        image_size=budget.image_size,
        num_classes=budget.num_classes,
        embed_dim=budget.embed_dim,
        depth=budget.depth,
        seed=budget.seed,
    )

    timings, results, states = {}, {}, {}
    for engine in ("eager", "compiled"):
        suite = PWLSuite(approximations=approximations, replace=set(OPERATORS))
        model = MiniSegformer(model_config, suite=suite)
        prepare_quantized_model(model)
        trainer = Trainer(
            model,
            TrainingConfig(
                epochs=epochs,
                batch_size=budget.batch_size,
                learning_rate=budget.finetune_lr,
                seed=budget.seed,
            ),
        )
        start = time.perf_counter()
        results[engine] = trainer.fit(
            dataset.train_images, dataset.train_labels,
            dataset.val_images, dataset.val_labels,
            num_classes=dataset.num_classes,
            train_engine=engine,
        )
        timings[engine] = time.perf_counter() - start
        states[engine] = {
            name: value.copy() for name, value in model.state_dict().items()
        }

    eager, compiled = results["eager"], results["compiled"]
    identical_losses = bool(eager.losses == compiled.losses)
    identical_weights = all(
        np.array_equal(states["eager"][name], states["compiled"][name])
        for name in states["eager"]
    )
    if not (identical_losses and identical_weights
            and eager.val_miou == compiled.val_miou):
        raise AssertionError("compiled training diverged from eager")
    return {
        "model": "MiniSegformer",
        "image_size": budget.image_size,
        "embed_dim": budget.embed_dim,
        "depth": budget.depth,
        "epochs": epochs,
        "steps": len(compiled.losses),
        "eager_seconds": timings["eager"],
        "compiled_seconds": timings["compiled"],
        "speedup": timings["eager"] / timings["compiled"],
        "identical_losses": identical_losses,
        "identical_weights": identical_weights,
        "val_miou": compiled.val_miou,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budget: small activations + quick model, no speedup gate",
    )
    parser.add_argument(
        "--min-step-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the combined pwl-step speedup falls below this "
        "factor (default 2.5 for full runs, disabled with --smoke)",
    )
    parser.add_argument(
        "--min-train-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the compiled-vs-eager fine-tune speedup falls "
        "below this factor (default 1.5 for full runs, disabled with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        shape = (4, 32, 32)
        repeats = min(args.repeats, 5)
        budget = FinetuneBudget.quick()
        epochs = 1
        min_speedup = args.min_step_speedup or 0.0
        min_train_speedup = args.min_train_speedup or 0.0
    else:
        shape = (16, 64, 64)
        repeats = args.repeats
        budget = FinetuneBudget()
        epochs = args.epochs
        # The measured step speedup lands in a ~2.8-3.1x band run to run on
        # a shared 1-core container (searchsorted dominates the reference
        # path); 2.5 gates real regressions without flaking on scheduler
        # noise.  check_bench_parity.py holds the tighter per-path line
        # against the recorded baseline.
        min_speedup = 2.5 if args.min_step_speedup is None else args.min_step_speedup
        min_train_speedup = (
            1.5 if args.min_train_speedup is None else args.min_train_speedup
        )

    operator_stats = bench_operator_throughput(shape, repeats, args.seed)
    step_stats = bench_pwl_step(shape, repeats, args.seed)
    model_stats = bench_model_finetune(budget, epochs)
    train_stats = bench_compiled_train(budget, epochs)

    report = {
        "benchmark": "finetune_throughput",
        "config": {
            "shape": list(shape),
            "repeats": repeats,
            "epochs": epochs,
            "seed": args.seed,
            "smoke": bool(args.smoke),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "operator": operator_stats,
        "pwl_step": step_stats,
        "model_finetune": model_stats,
        "compiled_train": train_stats,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print("operator (GELU, shape %s):" % (tuple(shape),))
    print(
        "  legacy %7.3fms   dense %7.3fms   speedup %5.1fx"
        % (
            1e3 * operator_stats["legacy_seconds"],
            1e3 * operator_stats["dense_seconds"],
            operator_stats["speedup"],
        )
    )
    print("pwl fine-tuning step (forward + backward, per operator):")
    for operator, stats in step_stats["operators"].items():
        print(
            "  %6s: legacy %7.3fms   dense %7.3fms   speedup %5.1fx"
            % (
                operator,
                1e3 * stats["legacy_seconds"],
                1e3 * stats["dense_seconds"],
                stats["speedup"],
            )
        )
    print(
        "  combined: legacy %7.3fms   dense %7.3fms   speedup %5.1fx"
        % (
            1e3 * step_stats["legacy_seconds"],
            1e3 * step_stats["dense_seconds"],
            step_stats["speedup"],
        )
    )
    print(
        "model fine-tune (MiniSegformer, %d steps): legacy %6.2fs   dense %6.2fs"
        "   speedup %4.1fx   (losses identical: %s)"
        % (
            model_stats["steps"],
            model_stats["legacy_seconds"],
            model_stats["dense_seconds"],
            model_stats["speedup"],
            model_stats["identical_losses"],
        )
    )
    print(
        "compiled training (MiniSegformer, %d steps): eager %6.2fs   compiled"
        " %6.2fs   speedup %4.2fx   (losses identical: %s, weights identical:"
        " %s)"
        % (
            train_stats["steps"],
            train_stats["eager_seconds"],
            train_stats["compiled_seconds"],
            train_stats["speedup"],
            train_stats["identical_losses"],
            train_stats["identical_weights"],
        )
    )
    print("wrote %s" % args.output)

    if step_stats["speedup"] < min_speedup:
        print(
            "FAIL: pwl-step speedup %.1fx below required %.1fx"
            % (step_stats["speedup"], min_speedup)
        )
        return 1
    if train_stats["speedup"] < min_train_speedup:
        print(
            "FAIL: compiled-train speedup %.2fx below required %.2fx"
            % (train_stats["speedup"], min_train_speedup)
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
