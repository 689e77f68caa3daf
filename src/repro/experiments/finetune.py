"""Shared fine-tuning harness for the Table 4 / Table 5 experiments.

The protocol mirrors Section 4.2 of the paper, with the substitutions listed
in DESIGN.md (miniature models + synthetic segmentation data instead of
Segformer-B0 / EfficientViT-B0 on Cityscapes):

1. Train the floating-point model on the synthetic segmentation task.
2. Build the INT8 quantized baseline: LSQ-quantize every Linear layer,
   quantize the non-linear operator inputs with power-of-two scales, copy
   the float weights, and fine-tune.  Its validation mIoU is the "None"
   replacement row.
3. For each approximation method (NN-LUT, GQA-LUT w/o RM, GQA-LUT w/ RM)
   and each replacement set (each operator alone, then all together):
   swap in the pwl operators, copy the baseline weights and fine-tune,
   recording the validation mIoU.

The returned :class:`FinetuneResult` carries all rows plus the baseline, so
degradations (the paper's subscripted deltas) can be computed directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.pwl import PiecewiseLinear
from repro.data.synthetic_segmentation import (
    SyntheticSegmentationConfig,
    SyntheticSegmentationDataset,
)
from repro.experiments.jobs import SweepEngine
from repro.experiments.methods import ApproximationBudget, METHODS, build_approximations
from repro.nn.approx import FloatSuite, OperatorSuite, PWLSuite, QuantizedBaselineSuite
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig, SegmentationTransformer
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model, transfer_weights


@dataclasses.dataclass(frozen=True)
class FinetuneBudget:
    """Compute budget for one full fine-tuning table."""

    pretrain_epochs: int = 30
    finetune_epochs: int = 6
    batch_size: int = 16
    pretrain_lr: float = 3e-3
    finetune_lr: float = 5e-4
    image_size: int = 32
    num_train: int = 96
    num_val: int = 32
    num_classes: int = 5
    embed_dim: int = 32
    depth: int = 2
    seed: int = 0

    @classmethod
    def quick(cls) -> "FinetuneBudget":
        """A tiny budget for unit tests and smoke runs."""
        return cls(
            pretrain_epochs=4,
            finetune_epochs=1,
            batch_size=8,
            image_size=16,
            num_train=24,
            num_val=8,
            embed_dim=16,
            depth=1,
        )


@dataclasses.dataclass
class FinetuneRow:
    """One row of the fine-tuning table."""

    replacement: str
    method: str
    miou: float
    degradation: float


@dataclasses.dataclass
class FinetuneResult:
    """Full table: baseline + one row per (method, replacement)."""

    model_name: str
    baseline_miou: float
    float_miou: float
    rows: List[FinetuneRow]
    operators: Tuple[str, ...]

    def row(self, method: str, replacement: str) -> FinetuneRow:
        for row in self.rows:
            if row.method == method and row.replacement == replacement:
                return row
        raise KeyError("no row for method=%r replacement=%r" % (method, replacement))

    def degradation(self, method: str, replacement: str = "altogether") -> float:
        return self.row(method, replacement).degradation


def _build_model(
    model_cls: Type[SegmentationTransformer],
    model_config: ModelConfig,
    suite: OperatorSuite,
) -> SegmentationTransformer:
    return model_cls(model_config, suite=suite)


def run_finetune_experiment(
    model_cls: Type[SegmentationTransformer],
    operators: Sequence[str],
    approximations: Optional[Dict[Tuple[str, str], PiecewiseLinear]] = None,
    methods: Sequence[str] = METHODS,
    budget: FinetuneBudget = FinetuneBudget(),
    approx_budget: ApproximationBudget = ApproximationBudget(),
    include_individual: bool = True,
    engine: Optional[SweepEngine] = None,
    workers: Optional[int] = None,
) -> FinetuneResult:
    """Run the full fine-tuning protocol for one model family.

    Parameters
    ----------
    model_cls:
        :class:`MiniSegformer` or :class:`MiniEfficientViT`.
    operators:
        The replaceable operator inventory of that model (Table 4/5 rows).
    approximations:
        Optional pre-built ``(operator, method) -> pwl`` mapping; built with
        ``approx_budget`` through the sweep engine when omitted (``engine``
        and ``workers`` are forwarded, so cells shared with Table 3 /
        Fig. 2 / Fig. 3 come from the artifact cache).
    include_individual:
        When true, each operator is additionally replaced on its own (the
        "X only" rows); the "altogether" row is always produced.
    """
    data_config = SyntheticSegmentationConfig(
        image_size=budget.image_size,
        num_classes=budget.num_classes,
        num_train=budget.num_train,
        num_val=budget.num_val,
        seed=budget.seed + 101,
    )
    dataset = SyntheticSegmentationDataset(data_config)
    model_config = ModelConfig(
        image_size=budget.image_size,
        num_classes=budget.num_classes,
        embed_dim=budget.embed_dim,
        depth=budget.depth,
        seed=budget.seed,
    )

    # 1. Float pre-training.
    float_model = _build_model(model_cls, model_config, FloatSuite())
    float_trainer = Trainer(
        float_model,
        TrainingConfig(
            epochs=budget.pretrain_epochs,
            batch_size=budget.batch_size,
            learning_rate=budget.pretrain_lr,
            seed=budget.seed,
        ),
    )
    float_result = float_trainer.fit(
        dataset.train_images, dataset.train_labels,
        dataset.val_images, dataset.val_labels,
        num_classes=dataset.num_classes,
    )

    def finetune(model) -> float:
        """Quantize linears, transfer float weights, fine-tune, return mIoU."""
        prepare_quantized_model(model)
        transfer_weights(float_model, model)
        trainer = Trainer(
            model,
            TrainingConfig(
                epochs=budget.finetune_epochs,
                batch_size=budget.batch_size,
                learning_rate=budget.finetune_lr,
                seed=budget.seed,
            ),
        )
        result = trainer.fit(
            dataset.train_images, dataset.train_labels,
            dataset.val_images, dataset.val_labels,
            num_classes=dataset.num_classes,
        )
        return result.val_miou

    # 2. Quantized baseline ("None" replacement).
    baseline_model = _build_model(model_cls, model_config, QuantizedBaselineSuite())
    baseline_miou = finetune(baseline_model)

    # 3. pwl replacements.
    if approximations is None:
        approximations = build_approximations(
            operators, methods, budget=approx_budget, engine=engine, workers=workers
        )

    replacements: List[Tuple[str, Sequence[str]]] = []
    if include_individual:
        replacements.extend((op, (op,)) for op in operators)
    replacements.append(("altogether", tuple(operators)))

    rows: List[FinetuneRow] = []
    for method in methods:
        per_method = {op: approximations[(op, method)] for op in operators}
        for name, replace in replacements:
            suite = PWLSuite(approximations=per_method, replace=set(replace))
            model = _build_model(model_cls, model_config, suite)
            miou = finetune(model)
            rows.append(
                FinetuneRow(
                    replacement=name,
                    method=method,
                    miou=miou,
                    degradation=baseline_miou - miou,
                )
            )

    return FinetuneResult(
        model_name=model_cls.__name__,
        baseline_miou=baseline_miou,
        float_miou=float_result.val_miou,
        rows=rows,
        operators=tuple(operators),
    )


def format_finetune_table(result: FinetuneResult, title: str) -> str:
    """Render the table in the paper's layout (methods as columns)."""
    methods = sorted({row.method for row in result.rows}, key=METHODS.index)
    replacements = []
    for row in result.rows:
        if row.replacement not in replacements:
            replacements.append(row.replacement)

    lines = [title]
    lines.append("float model mIoU: %.2f%%" % (100 * result.float_miou))
    header = "%-16s" % "Replacement" + "".join("%16s" % m for m in methods)
    lines.append(header)
    baseline = "%-16s" % "None" + "".join(
        "%15.2f%%" % (100 * result.baseline_miou) for _ in methods
    )
    lines.append(baseline)
    for replacement in replacements:
        label = replacement if replacement == "altogether" else "%s only" % replacement.upper()
        row_text = "%-16s" % label
        for method in methods:
            row = result.row(method, replacement)
            row_text += "%15.2f%%" % (100 * row.miou)
        lines.append(row_text)
    deltas = "%-16s" % "degradation"
    for method in methods:
        deltas += "%15.2f%%" % (100 * result.degradation(method, "altogether"))
    lines.append(deltas + "   (altogether vs None)")
    return "\n".join(lines)
