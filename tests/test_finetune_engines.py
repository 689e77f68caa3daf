"""Fine-tuning contract: dense tables == the reference pipeline, bit for bit.

A seeded quantization-aware fine-tune at the ``FinetuneBudget.quick()``
budget must produce *identical* losses and validation mIoU whether the pwl
operators run on the dense tables or on the per-pass Fig. 1b reference
pipeline of ``oracles.py`` — the contract the genetic search holds against
its per-row scorer.
"""

from __future__ import annotations

import pytest

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.data.synthetic_segmentation import (
    SyntheticSegmentationConfig,
    SyntheticSegmentationDataset,
)
from repro.experiments.finetune import FinetuneBudget
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model

from oracles import ReferencePWLSuite

SEGFORMER_OPS = ("exp", "gelu", "div", "rsqrt")
EFFICIENTVIT_OPS = ("hswish", "div")


def _approximations(operators):
    out = {}
    for operator in operators:
        fn = get_function(operator)
        breakpoints = uniform_breakpoints(*fn.search_range, 8)
        out[operator] = fit_pwl(fn.fn, breakpoints, fn.search_range).to_fixed_point(5)
    return out


def _finetune(model_cls, operators, suite_cls, budget):
    dataset = SyntheticSegmentationDataset(
        SyntheticSegmentationConfig(
            image_size=budget.image_size,
            num_classes=budget.num_classes,
            num_train=budget.num_train,
            num_val=budget.num_val,
            seed=budget.seed + 101,
        )
    )
    config = ModelConfig(
        image_size=budget.image_size,
        num_classes=budget.num_classes,
        embed_dim=budget.embed_dim,
        depth=budget.depth,
        seed=budget.seed,
    )
    suite = suite_cls(approximations=_approximations(operators), replace=set(operators))
    model = model_cls(config, suite=suite)
    prepare_quantized_model(model)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=budget.finetune_epochs,
            batch_size=budget.batch_size,
            learning_rate=budget.finetune_lr,
            seed=budget.seed,
        ),
    )
    return trainer.fit(
        dataset.train_images, dataset.train_labels,
        dataset.val_images, dataset.val_labels,
        num_classes=dataset.num_classes,
    )


class TestSeededEngineParity:
    @pytest.mark.parametrize(
        "model_cls,operators",
        [(MiniSegformer, SEGFORMER_OPS), (MiniEfficientViT, EFFICIENTVIT_OPS)],
    )
    def test_quick_finetune_identical_across_engines(self, model_cls, operators):
        budget = FinetuneBudget.quick()
        legacy = _finetune(model_cls, operators, ReferencePWLSuite, budget)
        dense = _finetune(model_cls, operators, PWLSuite, budget)
        assert legacy.losses == dense.losses
        assert legacy.val_miou == dense.val_miou
        assert legacy.val_pixel_accuracy == dense.val_pixel_accuracy
        assert legacy.train_miou == dense.train_miou

    def test_suite_rejects_unknown_engine(self):
        assert PWLSuite(approximations={}, engine="dense").engine == "dense"
        for engine in ("turbo", "legacy"):
            with pytest.raises(ValueError):
                PWLSuite(approximations={}, engine=engine)


class TestTrainerEvaluateModeRestore:
    def _setup(self):
        budget = FinetuneBudget.quick()
        dataset = SyntheticSegmentationDataset(
            SyntheticSegmentationConfig(
                image_size=budget.image_size,
                num_classes=budget.num_classes,
                num_train=8,
                num_val=4,
                seed=0,
            )
        )
        config = ModelConfig(
            image_size=budget.image_size,
            num_classes=budget.num_classes,
            embed_dim=budget.embed_dim,
            depth=budget.depth,
            seed=0,
        )
        from repro.nn.approx import FloatSuite

        model = MiniSegformer(config, suite=FloatSuite())
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=0))
        return trainer, dataset

    def test_eval_mode_preserved(self):
        trainer, dataset = self._setup()
        trainer.model.eval()
        trainer.evaluate(dataset.val_images, dataset.val_labels, dataset.num_classes)
        assert not trainer.model.training
        assert all(not m.training for m in trainer.model.modules())

    def test_train_mode_preserved(self):
        trainer, dataset = self._setup()
        trainer.model.train()
        trainer.evaluate(dataset.val_images, dataset.val_labels, dataset.num_classes)
        assert trainer.model.training
