"""Tests for the miniature models, training loop, metrics and synthetic data."""

import numpy as np
import pytest

from repro.data import SyntheticSegmentationConfig, SyntheticSegmentationDataset, generate_scene
from repro.nn import functional as F
from repro.nn.approx import FloatSuite, PWLSuite, QuantizedBaselineSuite
from repro.nn.metrics import confusion_matrix, iou_per_class, mean_iou, pixel_accuracy
from repro.nn.models import MiniEfficientViT, MiniSegformer, ModelConfig
from repro.nn.optim import SGD, Adam, CosineSchedule
from repro.nn.quantization import QuantLinear
from repro.nn.tensor import Tensor
from repro.nn.training import Trainer, TrainingConfig, prepare_quantized_model, transfer_weights

SMALL = ModelConfig(image_size=16, num_classes=4, embed_dim=16, depth=1, num_heads=2,
                    patch_size=4, seed=0)


class TestSyntheticData:
    def test_shapes_and_dtypes(self):
        config = SyntheticSegmentationConfig(image_size=16, num_classes=5,
                                             num_train=6, num_val=3, seed=0)
        ds = SyntheticSegmentationDataset(config)
        assert ds.train_images.shape == (6, 16, 16, 3)
        assert ds.train_labels.shape == (6, 16, 16)
        assert ds.val_images.shape == (3, 16, 16, 3)
        assert ds.train_labels.dtype == np.int64

    def test_pixel_range_and_labels(self):
        config = SyntheticSegmentationConfig(image_size=16, num_train=4, num_val=2, seed=1)
        ds = SyntheticSegmentationDataset(config)
        assert ds.train_images.min() >= 0.0 and ds.train_images.max() <= 1.0
        assert ds.train_labels.min() >= 0
        assert ds.train_labels.max() < config.num_classes

    def test_deterministic_given_seed(self):
        config = SyntheticSegmentationConfig(image_size=16, num_train=4, num_val=2, seed=7)
        a = SyntheticSegmentationDataset(config)
        b = SyntheticSegmentationDataset(config)
        np.testing.assert_allclose(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.val_labels, b.val_labels)

    def test_scene_has_multiple_classes(self):
        rng = np.random.default_rng(0)
        config = SyntheticSegmentationConfig(image_size=32)
        _, label = generate_scene(rng, config)
        assert len(np.unique(label)) >= 3

    def test_training_split_covers_every_class(self):
        # Classes past 4 cycle through the bars, so each one still shows up.
        ds = SyntheticSegmentationDataset(
            SyntheticSegmentationConfig(image_size=16, num_classes=7, num_train=8, num_val=1)
        )
        counts = np.bincount(ds.train_labels.reshape(-1), minlength=ds.num_classes)
        assert counts.size == ds.num_classes
        assert np.all(counts > 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticSegmentationConfig(num_classes=2)
        with pytest.raises(ValueError):
            SyntheticSegmentationConfig(image_size=4)


class TestMetrics:
    def test_confusion_matrix_counts(self):
        pred = np.array([0, 0, 1, 1])
        target = np.array([0, 1, 1, 1])
        matrix = confusion_matrix(pred, target, num_classes=2)
        np.testing.assert_array_equal(matrix, [[1, 0], [1, 2]])

    def test_perfect_prediction_miou_is_one(self):
        labels = np.random.default_rng(0).integers(0, 4, size=(2, 8, 8))
        assert mean_iou(labels, labels, 4) == pytest.approx(1.0)

    def test_disjoint_prediction_miou_is_zero(self):
        target = np.zeros((4, 4), dtype=int)
        pred = np.ones((4, 4), dtype=int)
        assert mean_iou(pred, target, 2) == pytest.approx(0.0)

    def test_absent_classes_ignored(self):
        target = np.zeros((4, 4), dtype=int)
        pred = np.zeros((4, 4), dtype=int)
        # Classes 1..3 never appear; mIoU should still be 1.0, not diluted.
        assert mean_iou(pred, target, 4) == pytest.approx(1.0)

    def test_iou_per_class_nan_for_absent(self):
        matrix = confusion_matrix(np.zeros(4, int), np.zeros(4, int), 3)
        iou = iou_per_class(matrix)
        assert np.isnan(iou[1]) and np.isnan(iou[2])

    def test_ignore_index(self):
        target = np.array([0, 1, 255])
        pred = np.array([0, 0, 0])
        assert pixel_accuracy(pred, target, ignore_index=255) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(4), 2)


class TestOptimizers:
    def _quadratic_step(self, optimizer_cls, **kwargs):
        from repro.nn.module import Parameter

        param = Parameter(np.array([5.0]))
        optimizer = optimizer_cls([param], **kwargs)
        for _ in range(200):
            optimizer.zero_grad()
            loss = (Tensor(param.data) * 0 + param * param).sum()
            loss.backward()
            optimizer.step()
        return float(param.data[0])

    def test_sgd_converges_on_quadratic(self):
        assert abs(self._quadratic_step(SGD, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert abs(self._quadratic_step(SGD, lr=0.05, momentum=0.9)) < 1e-3

    def test_adam_converges_on_quadratic(self):
        assert abs(self._quadratic_step(Adam, lr=0.1)) < 1e-2

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_optimizer_requires_positive_lr(self):
        from repro.nn.module import Parameter

        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_cosine_schedule_decays_to_min(self):
        from repro.nn.module import Parameter

        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineSchedule(optimizer, total_steps=10, min_lr=0.1)
        lrs = [schedule.step() for _ in range(10)]
        assert lrs[0] > lrs[-1]
        assert lrs[-1] == pytest.approx(0.1)


class TestModels:
    def test_segformer_output_shape(self):
        model = MiniSegformer(SMALL)
        images = np.random.default_rng(0).random((2, 16, 16, 3))
        logits = model(Tensor(images))
        assert logits.shape == (2, 16, 16, 4)

    def test_efficientvit_output_shape(self):
        model = MiniEfficientViT(SMALL)
        images = np.random.default_rng(0).random((2, 16, 16, 3))
        logits = model(Tensor(images))
        assert logits.shape == (2, 16, 16, 4)

    def test_predict_returns_class_ids(self):
        model = MiniSegformer(SMALL)
        images = np.random.default_rng(0).random((1, 16, 16, 3))
        pred = model.predict(images)
        assert pred.shape == (1, 16, 16)
        assert pred.min() >= 0 and pred.max() < 4

    def test_operator_inventories(self):
        assert MiniSegformer.REPLACEABLE_OPERATORS == ("exp", "gelu", "div", "rsqrt")
        assert MiniEfficientViT.REPLACEABLE_OPERATORS == ("hswish", "div")

    def test_gradients_reach_every_parameter(self):
        model = MiniSegformer(SMALL)
        images = np.random.default_rng(0).random((2, 16, 16, 3))
        labels = np.random.default_rng(1).integers(0, 4, size=(2, 16, 16))
        loss = F.cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_quantized_baseline_suite_builds(self):
        model = MiniSegformer(SMALL, suite=QuantizedBaselineSuite())
        images = np.random.default_rng(0).random((1, 16, 16, 3))
        assert model(Tensor(images)).shape == (1, 16, 16, 4)

    def test_prepare_quantized_model_replaces_linears(self):
        model = MiniSegformer(SMALL, suite=QuantizedBaselineSuite())
        replaced = prepare_quantized_model(model)
        assert replaced >= 6  # qkv, proj, fc1, fc2, patch proj, classifier
        assert any(isinstance(m, QuantLinear) for m in model.modules())

    def test_transfer_weights_between_float_and_quant(self):
        float_model = MiniSegformer(SMALL, suite=FloatSuite())
        quant_model = MiniSegformer(SMALL, suite=QuantizedBaselineSuite())
        prepare_quantized_model(quant_model)
        copied = transfer_weights(float_model, quant_model)
        assert copied > 10
        # Spot-check one copied weight.
        src = dict(float_model.named_parameters())["patch_embed.proj.weight"].data
        dst = dict(quant_model.named_parameters())["patch_embed.proj.inner.weight"].data
        np.testing.assert_allclose(src, dst)


class TestPWLSuiteIntegration:
    @pytest.fixture(scope="class")
    def approximations(self):
        from repro.core.pwl import fit_pwl, uniform_breakpoints
        from repro.functions.registry import get_function

        out = {}
        for name in ("gelu", "exp", "div", "rsqrt", "hswish"):
            fn = get_function(name)
            bp = uniform_breakpoints(*fn.search_range, num_entries=8)
            out[name] = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
        return out

    def test_pwl_segformer_forward_and_backward(self, approximations):
        suite = PWLSuite(approximations=approximations,
                         replace={"gelu", "exp", "div", "rsqrt"})
        model = MiniSegformer(SMALL, suite=suite)
        images = np.random.default_rng(0).random((1, 16, 16, 3))
        labels = np.random.default_rng(1).integers(0, 4, size=(1, 16, 16))
        loss = F.cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        assert np.isfinite(loss.item())

    def test_pwl_efficientvit_forward(self, approximations):
        suite = PWLSuite(approximations=approximations, replace={"hswish", "div"})
        model = MiniEfficientViT(SMALL, suite=suite)
        images = np.random.default_rng(0).random((1, 16, 16, 3))
        out = model(Tensor(images))
        assert np.all(np.isfinite(out.data))

    def test_partial_replacement_keeps_exact_ops(self, approximations):
        suite = PWLSuite(approximations=approximations, replace={"gelu"})
        # Only GELU is replaced; EXP/DIV/RSQRT fall back to exact operators.
        assert suite._should_replace("gelu")
        assert not suite._should_replace("exp")

    def test_pwl_output_close_to_quantized_baseline(self, approximations):
        """Replacing operators by an 8-entry pwl should perturb the logits,
        not destroy them."""
        base = MiniSegformer(SMALL, suite=QuantizedBaselineSuite())
        suite = PWLSuite(approximations=approximations,
                         replace={"gelu", "exp", "div", "rsqrt"})
        replaced = MiniSegformer(SMALL, suite=suite)
        transfer_weights(base, replaced)
        images = np.random.default_rng(0).random((1, 16, 16, 3))
        a = base(Tensor(images)).data
        b = replaced(Tensor(images)).data
        assert np.max(np.abs(a - b)) < 2.0


class TestTrainer:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        return SyntheticSegmentationDataset(
            SyntheticSegmentationConfig(image_size=16, num_classes=4, num_train=16,
                                        num_val=8, seed=3)
        )

    def test_training_reduces_loss(self, tiny_dataset):
        model = MiniSegformer(SMALL)
        trainer = Trainer(model, TrainingConfig(epochs=4, batch_size=8,
                                                learning_rate=3e-3, seed=0))
        result = trainer.fit(tiny_dataset.train_images, tiny_dataset.train_labels,
                             tiny_dataset.val_images, tiny_dataset.val_labels,
                             num_classes=4)
        first_epoch = np.mean(result.losses[:2])
        last_epoch = np.mean(result.losses[-2:])
        assert last_epoch < first_epoch
        assert 0.0 <= result.val_miou <= 1.0
        assert result.duration_seconds > 0

    def test_training_beats_random_prediction(self, tiny_dataset):
        model = MiniSegformer(SMALL)
        trainer = Trainer(model, TrainingConfig(epochs=8, batch_size=8,
                                                learning_rate=3e-3, seed=0))
        result = trainer.fit(tiny_dataset.train_images, tiny_dataset.train_labels,
                             num_classes=4)
        # Random 4-class prediction would land near 1/4 pixel accuracy and
        # far lower mIoU; the trained model must clearly exceed chance mIoU.
        assert result.train_miou > 0.15

    def test_evaluate_returns_metrics(self, tiny_dataset):
        model = MiniSegformer(SMALL)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=8))
        miou, acc = trainer.evaluate(tiny_dataset.val_images, tiny_dataset.val_labels, 4)
        assert 0.0 <= miou <= 1.0
        assert 0.0 <= acc <= 1.0


class TestTrainStepReleasesTape:
    """Regression pin for the eager fit loop's memory contract: every
    step's backward must release the autograd tape (no retain_graph
    survivor), or a long fine-tune accumulates every intermediate
    activation of every step."""

    def _fixtures(self):
        dataset = SyntheticSegmentationDataset(
            SyntheticSegmentationConfig(
                image_size=16, num_classes=4, num_train=8, num_val=4, seed=5
            )
        )
        model = MiniSegformer(SMALL)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=0))
        return trainer, dataset

    def test_forward_intermediates_are_freed_after_fit(self):
        import gc
        import weakref

        trainer, dataset = self._fixtures()
        refs = []
        original_forward = trainer.model.forward

        def spying_forward(x):
            out = original_forward(x)
            refs.append(weakref.ref(out))
            return out

        trainer.model.forward = spying_forward
        # Reference counting alone must free each step's activations: no
        # cyclic garbage may hold them until a collector pass.
        gc.disable()
        try:
            trainer.fit(
                dataset.train_images, dataset.train_labels, num_classes=4
            )
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_fit_raises_if_backward_retains_the_tape(self, monkeypatch):
        trainer, dataset = self._fixtures()
        original_backward = Tensor.backward

        def sticky_backward(self, grad=None, retain_graph=False):
            return original_backward(self, grad, retain_graph=True)

        monkeypatch.setattr(Tensor, "backward", sticky_backward)
        with pytest.raises(RuntimeError, match="leaked its autograd tape"):
            trainer.fit(
                dataset.train_images, dataset.train_labels, num_classes=4
            )
