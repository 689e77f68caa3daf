"""Training and fine-tuning loops for the segmentation experiments.

Checkpointing (:func:`save_checkpoint` / :func:`load_checkpoint`) makes a
fine-tune crash-resumable with **bit-exact** semantics: a checkpoint
captures the model parameters, the optimizer's moment buffers, the LR
schedule step and the trainer's RNG state, so a run killed after epoch k
and resumed replays epochs k+1..N to exactly the weights an
uninterrupted run produces (pinned by the resume-parity test).  Writes
are atomic (temp file + ``os.replace``, the artifact-store idiom) and
carry a SHA-256 content checksum verified on load — a torn or perturbed
file raises :class:`~repro.reliability.errors.CheckpointCorruptError`
instead of silently resuming from garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn.metrics import mean_iou, pixel_accuracy
from repro.nn.module import Module
from repro.nn.optim import Adam, CosineSchedule, Optimizer
from repro.nn.quantization import quantize_linears_in_place
from repro.nn.tensor import Tensor, no_grad
from repro.reliability.errors import CheckpointCorruptError
from repro.reliability.faults import corrupt_file, fault_point

CHECKPOINT_VERSION = 1

# Per-parameter optimizer buffer groups serialised as arrays (which of
# them exist depends on the optimizer class).
_OPTIM_BUFFER_GROUPS = ("velocity", "m", "v")


@dataclasses.dataclass
class TrainingConfig:
    """Hyper-parameters of a (fine-)tuning run."""

    epochs: int = 5
    batch_size: int = 8
    learning_rate: float = 2e-3
    weight_decay: float = 0.0
    seed: int = 0
    log_every: int = 0  # 0 disables progress printing


@dataclasses.dataclass
class TrainingResult:
    """Summary of one training run."""

    losses: List[float]
    train_miou: float
    val_miou: float
    val_pixel_accuracy: float
    epochs: int
    duration_seconds: float


def _checkpoint_digest(arrays: Dict[str, Any], meta_json: str) -> bytes:
    """SHA-256 over the meta record and every array (sorted, shape-tagged)."""
    digest = hashlib.sha256()
    digest.update(meta_json.encode("utf-8"))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.digest()


def _fsync_directory(directory: Path) -> None:
    """Persist a directory entry (the renamed checkpoint) across power loss.

    Best-effort: platforms that cannot ``fsync`` a directory fd (or open
    one at all) keep the process-crash atomicity guarantee and skip the
    power-failure one.
    """
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def save_checkpoint(
    path: Union[str, Path],
    model: Module,
    optimizer: Optional[Optimizer] = None,
    schedule: Optional[CosineSchedule] = None,
    rng: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Atomically write one resumable training checkpoint.

    One ``.npz`` holds the model ``state_dict`` (``model/<name>`` keys),
    the optimizer's buffers (``optim/<group>/<i>``), and a JSON meta
    record (scalars: optimizer lr/step, schedule step, the numpy
    Generator state, caller ``extra``).  The whole payload is covered by
    a SHA-256 checksum.  The write goes to a temp file in the target
    directory, is ``fsync``'d, and then renamed into place (with the
    directory entry synced too), so a crash — or a power loss — mid-save
    leaves the previous checkpoint intact, never a torn file.
    """
    fault_point("trainer.checkpoint")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, Any] = {}
    for name, value in model.state_dict().items():
        arrays["model/%s" % name] = np.asarray(value)
    meta: Dict[str, Any] = {"version": CHECKPOINT_VERSION, "extra": extra or {}}
    if optimizer is not None:
        state = optimizer.state_dict()
        optim_meta: Dict[str, Any] = {
            "type": type(optimizer).__name__,
            "lr": state["lr"],
        }
        if "step" in state:
            optim_meta["step"] = state["step"]
        meta["optimizer"] = optim_meta
        for group in _OPTIM_BUFFER_GROUPS:
            for index, buffer in enumerate(state.get(group, ())):
                arrays["optim/%s/%d" % (group, index)] = np.asarray(buffer)
    if schedule is not None:
        meta["schedule"] = schedule.state_dict()
    if rng is not None:
        meta["rng"] = rng.bit_generator.state
    meta_json = json.dumps(meta, sort_keys=True)
    checksum = np.frombuffer(_checkpoint_digest(arrays, meta_json), dtype=np.uint8)
    meta_array = np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8)
    fd, tmp_name = tempfile.mkstemp(
        prefix=".%s-" % path.stem, suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, __meta__=meta_array, __checksum__=checksum, **arrays)
            # The rename must not be reordered ahead of the data hitting
            # disk, or a power loss could leave the *new* name pointing
            # at torn bytes after the old checkpoint is already gone.
            handle.flush()
            os.fsync(handle.fileno())
        # Chaos hook: a torn write that still reached the final name —
        # load_checkpoint must refuse it, never resume from garbage.
        corrupt_file("trainer.checkpoint", tmp_name)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def load_checkpoint(
    path: Union[str, Path],
    model: Optional[Module] = None,
    optimizer: Optional[Optimizer] = None,
    schedule: Optional[CosineSchedule] = None,
    rng: Optional[Any] = None,
) -> Dict[str, Any]:
    """Verify and restore a checkpoint written by :func:`save_checkpoint`.

    The SHA-256 content checksum is verified *before* anything is
    restored; an unreadable, truncated or bit-perturbed file raises
    :class:`CheckpointCorruptError` with the model/optimizer untouched.
    Each of ``model`` / ``optimizer`` / ``schedule`` / ``rng`` is
    restored only when passed.  Returns the meta record (``extra`` holds
    whatever the saver stored — the trainer keeps epoch + losses there).
    """
    path = Path(path)
    fault_point("trainer.checkpoint.load")
    try:
        with np.load(path, allow_pickle=False) as data:
            names = set(data.files)
            if "__meta__" not in names or "__checksum__" not in names:
                raise CheckpointCorruptError(
                    "checkpoint %s is missing its meta/checksum records" % path
                )
            meta_json = np.asarray(data["__meta__"]).tobytes().decode("utf-8")
            checksum = np.asarray(data["__checksum__"]).tobytes()
            arrays = {
                name: np.asarray(data[name])
                for name in names
                if name not in ("__meta__", "__checksum__")
            }
    except CheckpointCorruptError:
        raise
    except Exception as error:  # torn zip, bad header, foreign file, ...
        raise CheckpointCorruptError(
            "checkpoint %s is unreadable: %s: %s"
            % (path, type(error).__name__, error)
        ) from error
    if checksum != _checkpoint_digest(arrays, meta_json):
        raise CheckpointCorruptError(
            "checkpoint %s failed its SHA-256 content check" % path
        )
    meta = json.loads(meta_json)
    if model is not None:
        state = {
            name[len("model/"):]: array
            for name, array in arrays.items()
            if name.startswith("model/")
        }
        model.load_state_dict(state, strict=True)
    if optimizer is not None:
        optim_meta = meta.get("optimizer")
        if optim_meta is None:
            raise CheckpointCorruptError(
                "checkpoint %s carries no optimizer state" % path
            )
        if optim_meta["type"] != type(optimizer).__name__:
            raise ValueError(
                "checkpoint optimizer is %s, cannot restore into %s"
                % (optim_meta["type"], type(optimizer).__name__)
            )
        optim_state: Dict[str, Any] = {"lr": optim_meta["lr"]}
        if "step" in optim_meta:
            optim_state["step"] = optim_meta["step"]
        for group in _OPTIM_BUFFER_GROUPS:
            prefix = "optim/%s/" % group
            entries = sorted(
                (name for name in arrays if name.startswith(prefix)),
                key=lambda name: int(name.rsplit("/", 1)[1]),
            )
            if entries:
                optim_state[group] = [arrays[name] for name in entries]
        optimizer.load_state_dict(optim_state)
    if schedule is not None and "schedule" in meta:
        schedule.load_state_dict(meta["schedule"])
    if rng is not None and "rng" in meta:
        rng.bit_generator.state = meta["rng"]
    return meta


class Trainer:
    """Mini-batch trainer for the segmentation models.

    The trainer consumes numpy arrays: ``images`` shaped ``(N, H, W, C)`` and
    integer ``labels`` shaped ``(N, H, W)``.
    """

    def __init__(self, model: Module, config: TrainingConfig = TrainingConfig()) -> None:
        self.model = model
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._compiled_model = None  # lazy fallback for models without .compiled()

    def _batches(self, images: np.ndarray, labels: np.ndarray):
        count = images.shape[0]
        order = self._rng.permutation(count)
        batch = self.config.batch_size
        for start in range(0, count, batch):
            idx = order[start:start + batch]
            yield images[idx], labels[idx]

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        engine: Optional[str] = None,
    ) -> Tuple[float, float]:
        """Return (mIoU, pixel accuracy) on a dataset.

        The model's train/eval mode is restored afterwards, so evaluating an
        inference-mode model does not silently flip it back to training.

        ``engine`` selects the no-grad inference path (``"compiled"`` |
        ``"eager"``), resolving through :mod:`repro.core.engine_config`
        (kwarg > context > ``REPRO_INFER_ENGINE`` > ``"eager"``).  The
        compiled path traces once per chunk shape (two specialisations for
        a dataset whose size is not a batch multiple) and amortises the
        plan over every batch of the evaluation — and across evaluate()
        calls, re-tracing only when parameters were actually rebound
        (CompiledModel's staleness detection); predictions are
        bit-identical either way.
        """
        from repro.core import engine_config

        compiled = None
        if engine_config.resolve("infer_engine", engine) == "compiled":
            if hasattr(self.model, "compiled"):
                compiled = self.model.compiled()
            else:
                from repro.graph.executor import CompiledModel

                if self._compiled_model is None or self._compiled_model.module is not self.model:
                    self._compiled_model = CompiledModel(self.model)
                compiled = self._compiled_model
        was_training = self.model.training
        self.model.eval()
        predictions = []
        batch = self.config.batch_size
        try:
            with no_grad():
                for start in range(0, images.shape[0], batch):
                    chunk = images[start:start + batch]
                    if compiled is not None:
                        predictions.append(compiled.predict(chunk))
                        continue
                    logits = self.model(Tensor(chunk))
                    predictions.append(np.argmax(logits.data, axis=-1))
        finally:
            self.model.train(was_training)
        predicted = np.concatenate(predictions, axis=0)
        return (
            mean_iou(predicted, labels, num_classes),
            pixel_accuracy(predicted, labels),
        )

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        val_images: Optional[np.ndarray] = None,
        val_labels: Optional[np.ndarray] = None,
        num_classes: Optional[int] = None,
        optimizer: Optional[Optimizer] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        train_engine: Optional[str] = None,
    ) -> TrainingResult:
        """Train the model and evaluate on the validation split.

        With ``checkpoint_path`` set, a checkpoint is written atomically
        every ``checkpoint_every`` epochs (and after the last).  With
        ``resume=True`` and an existing checkpoint, training restores
        model/optimizer/schedule/RNG from it and continues at the next
        epoch — bit-exact to a run that was never interrupted, because
        the batch-shuffling RNG resumes mid-stream too.  A missing file
        starts from scratch; a corrupt one raises
        :class:`CheckpointCorruptError` rather than training on garbage.

        ``train_engine`` selects the per-step training path (``"eager"``
        | ``"compiled"``), resolving through
        :mod:`repro.core.engine_config` (kwarg > context >
        ``REPRO_TRAIN_ENGINE`` > ``"eager"``).  The compiled engine traces
        the whole step — forward, backward and optimizer update — once per
        batch shape and replays the optimised static plan every subsequent
        step (:class:`repro.graph.executor.CompiledTrainStep`).  Losses,
        final weights, optimizer buffers and checkpoints are bit-identical
        across engines; only speed differs.
        """
        started = time.time()
        config = self.config
        if num_classes is None:
            num_classes = int(train_labels.max()) + 1
        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_path")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1, got %d" % checkpoint_every)
        optimizer = optimizer or Adam(
            self.model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
        )
        steps_per_epoch = max(1, int(np.ceil(train_images.shape[0] / config.batch_size)))
        schedule = CosineSchedule(optimizer, total_steps=config.epochs * steps_per_epoch)

        losses: List[float] = []
        start_epoch = 0
        if resume and Path(checkpoint_path).exists():
            meta = load_checkpoint(
                checkpoint_path,
                model=self.model,
                optimizer=optimizer,
                schedule=schedule,
                rng=self._rng,
            )
            extra = meta.get("extra", {})
            start_epoch = int(extra.get("epoch", 0))
            losses = [float(value) for value in extra.get("losses", [])]
        from repro.core import engine_config

        compiled_step = None
        if engine_config.resolve("train_engine", train_engine) == "compiled":
            from repro.graph.executor import CompiledTrainStep

            # Built after any resume restore so the first trace binds the
            # restored parameter/optimizer arrays, not the initial ones.
            compiled_step = CompiledTrainStep(self.model, optimizer, schedule=schedule)
        self.model.train()
        for epoch in range(start_epoch, config.epochs):
            for images, labels in self._batches(train_images, train_labels):
                if compiled_step is not None:
                    losses.append(compiled_step.step(images, labels))
                    continue
                logits = self.model(Tensor(images))
                loss = F.cross_entropy(logits, labels)
                optimizer.zero_grad()
                loss.backward()
                # backward() (retain_graph defaults to False) must have
                # released the tape here; a retained graph would pin every
                # intermediate activation of the run in memory.
                if loss._backward is not None or loss._parents:
                    raise RuntimeError(
                        "training step leaked its autograd tape: backward() "
                        "left the loss graph retained"
                    )
                optimizer.step()
                schedule.step()
                losses.append(loss.item())
            if config.log_every and (epoch + 1) % config.log_every == 0:
                print("epoch %d/%d loss %.4f" % (epoch + 1, config.epochs, losses[-1]))
            if checkpoint_path is not None and (
                (epoch + 1) % checkpoint_every == 0 or epoch + 1 == config.epochs
            ):
                save_checkpoint(
                    checkpoint_path,
                    self.model,
                    optimizer=optimizer,
                    schedule=schedule,
                    rng=self._rng,
                    extra={"epoch": epoch + 1, "losses": losses},
                )

        train_miou, _ = self.evaluate(train_images, train_labels, num_classes)
        if val_images is not None and val_labels is not None:
            val_miou, val_acc = self.evaluate(val_images, val_labels, num_classes)
        else:
            val_miou, val_acc = train_miou, float("nan")
        return TrainingResult(
            losses=losses,
            train_miou=train_miou,
            val_miou=val_miou,
            val_pixel_accuracy=val_acc,
            epochs=config.epochs,
            duration_seconds=time.time() - started,
        )


def prepare_quantized_model(model: Module, bits: int = 8) -> int:
    """Apply INT8 LSQ quantization to every Linear layer of ``model``.

    Returns the number of layers quantized.  The non-linear operator inputs
    are quantized separately by the operator suite the model was built with.
    """
    return quantize_linears_in_place(model, bits=bits)


def transfer_weights(source: Module, target: Module) -> int:
    """Copy parameters from ``source`` into ``target`` by dotted name.

    Only parameters whose names and shapes match are copied (quantizer
    scales and pwl-specific parameters are left at their initial values).
    Returns the number of parameters copied.
    """
    source_state = source.state_dict()
    copied = 0
    for name, param in target.named_parameters():
        # Quantized models wrap Linear layers as `<name>.inner.weight`; make
        # both directions line up by also trying the un-wrapped name.
        candidates = [name, name.replace(".inner.", ".")]
        for candidate in candidates:
            if candidate in source_state and source_state[candidate].shape == param.data.shape:
                param.data = source_state[candidate].copy()
                copied += 1
                break
    return copied
