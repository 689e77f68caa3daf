"""Procedural multi-class segmentation dataset ("synthetic cityscapes").

The paper fine-tunes on Cityscapes (urban scenes, 19 classes, pixel-level
labels).  That dataset cannot be shipped here, so this module generates a
synthetic stand-in that preserves the properties the experiment actually
exercises:

* dense per-pixel multi-class labels,
* structured scenes with a background gradient ("road/sky"), large regions
  ("buildings"), and small objects ("vehicles", "poles"), so both global
  context and local detail matter,
* a fixed train/validation split with deterministic seeding, so baseline
  and pwl-replaced fine-tuning runs see identical data.

Each scene is built by compositing colored geometric primitives (horizon
gradient, rectangles, discs, vertical bars) onto an image; the label map
follows the compositing order.  Gaussian pixel noise makes the task
non-trivial for a small model without requiring many epochs.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class SyntheticSegmentationConfig:
    """Shape and content parameters of the synthetic dataset."""

    image_size: int = 32
    num_classes: int = 5
    num_train: int = 128
    num_val: int = 32
    noise_std: float = 0.05
    max_rectangles: int = 3
    max_discs: int = 2
    max_bars: int = 2
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_classes < 3:
            raise ValueError("need at least 3 classes (background, region, object)")
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")


# Fixed per-class base colours (RGB in [0, 1]); extra classes reuse hues with
# a deterministic perturbation so any num_classes up to 10 works.
_BASE_COLORS = np.array(
    [
        [0.25, 0.25, 0.28],  # class 0: road / background
        [0.53, 0.81, 0.92],  # class 1: sky band
        [0.55, 0.27, 0.07],  # class 2: building rectangles
        [0.86, 0.08, 0.24],  # class 3: vehicle discs
        [0.93, 0.91, 0.67],  # class 4: poles / bars
        [0.13, 0.55, 0.13],
        [0.58, 0.00, 0.83],
        [1.00, 0.65, 0.00],
        [0.00, 0.50, 0.50],
        [0.75, 0.75, 0.75],
    ]
)


def _class_color(class_id: int) -> np.ndarray:
    color = _BASE_COLORS[class_id % len(_BASE_COLORS)].copy()
    if class_id >= len(_BASE_COLORS):
        color = np.clip(color * 0.7 + 0.15, 0.0, 1.0)
    return color


def generate_scene(
    rng: np.random.Generator, config: SyntheticSegmentationConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate one ``(image, label)`` pair.

    Returns ``image`` with shape ``(H, W, 3)`` in ``[0, 1]`` and ``label``
    with shape ``(H, W)`` holding integer class ids.
    """
    size = config.image_size
    image = np.zeros((size, size, 3), dtype=np.float64)
    label = np.zeros((size, size), dtype=np.int64)

    # Background: class 0 (lower part) and class 1 (sky band above a horizon).
    horizon = rng.integers(size // 4, size // 2)
    image[:, :, :] = _class_color(0) * (0.8 + 0.4 * np.linspace(0, 1, size))[:, None, None]
    image[:horizon] = _class_color(1) * (0.9 + 0.2 * rng.random())
    label[:horizon] = 1

    ys, xs = np.mgrid[0:size, 0:size]

    # Large rectangles: class 2.
    for _ in range(rng.integers(1, config.max_rectangles + 1)):
        h = rng.integers(size // 5, size // 2)
        w = rng.integers(size // 5, size // 2)
        top = rng.integers(0, size - h)
        left = rng.integers(0, size - w)
        shade = 0.7 + 0.5 * rng.random()
        image[top:top + h, left:left + w] = _class_color(2) * shade
        label[top:top + h, left:left + w] = 2

    # Discs: class 3.
    if config.num_classes > 3:
        for _ in range(rng.integers(1, config.max_discs + 1)):
            radius = rng.integers(max(2, size // 12), max(3, size // 6))
            cy = rng.integers(radius, size - radius)
            cx = rng.integers(radius, size - radius)
            mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
            shade = 0.7 + 0.5 * rng.random()
            image[mask] = _class_color(3) * shade
            label[mask] = 3

    # Thin vertical bars: class 4 (and higher classes cycle through bars).
    if config.num_classes > 4:
        for _ in range(rng.integers(1, config.max_bars + 1)):
            class_id = int(rng.integers(4, config.num_classes))
            width = max(1, size // 16)
            left = rng.integers(0, size - width)
            top = rng.integers(0, size // 2)
            height = rng.integers(size // 3, size - top)
            shade = 0.7 + 0.5 * rng.random()
            image[top:top + height, left:left + width] = _class_color(class_id) * shade
            label[top:top + height, left:left + width] = class_id

    image = image + rng.normal(0.0, config.noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0), label


class SyntheticSegmentationDataset:
    """Deterministic train/val split of procedurally generated scenes."""

    def __init__(self, config: SyntheticSegmentationConfig = SyntheticSegmentationConfig()) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        train = [generate_scene(rng, config) for _ in range(config.num_train)]
        val = [generate_scene(rng, config) for _ in range(config.num_val)]
        self.train_images = np.stack([img for img, _ in train])
        self.train_labels = np.stack([lbl for _, lbl in train])
        self.val_images = np.stack([img for img, _ in val])
        self.val_labels = np.stack([lbl for _, lbl in val])

    @property
    def num_classes(self) -> int:
        return self.config.num_classes
