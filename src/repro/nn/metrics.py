"""Segmentation metrics: confusion matrix, mIoU, pixel accuracy."""

from __future__ import annotations

from typing import Optional

import numpy as np


def confusion_matrix(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int,
    ignore_index: Optional[int] = None,
) -> np.ndarray:
    """Class-by-class confusion matrix over all pixels."""
    preds = np.asarray(predictions).reshape(-1)
    labels = np.asarray(targets).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError("predictions and targets must align, got %s vs %s"
                         % (preds.shape, labels.shape))
    if ignore_index is not None:
        keep = labels != ignore_index
        preds, labels = preds[keep], labels[keep]
    valid = (labels >= 0) & (labels < num_classes) & (preds >= 0) & (preds < num_classes)
    preds, labels = preds[valid], labels[valid]
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, preds), 1)
    return matrix


def iou_per_class(matrix: np.ndarray) -> np.ndarray:
    """Intersection-over-union per class; NaN for classes absent from both."""
    intersection = np.diag(matrix).astype(np.float64)
    union = matrix.sum(axis=0) + matrix.sum(axis=1) - np.diag(matrix)
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, intersection / union, np.nan)
    return iou


def mean_iou(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int,
    ignore_index: Optional[int] = None,
) -> float:
    """Mean IoU over classes present in predictions or targets (the paper's metric)."""
    matrix = confusion_matrix(predictions, targets, num_classes, ignore_index)
    iou = iou_per_class(matrix)
    if np.all(np.isnan(iou)):
        return 0.0
    return float(np.nanmean(iou))


def pixel_accuracy(
    predictions: np.ndarray, targets: np.ndarray, ignore_index: Optional[int] = None
) -> float:
    """Fraction of correctly classified pixels."""
    preds = np.asarray(predictions).reshape(-1)
    labels = np.asarray(targets).reshape(-1)
    if ignore_index is not None:
        keep = labels != ignore_index
        preds, labels = preds[keep], labels[keep]
    if labels.size == 0:
        return 0.0
    return float(np.mean(preds == labels))
