"""Error metrics used by the approximation experiments."""

from __future__ import annotations

import numpy as np


def _pair(a, b):
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("shape mismatch: %s vs %s" % (x.shape, y.shape))
    if x.size == 0:
        raise ValueError("cannot compute a metric on empty arrays")
    return x, y


def mse(approx, reference) -> float:
    """Mean squared error between an approximation and its reference."""
    x, y = _pair(approx, reference)
    return float(np.mean((x - y) ** 2))


def rmse(approx, reference) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mse(approx, reference)))


def mae(approx, reference) -> float:
    """Mean absolute error."""
    x, y = _pair(approx, reference)
    return float(np.mean(np.abs(x - y)))


def max_abs_error(approx, reference) -> float:
    """Worst-case absolute error."""
    x, y = _pair(approx, reference)
    return float(np.max(np.abs(x - y)))


def normalized_mse(approx, reference, eps: float = 1e-20) -> float:
    """MSE normalised by the reference signal power."""
    x, y = _pair(approx, reference)
    denom = float(np.mean(y ** 2)) + eps
    return float(np.mean((x - y) ** 2) / denom)


def sqnr_db(approx, reference, eps: float = 1e-20) -> float:
    """Signal-to-quantization-noise ratio in decibels."""
    x, y = _pair(approx, reference)
    noise = float(np.mean((x - y) ** 2)) + eps
    signal = float(np.mean(y ** 2)) + eps
    return float(10.0 * np.log10(signal / noise))
