"""Range observers used to calibrate quantizer scales.

The paper's baseline quantized models initialise LSQ scales from observed
activation statistics; these observers provide the standard min-max and
exponential-moving-average variants.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.quant.quantizer import QuantSpec, UniformQuantizer


class MinMaxObserver:
    """Tracks the global min/max of everything it observes."""

    def __init__(self, spec: QuantSpec = QuantSpec()) -> None:
        self.spec = spec
        self.min_val: Optional[float] = None
        self.max_val: Optional[float] = None

    def observe(self, x) -> None:
        """Update statistics with a new batch of data."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.size == 0:
            return
        lo = float(arr.min())
        hi = float(arr.max())
        self.min_val = lo if self.min_val is None else min(self.min_val, lo)
        self.max_val = hi if self.max_val is None else max(self.max_val, hi)

    @property
    def observed_range(self) -> Tuple[float, float]:
        if self.min_val is None or self.max_val is None:
            raise RuntimeError("observer has not seen any data")
        return self.min_val, self.max_val

    def make_quantizer(self) -> UniformQuantizer:
        """Build a symmetric quantizer covering the observed range."""
        lo, hi = self.observed_range
        if lo == hi:
            hi = lo + 1e-8
        return UniformQuantizer.from_range(lo, hi, self.spec)


class MovingAverageObserver:
    """Exponential-moving-average min/max observer."""

    def __init__(self, spec: QuantSpec = QuantSpec(), momentum: float = 0.9) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1), got %r" % (momentum,))
        self.spec = spec
        self.momentum = momentum
        self.min_val: Optional[float] = None
        self.max_val: Optional[float] = None

    def observe(self, x) -> None:
        """Update the moving-average statistics with a new batch."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.size == 0:
            return
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min_val is None:
            self.min_val, self.max_val = lo, hi
        else:
            m = self.momentum
            self.min_val = m * self.min_val + (1 - m) * lo
            self.max_val = m * self.max_val + (1 - m) * hi

    @property
    def observed_range(self) -> Tuple[float, float]:
        if self.min_val is None or self.max_val is None:
            raise RuntimeError("observer has not seen any data")
        return self.min_val, self.max_val

    def make_quantizer(self) -> UniformQuantizer:
        """Build a symmetric quantizer covering the smoothed range."""
        lo, hi = self.observed_range
        if lo == hi:
            hi = lo + 1e-8
        return UniformQuantizer.from_range(lo, hi, self.spec)
