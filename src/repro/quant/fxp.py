"""Fixed-point (FXP) conversion utilities.

Algorithm 1 rounds the searched slopes and intercepts to fixed-point with a
decimal bit-width ``lambda``:  ``K = round(K* · 2^lambda) / 2^lambda``.  This
module provides that rounding plus helpers to reason about the total
bit-width a value needs (integer bits + decimal bits + sign).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np


def fxp_round(x, frac_bits: int) -> np.ndarray:
    """Round ``x`` to a fixed-point grid with ``frac_bits`` fractional bits.

    Exactly the paper's ``round(x * 2^lambda) / 2^lambda``.
    """
    if frac_bits < 0:
        raise ValueError("frac_bits must be non-negative, got %d" % frac_bits)
    factor = float(2 ** frac_bits)
    return np.round(np.asarray(x, dtype=np.float64) * factor) / factor


def to_fixed_point(x, frac_bits: int) -> np.ndarray:
    """Return the integer fixed-point codes ``round(x * 2^frac_bits)``."""
    if frac_bits < 0:
        raise ValueError("frac_bits must be non-negative, got %d" % frac_bits)
    return np.round(np.asarray(x, dtype=np.float64) * (2 ** frac_bits)).astype(np.int64)


def from_fixed_point(codes, frac_bits: int) -> np.ndarray:
    """Map integer fixed-point codes back to real values."""
    if frac_bits < 0:
        raise ValueError("frac_bits must be non-negative, got %d" % frac_bits)
    return np.asarray(codes, dtype=np.float64) / (2 ** frac_bits)


def required_integer_bits(x) -> int:
    """Minimum number of integer (magnitude) bits to represent ``x``.

    Excludes the sign bit and fractional bits; e.g. 3.7 needs 2 integer bits,
    -5.0 needs 3.
    """
    amax = float(np.max(np.abs(np.asarray(x, dtype=np.float64)))) if np.size(x) else 0.0
    if amax < 1.0:
        return 0
    return int(math.floor(math.log2(amax))) + 1


@dataclasses.dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format Q(integer_bits).(frac_bits).

    ``total_bits`` includes the sign bit.
    """

    integer_bits: int
    frac_bits: int
    signed: bool = True

    @property
    def total_bits(self) -> int:
        return self.integer_bits + self.frac_bits + (1 if self.signed else 0)

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        return 2.0 ** self.integer_bits - self.resolution

    @property
    def min_value(self) -> float:
        return -(2.0 ** self.integer_bits) if self.signed else 0.0

    def clamp(self, x) -> np.ndarray:
        """Saturate ``x`` to the representable interval of this format."""
        return np.clip(np.asarray(x, dtype=np.float64), self.min_value, self.max_value)

    def quantize(self, x) -> np.ndarray:
        """Round to the format's grid and saturate."""
        return self.clamp(fxp_round(x, self.frac_bits))

    @classmethod
    def for_values(cls, x, frac_bits: int, signed: bool = True) -> "FixedPointFormat":
        """Smallest format with ``frac_bits`` fractional bits covering ``x``."""
        return cls(required_integer_bits(x), frac_bits, signed)


def fxp_quantize_array(x, frac_bits: int, total_bits: int, signed: bool = True) -> np.ndarray:
    """Round to ``frac_bits`` fractional bits and saturate to ``total_bits``.

    This is the storage model of the INT8/INT16 LUT: a value stored in
    ``total_bits`` bits with ``frac_bits`` of them fractional.
    """
    if total_bits <= frac_bits:
        raise ValueError(
            "total_bits (%d) must exceed frac_bits (%d)" % (total_bits, frac_bits)
        )
    integer_bits = total_bits - frac_bits - (1 if signed else 0)
    fmt = FixedPointFormat(integer_bits, frac_bits, signed)
    return fmt.quantize(x)
