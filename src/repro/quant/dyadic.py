"""Dyadic number arithmetic for integer-only rescaling.

Integer-only inference pipelines [Jacob et al., 15] replace floating-point
scale multiplications with a *dyadic* multiply: ``x * (m / 2^e)`` where ``m``
is an integer mantissa.  The quantized network substrate in :mod:`repro.nn`
uses these helpers when folding the product of input/weight scales into the
output scale.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class DyadicNumber:
    """A rational of the form ``mantissa / 2**exponent``."""

    mantissa: int
    exponent: int

    @property
    def value(self) -> float:
        return self.mantissa / float(2 ** self.exponent)

    def multiply(self, x) -> np.ndarray:
        """Integer-friendly multiply: ``(x * mantissa) >> exponent`` with rounding."""
        arr = np.asarray(x, dtype=np.float64)
        scaled = arr * self.mantissa
        return np.round(scaled / (2 ** self.exponent))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DyadicNumber(%d / 2^%d = %g)" % (self.mantissa, self.exponent, self.value)


def to_dyadic(value: float, bits: int = 16) -> DyadicNumber:
    """Approximate ``value`` by a dyadic number with a ``bits``-bit mantissa.

    The mantissa is chosen in ``[2^(bits-1), 2^bits)`` when possible so the
    representation uses the full precision, matching the fixed-point
    multiplier approach of integer-only inference.
    """
    if value <= 0:
        raise ValueError("dyadic conversion requires a positive value, got %r" % (value,))
    if bits < 2:
        raise ValueError("mantissa needs at least 2 bits")
    exponent = bits - 1 - int(math.floor(math.log2(value)))
    mantissa = int(round(value * (2 ** exponent)))
    # Rounding can push the mantissa to 2^bits; renormalise.
    if mantissa >= 2 ** bits:
        mantissa //= 2
        exponent -= 1
    return DyadicNumber(mantissa=mantissa, exponent=exponent)


def dyadic_rescale(x, scale: float, bits: int = 16) -> np.ndarray:
    """Rescale integer data by ``scale`` using dyadic arithmetic.

    Equivalent to ``round(x * scale)`` but performed via an integer multiply
    and shift, as an integer-only accelerator would.
    """
    return to_dyadic(scale, bits=bits).multiply(x)
