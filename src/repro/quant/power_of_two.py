"""Power-of-two scaling factors.

Section 3.1 of the paper forces the scaling factor of a non-linearity input
to be a power of two, ``S = 2^round(log2(alpha))``, so that dividing the
intercepts by ``S`` reduces to a right shift.  These helpers implement that
rounding and the associated shift amounts.
"""

from __future__ import annotations

import math

import numpy as np


def power_of_two_exponent(scale: float) -> int:
    """Return the integer ``e`` with ``2^e`` closest to ``scale`` (log domain).

    The rounding happens on ``log2(scale)`` exactly as the paper rounds the
    logarithm of the learnable ``alpha``.
    """
    if scale <= 0:
        raise ValueError("scale must be positive, got %r" % (scale,))
    return int(np.round(math.log2(scale)))


def nearest_power_of_two(scale: float) -> float:
    """Snap ``scale`` to the nearest power of two."""
    return float(2.0 ** power_of_two_exponent(scale))


def round_scale_to_power_of_two(scale: float) -> float:
    """Alias of :func:`nearest_power_of_two` with a quantization-flavoured name."""
    return nearest_power_of_two(scale)


def is_power_of_two(scale: float, tol: float = 1e-12) -> bool:
    """True when ``scale`` equals ``2^e`` for some integer ``e``."""
    if scale <= 0:
        return False
    e = math.log2(scale)
    return abs(e - round(e)) < tol


def shift_for_scale(scale: float) -> int:
    """Right-shift amount implementing division by ``scale``.

    For a power-of-two scale ``S = 2^e`` the intercept rescaling
    ``b / S`` equals ``b >> e`` (a left shift when ``e`` is negative).  The
    returned value is ``e``: positive means shift right, negative means shift
    left.
    """
    if not is_power_of_two(scale):
        raise ValueError(
            "scale %r is not a power of two; round it first with "
            "round_scale_to_power_of_two()" % (scale,)
        )
    return power_of_two_exponent(scale)


def apply_shift(value, shift: int) -> np.ndarray:
    """Multiply ``value`` by ``2**(-shift)`` using float arithmetic.

    This mirrors the hardware shifter behaviour (``value >> shift``) but on
    real-valued intercepts, so it can be used on not-yet-FXP-rounded data.
    """
    return np.asarray(value, dtype=np.float64) * (2.0 ** (-shift))
