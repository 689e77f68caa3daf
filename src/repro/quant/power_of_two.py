"""Power-of-two scaling factors.

Section 3.1 of the paper forces the scaling factor of a non-linearity input
to be a power of two, ``S = 2^round(log2(alpha))``, so that dividing the
intercepts by ``S`` reduces to a shift.  These helpers implement that
rounding and read the shift amount back from an exact ``2^e``.
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
    """Snap ``scale`` to the nearest power of two (exactly ``2.0 ** e``)."""
    return math.ldexp(1.0, power_of_two_exponent(scale))


def is_power_of_two(scale: float) -> bool:
    """True when ``scale`` is exactly ``2^e`` for some integer ``e``.

    A value even one ulp off ``2^e`` (``exp(e ln 2)``, say) is not: the
    Fig. 1b shifter divides by an exact power of two.
    """
    return scale > 0 and math.frexp(scale)[0] == 0.5
