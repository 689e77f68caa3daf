"""Fixed-point (FXP) conversion utilities.

Algorithm 1 rounds the searched slopes and intercepts to fixed-point with a
decimal bit-width ``lambda``:  ``K = round(K* · 2^lambda) / 2^lambda``.  This
module provides that rounding, as real values and as integer codes.
"""

from __future__ import annotations

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
    """Return the integer fixed-point codes ``round(x * 2^frac_bits)``.

    ``np.rint`` is the ufunc ``np.round`` runs (half to even), called
    without its wrapper: the Fig. 1b coefficients call this per scale.
    """
    if frac_bits < 0:
        raise ValueError("frac_bits must be non-negative, got %d" % frac_bits)
    return np.rint(np.asarray(x, dtype=np.float64) * float(1 << frac_bits)).astype(np.int64)


def shift_codes(codes, shift: int) -> np.ndarray:
    """Divide int64 fixed-point ``codes`` by ``2^shift`` with an integer shifter.

    A positive ``shift`` is an arithmetic right shift rounding half to even
    (``round(codes / 2^shift)``, exactly, for ``|codes| < 2^62``); zero or a
    negative ``shift`` is the exact left shift by ``-shift``, and raises
    ``OverflowError`` when a code does not fit int64 after it.  This is the
    intercept shifter of the Fig. 1b unit.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if shift <= 0:
        shifted = codes << -shift
        if shift and np.any(shifted >> -shift != codes):
            raise OverflowError(
                "left shift by %d overflows int64 fixed-point codes" % -shift
            )
        return shifted
    if shift > 62:
        return np.zeros_like(codes)
    # Add half an output LSB less one, plus the kept LSB, then floor.
    return (codes + ((1 << (shift - 1)) - 1) + ((codes >> shift) & 1)) >> shift
