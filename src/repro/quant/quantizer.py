"""Uniform quantization (Eq. 2 of the paper).

The paper's quantization function is

    x_tilde = S * q = S * round(clip(x / S, Q_n, Q_p))

where ``S`` is the scaling factor, ``q`` the integer code and
``[Q_n, Q_p]`` the signed or unsigned k-bit bounds.  :func:`quantize` is
the library's one input quantizer (real values to codes); a
:class:`QuantSpec` names the integer format.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

try:
    from numpy._core.umath import clip as clip_ufunc
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as clip_ufunc

# ``clip_ufunc`` is the ufunc ``np.clip`` dispatches to, called without the
# Python wrapper's argument checks (~1 us per call on small arrays).  Hot
# kernels that clip float arrays to float bounds use it directly; results
# are bit-identical.


def quant_bounds(bits: int, signed: bool = True) -> Tuple[int, int]:
    """Return the integer clipping bounds ``(Q_n, Q_p)`` for k-bit data.

    Signed data uses ``[-2^(k-1), 2^(k-1) - 1]``; unsigned uses
    ``[0, 2^k - 1]``.
    """
    if bits < 2:
        raise ValueError("quantization needs at least 2 bits, got %d" % bits)
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2 ** bits - 1


def quantize(x, scale: float, bits: int = 8, signed: bool = True) -> np.ndarray:
    """Quantize ``x`` to the integer code ``q = round(clip(x/S, Qn, Qp))``."""
    if scale <= 0:
        raise ValueError("scale must be positive, got %r" % (scale,))
    qn, qp = quant_bounds(bits, signed)
    return clip_ufunc(np.rint(np.asarray(x, dtype=np.float64) / scale), qn, qp)


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """Static description of a quantization format.

    Attributes
    ----------
    bits:
        Integer bit-width (8 for INT8, 16 for INT16, ...).
    signed:
        Whether codes are signed two's-complement values.
    """

    bits: int = 8
    signed: bool = True

    @property
    def qmin(self) -> int:
        return quant_bounds(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return quant_bounds(self.bits, self.signed)[1]
