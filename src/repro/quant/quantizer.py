"""Uniform quantization (Eq. 2 of the paper).

The paper's quantization function is

    x_tilde = S * q = S * round(clip(x / S, Q_n, Q_p))

where ``S`` is the scaling factor, ``q`` the integer code and
``[Q_n, Q_p]`` the signed or unsigned k-bit bounds.  This module provides a
functional form (:func:`quantize` / :func:`dequantize`) and an object form
(:class:`UniformQuantizer`) used throughout the library.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

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
    arr = np.asarray(x, dtype=np.float64)
    q = np.clip(np.round(arr / scale), qn, qp)
    return q


def dequantize(q, scale: float) -> np.ndarray:
    """Map integer codes back to the real domain: ``x_tilde = S * q``."""
    if scale <= 0:
        raise ValueError("scale must be positive, got %r" % (scale,))
    return np.asarray(q, dtype=np.float64) * scale


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """Static description of a quantization format.

    Attributes
    ----------
    bits:
        Integer bit-width (8 for INT8, 16 for INT16, ...).
    signed:
        Whether codes are signed two's-complement values.
    power_of_two_scale:
        When true, scales handed to quantizers built from this spec are
        snapped to the nearest power of two (the paper's Section 3.1
        constraint for non-linearity inputs).
    """

    bits: int = 8
    signed: bool = True
    power_of_two_scale: bool = False

    @property
    def qmin(self) -> int:
        return quant_bounds(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return quant_bounds(self.bits, self.signed)[1]

    @property
    def num_levels(self) -> int:
        return self.qmax - self.qmin + 1

    def integer_dtype(self) -> np.dtype:
        """Smallest numpy integer dtype that can hold codes of this spec."""
        if self.bits <= 8:
            return np.dtype(np.int8 if self.signed else np.uint8)
        if self.bits <= 16:
            return np.dtype(np.int16 if self.signed else np.uint16)
        if self.bits <= 32:
            return np.dtype(np.int32 if self.signed else np.uint32)
        return np.dtype(np.int64 if self.signed else np.uint64)


INT8 = QuantSpec(bits=8, signed=True)
UINT8 = QuantSpec(bits=8, signed=False)
INT16 = QuantSpec(bits=16, signed=True)
INT32 = QuantSpec(bits=32, signed=True)


class UniformQuantizer:
    """A uniform quantizer with a fixed scale.

    Parameters
    ----------
    scale:
        The scaling factor ``S``.
    spec:
        The integer format; defaults to signed INT8.

    The quantizer snaps the scale to a power of two when the spec requests
    it, mirroring the paper's treatment of non-linearity inputs.
    """

    def __init__(self, scale: float, spec: QuantSpec = INT8) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive, got %r" % (scale,))
        if spec.power_of_two_scale:
            from repro.quant.power_of_two import round_scale_to_power_of_two

            scale = round_scale_to_power_of_two(scale)
        self.scale = float(scale)
        self.spec = spec

    def quantize(self, x) -> np.ndarray:
        """Return integer codes for ``x``."""
        return quantize(x, self.scale, self.spec.bits, self.spec.signed)

    def dequantize(self, q) -> np.ndarray:
        """Return the real values represented by codes ``q``."""
        return dequantize(q, self.scale)

    def roundtrip(self, x) -> np.ndarray:
        """Quantize then dequantize (the fake-quant forward pass)."""
        return self.dequantize(self.quantize(x))

    def representable_range(self) -> Tuple[float, float]:
        """The real-valued interval representable by this quantizer."""
        return self.spec.qmin * self.scale, self.spec.qmax * self.scale

    def grid(self) -> np.ndarray:
        """All representable real values, i.e. ``S * [Qn .. Qp]``.

        This is the "dequantized range" the paper samples when evaluating
        operator-level accuracy (Section 4.1).
        """
        codes = np.arange(self.spec.qmin, self.spec.qmax + 1, dtype=np.float64)
        return codes * self.scale

    @classmethod
    def from_range(
        cls,
        lo: float,
        hi: float,
        spec: QuantSpec = INT8,
    ) -> "UniformQuantizer":
        """Build a symmetric quantizer covering ``[lo, hi]`` (min-max)."""
        if not lo < hi:
            raise ValueError("invalid range [%r, %r]" % (lo, hi))
        if spec.signed:
            amax = max(abs(lo), abs(hi))
            scale = amax / max(abs(spec.qmin), spec.qmax)
        else:
            if lo < 0:
                raise ValueError("unsigned quantizer cannot represent negative values")
            scale = hi / spec.qmax
        scale = max(scale, np.finfo(np.float64).tiny)
        return cls(scale, spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UniformQuantizer(scale=%g, bits=%d, signed=%s)" % (
            self.scale,
            self.spec.bits,
            self.spec.signed,
        )
