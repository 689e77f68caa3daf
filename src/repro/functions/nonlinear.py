"""Definitions of the non-linear functions approximated in the paper.

All functions operate element-wise on numpy arrays (or python scalars) and
return ``numpy.ndarray`` (or a scalar float when given a scalar).  They are
implemented with plain numpy so they can serve both as the *reference*
("golden") implementation that the piece-wise linear approximation is scored
against, and as the activation functions of the numpy neural-network
substrate in :mod:`repro.nn`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

import numpy as np

ArrayLike = "np.ndarray | float"

_SQRT_2 = math.sqrt(2.0)


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def gelu(x) -> np.ndarray:
    """Gaussian Error Linear Unit (exact, erf based).

    ``gelu(x) = x * 0.5 * (1 + erf(x / sqrt(2)))``
    """
    arr = _as_array(x)
    return arr * 0.5 * (1.0 + _erf_array(arr / _SQRT_2))


def hswish(x) -> np.ndarray:
    """Hard swish: ``x * relu6(x + 3) / 6``."""
    arr = _as_array(x)
    return arr * np.clip(arr + 3.0, 0.0, 6.0) / 6.0


def exp(x) -> np.ndarray:
    """Exponential, the kernel of Softmax.

    In Softmax the input is shifted by the row maximum so the effective
    domain is ``(-inf, 0]``; the paper searches on ``[-8, 0]``.
    """
    arr = _as_array(x)
    return np.exp(arr)


def div(x) -> np.ndarray:
    """Reciprocal ``1 / x`` — the division in Softmax normalisation.

    The operand is the (positive) sum of exponentials, therefore the domain
    is strictly positive.  Inputs of exactly zero are mapped to ``inf``.
    """
    arr = _as_array(x)
    with np.errstate(divide="ignore"):
        return np.where(arr == 0.0, np.inf, 1.0 / np.where(arr == 0.0, 1.0, arr))


def rsqrt(x) -> np.ndarray:
    """Reciprocal square root ``1 / sqrt(x)`` — used by LayerNorm.

    The operand is the (positive) variance plus epsilon, so the domain is
    strictly positive.  Inputs of exactly zero are mapped to ``inf``.
    """
    arr = _as_array(x)
    with np.errstate(divide="ignore"):
        safe = np.where(arr <= 0.0, 1.0, arr)
        return np.where(arr <= 0.0, np.inf, 1.0 / np.sqrt(safe))


def sigmoid(x) -> np.ndarray:
    """Logistic sigmoid, numerically stable for large magnitudes."""
    arr = _as_array(x)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def tanh(x) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(_as_array(x))


def silu(x) -> np.ndarray:
    """SiLU / swish: ``x * sigmoid(x)``."""
    arr = _as_array(x)
    return arr * sigmoid(arr)


def softplus(x) -> np.ndarray:
    """Softplus ``log(1 + exp(x))``, numerically stable."""
    arr = _as_array(x)
    return np.logaddexp(0.0, arr)


def _erf_array(x: np.ndarray) -> np.ndarray:
    """Vectorised error function without relying on scipy.

    Uses the Abramowitz & Stegun 7.1.26 rational approximation which is
    accurate to ~1.5e-7 — far below the error floor of an 8-entry pwl — and
    keeps the core library dependent on numpy only.
    """
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    y = 1.0 - poly * np.exp(-ax * ax)
    return sign * y


def erf(x) -> np.ndarray:
    """Error function (numpy-only approximation, |err| < 2e-7)."""
    return _erf_array(_as_array(x))


@dataclasses.dataclass(frozen=True)
class NonLinearFunction:
    """A non-linear operator plus the metadata needed to approximate it.

    Attributes
    ----------
    name:
        Canonical lower-case operator name ("gelu", "exp", ...).
    fn:
        The reference callable, element-wise over numpy arrays.
    search_range:
        The ``[R_n, R_p]`` interval the genetic search samples (Table 1).
    scale_dependent:
        ``True`` for operators whose input is a quantized activation and
        therefore carries a scaling factor ``S`` (GELU, HSWISH, EXP);
        ``False`` for operators that receive intermediate fixed-point values
        with a wide range (DIV, RSQRT) and use multi-range input scaling.
    signed_input:
        Whether the quantized input is signed (affects the INT clipping
        bounds ``[Q_n, Q_p]``).
    rescale_power:
        Exponent applied to the sub-range scale when re-scaling the pwl
        output under multi-range input scaling.  ``1.0`` for DIV
        (``1/(s·x) = (1/s)·(1/x)``), ``0.5`` for RSQRT
        (``1/sqrt(s·x) = (1/sqrt(s))·(1/sqrt(x))``), ``0.0`` for
        scale-dependent operators (unused).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    search_range: Tuple[float, float]
    scale_dependent: bool = True
    signed_input: bool = True
    rescale_power: float = 0.0

    def __call__(self, x) -> np.ndarray:
        return self.fn(x)

    def sample_grid(self, step: float = 0.01) -> np.ndarray:
        """Return the dense evaluation grid used by the GA fitness."""
        lo, hi = self.search_range
        if step <= 0:
            raise ValueError("step must be positive, got %r" % (step,))
        count = int(round((hi - lo) / step)) + 1
        return np.linspace(lo, hi, count)

    def with_range(self, lo: float, hi: float) -> "NonLinearFunction":
        """Return a copy of this operator with a different search range."""
        if not lo < hi:
            raise ValueError("invalid range [%r, %r]" % (lo, hi))
        return dataclasses.replace(self, search_range=(float(lo), float(hi)))


# Canonical operator instances.  Search ranges follow Table 1 of the paper.
GELU = NonLinearFunction("gelu", gelu, (-4.0, 4.0), scale_dependent=True, signed_input=True)
HSWISH = NonLinearFunction("hswish", hswish, (-4.0, 4.0), scale_dependent=True, signed_input=True)
EXP = NonLinearFunction("exp", exp, (-8.0, 0.0), scale_dependent=True, signed_input=True)
DIV = NonLinearFunction(
    "div", div, (0.5, 4.0), scale_dependent=False, signed_input=False, rescale_power=1.0
)
RSQRT = NonLinearFunction(
    "rsqrt", rsqrt, (0.25, 4.0), scale_dependent=False, signed_input=False, rescale_power=0.5
)
SIGMOID = NonLinearFunction("sigmoid", sigmoid, (-6.0, 6.0))
TANH = NonLinearFunction("tanh", tanh, (-4.0, 4.0))
SILU = NonLinearFunction("silu", silu, (-4.0, 4.0))
SOFTPLUS = NonLinearFunction("softplus", softplus, (-4.0, 4.0))
ERF = NonLinearFunction("erf", erf, (-3.0, 3.0))

ALL_FUNCTIONS = (
    GELU,
    HSWISH,
    EXP,
    DIV,
    RSQRT,
    SIGMOID,
    TANH,
    SILU,
    SOFTPLUS,
    ERF,
)
