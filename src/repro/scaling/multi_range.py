"""Multi-Range Input Scaling (Section 3.1 and Table 2).

DIV (the Softmax denominator reciprocal) and RSQRT (the LayerNorm inverse
standard deviation) receive intermediate fixed-point values whose range is
far wider than the breakpoint interval ``I_R = [R_n, R_p]`` the pwl was
searched on.  The paper splits the out-of-range region into sub-ranges
``SR_i = [SR_n_i, SR_p_i)``; inputs falling in ``SR_i`` are rescaled into
``I_R`` by a manually chosen power-of-two factor ``S'_i`` and the pwl result
is corrected by ``S'_i`` (DIV) or ``sqrt(S'_i)`` (RSQRT), exploiting

    1 / (x)      = S' * (1 / (S' x))
    1 / sqrt(x)  = sqrt(S') * (1 / sqrt(S' x))

Table 2 of the paper gives the default sub-range setups reproduced here.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.core.pwl import PiecewiseLinear
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.fxp import fxp_round
from repro.quant.power_of_two import is_power_of_two


@dataclasses.dataclass(frozen=True)
class SubRange:
    """One sub-range ``[lower, upper)`` with its power-of-two scale ``S'``."""

    lower: float
    upper: float
    scale: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("invalid sub-range [%r, %r)" % (self.lower, self.upper))
        if self.scale <= 0:
            raise ValueError("sub-range scale must be positive, got %r" % (self.scale,))
        if not is_power_of_two(self.scale):
            raise ValueError("sub-range scale must be a power of two, got %r" % (self.scale,))


@dataclasses.dataclass(frozen=True)
class MultiRangeScaling:
    """The full Table 2 setup for one wide-range operator.

    Attributes
    ----------
    operator:
        Operator name ("div" or "rsqrt").
    breakpoint_interval:
        ``I_R = [R_n, R_p]`` — inputs already inside it bypass rescaling.
    sub_ranges:
        The out-of-range pieces and their scales, in ascending order.
    rescale_power:
        Output correction exponent: the pwl result is multiplied by
        ``scale ** rescale_power`` (1.0 for DIV, 0.5 for RSQRT).
    """

    operator: str
    breakpoint_interval: Tuple[float, float]
    sub_ranges: Tuple[SubRange, ...]
    rescale_power: float

    def __post_init__(self) -> None:
        lows = [sr.lower for sr in self.sub_ranges]
        if lows != sorted(lows):
            raise ValueError("sub-ranges must be sorted by lower bound")
        for below, above in zip(self.sub_ranges, self.sub_ranges[1:]):
            if below.upper > above.lower:
                raise ValueError(
                    "sub-ranges [%r, %r) and [%r, %r) overlap"
                    % (below.lower, below.upper, above.lower, above.upper)
                )


# Table 2: DIV covers I_R=(0.5, 4) plus [4, 32)/2^-3, [32, 256)/2^-6,
# [256, inf)/2^-6; RSQRT covers I_R=(0.25, 4) plus [4, 64)/2^-4,
# [64, 1024)/2^-8, [1024, inf)/2^-12.
DIV_MULTI_RANGE = MultiRangeScaling(
    operator="div",
    breakpoint_interval=(0.5, 4.0),
    sub_ranges=(
        SubRange(4.0, 32.0, 2.0 ** -3),
        SubRange(32.0, 256.0, 2.0 ** -6),
        SubRange(256.0, float("inf"), 2.0 ** -6),
    ),
    rescale_power=1.0,
)

RSQRT_MULTI_RANGE = MultiRangeScaling(
    operator="rsqrt",
    breakpoint_interval=(0.25, 4.0),
    sub_ranges=(
        SubRange(4.0, 64.0, 2.0 ** -4),
        SubRange(64.0, 1024.0, 2.0 ** -8),
        SubRange(1024.0, float("inf"), 2.0 ** -12),
    ),
    rescale_power=0.5,
)

_DEFAULTS = {"div": DIV_MULTI_RANGE, "rsqrt": RSQRT_MULTI_RANGE}


def default_multi_range(operator: str) -> MultiRangeScaling:
    """Return the Table 2 setup for ``operator`` ("div" or "rsqrt")."""
    key = operator.lower()
    if key not in _DEFAULTS:
        raise KeyError(
            "no default multi-range setup for %r; known: %s"
            % (operator, ", ".join(sorted(_DEFAULTS)))
        )
    return _DEFAULTS[key]


@dataclasses.dataclass
class MultiRangePWL:
    """A pwl wrapped with multi-range input scaling for wide-range operators.

    The breakpoints and intercepts are rounded to 8-bit FXP with
    ``frac_bits`` decimal bits (the Table 2 footnote), so the whole unit
    operates on fixed-point data of the input width.
    """

    pwl: PiecewiseLinear
    scaling: MultiRangeScaling
    frac_bits: int = 5

    def __post_init__(self) -> None:
        self._fxp_pwl = PiecewiseLinear(
            breakpoints=fxp_round(self.pwl.breakpoints, self.frac_bits),
            slopes=fxp_round(self.pwl.slopes, self.frac_bits),
            intercepts=fxp_round(self.pwl.intercepts, self.frac_bits),
        )
        self._build_slot_tables()

    def _build_slot_tables(self) -> None:
        """Precompute the sub-range classification tables.

        The sub-range edges ``[l_0, u_0, l_1, u_1, ...]`` split the real line
        into ``2n + 1`` slots; one ``searchsorted(side="right")`` maps every
        input to its slot, and per-slot gather tables give the input scale
        and output correction factor directly.  Odd slots are inside
        sub-range ``(slot - 1) / 2``; even slots (gaps and ``I_R``) keep
        scale/factor 1.  The edges never decrease, since
        :class:`MultiRangeScaling` rejects overlapping sub-ranges; a shared
        edge ``u_i = l_{i+1}`` goes to sub-range ``i + 1``, as ``[l, u)``
        says.  NaN sorts past every edge, into an even slot.
        """
        subs = self.scaling.sub_ranges
        power = self.scaling.rescale_power
        scales = np.ones(2 * len(subs) + 1, dtype=np.float64)
        factors = np.ones_like(scales)
        for i, sr in enumerate(subs):
            scales[2 * i + 1] = sr.scale
            factors[2 * i + 1] = sr.scale ** power
        self._slot_edges = np.array(
            [e for sr in subs for e in (sr.lower, sr.upper)], dtype=np.float64
        )
        self._slot_scales = scales
        self._slot_factors = factors

    @property
    def fxp_pwl(self) -> PiecewiseLinear:
        """The fixed-point pwl actually evaluated by the unit."""
        return self._fxp_pwl

    def lookup(self, x) -> np.ndarray:
        """Approximate the operator over the full wide input range.

        One ``searchsorted`` against the slot tables classifies every
        input; the pwl then runs on ``x * S'`` and its output is corrected
        by ``S'^rescale_power``.  ``self(x)`` is this method, and so is
        the inference kernel of :class:`repro.nn.approx.PWLWideRange`.
        """
        arr = np.asarray(x, dtype=np.float64)
        slot = self._slot_edges.searchsorted(arr, side="right")
        scaled = arr * self._slot_scales[slot]
        idx = self._fxp_pwl.segment_index(scaled)
        return self._slot_factors[slot] * (
            self._fxp_pwl.slopes[idx] * scaled + self._fxp_pwl.intercepts[idx]
        )

    __call__ = lookup

    def lookup_with_slope(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Output and exact ``d/dx`` from a single classify/rescale pass.

        The slot classification runs once and feeds the output, the output
        correction factor and the input scale together.  The output is
        bit-identical to :meth:`lookup`, and the slope is
        ``factor * slopes[idx] * S'`` (in-range inputs multiply by exactly
        1.0).
        """
        arr = np.asarray(x, dtype=np.float64)
        slot = self._slot_edges.searchsorted(arr, side="right")
        input_scale = self._slot_scales[slot]
        factor = self._slot_factors[slot]
        scaled = arr * input_scale
        idx = self._fxp_pwl.segment_index(scaled)
        slopes = self._fxp_pwl.slopes[idx]
        outputs = factor * (slopes * scaled + self._fxp_pwl.intercepts[idx])
        return outputs, factor * slopes * input_scale

    def mse(self, function: NonLinearFunction, inputs) -> float:
        """MSE of the wrapped approximation against the exact operator."""
        arr = np.asarray(inputs, dtype=np.float64)
        approx = self(arr)
        reference = np.asarray(function(arr), dtype=np.float64)
        return float(np.mean((approx - reference) ** 2))
