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
import math
from typing import List, Optional, Sequence, Tuple

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

    def contains(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        return (arr >= self.lower) & (arr < self.upper)


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

    def classify(self, x) -> np.ndarray:
        """Return the sub-range index per element (-1 = inside ``I_R``)."""
        arr = np.asarray(x, dtype=np.float64)
        out = np.full(arr.shape, -1, dtype=np.int64)
        for i, sr in enumerate(self.sub_ranges):
            out[sr.contains(arr)] = i
        return out

    def _sweep(self, x, with_scale: bool):
        """The sub-range mask sweep, optionally also producing ``S'``.

        Single implementation shared by :meth:`rescale_input` and
        :meth:`rescale_input_with_scale`; ``input_scale`` is only allocated
        when a caller needs the derivative factor.
        """
        arr = np.asarray(x, dtype=np.float64)
        idx = self.classify(arr)
        scaled = arr.copy()
        factor = np.ones_like(arr)
        input_scale = np.ones_like(arr) if with_scale else None
        for i, sr in enumerate(self.sub_ranges):
            mask = idx == i
            scaled = np.where(mask, arr * sr.scale, scaled)
            factor = np.where(mask, sr.scale ** self.rescale_power, factor)
            if with_scale:
                input_scale = np.where(mask, sr.scale, input_scale)
        return scaled, factor, input_scale

    def rescale_input(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Map inputs into ``I_R`` and return ``(scaled_x, output_factor)``.

        ``output_factor`` is the per-element multiplier to apply to the pwl
        output (``S'^rescale_power``; 1.0 for in-range inputs).
        """
        scaled, factor, _ = self._sweep(x, with_scale=False)
        return scaled, factor

    def rescale_input_with_scale(self, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`rescale_input`, also returning the input scale ``S'``.

        The fused lookup and the derivative path both need the per-element
        input scale (``d/dx [factor * pwl(S' x)] = factor * slope * S'``),
        so it is produced alongside ``scaled_x`` and ``output_factor``.
        """
        return self._sweep(x, with_scale=True)

    def coverage_upper_bound(self) -> float:
        """Largest input covered (inf when the last sub-range is unbounded)."""
        if not self.sub_ranges:
            return self.breakpoint_interval[1]
        return self.sub_ranges[-1].upper


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
    total_bits: int = 8

    def __post_init__(self) -> None:
        self._fxp_pwl = PiecewiseLinear(
            breakpoints=fxp_round(self.pwl.breakpoints, self.frac_bits),
            slopes=fxp_round(self.pwl.slopes, self.frac_bits),
            intercepts=fxp_round(self.pwl.intercepts, self.frac_bits),
        )
        self._build_slot_tables()

    def _build_slot_tables(self) -> None:
        """Precompute the dense sub-range classification tables.

        The sub-range edges ``[l_0, u_0, l_1, u_1, ...]`` split the real line
        into ``2n + 1`` slots; one ``searchsorted(side="right")`` maps every
        input to its slot, and per-slot gather tables give the input scale
        and output correction factor directly — replacing one boolean
        mask + ``np.where`` sweep per sub-range.  Odd slots are inside
        sub-range ``(slot - 1) / 2``; even slots (gaps and ``I_R``) keep
        scale/factor 1.  Requires non-decreasing edges (true for any
        non-overlapping Table 2 setup); otherwise the generic mask loop is
        used.
        """
        subs = self.scaling.sub_ranges
        edges = np.array([e for sr in subs for e in (sr.lower, sr.upper)], dtype=np.float64)
        if edges.size and np.any(np.diff(edges) < 0):
            self._slot_edges = None
            self._slot_scales = None
            self._slot_factors = None
            return
        power = self.scaling.rescale_power
        scales = np.ones(2 * len(subs) + 1, dtype=np.float64)
        factors = np.ones_like(scales)
        for i, sr in enumerate(subs):
            scales[2 * i + 1] = sr.scale
            factors[2 * i + 1] = sr.scale ** power
        self._slot_edges = edges
        self._slot_scales = scales
        self._slot_factors = factors

    @property
    def fxp_pwl(self) -> PiecewiseLinear:
        """The fixed-point pwl actually evaluated by the unit."""
        return self._fxp_pwl

    def __call__(self, x) -> np.ndarray:
        """Approximate the operator over the full wide input range."""
        arr = np.asarray(x, dtype=np.float64)
        scaled, factor = self.scaling.rescale_input(arr)
        return factor * self._fxp_pwl(scaled)

    def lookup(self, x) -> np.ndarray:
        """Forward-only fast path over the precomputed slot tables.

        Bit-identical to ``self(x)`` (pinned by the engine-parity tests) but
        classifies with a single ``searchsorted`` instead of the per-sub-range
        mask sweep — the inference/no-grad path of the dense engine.  Falls
        back to the generic ``__call__`` when the slot tables are unavailable
        (overlapping sub-ranges).
        """
        if self._slot_edges is None:
            return self(x)
        arr = np.asarray(x, dtype=np.float64)
        slot = self._slot_edges.searchsorted(arr, side="right")
        scaled = arr * self._slot_scales[slot]
        idx = self._fxp_pwl.segment_index(scaled)
        return self._slot_factors[slot] * (
            self._fxp_pwl.slopes[idx] * scaled + self._fxp_pwl.intercepts[idx]
        )

    def lookup_with_slope(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Output and exact ``d/dx`` from a single classify/rescale pass.

        The separate forward/backward path classifies the input three times
        (rescale for the output, rescale plus classify again for the slope);
        here the sub-range classification runs once — a single
        ``searchsorted`` against the precomputed slot tables — and feeds the
        output, the output correction factor and the input scale together.
        The returned values are bit-identical to ``self(x)`` and to
        ``factor * slopes[idx] * input_scale`` from the separate path, since
        every factor is gathered from the same scalar values and combined in
        the same order (in-range inputs multiply by exactly 1.0).
        """
        arr = np.asarray(x, dtype=np.float64)
        if self._slot_edges is not None:
            slot = self._slot_edges.searchsorted(arr, side="right")
            input_scale = self._slot_scales[slot]
            factor = self._slot_factors[slot]
            scaled = arr * input_scale
        else:
            scaled, factor, input_scale = self.scaling.rescale_input_with_scale(arr)
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
