"""Shared evaluation protocol helpers for the operator-level experiments."""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation import DEFAULT_SCALES, QuantizedPWLEvaluator
from repro.core.config import default_config
from repro.core.pwl import PiecewiseLinear
from repro.quant.quantizer import QuantSpec
from repro.scaling.multi_range import MultiRangePWL, default_multi_range

# Operators whose input carries a quantization scaling factor S.
SCALE_DEPENDENT_OPERATORS: Tuple[str, ...] = ("gelu", "hswish", "exp")
# Operators evaluated through multi-range input scaling (wide FXP inputs).
WIDE_RANGE_OPERATORS: Tuple[str, ...] = ("div", "rsqrt")


@functools.lru_cache(maxsize=None)
def _evaluator(operator: str, bits: int) -> QuantizedPWLEvaluator:
    """The (shared, grid-caching) Fig. 1b evaluator of one operator and width."""
    config = default_config(operator)
    return QuantizedPWLEvaluator(
        config.function(),
        spec=QuantSpec(bits=bits, signed=True),
        frac_bits=config.frac_bits,
    )


def scale_sweep_mse(
    operator: str,
    pwl: PiecewiseLinear,
    scales: Sequence[float] = DEFAULT_SCALES,
    bits: int = 8,
) -> Dict[float, float]:
    """Quantized-pipeline MSE per scaling factor for a scale-dependent op."""
    return _evaluator(operator, bits).sweep(pwl, scales)


def wide_range_mse(
    operator: str,
    pwl: PiecewiseLinear,
    num_samples: Optional[int] = None,
) -> float:
    """MSE of a wide-range operator under multi-range input scaling.

    Samples the input uniformly over the full covered range (the breakpoint
    interval plus all bounded sub-ranges of Table 2) with the data size the
    paper reports (Table 1) unless overridden.
    """
    config = default_config(operator)
    scaling = default_multi_range(operator)
    if num_samples is None:
        num_samples = config.data_size
    lo = config.search_range[0]
    # Cover the breakpoint interval plus every bounded sub-range of Table 2;
    # the unbounded tail sub-range reuses the previous scale and is pure
    # extrapolation, so it is excluded from the headline MSE.
    bounded = [sr.upper for sr in scaling.sub_ranges if np.isfinite(sr.upper)]
    hi = bounded[-1] if bounded else config.search_range[1]
    inputs = np.linspace(lo, hi, num_samples)
    wrapped = MultiRangePWL(pwl=pwl, scaling=scaling, frac_bits=config.frac_bits)
    return wrapped.mse(config.function(), inputs)


def average_mse(operator: str, pwl: PiecewiseLinear, bits: int = 8) -> float:
    """The Table 3 statistic for any operator.

    Scale-dependent operators average the quantized-pipeline MSE over the
    ``2^0 .. 2^-6`` sweep with ``bits``-bit input codes; wide-range
    operators report the multi-range scaling MSE, whose fixed-point
    inputs ``bits`` does not apply to.
    """
    if operator in WIDE_RANGE_OPERATORS:
        return wide_range_mse(operator, pwl)
    return _evaluator(operator, bits).average_mse(pwl)


def normalize(values: Dict[float, float]) -> Dict[float, float]:
    """Normalise a per-scale MSE dict by its maximum (for Fig. 2a / Fig. 3)."""
    peak = max(values.values())
    if peak <= 0:
        return {k: 0.0 for k in values}
    return {k: v / peak for k, v in values.items()}
