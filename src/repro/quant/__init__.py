"""Integer-only quantization substrate.

Implements the quantization machinery the paper relies on:

* uniform symmetric/affine quantization (Eq. 2) with signed/unsigned bounds,
* power-of-two scaling factors derived from a learnable ``alpha``
  (Section 3.1),
* fixed-point (FXP) conversion with a configurable decimal bit-width
  (the ``lambda`` of Algorithm 1) and the integer shifter that rescales FXP
  codes by a power-of-two scale.
"""

from repro.quant.quantizer import QuantSpec, quantize, quant_bounds
from repro.quant.power_of_two import (
    is_power_of_two,
    nearest_power_of_two,
    power_of_two_exponent,
)
from repro.quant.fxp import to_fixed_point, fxp_round, shift_codes

__all__ = [
    "QuantSpec",
    "quantize",
    "quant_bounds",
    "is_power_of_two",
    "nearest_power_of_two",
    "power_of_two_exponent",
    "to_fixed_point",
    "fxp_round",
    "shift_codes",
]
