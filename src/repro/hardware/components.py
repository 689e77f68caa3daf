"""A 28-nm-calibrated datapath component library.

Each factory returns a :class:`HardwareComponent` with an area estimate in
square micrometres and a dynamic-power estimate in milliwatts at the
reference clock (500 MHz, the paper's synthesis constraint).  The
coefficients are first-order standard-cell models:

* registers scale linearly with bit count,
* ripple/prefix adders and comparators scale linearly with width,
* array multipliers scale with the product of operand widths,
* barrel shifters scale with ``bits * log2(max_shift)``,
* FP32 units are modelled as the mantissa integer datapath plus exponent
  and normalisation overhead.

They are calibrated such that the INT8 8-entry pwl unit lands near the
paper's synthesized 961 um^2 / 0.40 mW anchor; all Table 6 conclusions rest
on *ratios* between configurations, which a linear component model preserves.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Technology:
    """Process/operating-point coefficients used by the component factories.

    Areas in um^2 per unit, powers in mW per unit at the reference clock.
    """

    name: str = "TSMC28"
    clock_mhz: float = 500.0
    # Area coefficients (fitted against the relative costs of the paper's
    # synthesized Table 6; see EXPERIMENTS.md for the calibration residuals).
    area_per_register_bit: float = 3.6
    area_per_adder_bit: float = 5.5
    area_per_comparator_bit: float = 3.2
    area_per_multiplier_bit2: float = 4.3
    area_per_shifter_bit_stage: float = 1.2
    area_per_mux_bit_input: float = 1.4
    area_per_encoder_input: float = 3.0
    fp32_overhead_factor: float = 1.45
    # Power coefficients (dynamic + leakage lumped), mW at 500 MHz.
    power_per_register_bit: float = 2.4e-3
    power_per_adder_bit: float = 2.0e-3
    power_per_comparator_bit: float = 1.2e-3
    power_per_multiplier_bit2: float = 1.6e-3
    power_per_shifter_bit_stage: float = 0.9e-3
    power_per_mux_bit_input: float = 0.45e-3
    power_per_encoder_input: float = 1.0e-3


TSMC28 = Technology()


@dataclasses.dataclass(frozen=True)
class HardwareComponent:
    """One datapath component with its area/power estimate."""

    name: str
    area_um2: float
    power_mw: float
    count: int = 1

    @property
    def total_area(self) -> float:
        return self.area_um2 * self.count

    @property
    def total_power(self) -> float:
        return self.power_mw * self.count

    def times(self, count: int) -> "HardwareComponent":
        """Return a copy replicated ``count`` times."""
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        return dataclasses.replace(self, count=count)


def register_bank(bits: int, tech: Technology = TSMC28, name: str = "register") -> HardwareComponent:
    """Flip-flop storage for ``bits`` bits (the LUT parameter store)."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return HardwareComponent(
        name=name,
        area_um2=bits * tech.area_per_register_bit,
        power_mw=bits * tech.power_per_register_bit,
    )


def adder(bits: int, tech: Technology = TSMC28, name: str = "adder") -> HardwareComponent:
    """Two's-complement adder of the given width."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return HardwareComponent(
        name=name,
        area_um2=bits * tech.area_per_adder_bit,
        power_mw=bits * tech.power_per_adder_bit,
    )


def comparator(bits: int, tech: Technology = TSMC28, name: str = "comparator") -> HardwareComponent:
    """Signed magnitude comparator of the given width."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return HardwareComponent(
        name=name,
        area_um2=bits * tech.area_per_comparator_bit,
        power_mw=bits * tech.power_per_comparator_bit,
    )


def multiplier(
    a_bits: int, b_bits: int, tech: Technology = TSMC28, name: str = "multiplier"
) -> HardwareComponent:
    """Array multiplier with operand widths ``a_bits`` x ``b_bits``."""
    if a_bits <= 0 or b_bits <= 0:
        raise ValueError("operand widths must be positive")
    cells = a_bits * b_bits
    return HardwareComponent(
        name=name,
        area_um2=cells * tech.area_per_multiplier_bit2,
        power_mw=cells * tech.power_per_multiplier_bit2,
    )


def barrel_shifter(
    bits: int, max_shift: int, tech: Technology = TSMC28, name: str = "shifter"
) -> HardwareComponent:
    """Barrel shifter over ``bits`` data bits with ``max_shift`` positions."""
    if bits <= 0 or max_shift <= 0:
        raise ValueError("bits and max_shift must be positive")
    stages = max(1, math.ceil(math.log2(max_shift + 1)))
    return HardwareComponent(
        name=name,
        area_um2=bits * stages * tech.area_per_shifter_bit_stage,
        power_mw=bits * stages * tech.power_per_shifter_bit_stage,
    )


def multiplexer(
    bits: int, num_inputs: int, tech: Technology = TSMC28, name: str = "mux"
) -> HardwareComponent:
    """``num_inputs``-to-1 multiplexer over ``bits``-bit words."""
    if bits <= 0 or num_inputs <= 1:
        raise ValueError("need positive width and at least 2 inputs")
    return HardwareComponent(
        name=name,
        area_um2=bits * num_inputs * tech.area_per_mux_bit_input,
        power_mw=bits * num_inputs * tech.power_per_mux_bit_input,
    )


def priority_encoder(
    num_inputs: int, tech: Technology = TSMC28, name: str = "priority_encoder"
) -> HardwareComponent:
    """Priority encoder turning comparator outputs into a LUT index."""
    if num_inputs <= 0:
        raise ValueError("num_inputs must be positive")
    return HardwareComponent(
        name=name,
        area_um2=num_inputs * tech.area_per_encoder_input,
        power_mw=num_inputs * tech.power_per_encoder_input,
    )


def fp32_multiplier(tech: Technology = TSMC28, name: str = "fp32_multiplier") -> HardwareComponent:
    """IEEE-754 single-precision multiplier.

    Modelled as a 24x24 mantissa multiplier plus exponent adder and
    normalisation logic (the ``fp32_overhead_factor``).
    """
    mantissa = multiplier(24, 24, tech)
    exponent = adder(8, tech)
    area = (mantissa.area_um2 + exponent.area_um2) * tech.fp32_overhead_factor
    power = (mantissa.power_mw + exponent.power_mw) * tech.fp32_overhead_factor
    return HardwareComponent(name=name, area_um2=area, power_mw=power)


def fp32_adder(tech: Technology = TSMC28, name: str = "fp32_adder") -> HardwareComponent:
    """IEEE-754 single-precision adder (align + add + normalise)."""
    mantissa = adder(24, tech)
    align = barrel_shifter(24, 24, tech)
    normalise = barrel_shifter(24, 24, tech)
    exponent = adder(8, tech)
    area = (
        mantissa.area_um2 + align.area_um2 + normalise.area_um2 + exponent.area_um2
    ) * tech.fp32_overhead_factor
    power = (
        mantissa.power_mw + align.power_mw + normalise.power_mw + exponent.power_mw
    ) * tech.fp32_overhead_factor
    return HardwareComponent(name=name, area_um2=area, power_mw=power)


def fp32_comparator(tech: Technology = TSMC28, name: str = "fp32_comparator") -> HardwareComponent:
    """FP32 comparator (sign/exponent/mantissa compare)."""
    base = comparator(32, tech)
    return HardwareComponent(
        name=name, area_um2=base.area_um2 * 1.2, power_mw=base.power_mw * 1.2
    )
