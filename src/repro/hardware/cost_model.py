"""Analytical area/power model of the LUT-based pwl unit (Table 6).

Two datapath variants are composed from the component library:

* **Quantization-aware unit** (Fig. 1b) — used for INT8 and INT16: the
  comparer operates on the integer input code, the LUT stores FXP
  slopes/intercepts and quantized breakpoints, the intercept is rescaled by
  a barrel shifter, and a narrow multiplier/adder produce the output.
* **High-precision unit** (Fig. 1a) — used for INT32 and FP32 (the NN-LUT /
  RI-LUT style): full-width storage, comparators, multiplier and adder, with
  no shifter because the parameters are not shared across scales.

The raw component estimates can optionally be calibrated to the paper's
synthesized INT8 / 8-entry anchor (961 um^2, 0.40 mW) so that the generated
Table 6 is directly comparable; the INT8-vs-FP32 savings ratio is unchanged
by that calibration.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Tuple

from repro.hardware.components import (
    HardwareComponent,
    Technology,
    TSMC28,
    adder,
    barrel_shifter,
    comparator,
    fp32_adder,
    fp32_comparator,
    fp32_multiplier,
    multiplexer,
    multiplier,
    priority_encoder,
    register_bank,
)

# The paper's synthesized anchor for calibration (Table 6, first row).
PAPER_ANCHOR_AREA_UM2 = 961.0
PAPER_ANCHOR_POWER_MW = 0.40


class Precision(enum.Enum):
    """Input / LUT-parameter precision of the pwl unit."""

    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    FP32 = "fp32"

    @property
    def bits(self) -> int:
        return {"int8": 8, "int16": 16, "int32": 32, "fp32": 32}[self.value]

    @property
    def is_float(self) -> bool:
        return self is Precision.FP32

    @property
    def quantization_aware(self) -> bool:
        """INT8/INT16 use the Fig. 1b quantization-aware datapath."""
        return self in (Precision.INT8, Precision.INT16)


@dataclasses.dataclass
class SynthesisEstimate:
    """Synthesis-style result: total area/power plus a component breakdown."""

    precision: Precision
    num_entries: int
    area_um2: float
    power_mw: float
    components: List[HardwareComponent]
    calibrated: bool = False

    def breakdown(self) -> Dict[str, Tuple[float, float]]:
        """Per-component (area, power) totals keyed by component name."""
        out: Dict[str, Tuple[float, float]] = {}
        for comp in self.components:
            area, power = out.get(comp.name, (0.0, 0.0))
            out[comp.name] = (area + comp.total_area, power + comp.total_power)
        return out

    def scaled(self, area_factor: float, power_factor: float) -> "SynthesisEstimate":
        """Return a copy with area/power multiplied by calibration factors."""
        return SynthesisEstimate(
            precision=self.precision,
            num_entries=self.num_entries,
            area_um2=self.area_um2 * area_factor,
            power_mw=self.power_mw * power_factor,
            components=self.components,
            calibrated=True,
        )


@dataclasses.dataclass
class PWLUnitDesign:
    """A pwl LUT unit to be estimated.

    Parameters
    ----------
    precision:
        Input and LUT-parameter precision.
    num_entries:
        LUT entry count ``N`` (the unit stores ``N`` slope/intercept pairs
        and ``N - 1`` breakpoints).
    tech:
        Technology coefficients.
    """

    precision: Precision
    num_entries: int = 8
    tech: Technology = TSMC28

    def __post_init__(self) -> None:
        if self.num_entries < 2:
            raise ValueError("num_entries must be at least 2, got %d" % self.num_entries)

    # -- datapath composition --------------------------------------------------

    def components(self) -> List[HardwareComponent]:
        """Instantiate the component list for this unit."""
        n = self.num_entries
        bits = self.precision.bits
        tech = self.tech
        parts: List[HardwareComponent] = []

        # Parameter storage: N slopes + N intercepts + (N - 1) breakpoints.
        storage_bits = (3 * n - 1) * bits
        parts.append(register_bank(storage_bits, tech, name="lut_storage"))

        # Comparer: N - 1 comparators plus a priority encoder for the index.
        if self.precision.is_float:
            parts.append(fp32_comparator(tech).times(n - 1))
        else:
            parts.append(comparator(bits, tech).times(n - 1))
        parts.append(priority_encoder(n, tech))

        # Parameter read-out muxes for the selected slope and intercept.
        parts.append(multiplexer(bits, n, tech, name="slope_mux"))
        parts.append(multiplexer(bits, n, tech, name="intercept_mux"))

        # Arithmetic: k * x + b.
        if self.precision.is_float:
            parts.append(fp32_multiplier(tech))
            parts.append(fp32_adder(tech))
            out_bits = 32
        else:
            parts.append(multiplier(bits, bits, tech, name="mac_multiplier"))
            out_bits = 2 * bits
            parts.append(adder(out_bits, tech, name="mac_adder"))

        # Quantization-aware extras (Fig. 1b): the intercept shifter that
        # implements b >> log2(S), plus the output rescaling shifter.
        if self.precision.quantization_aware:
            parts.append(
                barrel_shifter(out_bits, bits, tech, name="intercept_shifter")
            )
            parts.append(
                barrel_shifter(out_bits, bits, tech, name="output_shifter")
            )

        # Output register.
        parts.append(register_bank(out_bits, tech, name="output_register"))
        return parts

    def estimate(self) -> SynthesisEstimate:
        """Sum component areas/powers into a synthesis-style estimate."""
        parts = self.components()
        area = sum(c.total_area for c in parts)
        power = sum(c.total_power for c in parts)
        return SynthesisEstimate(
            precision=self.precision,
            num_entries=self.num_entries,
            area_um2=area,
            power_mw=power,
            components=parts,
        )


def _calibration_factors(tech: Technology = TSMC28) -> Tuple[float, float]:
    """Factors mapping the raw INT8/8-entry estimate onto the paper anchor."""
    anchor = PWLUnitDesign(Precision.INT8, num_entries=8, tech=tech).estimate()
    return (
        PAPER_ANCHOR_AREA_UM2 / anchor.area_um2,
        PAPER_ANCHOR_POWER_MW / anchor.power_mw,
    )


def estimate_pwl_unit(
    precision: Precision,
    num_entries: int = 8,
    tech: Technology = TSMC28,
    calibrate: bool = True,
) -> SynthesisEstimate:
    """Estimate one pwl unit configuration.

    With ``calibrate=True`` (default) the result is scaled so the INT8
    8-entry configuration matches the paper's synthesized anchor, making the
    generated Table 6 directly comparable; ``calibrate=False`` returns the
    raw component-model numbers.
    """
    estimate = PWLUnitDesign(precision, num_entries=num_entries, tech=tech).estimate()
    if not calibrate:
        return estimate
    area_factor, power_factor = _calibration_factors(tech)
    return estimate.scaled(area_factor, power_factor)


def table6_sweep(
    entries: Tuple[int, ...] = (8, 16),
    precisions: Tuple[Precision, ...] = (
        Precision.INT8,
        Precision.INT16,
        Precision.INT32,
        Precision.FP32,
    ),
    tech: Technology = TSMC28,
    calibrate: bool = True,
) -> List[SynthesisEstimate]:
    """Reproduce the full Table 6 sweep (all precisions x entry counts)."""
    results: List[SynthesisEstimate] = []
    for precision in precisions:
        for n in entries:
            results.append(
                estimate_pwl_unit(precision, num_entries=n, tech=tech, calibrate=calibrate)
            )
    return results


def savings_vs(
    reference: SynthesisEstimate, target: SynthesisEstimate
) -> Tuple[float, float]:
    """Area/power savings (fractions) of ``target`` relative to ``reference``.

    Mirrors the paper's headline claim, e.g. INT8 vs FP32:
    ``savings_vs(fp32_estimate, int8_estimate) -> (0.81..., 0.80...)``.
    """
    if reference.area_um2 <= 0 or reference.power_mw <= 0:
        raise ValueError("reference estimate must have positive area and power")
    return (
        1.0 - target.area_um2 / reference.area_um2,
        1.0 - target.power_mw / reference.power_mw,
    )
