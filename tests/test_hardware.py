"""Tests for the hardware cost model and Verilog generation (Table 6)."""

import re

import pytest

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.core.lut import QuantizedLUT
from repro.functions.registry import get_function
from repro.hardware import (
    Precision,
    PWLUnitDesign,
    adder,
    barrel_shifter,
    comparator,
    estimate_pwl_unit,
    fp32_adder,
    fp32_comparator,
    fp32_multiplier,
    format_synthesis_report,
    format_table6,
    generate_pwl_verilog,
    generate_testbench,
    multiplexer,
    multiplier,
    priority_encoder,
    register_bank,
    table6_sweep,
)
from repro.hardware.cost_model import (
    PAPER_ANCHOR_AREA_UM2,
    PAPER_ANCHOR_POWER_MW,
    savings_vs,
)


class TestComponents:
    def test_register_bank_scales_linearly(self):
        assert register_bank(16).total_area == pytest.approx(2 * register_bank(8).total_area)

    def test_multiplier_scales_quadratically(self):
        assert multiplier(16, 16).total_area == pytest.approx(4 * multiplier(8, 8).total_area)

    def test_comparator_and_adder_scale_linearly(self):
        assert comparator(32).total_area == pytest.approx(4 * comparator(8).total_area)
        assert adder(32).total_area == pytest.approx(4 * adder(8).total_area)

    def test_barrel_shifter_stage_count(self):
        narrow = barrel_shifter(16, 1)
        wide = barrel_shifter(16, 255)
        assert wide.total_area > narrow.total_area

    def test_component_times(self):
        one = comparator(8)
        seven = one.times(7)
        assert seven.total_area == pytest.approx(7 * one.total_area)
        assert seven.total_power == pytest.approx(7 * one.total_power)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            register_bank(-1)
        with pytest.raises(ValueError):
            multiplier(0, 8)
        with pytest.raises(ValueError):
            multiplexer(8, 1)
        with pytest.raises(ValueError):
            priority_encoder(0)
        with pytest.raises(ValueError):
            comparator(0)

    def test_fp32_units_cost_more_than_int8(self):
        assert fp32_multiplier().total_area > multiplier(8, 8).total_area
        assert fp32_adder().total_area > adder(16).total_area
        assert fp32_comparator().total_area > comparator(8).total_area


class TestPrecision:
    def test_bit_widths(self):
        assert Precision.INT8.bits == 8
        assert Precision.INT16.bits == 16
        assert Precision.INT32.bits == 32
        assert Precision.FP32.bits == 32

    def test_quantization_aware_flags(self):
        assert Precision.INT8.quantization_aware
        assert Precision.INT16.quantization_aware
        assert not Precision.INT32.quantization_aware
        assert not Precision.FP32.quantization_aware

    def test_float_flag(self):
        assert Precision.FP32.is_float
        assert not Precision.INT32.is_float


class TestCostModel:
    def test_calibrated_anchor_matches_paper(self):
        est = estimate_pwl_unit(Precision.INT8, 8, calibrate=True)
        assert est.area_um2 == pytest.approx(PAPER_ANCHOR_AREA_UM2)
        assert est.power_mw == pytest.approx(PAPER_ANCHOR_POWER_MW)

    def test_area_and_power_grow_with_precision(self):
        areas = [estimate_pwl_unit(p, 8).area_um2
                 for p in (Precision.INT8, Precision.INT16, Precision.INT32)]
        assert areas == sorted(areas)

    def test_area_grows_with_entries(self):
        small = estimate_pwl_unit(Precision.INT8, 8)
        large = estimate_pwl_unit(Precision.INT8, 16)
        assert large.area_um2 > small.area_um2
        assert large.power_mw > small.power_mw

    def test_headline_savings_in_paper_ballpark(self):
        """The paper's central hardware claim: ~81% area, ~79-80% power."""
        int8 = estimate_pwl_unit(Precision.INT8, 8)
        fp32 = estimate_pwl_unit(Precision.FP32, 8)
        int32 = estimate_pwl_unit(Precision.INT32, 8)
        area_fp, power_fp = savings_vs(fp32, int8)
        area_int, power_int = savings_vs(int32, int8)
        assert 0.75 <= area_fp <= 0.88
        assert 0.72 <= power_fp <= 0.88
        assert 0.75 <= area_int <= 0.88
        assert 0.72 <= power_int <= 0.88

    def test_entry_scaling_ratio_in_ballpark(self):
        """Paper: 16-entry INT8 is ~1.71x area and ~1.95x power of 8-entry."""
        small = estimate_pwl_unit(Precision.INT8, 8)
        large = estimate_pwl_unit(Precision.INT8, 16)
        assert 1.4 <= large.area_um2 / small.area_um2 <= 2.0
        assert 1.4 <= large.power_mw / small.power_mw <= 2.2

    def test_uncalibrated_estimates_are_raw_component_sums(self):
        est = estimate_pwl_unit(Precision.INT8, 8, calibrate=False)
        design = PWLUnitDesign(Precision.INT8, 8)
        assert est.area_um2 == pytest.approx(
            sum(c.total_area for c in design.components())
        )

    def test_breakdown_sums_to_total(self):
        est = estimate_pwl_unit(Precision.INT16, 8, calibrate=False)
        total = sum(area for area, _ in est.breakdown().values())
        assert total == pytest.approx(est.area_um2)

    def test_table6_sweep_covers_all_configurations(self):
        sweep = table6_sweep()
        assert len(sweep) == 8
        keys = {(e.precision, e.num_entries) for e in sweep}
        assert (Precision.FP32, 16) in keys

    def test_savings_vs_rejects_degenerate_reference(self):
        est = estimate_pwl_unit(Precision.INT8, 8)
        bad = est.scaled(0.0, 0.0)
        with pytest.raises(ValueError):
            savings_vs(bad, est)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            PWLUnitDesign(Precision.INT8, num_entries=1)

    def test_reports_render(self):
        sweep = table6_sweep()
        table = format_table6(sweep)
        assert "INT8" in table and "area saving" in table
        report = format_synthesis_report(sweep[0])
        assert "lut_storage" in report and "TOTAL" in report


class TestVerilog:
    @pytest.fixture(scope="class")
    def lut(self):
        fn = get_function("gelu")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        pwl = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
        return QuantizedLUT(pwl=pwl, scale=0.25, frac_bits=5)

    def test_module_structure(self, lut):
        rtl = generate_pwl_verilog(lut, module_name="test_pwl")
        assert rtl.startswith("// Auto-generated")
        assert "module test_pwl (" in rtl
        assert rtl.rstrip().endswith("endmodule")
        # One slope/intercept localparam per entry, one breakpoint fewer.
        assert len(re.findall(r"SLOPE_\d+\s+=", rtl)) == 8
        assert len(re.findall(r"INTERCEPT_\d+ =", rtl)) == 8
        assert len(re.findall(r"BREAK_\d+\s+=", rtl)) == 7

    def test_shift_direction_negative_scale_exponent(self, lut):
        rtl = generate_pwl_verilog(lut)
        # scale 0.25 -> shift -2 -> left shift in RTL.
        assert "<<<" in rtl

    def test_shift_direction_positive_exponent(self):
        fn = get_function("gelu")
        bp = uniform_breakpoints(*fn.search_range, num_entries=4)
        pwl = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
        rtl = generate_pwl_verilog(QuantizedLUT(pwl=pwl, scale=2.0, frac_bits=5))
        assert ">>>" in rtl

    def test_literal_widths_are_sized(self, lut):
        rtl = generate_pwl_verilog(lut)
        assert re.search(r"13'h[0-9A-F]+", rtl)  # 8 input bits + 5 frac bits

    def test_signed_literal_rejects_values_that_do_not_fit(self):
        from repro.hardware.verilog import _to_signed_literal

        assert _to_signed_literal(127, 8) == "8'h7F"
        assert _to_signed_literal(-128, 8) == "8'h80"
        assert _to_signed_literal(-1, 13) == "13'h1FFF"
        # 128 and -129 would wrap to -128 and 127: a different constant.
        for value in (128, -129, 1 << 20):
            with pytest.raises(ValueError, match="does not fit"):
                _to_signed_literal(value, 8)

    def test_testbench_contains_expected_vectors(self, lut):
        tb = generate_testbench(lut, num_vectors=16, seed=3)
        assert len(re.findall(r"check\(-?\d+,", tb)) == 16
        assert "$finish" in tb

    def test_testbench_expected_values_match_python_model(self, lut):
        tb = generate_testbench(lut, num_vectors=8, seed=5)
        calls = re.findall(r"check\((-?\d+), (-?\d+)\);", tb)
        assert len(calls) == 8
        for code, expected in calls:
            model = float(lut.lookup_integer(float(code)) * (2 ** lut.frac_bits))
            assert int(expected) == int(round(model))
