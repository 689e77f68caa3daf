"""Tests for the piece-wise linear core (Eq. 1) and LUT storage (Fig. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lut import QuantizedLUT
from repro.core.pwl import PiecewiseLinear, fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.quant.quantizer import QuantSpec


class TestPiecewiseLinear:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=[0.0], slopes=[1.0, 2.0], intercepts=[0.0])

    def test_requires_n_minus_1_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=[0.0, 1.0], slopes=[1.0, 2.0], intercepts=[0.0, 0.0])

    def test_requires_sorted_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=[1.0, 0.0], slopes=[1.0, 2.0, 3.0],
                            intercepts=[0.0, 0.0, 0.0])

    def test_segment_index_boundaries(self):
        pwl = PiecewiseLinear(breakpoints=[0.0, 1.0], slopes=[1.0, 2.0, 3.0],
                              intercepts=[0.0, 0.0, 0.0])
        # x < p0 -> 0, p0 <= x < p1 -> 1, x >= p1 -> 2
        np.testing.assert_array_equal(pwl.segment_index([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                      [0, 1, 1, 2, 2])

    def test_evaluation_uses_selected_segment(self):
        pwl = PiecewiseLinear(breakpoints=[0.0], slopes=[1.0, -1.0], intercepts=[0.0, 0.0])
        assert pwl(-2.0) == pytest.approx(-2.0)
        assert pwl(2.0) == pytest.approx(-2.0)

    def test_num_entries(self, gelu_uniform_pwl):
        assert gelu_uniform_pwl.num_entries == 8
        assert gelu_uniform_pwl.breakpoints.size == 7

    def test_to_fixed_point_rounds_parameters(self, gelu_uniform_pwl):
        fxp = gelu_uniform_pwl.to_fixed_point(5)
        np.testing.assert_allclose(fxp.slopes * 32, np.round(fxp.slopes * 32))
        np.testing.assert_allclose(fxp.intercepts * 32, np.round(fxp.intercepts * 32))
        # Breakpoints are untouched by the lambda rounding.
        np.testing.assert_allclose(fxp.breakpoints, gelu_uniform_pwl.breakpoints)

    def test_interpolated_fit_is_continuous(self, gelu_uniform_pwl):
        pwl = gelu_uniform_pwl
        left = pwl.slopes[:-1] * pwl.breakpoints + pwl.intercepts[:-1]
        right = pwl.slopes[1:] * pwl.breakpoints + pwl.intercepts[1:]
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-9)


class TestUniformBreakpoints:
    def test_count_and_interior(self):
        bp = uniform_breakpoints(-4, 4, 8)
        assert bp.size == 7
        assert bp[0] > -4 and bp[-1] < 4

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            uniform_breakpoints(-4, 4, 1)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            uniform_breakpoints(4, -4, 8)


class TestFitPWL:
    def test_interpolation_matches_function_at_edges(self):
        fn = get_function("gelu")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        pwl = fit_pwl(fn.fn, bp, fn.search_range, method="interpolate")
        for p in bp:
            assert pwl(p) == pytest.approx(float(fn(p)), abs=1e-9)

    def test_accuracy_improves_with_entries(self):
        fn = get_function("gelu")
        grid = fn.sample_grid(0.01)
        errors = []
        for entries in (4, 8, 16, 32):
            bp = uniform_breakpoints(*fn.search_range, num_entries=entries)
            pwl = fit_pwl(fn.fn, bp, fn.search_range)
            errors.append(float(np.mean((pwl(grid) - fn(grid)) ** 2)))
        assert errors == sorted(errors, reverse=True)

    def test_lstsq_not_worse_than_interpolation_on_average(self):
        fn = get_function("exp")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        grid = fn.sample_grid(0.01)
        ref = fn(grid)
        interp = fit_pwl(fn.fn, bp, fn.search_range, method="interpolate")
        lstsq = fit_pwl(fn.fn, bp, fn.search_range, method="lstsq")
        mse_interp = float(np.mean((interp(grid) - ref) ** 2))
        mse_lstsq = float(np.mean((lstsq(grid) - ref) ** 2))
        assert mse_lstsq <= mse_interp * 1.05

    def test_unsorted_and_duplicate_breakpoints_are_cleaned(self):
        fn = get_function("gelu")
        pwl = fit_pwl(fn.fn, [1.0, -1.0, 1.0, 0.0], fn.search_range)
        assert pwl.num_entries == 5
        assert np.all(np.diff(pwl.breakpoints) >= 0)

    def test_out_of_range_breakpoints_are_clipped(self):
        fn = get_function("gelu")
        pwl = fit_pwl(fn.fn, [-10.0, 0.0, 10.0], fn.search_range)
        assert pwl.breakpoints[0] >= fn.search_range[0]
        assert pwl.breakpoints[-1] <= fn.search_range[1]

    def test_unknown_method_raises(self):
        fn = get_function("gelu")
        with pytest.raises(ValueError):
            fit_pwl(fn.fn, [0.0], fn.search_range, method="spline")

    def test_bad_range_raises(self):
        fn = get_function("gelu")
        with pytest.raises(ValueError):
            fit_pwl(fn.fn, [0.0], (4.0, -4.0))

    @given(
        st.lists(st.floats(-3.9, 3.9), min_size=3, max_size=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_fit_always_produces_valid_pwl(self, breakpoints):
        fn = get_function("gelu")
        pwl = fit_pwl(fn.fn, breakpoints, fn.search_range)
        assert pwl.num_entries == len(breakpoints) + 1
        grid = np.linspace(-4, 4, 101)
        assert np.all(np.isfinite(pwl(grid)))


class TestQuantizedLUT:
    def make(self, pwl, scale=0.25, bits=8, frac_bits=5):
        return QuantizedLUT(pwl=pwl.to_fixed_point(frac_bits), scale=scale,
                            spec=QuantSpec(bits=bits, signed=True), frac_bits=frac_bits)

    def test_requires_power_of_two_scale(self, gelu_uniform_pwl):
        with pytest.raises(ValueError):
            QuantizedLUT(pwl=gelu_uniform_pwl, scale=0.3)

    def test_requires_positive_scale(self, gelu_uniform_pwl):
        with pytest.raises(ValueError):
            QuantizedLUT(pwl=gelu_uniform_pwl, scale=-1.0)

    def test_quantized_breakpoints_follow_eq3(self, gelu_uniform_pwl):
        lut = self.make(gelu_uniform_pwl, scale=0.25)
        expected = np.clip(np.round(gelu_uniform_pwl.breakpoints / 0.25), -128, 127)
        np.testing.assert_allclose(lut.quantized_breakpoints, expected)

    def test_shift_matches_log2_scale(self, gelu_uniform_pwl):
        assert self.make(gelu_uniform_pwl, scale=0.25).shift == -2
        assert self.make(gelu_uniform_pwl, scale=1.0).shift == 0

    def test_dequantized_output_close_to_float_pwl(self, gelu_uniform_pwl):
        lut = self.make(gelu_uniform_pwl, scale=2.0 ** -5)
        codes = np.arange(-128, 128)
        x = codes * lut.scale
        approx = lut.lookup_dequantized(codes)
        reference = gelu_uniform_pwl(x)
        # FXP rounding with lambda=5 bounds the deviation.
        assert np.max(np.abs(approx - reference)) < 0.2

    def test_integer_and_dequantized_consistent(self, gelu_uniform_pwl):
        lut = self.make(gelu_uniform_pwl, scale=0.5)
        codes = np.arange(-8, 9)
        np.testing.assert_allclose(lut.lookup_dequantized(codes),
                                   lut.lookup_integer(codes) * 0.5)

    def test_call_quantizes_real_input(self, gelu_uniform_pwl):
        lut = self.make(gelu_uniform_pwl, scale=0.25)
        x = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(lut(x), lut.lookup_dequantized(x / 0.25))

    def test_larger_scale_gives_larger_breakpoint_deviation(self):
        """The breakpoint-deviation phenomenon of Section 3.3."""
        fn = get_function("exp")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        pwl = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
        deviations = {}
        for scale in (0.5, 0.125):
            lut = QuantizedLUT(pwl=pwl, scale=scale, frac_bits=5)
            recovered = lut.quantized_breakpoints * scale
            deviations[scale] = float(np.max(np.abs(recovered - pwl.breakpoints)))
        assert deviations[0.5] >= deviations[0.125]
