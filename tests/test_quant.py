"""Tests for the quantization substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    fxp_round,
    is_power_of_two,
    nearest_power_of_two,
    power_of_two_exponent,
    quant_bounds,
    quantize,
    shift_codes,
    to_fixed_point,
)


class TestQuantBounds:
    def test_int8_signed(self):
        assert quant_bounds(8, True) == (-128, 127)

    def test_int8_unsigned(self):
        assert quant_bounds(8, False) == (0, 255)

    def test_int16(self):
        assert quant_bounds(16, True) == (-32768, 32767)

    def test_rejects_tiny_bitwidth(self):
        with pytest.raises(ValueError):
            quant_bounds(1)


class TestQuantizeDequantize:
    def test_roundtrip_on_grid_is_exact(self):
        scale = 0.25
        values = np.arange(-128, 128) * scale
        codes = quantize(values, scale)
        np.testing.assert_allclose(codes * scale, values)

    def test_clipping_at_bounds(self):
        codes = quantize([1000.0, -1000.0], scale=1.0, bits=8)
        np.testing.assert_array_equal(codes, [127, -128])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            quantize([1.0], 0.0)
        with pytest.raises(ValueError):
            quantize([1.0], -1.0)

    @given(st.floats(-100, 100), st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.0625]))
    @settings(max_examples=200, deadline=None)
    def test_quantization_error_bounded_by_half_scale(self, value, scale):
        code = quantize(value, scale, bits=16)
        reconstructed = code * scale
        # Within the representable range the error is at most scale / 2.
        lo, hi = -32768 * scale, 32767 * scale
        if lo <= value <= hi:
            assert abs(reconstructed - value) <= scale / 2 + 1e-12


class TestPowerOfTwo:
    def test_nearest_power_of_two(self):
        assert nearest_power_of_two(0.3) == pytest.approx(0.25)
        assert nearest_power_of_two(0.75) == pytest.approx(1.0)
        assert nearest_power_of_two(3.0) == pytest.approx(4.0)

    def test_exponent_matches_log2(self):
        assert power_of_two_exponent(0.25) == -2
        assert power_of_two_exponent(8.0) == 3

    def test_is_power_of_two_is_exact(self):
        for exponent in range(-12, 9):
            assert is_power_of_two(2.0 ** exponent)
        # exp(3 ln 2) is 2 ulp below 8: close is not a shift.
        assert not is_power_of_two(float(np.exp(3.0 * np.log(2.0))))
        assert not is_power_of_two(0.3)
        assert not is_power_of_two(0.0)
        assert not is_power_of_two(-0.5)

    @given(st.integers(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_powers_of_two_are_fixed_points(self, exponent):
        scale = 2.0 ** exponent
        assert nearest_power_of_two(scale) == scale
        assert nearest_power_of_two(scale * (1 + 1e-9)) == scale
        assert is_power_of_two(scale)


class TestShiftCodes:
    @pytest.mark.parametrize("shift", [1, 2, 3, 6])
    def test_right_shift_rounds_half_to_even(self, shift):
        codes = np.arange(-300, 301, dtype=np.int64)
        shifted = shift_codes(codes, shift)
        assert shifted.dtype == np.int64
        np.testing.assert_array_equal(shifted, np.round(codes / 2.0 ** shift))

    @pytest.mark.parametrize("shift", [0, -1, -8])
    def test_left_shift_is_exact(self, shift):
        codes = np.arange(-300, 301, dtype=np.int64)
        np.testing.assert_array_equal(shift_codes(codes, shift), codes * 2 ** -shift)

    def test_shifts_past_the_code_width(self):
        codes = np.array([-(2 ** 40), -3, 0, 5, 2 ** 40], dtype=np.int64)
        np.testing.assert_array_equal(shift_codes(codes, 64), np.zeros(5))
        np.testing.assert_array_equal(shift_codes(codes, 205), np.zeros(5))
        with pytest.raises(OverflowError):
            shift_codes(codes, -30)
        with pytest.raises(OverflowError):
            shift_codes([8], -60)

    def test_matches_fxp_round_of_the_divided_value(self):
        # The float formula the shifter replaces: fxp_round(b / S, lambda).
        b = fxp_round(np.random.default_rng(0).uniform(-4, 4, 500), 5)
        for exponent in range(-8, 4):
            scale = 2.0 ** exponent
            np.testing.assert_array_equal(
                shift_codes(to_fixed_point(b, 5), exponent) / 32.0,
                fxp_round(b / scale, 5),
            )


class TestFixedPoint:
    def test_fxp_round_matches_formula(self):
        x = np.array([0.1, 0.2, -0.37])
        np.testing.assert_allclose(fxp_round(x, 5), np.round(x * 32) / 32)

    def test_roundtrip_codes(self):
        x = np.array([0.5, -1.25, 3.0])
        codes = to_fixed_point(x, 4)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes / 16.0, x)

    @given(st.floats(-3.9, 3.9), st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_fxp_round_error_bound(self, value, frac_bits):
        rounded = float(fxp_round(value, frac_bits))
        assert abs(rounded - value) <= 2.0 ** (-frac_bits) / 2 + 1e-12

    def test_negative_frac_bits_rejected(self):
        with pytest.raises(ValueError):
            fxp_round(1.0, -1)
