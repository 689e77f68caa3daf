"""Tests for the quantization-aware evaluation protocol (Section 4.1)."""

import numpy as np
import pytest

from repro.core.evaluation import DEFAULT_SCALES, QuantizedPWLEvaluator
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.quant.quantizer import QuantSpec


@pytest.fixture(scope="module")
def gelu_fxp_pwl():
    fn = get_function("gelu")
    bp = uniform_breakpoints(*fn.search_range, num_entries=8)
    return fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)


@pytest.fixture(scope="module")
def exp_fxp_pwl():
    fn = get_function("exp")
    bp = uniform_breakpoints(*fn.search_range, num_entries=8)
    return fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)


class TestDefaultScales:
    def test_default_scales_are_2_pow_0_to_minus6(self):
        assert DEFAULT_SCALES == tuple(2.0 ** (-e) for e in range(7))


class TestEvaluator:
    def test_grid_restricted_to_search_range(self, gelu_fxp_pwl):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        codes, x = evaluator.grid_for_scale(1.0)
        assert x.min() >= -4.0 and x.max() <= 4.0
        # With S = 1 only the integer points of [-4, 4] remain.
        assert len(x) == 9

    def test_grid_step_equals_scale(self):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        _, x = evaluator.grid_for_scale(0.25)
        steps = np.unique(np.round(np.diff(x), 10))
        assert steps.tolist() == [0.25]

    def test_exp_grid_is_nonpositive(self):
        evaluator = QuantizedPWLEvaluator(get_function("exp"))
        _, x = evaluator.grid_for_scale(0.5)
        assert np.all(x <= 0.0)
        assert np.all(x >= -8.0)

    def test_mse_positive_and_finite(self, gelu_fxp_pwl):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        for scale in DEFAULT_SCALES:
            value = evaluator.mse_at_scale(gelu_fxp_pwl, scale)
            assert np.isfinite(value) and value >= 0

    def test_sweep_keys_match_scales(self, gelu_fxp_pwl):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        sweep = evaluator.sweep(gelu_fxp_pwl, scales=(0.5, 0.25))
        assert set(sweep) == {0.5, 0.25}

    def test_average_is_mean(self, gelu_fxp_pwl):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        sweep = evaluator.sweep(gelu_fxp_pwl)
        assert evaluator.average_mse(gelu_fxp_pwl) == pytest.approx(
            float(np.mean(list(sweep.values())))
        )

    def test_more_entries_reduce_error_at_small_scale(self):
        fn = get_function("gelu")
        evaluator = QuantizedPWLEvaluator(fn)
        errors = {}
        for entries in (4, 16):
            bp = uniform_breakpoints(*fn.search_range, num_entries=entries)
            pwl = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
            errors[entries] = evaluator.mse_at_scale(pwl, 2.0 ** -5)
        assert errors[16] < errors[4]

    def test_int16_more_accurate_than_int8(self, gelu_fxp_pwl):
        fn = get_function("gelu")
        int8 = QuantizedPWLEvaluator(fn, spec=QuantSpec(bits=8, signed=True), frac_bits=5)
        # INT16 deployment with more fractional bits.
        bp = gelu_fxp_pwl.breakpoints
        pwl16 = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(9)
        int16 = QuantizedPWLEvaluator(fn, spec=QuantSpec(bits=16, signed=True), frac_bits=9)
        assert int16.average_mse(pwl16) < int8.average_mse(gelu_fxp_pwl)

    def test_breakpoint_deviation_grows_with_scale(self):
        """Larger S quantizes breakpoints more coarsely (the Fig. 2b effect)."""
        from repro.core.lut import QuantizedLUT

        fn = get_function("exp")
        # Deliberately misaligned breakpoints (not on any power-of-two grid).
        bp = uniform_breakpoints(*fn.search_range, num_entries=8) + 0.37
        pwl = fit_pwl(fn.fn, bp, fn.search_range).to_fixed_point(5)
        deviations = {}
        for scale in (1.0, 2.0 ** -3):
            lut = QuantizedLUT(pwl=pwl, scale=scale, frac_bits=5)
            recovered = lut.quantized_breakpoints * scale
            deviations[scale] = float(np.max(np.abs(recovered - pwl.breakpoints)))
        assert deviations[1.0] > deviations[2.0 ** -3]

    def test_grid_is_built_once_and_read_only(self):
        evaluator = QuantizedPWLEvaluator(get_function("gelu"))
        codes, x = evaluator.grid_for_scale(0.25)
        again, _ = evaluator.grid_for_scale(0.25)
        assert again is codes
        with pytest.raises(ValueError):
            x[0] = 0.0
