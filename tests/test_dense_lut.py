"""Dense-table inference engine: equivalence, caching and fused autograd.

The engine contract mirrors PR 1's batch-fitness contract: the dense path
must be *bit-identical* to the legacy Fig. 1b pipeline, pinned here with
exact comparisons over every representable input code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lut import (
    DenseLUT,
    QuantizedLUT,
    dense_lut_cache_clear,
    dense_lut_for,
)
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function, list_functions
from repro.nn.quantization import LSQQuantizer, PowerOfTwoQuantizer
from repro.nn.tensor import Tensor
from repro.quant.quantizer import QuantSpec
from repro.nn.approx import PWLActivation
from repro.scaling.multi_range import MultiRangePWL, SubRange, default_multi_range

from oracles import reference_multi_range, reference_rescale

SCALES = (2.0 ** -6, 2.0 ** -3, 2.0 ** 0, 2.0 ** 2)


def _pwl_for(name: str, num_entries: int = 8):
    fn = get_function(name)
    breakpoints = uniform_breakpoints(*fn.search_range, num_entries)
    return fit_pwl(fn.fn, breakpoints, fn.search_range)


class TestAllCodesEquivalence:
    """Dense tables replicate the pipeline over every representable code."""

    @pytest.mark.parametrize("name", list_functions())
    @pytest.mark.parametrize("scale", SCALES)
    def test_outputs_and_slopes_bit_identical(self, name, scale):
        pwl = _pwl_for(name)
        legacy = QuantizedLUT(pwl=pwl, scale=scale)
        dense = DenseLUT.from_quantized(legacy)
        codes = np.arange(legacy.spec.qmin, legacy.spec.qmax + 1, dtype=np.float64)
        np.testing.assert_array_equal(
            dense.lookup_codes(codes), legacy.lookup_dequantized(codes)
        )
        np.testing.assert_array_equal(
            dense.slope_codes(codes), legacy.stored_slopes[legacy.segment_index(codes)]
        )

    @pytest.mark.parametrize("frac_bits", [3, 5, 7])
    def test_frac_bits_sweep(self, frac_bits):
        pwl = _pwl_for("gelu")
        for scale in SCALES:
            legacy = QuantizedLUT(pwl=pwl, scale=scale, frac_bits=frac_bits)
            dense = DenseLUT.from_quantized(legacy)
            codes = np.arange(legacy.spec.qmin, legacy.spec.qmax + 1, dtype=np.float64)
            np.testing.assert_array_equal(
                dense.lookup_codes(codes), legacy.lookup_dequantized(codes)
            )

    @pytest.mark.parametrize("bits", [4, 8])
    def test_real_domain_lookup_matches_call(self, bits):
        pwl = _pwl_for("gelu")
        spec = QuantSpec(bits=bits, signed=True)
        legacy = QuantizedLUT(pwl=pwl, scale=2.0 ** -3, spec=spec)
        dense = DenseLUT.from_quantized(legacy)
        assert dense.num_codes == 2 ** bits
        x = np.random.default_rng(7).normal(scale=3.0, size=(5, 33))
        np.testing.assert_array_equal(dense(x), legacy(x))
        out, slope = dense.lookup_with_slope(x)
        np.testing.assert_array_equal(out, legacy(x))

    def test_near_power_of_two_scale_is_rejected(self):
        # exp(3 ln 2) is 2 ulp below 8: no shifter divides by it.
        scale = float(np.exp(3.0 * np.log(2.0)))
        assert scale != 8.0
        pwl = _pwl_for("gelu")
        with pytest.raises(ValueError):
            QuantizedLUT(pwl=pwl, scale=scale)
        with pytest.raises(ValueError):
            DenseLUT(pwl=pwl, scale=scale)
        with pytest.raises(ValueError):
            SubRange(4.0, 8.0, scale)

    def test_fused_lookup_slope_matches_separate_path(self):
        pwl = _pwl_for("exp")
        legacy = QuantizedLUT(pwl=pwl, scale=2.0 ** -4)
        dense = DenseLUT.from_quantized(legacy)
        x = np.random.default_rng(3).normal(size=200)
        q = np.clip(np.round(x / legacy.scale), legacy.spec.qmin, legacy.spec.qmax)
        _, slope = dense.lookup_with_slope(x)
        np.testing.assert_array_equal(
            slope, legacy.stored_slopes[legacy.segment_index(q)]
        )

    def test_nan_inputs_propagate_like_legacy(self):
        legacy = QuantizedLUT(pwl=_pwl_for("gelu"), scale=0.25)
        dense = DenseLUT.from_quantized(legacy)
        x = np.array([0.5, np.nan, -1.25])
        with np.errstate(invalid="raise"):  # the dense path must not warn
            got, slope = dense.lookup_with_slope(x)
        expected = legacy(x)
        assert np.isnan(expected[1]) and np.isnan(got[1])
        np.testing.assert_array_equal(got[[0, 2]], expected[[0, 2]])
        # The legacy comparer sends NaN to the last segment, whose slope is
        # finite — the stashed backward slope must match it.
        legacy_slope = legacy.stored_slopes[legacy.segment_index(np.array([np.nan]))]
        np.testing.assert_array_equal(slope[1], legacy_slope[0])

    def test_out_of_range_codes_saturate(self):
        legacy = QuantizedLUT(pwl=_pwl_for("gelu"), scale=0.25)
        dense = DenseLUT.from_quantized(legacy)
        np.testing.assert_array_equal(
            dense.lookup_codes([-1000, 1000]), dense.lookup_codes([-128, 127])
        )
        np.testing.assert_array_equal(
            dense.slope_codes([-1000, 1000]), dense.slope_codes([-128, 127])
        )


class TestQuantizedLUTMemoization:
    def test_derived_arrays_cached_and_stable(self):
        lut = QuantizedLUT(pwl=_pwl_for("gelu"), scale=2.0 ** -2)
        first = lut.quantized_breakpoints
        assert lut.quantized_breakpoints is first
        assert lut.stored_slopes is lut.stored_slopes
        assert lut.stored_intercepts is lut.stored_intercepts
        assert lut.shifted_intercepts is lut.shifted_intercepts

    def test_memoized_values_match_fresh_instance(self):
        pwl = _pwl_for("gelu")
        lut = QuantizedLUT(pwl=pwl, scale=2.0 ** -2)
        _ = lut.stored_slopes, lut.shifted_intercepts  # populate caches
        fresh = QuantizedLUT(pwl=pwl, scale=2.0 ** -2)
        np.testing.assert_array_equal(lut.quantized_breakpoints, fresh.quantized_breakpoints)
        np.testing.assert_array_equal(lut.stored_slopes, fresh.stored_slopes)
        np.testing.assert_array_equal(lut.shifted_intercepts, fresh.shifted_intercepts)


class TestDenseLUTCache:
    def setup_method(self):
        dense_lut_cache_clear()

    def test_same_key_returns_same_object(self):
        pwl = _pwl_for("gelu")
        first = dense_lut_for(pwl, 0.25)
        assert dense_lut_for(pwl, 0.25) is first

    def test_new_scale_builds_new_table(self):
        pwl = _pwl_for("gelu")
        quarter = dense_lut_for(pwl, 0.25)
        half = dense_lut_for(pwl, 0.5)
        assert half is not quarter
        assert dense_lut_for(pwl, 0.25) is quarter  # old scale still cached

    def test_different_pwl_objects_do_not_collide(self):
        first = dense_lut_for(_pwl_for("gelu"), 0.25)
        second = dense_lut_for(_pwl_for("exp"), 0.25)
        assert first is not second

    def test_cache_is_bounded(self):
        from repro.core import lut as lut_module

        # One key per pwl object: the cache holds each entry's pwl, so no
        # id repeats while its entry is cached.
        for _ in range(lut_module._DENSE_LUT_CACHE_SIZE + 10):
            dense_lut_for(_pwl_for("gelu"), 0.25)
        assert len(lut_module._DENSE_LUT_CACHE) == lut_module._DENSE_LUT_CACHE_SIZE


class TestScaleVersioning:
    def test_version_bumps_only_on_scale_change(self):
        quantizer = PowerOfTwoQuantizer(bits=8, signed=True)
        quantizer.initialise_from(np.linspace(-1, 1, 100))
        version = quantizer.scale_version()
        assert quantizer.scale_version() == version  # stable while scale holds
        quantizer.scale.data = quantizer.scale.data * 2.0
        assert quantizer.scale_version() == version + 1

    def test_power_of_two_version_ignores_sub_exponent_drift(self):
        quantizer = PowerOfTwoQuantizer(bits=8, signed=True)
        quantizer.initialise_from(np.linspace(-1, 1, 100))
        version = quantizer.scale_version()
        # A tiny nudge of alpha keeps the snapped 2^e deployed scale.
        quantizer.scale.data = quantizer.scale.data * 1.01
        assert quantizer.scale_version() == version

    def test_initialised_property(self):
        quantizer = LSQQuantizer()
        assert not quantizer.initialised
        quantizer.initialise_from(np.ones(10))
        assert quantizer.initialised


class TestDeployedScaleIsExact:
    """The deployed scale is exactly 2.0 ** e, so the served table is the
    one the integer datapath (and the RTL) computes at that scale."""

    @pytest.mark.parametrize("name", ["gelu", "hswish", "exp"])
    @pytest.mark.parametrize("exponent", range(-8, 4))
    def test_pwl_activation_table_is_the_exact_scale_table(self, name, exponent):
        pwl = _pwl_for(name).to_fixed_point(5)
        act = PWLActivation(name, pwl)
        act.quantizer.scale.data = np.asarray([2.0 ** exponent])
        act.quantizer._initialised = True
        x = np.random.default_rng(exponent + 20).normal(scale=2.0 ** (exponent + 5), size=64)
        served = act(Tensor(x)).data
        table = act._dense()
        assert table.scale == 2.0 ** exponent
        exact = DenseLUT(pwl=pwl, scale=2.0 ** exponent)
        assert table.outputs.tobytes() == exact.outputs.tobytes()
        assert table.segment_slopes.tobytes() == exact.segment_slopes.tobytes()
        assert served.tobytes() == exact(x).tobytes()


class TestFusedElementwise:
    def test_fused_matches_separate_forward_backward(self):
        data = np.random.default_rng(0).normal(size=(4, 9))
        x_sep = Tensor(data, requires_grad=True)
        y_sep = x_sep.apply_elementwise(lambda d: d * 3.0, lambda d: np.full_like(d, 3.0))
        y_sep.backward(np.ones_like(data))
        x_fused = Tensor(data, requires_grad=True)
        y_fused = x_fused.apply_elementwise_fused(lambda d: (d * 3.0, np.full_like(d, 3.0)))
        y_fused.backward(np.ones_like(data))
        np.testing.assert_array_equal(y_sep.data, y_fused.data)
        np.testing.assert_array_equal(x_sep.grad, x_fused.grad)

    def test_fused_rejects_shape_changes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            x.apply_elementwise_fused(lambda d: (d.ravel(), d))
        with pytest.raises(ValueError):
            x.apply_elementwise_fused(lambda d: (d, d.ravel()))


class TestMultiRangeFusedLookup:
    @pytest.mark.parametrize("operator", ["div", "rsqrt"])
    def test_fused_matches_call_and_separate_slope(self, operator):
        pwl = _pwl_for(operator)
        wrapped = MultiRangePWL(pwl=pwl, scaling=default_multi_range(operator))
        # Cover I_R, every Table 2 sub-range, the unbounded tail and the
        # below-range region.
        x = np.concatenate([
            np.linspace(0.01, 4.0, 57),
            np.linspace(4.0, 2000.0, 91),
            np.array([0.25, 0.5, 4.0, 32.0, 64.0, 256.0, 1024.0, 5000.0]),
        ])
        outputs, slopes = wrapped.lookup_with_slope(x)
        np.testing.assert_array_equal(outputs, wrapped(x))

        scaled, factor, input_scale = reference_rescale(wrapped.scaling, x)
        idx = wrapped.fxp_pwl.segment_index(scaled)
        np.testing.assert_array_equal(outputs, reference_multi_range(wrapped, x))
        np.testing.assert_array_equal(
            slopes, factor * wrapped.fxp_pwl.slopes[idx] * input_scale
        )

    @pytest.mark.parametrize("operator", ["div", "rsqrt"])
    def test_forward_only_lookup_matches_call(self, operator):
        pwl = _pwl_for(operator)
        wrapped = MultiRangePWL(pwl=pwl, scaling=default_multi_range(operator))
        x = np.random.default_rng(5).uniform(0.0, 3000.0, size=511)
        np.testing.assert_array_equal(wrapped.lookup(x), reference_multi_range(wrapped, x))

