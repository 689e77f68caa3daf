"""Tests for multi-range input scaling (Section 3.1, Table 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.scaling import (
    DIV_MULTI_RANGE,
    MultiRangePWL,
    MultiRangeScaling,
    RSQRT_MULTI_RANGE,
    SubRange,
    default_multi_range,
)

from oracles import reference_rescale, reference_sub_range_index


class TestSubRange:
    def test_contains(self):
        """A sub-range is half-open, ``[lower, upper)``, in the mask-sweep
        oracle the slot tables are held to."""
        scaling = MultiRangeScaling(
            operator="div", breakpoint_interval=(0.5, 4.0),
            sub_ranges=(SubRange(4.0, 32.0, 2.0 ** -3),), rescale_power=1.0,
        )
        idx = reference_sub_range_index(scaling, np.array([4.0, 31.9, 32.0, 3.9]))
        np.testing.assert_array_equal(idx, [0, 0, -1, -1])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SubRange(4.0, 4.0, 0.5)

    def test_scale_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SubRange(4.0, 8.0, 0.3)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            SubRange(4.0, 8.0, -0.5)


class TestTable2Defaults:
    def test_div_setup_matches_table2(self):
        assert DIV_MULTI_RANGE.breakpoint_interval == (0.5, 4.0)
        subs = DIV_MULTI_RANGE.sub_ranges
        assert [(s.lower, s.upper, s.scale) for s in subs] == [
            (4.0, 32.0, 2.0 ** -3),
            (32.0, 256.0, 2.0 ** -6),
            (256.0, float("inf"), 2.0 ** -6),
        ]
        assert DIV_MULTI_RANGE.rescale_power == 1.0

    def test_rsqrt_setup_matches_table2(self):
        assert RSQRT_MULTI_RANGE.breakpoint_interval == (0.25, 4.0)
        subs = RSQRT_MULTI_RANGE.sub_ranges
        assert [(s.lower, s.upper, s.scale) for s in subs] == [
            (4.0, 64.0, 2.0 ** -4),
            (64.0, 1024.0, 2.0 ** -8),
            (1024.0, float("inf"), 2.0 ** -12),
        ]
        assert RSQRT_MULTI_RANGE.rescale_power == 0.5

    def test_default_lookup(self):
        assert default_multi_range("div") is DIV_MULTI_RANGE
        assert default_multi_range("RSQRT") is RSQRT_MULTI_RANGE
        with pytest.raises(KeyError):
            default_multi_range("gelu")

    def test_rescaled_inputs_land_in_breakpoint_interval(self):
        for scaling in (DIV_MULTI_RANGE, RSQRT_MULTI_RANGE):
            lo, hi = scaling.breakpoint_interval
            for sr in scaling.sub_ranges:
                upper = sr.upper if np.isfinite(sr.upper) else sr.lower * 4
                samples = np.linspace(sr.lower, upper * 0.999, 64)
                scaled, _, _ = reference_rescale(scaling, samples)
                assert np.all(scaled >= lo * 0.999)
                # The scaled values should not exceed the interval end except
                # for the unbounded tail sub-range.
                if np.isfinite(sr.upper):
                    assert np.all(scaled <= hi * 1.001)


class TestMultiRangeScaling:
    # The Table 2 setups' own arithmetic, through the mask-sweep oracle
    # that MultiRangePWL's slot tables are held to (test_multi_range_parity).

    def test_classification(self):
        idx = reference_sub_range_index(DIV_MULTI_RANGE, np.array([1.0, 5.0, 100.0, 300.0]))
        np.testing.assert_array_equal(idx, [-1, 0, 1, 2])

    def test_rescale_identity_inside_interval(self):
        scaled, factor, _ = reference_rescale(DIV_MULTI_RANGE, np.array([1.0, 2.0]))
        np.testing.assert_allclose(scaled, [1.0, 2.0])
        np.testing.assert_allclose(factor, [1.0, 1.0])

    def test_div_identity_holds(self):
        """1/x == S' * (1/(S'x)) exactly, so rescaling preserves the math."""
        x = np.array([5.0, 40.0, 500.0])
        scaled, factor, _ = reference_rescale(DIV_MULTI_RANGE, x)
        np.testing.assert_allclose(factor * (1.0 / scaled), 1.0 / x)

    def test_rsqrt_identity_holds(self):
        x = np.array([10.0, 100.0, 2000.0])
        scaled, factor, _ = reference_rescale(RSQRT_MULTI_RANGE, x)
        np.testing.assert_allclose(factor * (1.0 / np.sqrt(scaled)), 1.0 / np.sqrt(x))

    def test_unsorted_subranges_rejected(self):
        with pytest.raises(ValueError):
            MultiRangeScaling(
                operator="div",
                breakpoint_interval=(0.5, 4.0),
                sub_ranges=(
                    SubRange(32.0, 256.0, 2.0 ** -6),
                    SubRange(4.0, 32.0, 2.0 ** -3),
                ),
                rescale_power=1.0,
            )

    @pytest.mark.parametrize("second", [(16.0, 64.0), (4.0, 8.0), (8.0, 32.0)])
    def test_overlapping_subranges_rejected(self, second):
        with pytest.raises(ValueError, match="overlap"):
            MultiRangeScaling(
                operator="div",
                breakpoint_interval=(0.5, 4.0),
                sub_ranges=(SubRange(4.0, 32.0, 2.0 ** -3), SubRange(*second, 2.0 ** -6)),
                rescale_power=1.0,
            )


class TestMultiRangePWL:
    @pytest.fixture(scope="class")
    def div_pwl(self):
        fn = get_function("div")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        return fit_pwl(fn.fn, bp, fn.search_range)

    @pytest.fixture(scope="class")
    def rsqrt_pwl(self):
        fn = get_function("rsqrt")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        return fit_pwl(fn.fn, bp, fn.search_range)

    def test_div_accuracy_over_wide_range(self, div_pwl):
        wrapped = MultiRangePWL(pwl=div_pwl, scaling=DIV_MULTI_RANGE)
        x = np.linspace(0.5, 1000.0, 2000)
        mse = wrapped.mse(get_function("div"), x)
        assert mse < 5e-3

    def test_rsqrt_accuracy_over_wide_range(self, rsqrt_pwl):
        wrapped = MultiRangePWL(pwl=rsqrt_pwl, scaling=RSQRT_MULTI_RANGE)
        x = np.linspace(0.25, 4000.0, 2000)
        mse = wrapped.mse(get_function("rsqrt"), x)
        assert mse < 5e-3

    def test_relative_error_small_far_out(self, div_pwl):
        """Re-scaling keeps the relative error bounded even at x >> I_R."""
        wrapped = MultiRangePWL(pwl=div_pwl, scaling=DIV_MULTI_RANGE)
        x = np.array([10.0, 100.0, 200.0])
        approx = wrapped(x)
        exact = 1.0 / x
        rel = np.abs(approx - exact) / exact
        assert np.all(rel < 0.2)

    def test_fxp_pwl_parameters_rounded(self, div_pwl):
        wrapped = MultiRangePWL(pwl=div_pwl, scaling=DIV_MULTI_RANGE, frac_bits=5)
        fxp = wrapped.fxp_pwl
        np.testing.assert_allclose(fxp.slopes * 32, np.round(fxp.slopes * 32))
        np.testing.assert_allclose(fxp.breakpoints * 32, np.round(fxp.breakpoints * 32))

    @given(st.floats(0.5, 300.0))
    @settings(max_examples=100, deadline=None)
    def test_output_positive_within_covered_range(self, value):
        """Within the bounded Table 2 sub-ranges the approximation stays positive."""
        fn = get_function("div")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        pwl = fit_pwl(fn.fn, bp, fn.search_range)
        wrapped = MultiRangePWL(pwl=pwl, scaling=DIV_MULTI_RANGE)
        out = float(wrapped(value))
        assert np.isfinite(out)
        assert out > 0

    @given(st.floats(300.0, 100000.0))
    @settings(max_examples=50, deadline=None)
    def test_output_finite_beyond_covered_range(self, value):
        """Beyond the last bounded sub-range the pwl extrapolates: the result
        may lose relative accuracy but must stay finite and small in
        magnitude (the exact value is itself close to zero there)."""
        fn = get_function("div")
        bp = uniform_breakpoints(*fn.search_range, num_entries=8)
        pwl = fit_pwl(fn.fn, bp, fn.search_range)
        wrapped = MultiRangePWL(pwl=pwl, scaling=DIV_MULTI_RANGE)
        out = float(wrapped(value))
        assert np.isfinite(out)
        assert abs(out) < 5.0
