"""Batch/scalar equivalence tests for the vectorized pwl + LUT engine.

The batched genetic engine is only correct if every batched primitive is
bit-identical to its scalar counterpart per row — these tests pin that
contract for :func:`fit_pwl_batch`, :class:`PiecewiseLinearBatch` and
:class:`QuantizedLUTBatch`.
"""

import numpy as np
import pytest

from repro.core.lut import QuantizedLUT, QuantizedLUTBatch
from repro.core.pwl import (
    PiecewiseLinear,
    PiecewiseLinearBatch,
    fit_pwl,
    fit_pwl_batch,
    segment_counts,
    uniform_breakpoints,
)
from repro.functions.registry import get_function
from repro.quant.quantizer import QuantSpec


def population_with_degenerates(fn, size=24, num_breakpoints=7, seed=0):
    """Random rows plus the pathological cases the GA actually produces."""
    rng = np.random.default_rng(seed)
    lo, hi = fn.search_range
    pop = np.sort(rng.uniform(lo, hi, size=(size, num_breakpoints)), axis=1)
    pop[0] = np.full(num_breakpoints, (lo + hi) / 2)  # all duplicates
    pop[1] = np.sort(np.concatenate([[lo - 10.0, hi + 10.0], pop[1][2:]]))  # clipped
    mid = (lo + hi) / 2
    pop[2] = np.sort(
        np.concatenate([[mid, mid, mid], pop[2][3:]])
    )  # duplicate run after RM-style rounding
    return pop


class TestFitPWLBatch:
    @pytest.mark.parametrize("operator", ["gelu", "exp", "hswish"])
    @pytest.mark.parametrize("method", ["interpolate", "lstsq"])
    def test_rows_bit_identical_to_scalar_fit(self, operator, method):
        fn = get_function(operator)
        pop = population_with_degenerates(fn)
        batch = fit_pwl_batch(fn.fn, pop, fn.search_range, method=method)
        for i in range(pop.shape[0]):
            scalar = fit_pwl(fn.fn, pop[i], fn.search_range, method=method)
            np.testing.assert_array_equal(batch.breakpoints[i], scalar.breakpoints)
            np.testing.assert_array_equal(batch.slopes[i], scalar.slopes)
            np.testing.assert_array_equal(batch.intercepts[i], scalar.intercepts)

    def test_rejects_non_matrix_population(self):
        fn = get_function("gelu")
        with pytest.raises(ValueError):
            fit_pwl_batch(fn.fn, np.zeros(7), fn.search_range)

    def test_rejects_bad_range(self):
        fn = get_function("gelu")
        with pytest.raises(ValueError):
            fit_pwl_batch(fn.fn, np.zeros((3, 7)), (4.0, -4.0))

    def test_rejects_unknown_method(self):
        fn = get_function("gelu")
        with pytest.raises(ValueError):
            fit_pwl_batch(fn.fn, np.zeros((3, 7)), fn.search_range, method="spline")


class TestPiecewiseLinearBatch:
    def make_batch(self, operator="gelu", size=12):
        fn = get_function(operator)
        pop = population_with_degenerates(fn, size=size)
        return fn, fit_pwl_batch(fn.fn, pop, fn.search_range)

    def test_call_matches_scalar_rows_on_grid(self):
        fn, batch = self.make_batch()
        grid = fn.sample_grid(0.01)
        out = batch(grid)
        assert out.shape == (batch.population_size, grid.size)
        for i in range(batch.population_size):
            np.testing.assert_array_equal(out[i], batch.row(i)(grid))

    def test_call_matches_scalar_on_unsorted_input(self):
        fn, batch = self.make_batch()
        x = np.random.default_rng(1).uniform(-5, 5, size=33)  # unsorted fallback path
        out = batch(x)
        for i in range(batch.population_size):
            np.testing.assert_array_equal(out[i], batch.row(i)(x))

    def test_segment_index_matches_searchsorted(self):
        fn, batch = self.make_batch()
        grid = fn.sample_grid(0.05)
        idx = batch.segment_index(grid)
        for i in range(batch.population_size):
            np.testing.assert_array_equal(idx[i], batch.row(i).segment_index(grid))

    def test_per_row_input_matrix(self):
        fn, batch = self.make_batch(size=4)
        x = np.random.default_rng(2).uniform(-4, 4, size=(4, 17))
        out = batch(x)
        for i in range(4):
            np.testing.assert_array_equal(out[i], batch.row(i)(x[i]))

    def test_to_fixed_point_matches_scalar(self):
        _, batch = self.make_batch()
        fxp = batch.to_fixed_point(5)
        for i in range(batch.population_size):
            scalar = batch.row(i).to_fixed_point(5)
            np.testing.assert_array_equal(fxp.slopes[i], scalar.slopes)
            np.testing.assert_array_equal(fxp.intercepts[i], scalar.intercepts)

    def test_from_rows_round_trip(self):
        fn = get_function("gelu")
        rows = [
            fit_pwl(fn.fn, uniform_breakpoints(-4, 4, 8), fn.search_range),
            fit_pwl(fn.fn, np.linspace(-3, 3, 7), fn.search_range),
        ]
        batch = PiecewiseLinearBatch.from_rows(rows)
        assert batch.population_size == 2
        assert batch.num_entries == 8
        recovered = batch.row(1)
        assert isinstance(recovered, PiecewiseLinear)
        np.testing.assert_array_equal(recovered.slopes, rows[1].slopes)

    def test_from_rows_rejects_empty(self):
        with pytest.raises(ValueError):
            PiecewiseLinearBatch.from_rows([])

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            PiecewiseLinearBatch(
                breakpoints=np.array([[1.0, 0.0]]),
                slopes=np.zeros((1, 3)),
                intercepts=np.zeros((1, 3)),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PiecewiseLinearBatch(
                breakpoints=np.zeros((1, 2)),
                slopes=np.zeros((1, 4)),
                intercepts=np.zeros((1, 4)),
            )

    def test_rejects_bad_input_shape(self):
        _, batch = self.make_batch(size=5)
        with pytest.raises(ValueError):
            batch(np.zeros((3, 9)))  # neither shared grid nor (P, G)


class TestSegmentCounts:
    def test_counts_invert_comparer(self):
        fn = get_function("gelu")
        pop = population_with_degenerates(fn, size=10)
        batch = fit_pwl_batch(fn.fn, pop, fn.search_range)
        grid = fn.sample_grid(0.03)
        counts = segment_counts(batch.breakpoints, grid)
        assert counts.shape == (10, batch.num_entries)
        np.testing.assert_array_equal(counts.sum(axis=1), np.full(10, grid.size))
        idx = batch.segment_index(grid)
        for i in range(10):
            np.testing.assert_array_equal(
                counts[i], np.bincount(idx[i], minlength=batch.num_entries)
            )


class TestQuantizedLUTBatch:
    SCALES = (1.0, 0.5, 0.25, 0.125)

    def make(self, operator="gelu", size=10, scale=0.25):
        fn = get_function(operator)
        pop = population_with_degenerates(fn, size=size)
        pwls = fit_pwl_batch(fn.fn, pop, fn.search_range).to_fixed_point(5)
        return QuantizedLUTBatch(pwl=pwls, scale=scale, frac_bits=5)

    def test_requires_power_of_two_scales(self):
        fn = get_function("gelu")
        pwls = fit_pwl_batch(
            fn.fn, population_with_degenerates(fn, size=3), fn.search_range
        )
        with pytest.raises(ValueError):
            QuantizedLUTBatch(pwl=pwls, scale=0.3)
        with pytest.raises(ValueError):
            QuantizedLUTBatch(pwl=pwls, scale=-0.5)

    def test_lookups_bit_identical_to_scalar_lut(self):
        codes = np.arange(-128, 128, dtype=np.float64)
        for scale in self.SCALES:
            lut = self.make(scale=scale)
            integer = lut.lookup_integer(codes)
            dequant = lut.lookup_dequantized(codes)
            assert integer.shape == (10, 256)
            for p in range(lut.population_size):
                scalar = lut.at(p)
                np.testing.assert_array_equal(integer[p], scalar.lookup_integer(codes))
                np.testing.assert_array_equal(dequant[p], scalar.lookup_dequantized(codes))

    def test_unsorted_codes_fallback_matches(self):
        lut = self.make(size=4, scale=0.5)
        codes = np.array([5.0, -3.0, 100.0, -128.0, 0.0])
        out = lut.lookup_integer(codes)
        for p in range(4):
            np.testing.assert_array_equal(out[p], lut.at(p).lookup_integer(codes))

    def test_negative_zero_code_is_code_zero(self):
        # The stored intercept of the middle segment rounds to -0.0, so a
        # signed -0.0 code would give k * -0.0 + -0.0 = -0.0.
        pwls = PiecewiseLinearBatch(
            breakpoints=np.array([[-1.0, 1.0]]),
            slopes=np.array([[0.5, 1.0, 0.5]]),
            intercepts=np.array([[0.0, -0.001, 0.0]]),
        )
        lut = QuantizedLUTBatch(pwl=pwls, scale=0.25, frac_bits=5)
        codes = np.array([-0.0, 0.0, 1.0])
        for lookup in ("lookup_integer", "lookup_dequantized"):
            batch = getattr(lut, lookup)(codes)[0]
            scalar = getattr(lut.at(0), lookup)(codes)
            assert batch.tobytes() == scalar.tobytes()
        assert lut.lookup_integer(codes)[0].tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()

    def test_quantized_breakpoints_match_scalar(self):
        for scale in self.SCALES:
            lut = self.make(size=5, scale=scale)
            qbp = lut.quantized_breakpoints
            for p in range(5):
                np.testing.assert_array_equal(qbp[p], lut.at(p).quantized_breakpoints)

    def test_shifted_intercepts_match_scalar(self):
        for scale in self.SCALES:
            lut = self.make(size=5, scale=scale)
            shifted = lut.shifted_intercepts
            for p in range(5):
                np.testing.assert_array_equal(shifted[p], lut.at(p).shifted_intercepts)

    def test_spec_is_respected(self):
        lut = self.make()
        assert lut.spec == QuantSpec(bits=8, signed=True)
        assert lut.num_entries == 8
        assert isinstance(lut.at(0), QuantizedLUT)
