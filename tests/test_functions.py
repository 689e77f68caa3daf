"""Tests for the non-linear operator library."""

import math

import numpy as np
import pytest

from repro.functions import (
    DEFAULT_REGISTRY,
    FunctionRegistry,
    NonLinearFunction,
    get_function,
    list_functions,
)
from repro.functions import nonlinear as nl


class TestOperatorValues:
    def test_gelu_known_values(self):
        assert nl.gelu(0.0) == pytest.approx(0.0, abs=1e-9)
        assert nl.gelu(10.0) == pytest.approx(10.0, abs=1e-4)
        assert nl.gelu(-10.0) == pytest.approx(0.0, abs=1e-4)
        # GELU(1) = 0.5 * (1 + erf(1/sqrt(2))) = 0.8413...
        assert nl.gelu(1.0) == pytest.approx(0.841345, abs=1e-4)

    def test_gelu_matches_tanh_variant_loosely(self):
        x = np.linspace(-4, 4, 101)
        tanh_form = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))
        assert np.max(np.abs(nl.gelu(x) - tanh_form)) < 5e-3

    def test_hswish_piecewise_regions(self):
        assert nl.hswish(-4.0) == pytest.approx(0.0)
        assert nl.hswish(4.0) == pytest.approx(4.0)
        assert nl.hswish(0.0) == pytest.approx(0.0)
        assert nl.hswish(-1.5) == pytest.approx(-1.5 * 1.5 / 6.0)

    def test_exp_matches_numpy(self):
        x = np.linspace(-8, 0, 50)
        np.testing.assert_allclose(nl.exp(x), np.exp(x))

    def test_div_reciprocal(self):
        x = np.array([0.5, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(nl.div(x), 1.0 / x)

    def test_div_zero_maps_to_inf(self):
        assert np.isinf(nl.div(0.0))

    def test_rsqrt_values(self):
        x = np.array([0.25, 1.0, 4.0, 16.0])
        np.testing.assert_allclose(nl.rsqrt(x), 1.0 / np.sqrt(x))

    def test_rsqrt_nonpositive_maps_to_inf(self):
        assert np.isinf(nl.rsqrt(0.0))

    def test_sigmoid_stable_for_large_inputs(self):
        assert nl.sigmoid(1000.0) == pytest.approx(1.0)
        assert nl.sigmoid(-1000.0) == pytest.approx(0.0)

    def test_silu_is_x_times_sigmoid(self):
        x = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(nl.silu(x), x * nl.sigmoid(x))

    def test_softplus_positive_and_asymptotic(self):
        x = np.linspace(-20, 20, 81)
        y = nl.softplus(x)
        assert np.all(y > 0)
        assert y[-1] == pytest.approx(20.0, abs=1e-6)

    def test_erf_matches_math_erf(self):
        xs = np.linspace(-3, 3, 61)
        expected = np.array([math.erf(v) for v in xs])
        np.testing.assert_allclose(nl.erf(xs), expected, atol=2e-7)

    def test_scalar_and_array_inputs_consistent(self):
        for fn in (nl.gelu, nl.hswish, nl.exp, nl.sigmoid, nl.tanh):
            scalar = float(fn(0.7))
            array = fn(np.array([0.7]))[0]
            assert scalar == pytest.approx(array)


class TestNonLinearFunctionRecord:
    def test_sample_grid_step_and_endpoints(self):
        fn = get_function("gelu")
        grid = fn.sample_grid(0.01)
        assert grid[0] == pytest.approx(-4.0)
        assert grid[-1] == pytest.approx(4.0)
        assert len(grid) == 801

    def test_sample_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            get_function("gelu").sample_grid(0.0)

    def test_with_range_returns_new_instance(self):
        fn = get_function("gelu")
        narrowed = fn.with_range(-2, 2)
        assert narrowed.search_range == (-2.0, 2.0)
        assert fn.search_range == (-4.0, 4.0)

    def test_with_range_rejects_inverted(self):
        with pytest.raises(ValueError):
            get_function("gelu").with_range(3, -3)

    def test_callable_dispatches_to_fn(self):
        fn = get_function("exp")
        assert fn(0.0) == pytest.approx(1.0)

    def test_table1_ranges(self):
        assert get_function("gelu").search_range == (-4.0, 4.0)
        assert get_function("hswish").search_range == (-4.0, 4.0)
        assert get_function("exp").search_range == (-8.0, 0.0)
        assert get_function("div").search_range == (0.5, 4.0)
        assert get_function("rsqrt").search_range == (0.25, 4.0)

    def test_scale_dependence_flags(self):
        assert get_function("gelu").scale_dependent
        assert get_function("exp").scale_dependent
        assert not get_function("div").scale_dependent
        assert not get_function("rsqrt").scale_dependent

    def test_rescale_power(self):
        assert get_function("div").rescale_power == 1.0
        assert get_function("rsqrt").rescale_power == 0.5


class TestRegistry:
    def test_default_registry_contains_paper_operators(self):
        for name in ("gelu", "hswish", "exp", "div", "rsqrt"):
            assert name in DEFAULT_REGISTRY

    def test_lookup_is_case_insensitive(self):
        assert get_function("GELU").name == "gelu"

    def test_unknown_function_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_function("does-not-exist")

    def test_list_functions_sorted(self):
        names = list_functions()
        assert names == sorted(names)

    def test_register_duplicate_raises(self):
        registry = FunctionRegistry([get_function("gelu")])
        with pytest.raises(ValueError):
            registry.register(get_function("gelu"))

    def test_register_overwrite_allowed(self):
        registry = FunctionRegistry([get_function("gelu")])
        replacement = get_function("gelu").with_range(-2, 2)
        registry.register(replacement, overwrite=True)
        assert registry.get("gelu").search_range == (-2.0, 2.0)

    def test_custom_function_registration(self):
        registry = FunctionRegistry()
        custom = NonLinearFunction("square", lambda x: np.asarray(x) ** 2, (-1.0, 1.0))
        registry.register(custom)
        assert registry.get("square")(3.0) == pytest.approx(9.0)
        assert len(registry) == 1
