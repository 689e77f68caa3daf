"""Tests for the baseline approximation methods."""

import numpy as np
import pytest

from repro.baselines import (
    NNLUT,
    NNLUTTrainingConfig,
    chebyshev_nodes,
    chebyshev_pwl,
    uniform_pwl,
)
from repro.functions.registry import get_function


@pytest.fixture(scope="module")
def trained_gelu_nnlut():
    nn = NNLUT(
        get_function("gelu"),
        num_entries=8,
        config=NNLUTTrainingConfig(num_samples=8000, iterations=1500, seed=0),
    )
    nn.train()
    return nn


class TestUniformAndChebyshev:
    def test_uniform_pwl_entry_count(self):
        pwl = uniform_pwl(get_function("gelu"), num_entries=8)
        assert pwl.num_entries == 8

    def test_chebyshev_nodes_sorted_and_bounded(self):
        nodes = chebyshev_nodes(-4, 4, 7)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > -4 and nodes[-1] < 4

    def test_chebyshev_nodes_validation(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(-4, 4, 0)
        with pytest.raises(ValueError):
            chebyshev_nodes(4, -4, 3)

    def test_chebyshev_pwl_reasonable_accuracy(self):
        fn = get_function("exp")
        pwl = chebyshev_pwl(fn, num_entries=8)
        grid = fn.sample_grid(0.01)
        assert np.mean((pwl(grid) - fn(grid)) ** 2) < 1e-3

    def test_uniform_pwl_reasonable_accuracy(self):
        fn = get_function("gelu")
        pwl = uniform_pwl(fn, num_entries=8)
        grid = fn.sample_grid(0.01)
        assert np.mean((pwl(grid) - fn(grid)) ** 2) < 1e-3


class TestNNLUT:
    def test_network_is_piecewise_linear(self, trained_gelu_nnlut):
        """The extracted pwl must equal the network away from the kinks."""
        nn = trained_gelu_nnlut
        pwl = nn.extract_pwl()
        x = np.linspace(-3.9, 3.9, 257)
        # Exclude points within a small window of any breakpoint.
        mask = np.all(np.abs(x[:, None] - pwl.breakpoints[None, :]) > 1e-3, axis=1)
        np.testing.assert_allclose(pwl(x[mask]), nn.forward(x[mask]), atol=1e-9)

    def test_training_reduces_loss(self):
        nn = NNLUT(
            get_function("gelu"),
            num_entries=8,
            config=NNLUTTrainingConfig(num_samples=2000, iterations=300, seed=1),
        )
        x = np.linspace(-4, 4, 500)
        y = get_function("gelu")(x)
        before = float(np.mean((nn.forward(x) - y) ** 2))
        nn.train()
        after = float(np.mean((nn.forward(x) - y) ** 2))
        assert after < before

    def test_trained_approximation_accuracy(self, trained_gelu_nnlut):
        fn = get_function("gelu")
        pwl = trained_gelu_nnlut.extract_pwl()
        grid = fn.sample_grid(0.01)
        assert np.mean((pwl(grid) - fn(grid)) ** 2) < 2e-3

    def test_breakpoints_sorted_and_in_range(self, trained_gelu_nnlut):
        bp = trained_gelu_nnlut.breakpoints()
        assert np.all(np.diff(bp) >= 0)
        assert np.all(bp >= -4.0) and np.all(bp <= 4.0)

    def test_entry_count_matches_request(self, trained_gelu_nnlut):
        assert trained_gelu_nnlut.extract_pwl().num_entries == 8

    def test_fxp_extraction_rounds(self, trained_gelu_nnlut):
        fxp = trained_gelu_nnlut.extract_fxp_pwl(frac_bits=5)
        np.testing.assert_allclose(fxp.slopes * 32, np.round(fxp.slopes * 32))

    def test_fit_trains_once(self):
        nn = NNLUT(
            get_function("exp"),
            num_entries=4,
            config=NNLUTTrainingConfig(num_samples=1000, iterations=100, seed=0),
        )
        first = nn.fit()
        second = nn.fit()
        np.testing.assert_allclose(first.breakpoints, second.breakpoints)

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            NNLUT(get_function("gelu"), num_entries=1)


class TestNNLUTDeployment:
    """NN-LUT deployed as the dense table of its Fig. 1b unit."""

    def test_dense_table_bit_identical_over_all_codes(self, trained_gelu_nnlut):
        from repro.core.lut import DenseLUT, QuantizedLUT

        scale = 2.0 ** -4
        legacy = QuantizedLUT(pwl=trained_gelu_nnlut.extract_fxp_pwl(), scale=scale)
        dense = DenseLUT.from_quantized(legacy)
        codes = np.arange(legacy.spec.qmin, legacy.spec.qmax + 1, dtype=np.float64)
        np.testing.assert_array_equal(
            dense.lookup_codes(codes), legacy.lookup_dequantized(codes)
        )
        x = np.linspace(-4.0, 4.0, 333)
        np.testing.assert_array_equal(dense(x), legacy(x))
