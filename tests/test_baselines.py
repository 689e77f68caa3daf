"""Tests for the baseline approximation methods."""

import numpy as np
import pytest

from repro.baselines import (
    NNLUT,
    NNLUTTrainingConfig,
    IBertSoftmax,
    chebyshev_nodes,
    chebyshev_pwl,
    i_exp,
    i_gelu,
    i_rsqrt,
    i_sqrt,
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


class TestIBert:
    def test_i_gelu_close_to_gelu(self):
        x = np.linspace(-4, 4, 101)
        reference = get_function("gelu")(x)
        assert np.max(np.abs(i_gelu(x) - reference)) < 0.03

    def test_i_exp_close_to_exp_on_softmax_domain(self):
        x = np.linspace(-8, 0, 101)
        assert np.max(np.abs(i_exp(x) - np.exp(x))) < 0.02

    def test_i_exp_clamps_positive_inputs(self):
        assert i_exp(3.0) == pytest.approx(i_exp(0.0))

    def test_i_sqrt_accuracy(self):
        x = np.linspace(0.01, 100, 200)
        np.testing.assert_allclose(i_sqrt(x, iterations=6), np.sqrt(x), rtol=1e-3)

    def test_i_sqrt_zero(self):
        assert i_sqrt(0.0) == pytest.approx(0.0)

    def test_i_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            i_sqrt(-1.0)

    def test_i_rsqrt_accuracy(self):
        x = np.linspace(0.25, 64, 100)
        np.testing.assert_allclose(i_rsqrt(x, iterations=6), 1 / np.sqrt(x), rtol=1e-3)

    def test_ibert_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 10))
        probs = IBertSoftmax()(logits)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_ibert_softmax_close_to_exact(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 7)) * 3
        exact = np.exp(logits - logits.max(-1, keepdims=True))
        exact = exact / exact.sum(-1, keepdims=True)
        approx = IBertSoftmax()(logits)
        assert np.max(np.abs(approx - exact)) < 0.02


class TestNNLUTDeployment:
    """NN-LUT deployed as the dense table of its Fig. 1b unit."""

    def test_deploy_engines_bit_identical_over_all_codes(self, trained_gelu_nnlut):
        import numpy as np

        from repro.core.lut import DenseLUT, QuantizedLUT

        scale = 2.0 ** -4
        dense = trained_gelu_nnlut.deploy(scale)
        legacy = QuantizedLUT(pwl=trained_gelu_nnlut.extract_fxp_pwl(), scale=scale)
        assert isinstance(dense, DenseLUT)
        codes = np.arange(legacy.spec.qmin, legacy.spec.qmax + 1, dtype=np.float64)
        np.testing.assert_array_equal(
            dense.lookup_codes(codes), legacy.lookup_dequantized(codes)
        )
        x = np.linspace(-4.0, 4.0, 333)
        np.testing.assert_array_equal(dense(x), legacy(x))

    def test_deploy_trains_untrained_network(self):
        nn = NNLUT(
            get_function("gelu"),
            num_entries=8,
            config=NNLUTTrainingConfig(num_samples=500, iterations=20, seed=0),
        )
        assert not nn._trained
        dense = nn.deploy(0.25)
        assert nn._trained
        assert dense.num_codes == 256
