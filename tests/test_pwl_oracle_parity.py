"""Generative parity of the deployed pwl modules against their oracles.

``PWLActivation`` serves dense gather tables and ``PWLWideRange`` the
precomputed slot tables; ``oracles.py`` keeps the per-pass Fig. 1b
pipeline and the multi-range mask sweep they replaced.  Hypothesis draws
the operator, a power-of-two scale, the bit widths and the inputs — NaN,
±inf, signed zeros and values far outside the code range included — and
the forward output and the input gradient must match bit for bit (NaN
payloads aside, which numpy does not specify).
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLActivation, PWLWideRange
from repro.nn.tensor import Tensor

from oracles import ReferencePWLActivation, ReferencePWLWideRange

SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0)

values = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(SPECIAL),
)
inputs = arrays(np.float64, st.integers(1, 24), elements=values)


@functools.lru_cache(maxsize=None)
def fxp_pwl(operator: str, entries: int, frac_bits: int):
    fn = get_function(operator)
    pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, entries), fn.search_range)
    return pwl.to_fixed_point(frac_bits)


def forward_backward(module, data: np.ndarray):
    x = Tensor(data, requires_grad=True)
    y = module(x)
    y.backward(np.ones_like(data))
    return y.data, x.grad


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(
    operator=st.sampled_from(("gelu", "hswish", "exp")),
    exponent=st.integers(-8, 3),
    bits=st.sampled_from((4, 6, 8)),
    entries=st.sampled_from((8, 16)),
    frac_bits=st.sampled_from((3, 5, 8)),
    data=inputs,
)
def test_pwl_activation_matches_reference(operator, exponent, bits, entries, frac_bits, data):
    pwl = fxp_pwl(operator, entries, frac_bits)
    outputs = []
    for module_cls in (PWLActivation, ReferencePWLActivation):
        module = module_cls(operator, pwl, bits=bits, frac_bits=frac_bits)
        module.quantizer.initialise_from(np.ones(1))
        module.quantizer.scale.data = np.asarray([2.0 ** exponent])
        outputs.append(forward_backward(module, data))
    (dense_y, dense_grad), (ref_y, ref_grad) = outputs
    assert_bitwise_equal(dense_y, ref_y)
    assert_bitwise_equal(dense_grad, ref_grad)


@settings(max_examples=150, deadline=None)
@given(
    operator=st.sampled_from(("div", "rsqrt")),
    exponent=st.integers(-4, 12),
    entries=st.sampled_from((8, 16)),
    frac_bits=st.sampled_from((3, 5, 8)),
    data=inputs,
)
def test_pwl_wide_range_matches_reference(operator, exponent, entries, frac_bits, data):
    # The power-of-two factor walks the inputs across I_R and every
    # Table 2 sub-range.
    data = data * 2.0 ** exponent
    pwl = fxp_pwl(operator, entries, frac_bits)
    dense = forward_backward(PWLWideRange(operator, pwl, frac_bits=frac_bits), data)
    ref = forward_backward(ReferencePWLWideRange(operator, pwl, frac_bits=frac_bits), data)
    assert_bitwise_equal(dense[0], ref[0])
    assert_bitwise_equal(dense[1], ref[1])
