"""Generative parity of ``MultiRangePWL``'s slot tables with the mask sweep.

``MultiRangePWL`` classifies each input into its Table 2 sub-range with one
``searchsorted`` over precomputed slot tables, for the Table 3 protocol
(``__call__``), for inference (``lookup``, the same method) and for
fine-tuning (``lookup_with_slope``).  ``oracles.py`` keeps the mask sweep
it replaced: one ``[lower, upper)`` mask and ``np.where`` per sub-range.
Hypothesis draws a DIV or RSQRT pwl (random breakpoints, 8 or 16 entries),
either the Table 2 setup or a random non-overlapping one (touching edges
and an unbounded tail included), and inputs from the protocol grid, every
sub-range edge and its two neighbouring floats, the interval ends, ±0,
±inf, NaN and subnormals.  Outputs and slopes must match byte for byte.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import default_config
from repro.core.pwl import fit_pwl
from repro.functions.registry import get_function
from repro.scaling import MultiRangePWL, MultiRangeScaling, SubRange, default_multi_range

from oracles import reference_multi_range, reference_rescale

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308)


@functools.lru_cache(maxsize=None)
def protocol_grid(operator: str) -> np.ndarray:
    """The inputs ``protocol.wide_range_mse`` scores ``operator`` on."""
    config = default_config(operator)
    scaling = default_multi_range(operator)
    bounded = [sr.upper for sr in scaling.sub_ranges if np.isfinite(sr.upper)]
    return np.linspace(config.search_range[0], bounded[-1], config.data_size)


def edge_values(scaling: MultiRangeScaling) -> np.ndarray:
    """Every sub-range edge and ``I_R`` end, with both neighbouring floats."""
    edges = [e for sr in scaling.sub_ranges for e in (sr.lower, sr.upper)]
    edges.extend(scaling.breakpoint_interval)
    edges = np.array(edges, dtype=np.float64)
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@st.composite
def random_pwls(draw, operator: str):
    """An FXP pwl fitted to ``operator`` on random sorted breakpoints."""
    fn = get_function(operator)
    lo, hi = fn.search_range
    entries = draw(st.sampled_from((8, 16)))
    seed = draw(st.integers(0, 2 ** 16))
    breakpoints = np.sort(np.random.default_rng(seed).uniform(lo, hi, entries - 1))
    return fit_pwl(fn.fn, breakpoints, fn.search_range).to_fixed_point(5)


@st.composite
def scalings(draw, operator: str):
    """The Table 2 setup, or a random non-overlapping one."""
    table2 = default_multi_range(operator)
    if draw(st.booleans()):
        event("Table 2 setup")
        return table2
    count = draw(st.integers(1, 4))
    lower = table2.breakpoint_interval[1]
    subs = []
    for _ in range(count):
        lower *= 2.0 ** draw(st.integers(0, 2))  # 0: touches the one below
        upper = lower * 2.0 ** draw(st.integers(1, 4))
        subs.append(SubRange(lower, upper, 2.0 ** -draw(st.integers(1, 12))))
        lower = upper
    if draw(st.booleans()):
        event("unbounded tail")
        subs[-1] = SubRange(subs[-1].lower, float("inf"), subs[-1].scale)
    return MultiRangeScaling(
        operator=operator,
        breakpoint_interval=table2.breakpoint_interval,
        sub_ranges=tuple(subs),
        rescale_power=table2.rescale_power,
    )


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 5000.0),
    st.sampled_from(SPECIAL),
)


def assert_same_bytes(actual, expected) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), operator=st.sampled_from(("div", "rsqrt")),
       extra=arrays(np.float64, st.integers(0, 32), elements=values))
def test_slot_tables_match_the_mask_sweep(data, operator, extra):
    pwl = data.draw(random_pwls(operator))
    scaling = data.draw(scalings(operator))
    wrapped = MultiRangePWL(pwl=pwl, scaling=scaling)
    x = np.concatenate([
        protocol_grid(operator), edge_values(scaling), np.array(SPECIAL), extra,
    ])
    with np.errstate(all="ignore"):
        expected = reference_multi_range(wrapped, x)
        scaled, factor, input_scale = reference_rescale(scaling, x)
        fxp = wrapped.fxp_pwl
        expected_slope = factor * fxp.slopes[fxp.segment_index(scaled)] * input_scale
        assert_same_bytes(wrapped(x), expected)
        outputs, slopes = wrapped.lookup_with_slope(x)
    assert_same_bytes(outputs, expected)
    assert_same_bytes(slopes, expected_slope)
