"""The emitted RTL computes the deployed table, code for code.

``generate_pwl_verilog`` emits the Fig. 1b unit: a thermometer comparer
over the quantized breakpoints, a case select of the FXP slope and
intercept, the intercept shifter and a multiply-add.  No HDL simulator is
needed to check it: this suite parses the constants, the case table and
the shifter expression back out of the emitted text and evaluates that
datapath on Python integers, with every wire wrapped to its declared
width.  Hypothesis draws the operator, random breakpoints, 8 or 16
entries, the input width and a scale ``S = 2^-8 .. 2^3``.  The parsed
``SLOPE_i``, ``INTERCEPT_i`` and ``BREAK_i`` must be the LUT's integer
codes, and on every input code the RTL model must equal

* ``QuantizedLUT.lookup_fixed_point(q)`` — the model's integer output
  code, the value ``generate_testbench`` bakes in, and
  ``lookup_integer(q) * 2^lambda`` exactly, and
* the :class:`DenseLUT` entry for ``q`` rescaled by ``2^lambda / S``.

At ``S >= 2`` the shifter divides the intercept by ``S``; the model rounds
that half to even (``shift_codes``), so the RTL must too.
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.core.lut import DenseLUT, QuantizedLUT
from repro.core.pwl import fit_pwl
from repro.functions.registry import get_function
from repro.hardware.verilog import generate_pwl_verilog, generate_testbench
from repro.quant.quantizer import QuantSpec

OPERATORS = ("gelu", "hswish", "exp", "silu", "div", "rsqrt")


def wrap(value: int, bits: int) -> int:
    """``value`` as a ``bits``-bit two's-complement wire holds it."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def signed_literal(width: str, digits: str) -> int:
    return wrap(int(digits, 16), int(width))


class RTLModel:
    """The datapath of one emitted module, evaluated on Python integers."""

    def __init__(self, rtl: str) -> None:
        self.params = {
            name: signed_literal(width, digits)
            for name, width, digits in re.findall(
                r"localparam signed \[\d+:0\] (\w+)\s*= (\d+)'h([0-9A-F]+);", rtl)
        }
        self.params["SHIFT"] = int(re.search(r"localparam integer SHIFT = (-?\d+);", rtl)[1])
        self.widths = {
            name: int(msb) + 1
            for msb, name in re.findall(r"(?:wire|reg)\s+signed \[(\d+):0\]\s+(\w+)", rtl)
        }
        self.compares = [
            (int(bit), name) for bit, name in
            re.findall(r"assign ge_break\[(\d+)\] = \(q_in >= (\w+)\);", rtl)
        ]
        self.cases = {
            int(pattern, 2): (slope, intercept) for pattern, slope, intercept in
            re.findall(r"\d+'b([01]+): begin slope_sel = (\w+); intercept_sel = (\w+); end", rtl)
        }
        self.default = re.search(
            r"default: begin slope_sel = (\w+); intercept_sel = (\w+); end", rtl).groups()
        shifter = re.search(r"assign intercept_shifted = (.+);", rtl)[1]
        # Verilog's arithmetic shifts on signed operands are Python's shifts.
        self.shifter = compile(
            shifter.replace(">>>", ">>").replace("<<<", "<<"), "<shifter>", "eval")
        assert re.search(r"assign product = slope_sel \* q_in;", rtl)
        assert re.search(r"y_out <= product \+ intercept_shifted;", rtl)

    def __call__(self, q: int) -> int:
        ge_break = sum(1 << bit for bit, name in self.compares if q >= self.params[name])
        slope, intercept = self.cases.get(ge_break, self.default)
        intercept_sel = self.params[intercept]
        shifted = eval(self.shifter, {}, {
            "intercept_sel": intercept_sel, "SHIFT": self.params["SHIFT"]})
        shifted = wrap(shifted, self.widths["intercept_shifted"])
        product = wrap(self.params[slope] * q, self.widths["product"])
        return wrap(product + shifted, self.widths["y_out"])


@st.composite
def luts(draw):
    operator = draw(st.sampled_from(OPERATORS))
    fn = get_function(operator)
    lo, hi = fn.search_range
    entries = draw(st.sampled_from((8, 16)))
    seed = draw(st.integers(0, 2 ** 16))
    breakpoints = np.sort(np.random.default_rng(seed).uniform(lo, hi, entries - 1))
    pwl = fit_pwl(fn.fn, breakpoints, fn.search_range).to_fixed_point(5)
    exponent = draw(st.integers(-8, 3))
    bits = draw(st.sampled_from((6, 8)))
    event("S %s 1" % ("> " if exponent > 0 else "<="))
    return QuantizedLUT(pwl=pwl, scale=2.0 ** exponent,
                        spec=QuantSpec(bits=bits, signed=True), frac_bits=5)


@settings(max_examples=150, deadline=None)
@given(lut=luts())
def test_rtl_matches_the_model_and_the_dense_table(lut):
    try:
        rtl = generate_pwl_verilog(lut)
    except ValueError:
        # A constant that does not fit its declared width is refused.
        event("constant does not fit")
        assume(False)
    model = RTLModel(rtl)
    n = lut.num_entries
    assert [model.params["SLOPE_%d" % i] for i in range(n)] == lut.slope_codes.tolist()
    assert [model.params["INTERCEPT_%d" % i] for i in range(n)] == lut.intercept_codes.tolist()
    assert [model.params["BREAK_%d" % i] for i in range(n - 1)] == lut.breakpoint_codes.tolist()
    assert model.params["SHIFT"] == lut.shift
    codes = np.arange(lut.spec.qmin, lut.spec.qmax + 1)
    fixed = lut.lookup_fixed_point(codes)
    np.testing.assert_array_equal(
        lut.lookup_integer(codes.astype(np.float64)) * 2.0 ** lut.frac_bits, fixed)
    dense = DenseLUT.from_quantized(lut)
    from_dense = dense.outputs * 2.0 ** lut.frac_bits / lut.scale
    np.testing.assert_array_equal(from_dense, fixed)
    rtl_codes = np.array([model(int(q)) for q in codes])
    np.testing.assert_array_equal(rtl_codes, fixed)

    bench = generate_testbench(lut, num_vectors=16, seed=0)
    for code, want in re.findall(r"check\((-?\d+), (-?\d+)\);", bench):
        assert model(int(code)) == int(want)


def test_shifter_rounds_half_to_even():
    """The shifter on its own: every intercept code at SHIFT 1..3."""
    fn = get_function("gelu")
    pwl = fit_pwl(fn.fn, np.linspace(-3.0, 3.0, 7), fn.search_range).to_fixed_point(5)
    for shift in (1, 2, 3):
        model = RTLModel(generate_pwl_verilog(QuantizedLUT(pwl=pwl, scale=2.0 ** shift)))
        for b in range(-64, 65):
            got = eval(model.shifter, {}, {"intercept_sel": b, "SHIFT": shift})
            assert got == int(np.round(b / 2.0 ** shift)), (shift, b)
