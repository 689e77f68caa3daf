"""Verilog RTL generation for the quantization-aware pwl unit (Fig. 1b).

The paper implements the pwl units in Verilog HDL and synthesizes them with
Design Compiler.  We cannot run the proprietary flow, but we can emit the
RTL so the modelled datapath is concrete: the generated module contains the
parameter ROM (slopes, intercepts, quantized breakpoints baked in from a
searched :class:`QuantizedLUT`), the comparator chain, the shifter that
rescales the intercept by ``log2(S)``, and the multiply-add.

The emitted code is plain synthesizable Verilog-2001 with no vendor
primitives, so it can be pushed through any open or commercial flow.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.lut import QuantizedLUT


def _to_signed_literal(value: int, bits: int) -> str:
    """Render ``value`` as a sized two's-complement Verilog literal.

    Raises ``ValueError`` when ``value`` does not fit ``bits`` signed bits,
    instead of emitting its wrapped low bits as a different constant.
    """
    if not -(1 << (bits - 1)) <= value < (1 << (bits - 1)):
        raise ValueError("%d does not fit a %d-bit signed literal" % (value, bits))
    return "%d'h%X" % (bits, value & ((1 << bits) - 1))


def generate_pwl_verilog(lut: QuantizedLUT, module_name: str = "gqa_lut_pwl") -> str:
    """Emit a synthesizable Verilog module implementing ``lut``.

    The module computes ``y = k_i * q + (b_i >> shift)`` where segment ``i``
    is selected by comparing the input code ``q`` against the quantized
    breakpoints.  The constants are ``lut``'s integer codes and the wire
    widths its declared port widths: slopes and intercepts are
    ``lut.coefficient_bits``-bit FXP words with ``lut.frac_bits``
    fractional bits, and the output carries the same FXP format in
    ``lut.output_bits`` bits.
    """
    bits = lut.spec.bits
    frac = lut.frac_bits
    n = lut.num_entries
    out_bits = lut.output_bits
    param_bits = lut.coefficient_bits
    slopes = lut.slope_codes
    intercepts = lut.intercept_codes
    breakpoints = lut.breakpoint_codes
    shift = lut.shift

    lines: List[str] = []
    emit = lines.append
    emit("// Auto-generated by repro.hardware.verilog")
    emit("// Quantization-aware %d-entry pwl unit (Fig. 1b of GQA-LUT, DAC'24)" % n)
    emit("// Input: signed %d-bit code q; scale S = 2^%d; lambda = %d" % (bits, shift, frac))
    emit("module %s (" % module_name)
    emit("    input  wire                       clk,")
    emit("    input  wire                       rst_n,")
    emit("    input  wire signed [%d:0]          q_in," % (bits - 1))
    emit("    output reg  signed [%d:0]         y_out" % (out_bits - 1))
    emit(");")
    emit("")
    emit("    // LUT parameter ROM (FXP, %d fractional bits)" % frac)
    for i in range(n):
        emit(
            "    localparam signed [%d:0] SLOPE_%d     = %s;"
            % (param_bits - 1, i, _to_signed_literal(int(slopes[i]), param_bits))
        )
    for i in range(n):
        emit(
            "    localparam signed [%d:0] INTERCEPT_%d = %s;"
            % (param_bits - 1, i, _to_signed_literal(int(intercepts[i]), param_bits))
        )
    for i in range(n - 1):
        emit(
            "    localparam signed [%d:0] BREAK_%d     = %s;"
            % (bits - 1, i, _to_signed_literal(int(breakpoints[i]), bits))
        )
    emit("    localparam integer SHIFT = %d;" % shift)
    emit("")
    emit("    // Comparer: one-hot-ish thermometer code of q against breakpoints")
    emit("    wire [%d:0] ge_break;" % (n - 2))
    for i in range(n - 1):
        emit("    assign ge_break[%d] = (q_in >= BREAK_%d);" % (i, i))
    emit("")
    emit("    // Index = number of breakpoints <= q (priority select)")
    emit("    reg signed [%d:0] slope_sel;" % (param_bits - 1))
    emit("    reg signed [%d:0] intercept_sel;" % (param_bits - 1))
    emit("    always @(*) begin")
    emit("        case (ge_break)")
    for i in range(n):
        # Thermometer pattern: lowest i bits set selects entry i.
        pattern = (1 << i) - 1
        width = n - 1
        emit(
            "            %d'b%s: begin slope_sel = SLOPE_%d; intercept_sel = INTERCEPT_%d; end"
            % (width, format(pattern, "0%db" % width), i, i)
        )
    emit("            default: begin slope_sel = SLOPE_%d; intercept_sel = INTERCEPT_%d; end"
         % (n - 1, n - 1))
    emit("        endcase")
    emit("    end")
    emit("")
    emit("    // Intercept rescaling shifter: b_i >> log2(S)")
    emit("    wire signed [%d:0] intercept_shifted;" % (out_bits - 1))
    if shift > 0:
        # Round half to even, as the model's shift_codes does: add half an
        # output LSB less one, plus the kept LSB, then floor.
        emit("    assign intercept_shifted = (intercept_sel + (1 <<< (SHIFT - 1)) - 1"
             " + ((intercept_sel >>> SHIFT) & 1)) >>> SHIFT;")
    else:
        emit("    assign intercept_shifted = intercept_sel <<< (-SHIFT);")
    emit("")
    emit("    // Multiply-add: y = k_i * q + (b_i >> shift)")
    emit("    wire signed [%d:0] product;" % (out_bits - 1))
    emit("    assign product = slope_sel * q_in;")
    emit("")
    emit("    always @(posedge clk or negedge rst_n) begin")
    emit("        if (!rst_n)")
    emit("            y_out <= %d'd0;" % out_bits)
    emit("        else")
    emit("            y_out <= product + intercept_shifted;")
    emit("    end")
    emit("")
    emit("endmodule")
    return "\n".join(lines) + "\n"


def generate_testbench(
    lut: QuantizedLUT,
    module_name: str = "gqa_lut_pwl",
    num_vectors: int = 32,
    seed: int = 0,
) -> str:
    """Emit a simple self-checking testbench exercising random input codes.

    Expected outputs are the model's integer output codes
    (:meth:`QuantizedLUT.lookup_fixed_point`), baked into the testbench, so
    a simulator run cross-checks the RTL against the python pipeline.
    """
    bits = lut.spec.bits
    out_bits = lut.output_bits
    rng = np.random.default_rng(seed)
    codes = rng.integers(lut.spec.qmin, lut.spec.qmax + 1, size=num_vectors)
    expected = lut.lookup_fixed_point(codes)

    lines: List[str] = []
    emit = lines.append
    emit("// Auto-generated testbench for %s" % module_name)
    emit("`timescale 1ns/1ps")
    emit("module %s_tb;" % module_name)
    emit("    reg clk = 0, rst_n = 0;")
    emit("    reg signed [%d:0] q_in;" % (bits - 1))
    emit("    wire signed [%d:0] y_out;" % (out_bits - 1))
    emit("    integer errors = 0;")
    emit("")
    emit("    %s dut (.clk(clk), .rst_n(rst_n), .q_in(q_in), .y_out(y_out));" % module_name)
    emit("    always #1 clk = ~clk;")
    emit("")
    emit("    task check(input signed [%d:0] code, input signed [%d:0] expect_y);" % (bits - 1, out_bits - 1))
    emit("        begin")
    emit("            q_in = code; @(posedge clk); #0.1;")
    emit("            if (y_out !== expect_y) begin")
    emit("                $display(\"MISMATCH q=%0d got=%0d want=%0d\", code, y_out, expect_y);")
    emit("                errors = errors + 1;")
    emit("            end")
    emit("        end")
    emit("    endtask")
    emit("")
    emit("    initial begin")
    emit("        rst_n = 0; q_in = 0; repeat (2) @(posedge clk); rst_n = 1;")
    for code, want in zip(codes, expected):
        emit("        check(%d, %d);" % (int(code), int(want)))
    emit("        if (errors == 0) $display(\"PASS\"); else $display(\"FAIL (%0d errors)\", errors);")
    emit("        $finish;")
    emit("    end")
    emit("endmodule")
    return "\n".join(lines) + "\n"
