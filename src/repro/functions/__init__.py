"""Non-linear operator library.

This package defines the non-linear functions that the paper approximates
(GELU, HSWISH, EXP, DIV, RSQRT) plus a handful of other operators that are
common in Transformer variants (SIGMOID, TANH, SILU, SOFTPLUS, ERF).  Each
operator is described by a :class:`NonLinearFunction` record that bundles the
callable, its default search range and the quantization behaviour of its
input (whether the input arrives as a quantized activation with a scaling
factor, or as an intermediate fixed-point value with a wide range).
"""

from repro.functions.nonlinear import (
    NonLinearFunction,
    gelu,
    hswish,
    exp,
    div,
    rsqrt,
    sigmoid,
    tanh,
    silu,
    softplus,
    erf,
)
from repro.functions.registry import (
    FunctionRegistry,
    get_function,
    list_functions,
    DEFAULT_REGISTRY,
)

__all__ = [
    "NonLinearFunction",
    "gelu",
    "hswish",
    "exp",
    "div",
    "rsqrt",
    "sigmoid",
    "tanh",
    "silu",
    "softplus",
    "erf",
    "FunctionRegistry",
    "get_function",
    "list_functions",
    "DEFAULT_REGISTRY",
]
