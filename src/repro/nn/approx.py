"""Operator-replacement modules: exact, quantized-exact and pwl-approximated.

The fine-tuning experiments (Tables 4 and 5) compare a quantized baseline
model against the same model with one or more non-linear operators replaced
by an 8-entry pwl produced by NN-LUT, GQA-LUT w/o RM or GQA-LUT w/ RM.  To
keep the model definitions independent of that choice, models are built
against an :class:`OperatorSuite` that supplies:

* activation modules (GELU / HSWISH),
* the EXP and DIV hooks used inside attention,
* the LayerNorm flavour (exact or RSQRT-approximated).

Three suites are provided: :class:`FloatSuite` (FP training),
:class:`QuantizedBaselineSuite` (INT8 LSQ with power-of-two scales in front
of every non-linear operator — the "None" row of Tables 4/5), and
:class:`PWLSuite` (selected operators routed through their searched pwl).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.core.lut import DenseLUT, dense_lut_for
from repro.core.pwl import PiecewiseLinear
from repro.functions.nonlinear import NonLinearFunction
from repro.functions.registry import get_function
from repro.nn import functional as F
from repro.nn.layers import GELU, HSwish, LayerNorm
from repro.nn.module import Module, Parameter
from repro.nn.quantization import PowerOfTwoQuantizer
from repro.nn.tensor import Tensor, is_grad_enabled, is_tracing
from repro.quant.quantizer import QuantSpec
from repro.scaling.multi_range import MultiRangePWL, MultiRangeScaling, default_multi_range


class QuantizedActivation(Module):
    """Exact non-linear operator preceded by a power-of-two LSQ quantizer.

    This is the operator flavour used by the quantized *baseline* model: the
    input is INT8-quantized with a power-of-two scale (Section 3.1) and the
    exact function is applied to the dequantized value.
    """

    def __init__(self, name: str, bits: int = 8) -> None:
        super().__init__()
        self.name = name
        self.quantizer = PowerOfTwoQuantizer(bits=bits, signed=True)
        self._exact = {"gelu": F.gelu, "hswish": F.hswish, "exp": lambda t: t.exp()}[name]

    def forward(self, x: Tensor) -> Tensor:
        return self._exact(self.quantizer(x))


class PWLActivation(Module):
    """Scale-dependent operator (GELU / HSWISH / EXP) replaced by a pwl.

    The input passes through a power-of-two LSQ quantizer; the pwl is then
    evaluated through the quantization-aware pipeline of Fig. 1b at the
    quantizer's current scale, served from the :class:`DenseLUT` gather
    tables built through :class:`QuantizedLUT`.  The backward pass uses the
    slope of the selected segment, which is the exact derivative of the
    deployed approximation.
    """

    def __init__(
        self,
        name: str,
        pwl: PiecewiseLinear,
        bits: int = 8,
        frac_bits: int = 5,
    ) -> None:
        super().__init__()
        self.name = name
        self.pwl = pwl
        self.bits = bits
        self.frac_bits = frac_bits
        self.quantizer = PowerOfTwoQuantizer(bits=bits, signed=True)
        self._spec = QuantSpec(bits=bits, signed=True)
        self._dense_table: Optional[DenseLUT] = None
        self._dense_version = -1

    def _dense(self) -> DenseLUT:
        """The dense table for the quantizer's current scale.

        Invalidation is driven by the quantizer's scale version, so the
        table survives across training steps and is only rebuilt (or
        re-fetched from the process-wide cache) when the power-of-two scale
        actually steps to a new exponent.
        """
        version = self.quantizer.scale_version()
        if self._dense_table is None or self._dense_version != version:
            self._dense_table = dense_lut_for(
                self.pwl,
                self.quantizer.current_scale(),
                spec=self._spec,
                frac_bits=self.frac_bits,
            )
            self._dense_version = version
        return self._dense_table

    def swap_pwl(self, pwl: PiecewiseLinear) -> PiecewiseLinear:
        """Replace the deployed approximation; returns the previous one.

        Drops the cached dense table so the next forward rebuilds it from
        the new pwl at the quantizer's current (unchanged) scale — the
        rolling hot-swap path must never serve a stale table.
        """
        previous = self.pwl
        self.pwl = pwl
        self._dense_table = None
        self._dense_version = -1
        return previous

    def forward(self, x: Tensor) -> Tensor:
        if not self.quantizer.initialised:
            self.quantizer.initialise_from(x.data)
        table = self._dense()
        if is_tracing() or (is_grad_enabled() and x.requires_grad):
            # Under tracing the fused dispatch keeps the lookup on the
            # recorded apply_op path (the graph fusion pass rewrites it to
            # the output-only gather); elsewhere the no-grad branch below
            # skips the Tensor/op machinery entirely.
            return x.apply_elementwise_fused(
                table.lookup_with_slope, name="pwl[%s]" % self.name
            )
        return Tensor(table(x.data))


class PWLWideRange(Module):
    """Wide-range operator (DIV / RSQRT) replaced by a multi-range pwl.

    Wide-range inputs are not integer codes, so there is no dense table;
    the forward classifies each input once against the precomputed slot
    tables and produces output and slope together.
    """

    def __init__(
        self,
        name: str,
        pwl: PiecewiseLinear,
        scaling: Optional[MultiRangeScaling] = None,
        frac_bits: int = 5,
    ) -> None:
        super().__init__()
        self.name = name
        self.scaling = scaling or default_multi_range(name)
        self.wrapped = MultiRangePWL(pwl=pwl, scaling=self.scaling, frac_bits=frac_bits)

    def swap_pwl(self, pwl: PiecewiseLinear) -> PiecewiseLinear:
        """Replace the deployed approximation; returns the previous one."""
        previous = self.wrapped.pwl
        self.wrapped = MultiRangePWL(
            pwl=pwl, scaling=self.scaling, frac_bits=self.wrapped.frac_bits
        )
        return previous

    def forward(self, x: Tensor) -> Tensor:
        wrapped = self.wrapped
        if is_tracing() or (is_grad_enabled() and x.requires_grad):
            return x.apply_elementwise_fused(
                wrapped.lookup_with_slope, name="pwl_wide[%s]" % self.name
            )
        return Tensor(wrapped.lookup(x.data))


class PWLLayerNorm(Module):
    """LayerNorm whose inverse standard deviation uses a pwl RSQRT."""

    def __init__(self, num_features: int, rsqrt_module: Module, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.rsqrt = rsqrt_module

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = self.rsqrt(var + self.eps)
        return (x - mean) * inv_std * self.weight + self.bias


# -- Operator suites -----------------------------------------------------------------


class OperatorSuite:
    """Factory for the operator flavours a model should be built with."""

    name = "base"

    def activation(self, kind: str) -> Module:  # pragma: no cover - interface
        raise NotImplementedError

    def exp_fn(self) -> Callable[[Tensor], Tensor]:  # pragma: no cover - interface
        raise NotImplementedError

    def reciprocal_fn(self) -> Callable[[Tensor], Tensor]:  # pragma: no cover - interface
        raise NotImplementedError

    def layer_norm(self, num_features: int) -> Module:  # pragma: no cover - interface
        raise NotImplementedError


class FloatSuite(OperatorSuite):
    """Exact floating-point operators (used for pre-training)."""

    name = "float"

    def activation(self, kind: str) -> Module:
        return {"gelu": GELU, "hswish": HSwish}[kind]()

    def exp_fn(self) -> Callable[[Tensor], Tensor]:
        return lambda t: t.exp()

    def reciprocal_fn(self) -> Callable[[Tensor], Tensor]:
        return lambda t: 1.0 / t

    def layer_norm(self, num_features: int) -> Module:
        return LayerNorm(num_features)


class QuantizedBaselineSuite(OperatorSuite):
    """INT8 baseline: exact operators behind power-of-two input quantizers.

    Matches the "None" replacement row of Tables 4 and 5: the network is
    quantized (weights/activations via LSQ elsewhere), the non-linear
    operator inputs are quantized with power-of-two scales, but the
    operators themselves are still exact.
    """

    name = "quant-baseline"

    def __init__(self, bits: int = 8) -> None:
        self.bits = bits

    def activation(self, kind: str) -> Module:
        return QuantizedActivation(kind, bits=self.bits)

    def exp_fn(self) -> Callable[[Tensor], Tensor]:
        op = QuantizedActivation("exp", bits=self.bits)
        return op

    def reciprocal_fn(self) -> Callable[[Tensor], Tensor]:
        return lambda t: 1.0 / t

    def layer_norm(self, num_features: int) -> Module:
        return LayerNorm(num_features)


@dataclasses.dataclass
class PWLSuite(OperatorSuite):
    """Operators replaced by searched pwl approximations.

    Parameters
    ----------
    approximations:
        Mapping from operator name ("gelu", "hswish", "exp", "div",
        "rsqrt") to the searched FXP :class:`PiecewiseLinear`.
    replace:
        Which operators to actually replace; the rest fall back to the
        quantized-baseline behaviour.  This directly encodes the rows of
        Tables 4 and 5 ("EXP only", "GELU only", ..., "Altogether").
    bits, frac_bits:
        Deployment precision of the pwl units.
    engine:
        Accepted so callers that still name the engine keep working (the
        repository benchmark passes ``engine="dense"``); ``"dense"`` is the
        only engine, and ``None`` means the same.
    """

    approximations: Dict[str, PiecewiseLinear]
    replace: Set[str] = dataclasses.field(default_factory=set)
    bits: int = 8
    frac_bits: int = 5
    name: str = "pwl"
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in (None, "dense"):
            raise ValueError("unknown pwl engine %r; expected 'dense'" % (self.engine,))

    def _should_replace(self, op: str) -> bool:
        return op in self.replace and op in self.approximations

    def activation(self, kind: str) -> Module:
        if self._should_replace(kind):
            return PWLActivation(kind, self.approximations[kind], bits=self.bits,
                                 frac_bits=self.frac_bits)
        return QuantizedActivation(kind, bits=self.bits)

    def exp_fn(self) -> Callable[[Tensor], Tensor]:
        if self._should_replace("exp"):
            return PWLActivation("exp", self.approximations["exp"], bits=self.bits,
                                 frac_bits=self.frac_bits)
        return QuantizedActivation("exp", bits=self.bits)

    def reciprocal_fn(self) -> Callable[[Tensor], Tensor]:
        if self._should_replace("div"):
            return PWLWideRange("div", self.approximations["div"],
                                frac_bits=self.frac_bits)
        return lambda t: 1.0 / t

    def layer_norm(self, num_features: int) -> Module:
        if self._should_replace("rsqrt"):
            rsqrt = PWLWideRange("rsqrt", self.approximations["rsqrt"],
                                 frac_bits=self.frac_bits)
            return PWLLayerNorm(num_features, rsqrt)
        return LayerNorm(num_features)


def swap_lut_tables(
    model: Module, tables: Dict[str, PiecewiseLinear]
) -> Dict[str, PiecewiseLinear]:
    """Hot-swap deployed pwl approximations by operator name across ``model``.

    Every :class:`PWLActivation` / :class:`PWLWideRange` whose ``name`` is
    a key of ``tables`` gets the new approximation (cached dense tables are
    dropped so the next forward rebuilds from the new pwl).  Returns the
    previous table per name, so a failed rolling swap can restore them
    bit-exactly.  A name matching no module raises ``KeyError`` — a swap
    aimed at an operator the model does not deploy must fail loudly, not
    silently serve the old table.  The check runs *before* any module is
    touched, so a rejected swap is atomic: either every named table is
    live afterwards or none is.
    """
    matched: List = []
    for module in model.modules():
        if isinstance(module, (PWLActivation, PWLWideRange)) and module.name in tables:
            matched.append(module)
    deployed = {module.name for module in matched}
    unknown = sorted(set(tables) - deployed)
    if unknown:
        raise KeyError(
            "no deployed pwl module named %s in the model "
            "(deployed: %s)" % (unknown, sorted(deployed))
        )
    previous: Dict[str, PiecewiseLinear] = {}
    for module in matched:
        old = module.swap_pwl(tables[module.name])
        previous.setdefault(module.name, old)
    return previous
