"""Quantization-aware training layers (LSQ + power-of-two scales).

The paper's fine-tuning baselines apply INT8 integer-only quantization to
weights and activations with LSQ [19], following the dyadic pipeline [15],
and restrict the scaling factor at the *input of each non-linear function*
to a power of two (Section 3.1).  These modules implement that scheme on the
numpy autograd substrate:

* :class:`LSQQuantizer` — a learnable-scale fake quantizer.
* :class:`PowerOfTwoQuantizer` — LSQ with the scale snapped to ``2^round(log2 alpha)``
  (used in front of every pwl-approximated operator).
* :class:`QuantLinear` — a Linear layer with weight + activation quantizers.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.quant.power_of_two import nearest_power_of_two
from repro.quant.quantizer import quant_bounds


class LSQQuantizer(Module):
    """Learned Step-size Quantization (fake-quant, straight-through).

    The scale is stored as a positive parameter initialised from the first
    batch it observes (``2 * mean(|x|) / sqrt(qmax)``, the LSQ heuristic).
    """

    def __init__(self, bits: int = 8, signed: bool = True, per_channel: bool = False) -> None:
        super().__init__()
        self.bits = bits
        self.signed = signed
        self.per_channel = per_channel
        self.qmin, self.qmax = quant_bounds(bits, signed)
        self.scale = Parameter(np.asarray([1.0]))
        self._initialised = False
        self._version = 0
        self._version_scale: Optional[float] = None

    @property
    def initialised(self) -> bool:
        """Whether the scale has been initialised from observed data."""
        return self._initialised

    def initialise_from(self, x: np.ndarray) -> None:
        """Set the initial scale from a data sample (LSQ init heuristic)."""
        magnitude = float(np.mean(np.abs(x))) if x.size else 1.0
        init = max(2.0 * magnitude / math.sqrt(self.qmax), 1e-6)
        self.scale.data = np.asarray([init])
        self._initialised = True

    def scale_version(self) -> int:
        """Monotone counter identifying the current deployed scale.

        The scale parameter is mutated externally (optimiser steps,
        re-initialisation), so the version is maintained by observation:
        each call compares the deployed scale against the last observed
        value and bumps the counter when it changed.  Consumers caching
        per-scale artefacts — the dense-LUT engine — compare versions
        instead of tracking the float themselves.  For a
        :class:`PowerOfTwoQuantizer` the deployed scale is the snapped
        ``2^e``, so the version only moves when the exponent actually steps.
        """
        current = self.current_scale()
        if current != self._version_scale:
            self._version_scale = current
            self._version += 1
        return self._version

    def effective_scale(self) -> Tensor:
        """The (positive) scale actually used for quantization."""
        return self.scale.abs() + 1e-9

    def forward(self, x: Tensor) -> Tensor:
        if not self._initialised:
            self.initialise_from(x.data)
        grad_scale = 1.0 / math.sqrt(max(x.size * self.qmax, 1))
        return F.lsq_quantize(x, self.effective_scale(), self.qmin, self.qmax, grad_scale)

    def current_scale(self) -> float:
        """Float value of the deployed scale."""
        return float(self.effective_scale().data[0])


class PowerOfTwoQuantizer(LSQQuantizer):
    """LSQ quantizer whose scale is constrained to a power of two.

    This is the quantizer placed at the input of every non-linear operator
    (Section 3.1): the learnable ``alpha`` is rounded in the log domain with
    a straight-through gradient, so the deployed scale is always ``2^e`` and
    the pwl intercept rescaling reduces to a shift.
    """

    def effective_scale(self) -> Tensor:
        return F.power_of_two_scale(self.scale.abs() + 1e-9)

    def initialise_from(self, x: np.ndarray) -> None:
        super().initialise_from(x)
        # Snap the stored alpha to the nearest power of two so training
        # starts exactly on the constraint surface.
        self.scale.data = np.asarray([nearest_power_of_two(float(self.scale.data[0]))])
        self._initialised = True


class QuantLinear(Module):
    """Linear layer with LSQ weight and activation fake-quantization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        bits: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.inner = Linear(in_features, out_features, bias=bias, rng=rng)
        self.weight_quant = LSQQuantizer(bits=bits, signed=True)
        self.act_quant = LSQQuantizer(bits=bits, signed=True)

    @property
    def weight(self) -> Parameter:
        return self.inner.weight

    @property
    def bias(self) -> Optional[Parameter]:
        return self.inner.bias

    def forward(self, x: Tensor) -> Tensor:
        x_q = self.act_quant(x)
        w_q = self.weight_quant(self.inner.weight)
        out = x_q @ w_q
        if self.inner.bias is not None:
            out = out + self.inner.bias
        return out

    @classmethod
    def from_float(cls, linear: Linear, bits: int = 8) -> "QuantLinear":
        """Wrap an existing float Linear layer, sharing its parameters."""
        quant = cls(linear.in_features, linear.out_features, bias=linear.bias is not None, bits=bits)
        quant.inner.weight.data = linear.weight.data.copy()
        if linear.bias is not None and quant.inner.bias is not None:
            quant.inner.bias.data = linear.bias.data.copy()
        return quant


def quantize_linears_in_place(module: Module, bits: int = 8) -> int:
    """Replace every float :class:`Linear` child with a :class:`QuantLinear`.

    Returns the number of layers replaced.  The traversal skips layers that
    are already quantized (and the ``inner`` Linear inside a QuantLinear).
    """
    replaced = 0
    for owner in module.modules():
        if isinstance(owner, QuantLinear):
            continue
        for name, child in list(owner._modules.items()):
            if isinstance(child, Linear) and not isinstance(owner, QuantLinear):
                owner.register_module(name, QuantLinear.from_float(child, bits=bits))
                replaced += 1
    return replaced
