"""LUT storage structures mirroring Figure 1 of the paper.

The conventional FP/INT32 pattern (Fig. 1a) is just a float
:class:`~repro.core.pwl.PiecewiseLinear` evaluated on the high-precision
input; this module models the deployed forms:

* :class:`QuantizedLUT` — the quantization-aware pattern (Fig. 1b): the LUT
  stores FXP slopes/intercepts plus breakpoints pre-quantized by the runtime
  power-of-two scaling factor ``S``; the comparer operates on the INT8/16
  code ``q`` and the intercepts are rescaled by a shifter at run time.
* :class:`DenseLUT` — the deployed inference engine: for a ``bits``-bit
  input there are only ``2^bits`` possible codes, so the whole Fig. 1b
  pipeline (comparer + multiplier + shifter) collapses into one precomputed
  output table and one slope table, and a lookup is a single gather.  Entry
  ``q`` is bit-identical to the :class:`QuantizedLUT` pipeline evaluated at
  code ``q``, so the two storage patterns are interchangeable at run time.

:func:`dense_lut_for` maintains a bounded process-wide cache of dense
tables keyed by ``(pwl identity, scale, spec, frac_bits)`` so that modules
re-evaluating the same frozen pwl every training step (the fine-tuning hot
path) build each table exactly once per deployed scale.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
from typing import Tuple

import numpy as np

from repro.core.pwl import PiecewiseLinear, PiecewiseLinearBatch
from repro.quant.fxp import shift_codes, to_fixed_point
from repro.quant.power_of_two import is_power_of_two
from repro.quant.quantizer import QuantSpec, clip_ufunc, quantize


@dataclasses.dataclass(frozen=True)
class _Fig1bCoefficients:
    """The Fig. 1b datapath of a pwl at one power-of-two scale ``S = 2^e``.

    The stored state is integer, as in the hardware: int64 codes of the
    quantized breakpoints, of the FXP slopes and intercepts (``lambda =
    frac_bits`` fractional bits), and of the run-time intercepts the shifter
    makes from them, plus the declared port widths.  The float arrays the
    lookups run on (:attr:`quantized_breakpoints`, :attr:`stored_slopes`,
    :attr:`stored_intercepts`, :attr:`shifted_intercepts`) are exact
    ``code * 2^-lambda`` views of those codes, so the float kernels and the
    emitted RTL compute the same numbers.

    Shared by :class:`QuantizedLUT` (one pwl) and :class:`QuantizedLUTBatch`
    (a pwl population): every derivation is element-wise, so the same code
    serves ``(N,)`` and ``(P, N)`` coefficient arrays.  The derived arrays
    are cached properties — the dataclass is frozen, so they can never go
    stale — and repeated access during a lookup does not re-run the
    clip/round/FXP pipeline (``functools.cached_property`` writes to the
    instance ``__dict__`` directly, bypassing the frozen ``__setattr__``).
    """

    pwl: PiecewiseLinear
    scale: float
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5

    def __post_init__(self) -> None:
        if not is_power_of_two(self.scale):
            raise ValueError(
                "%s requires an exact power-of-two scale 2.0 ** e (got %r); "
                "snap it with nearest_power_of_two()"
                % (type(self).__name__, self.scale)
            )

    @property
    def num_entries(self) -> int:
        return self.pwl.num_entries

    @property
    def shift(self) -> int:
        """Shift amount ``e = log2(S)``: the shifter divides by ``2^e``."""
        return math.frexp(self.scale)[1] - 1

    @property
    def coefficient_bits(self) -> int:
        """Declared width of a stored slope or intercept word."""
        return self.spec.bits + self.frac_bits

    @property
    def output_bits(self) -> int:
        """Declared width of the shifted intercept, product and output."""
        return 2 * self.spec.bits + self.frac_bits

    @functools.cached_property
    def breakpoint_codes(self) -> np.ndarray:
        """Breakpoints quantized to the input integer grid (Eq. 3)."""
        return quantize(
            self.pwl.breakpoints, self.scale, self.spec.bits, self.spec.signed
        ).astype(np.int64)

    @functools.cached_property
    def slope_codes(self) -> np.ndarray:
        """FXP slope codes ``round(k_i 2^lambda)`` as stored in the LUT."""
        return to_fixed_point(self.pwl.slopes, self.frac_bits)

    @functools.cached_property
    def intercept_codes(self) -> np.ndarray:
        """FXP intercept codes as stored in the LUT (pre-shift)."""
        return to_fixed_point(self.pwl.intercepts, self.frac_bits)

    @functools.cached_property
    def shifted_intercept_codes(self) -> np.ndarray:
        """Run-time intercept codes ``b_i >> e`` produced by the shifter."""
        return shift_codes(self.intercept_codes, self.shift)

    @functools.cached_property
    def quantized_breakpoints(self) -> np.ndarray:
        """Float view of :attr:`breakpoint_codes` (the comparer operands)."""
        return self.breakpoint_codes.astype(np.float64)

    @functools.cached_property
    def stored_slopes(self) -> np.ndarray:
        """FXP slopes as real values."""
        return self._fxp_view(self.slope_codes)

    @functools.cached_property
    def stored_intercepts(self) -> np.ndarray:
        """FXP intercepts as real values (pre-shift)."""
        return self._fxp_view(self.intercept_codes)

    @functools.cached_property
    def shifted_intercepts(self) -> np.ndarray:
        """Run-time intercepts ``b_i >> e`` as real values."""
        return self._fxp_view(self.shifted_intercept_codes)

    def _fxp_view(self, codes: np.ndarray) -> np.ndarray:
        """``codes * 2^-lambda``: exact, and never a signed zero."""
        return codes * (1.0 / (1 << self.frac_bits))

    def lookup_integer(self, q) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def lookup_dequantized(self, q) -> np.ndarray:
        """Real-domain approximation ``S * (k_i q + b_i / S) ~= k_i x + b_i``."""
        return self.scale * self.lookup_integer(q)


@dataclasses.dataclass(frozen=True)
class QuantizedLUT(_Fig1bCoefficients):
    """Quantization-aware LUT (Fig. 1b).

    Parameters
    ----------
    pwl:
        The searched pwl (FP breakpoints, FXP-rounded slopes/intercepts).
    scale:
        Power-of-two input scaling factor ``S``.
    spec:
        Integer format of the input codes (INT8 by default).
    frac_bits:
        Decimal bit-width ``lambda`` used for the stored slopes/intercepts
        and for the shifter output.

    The integer codes and their float views are cached properties of the
    frozen dataclass.
    """

    def segment_index(self, q) -> np.ndarray:
        """Comparer on integer codes against the quantized breakpoints."""
        codes = np.asarray(q, dtype=np.float64)
        return np.searchsorted(self.quantized_breakpoints, codes, side="right")

    def lookup_integer(self, q) -> np.ndarray:
        """Integer-domain pwl output ``k_i * q + (b_i >> shift)``.

        Runs on the float views; every term is exact, and a zero
        intercept is ``+0.0``, so a ``-0.0`` code gives the same bits as
        code 0.
        """
        codes = np.asarray(q, dtype=np.float64)
        idx = self.segment_index(codes)
        return self.stored_slopes[idx] * codes + self.shifted_intercepts[idx]

    def lookup_fixed_point(self, q) -> np.ndarray:
        """The unit's int64 output codes ``(k_i q + (b_i >> e)) 2^lambda``.

        The same datapath on the integer codes: what the emitted RTL's
        ``y_out`` holds for input code ``q`` (before wrapping to its
        declared width), and ``lookup_integer(q) * 2^lambda`` exactly.
        """
        codes = np.asarray(q, dtype=np.int64)
        idx = np.searchsorted(self.breakpoint_codes, codes, side="right")
        return self.slope_codes[idx] * codes + self.shifted_intercept_codes[idx]

    def __call__(self, x) -> np.ndarray:
        """Quantize ``x``, run the integer pipeline, and dequantize.

        This is the end-to-end behaviour of the Fig. 1b unit when fed a real
        value: the surrounding layer would normally supply ``q`` directly.
        """
        q = quantize(x, self.scale, self.spec.bits, self.spec.signed)
        return self.lookup_dequantized(q)


@dataclasses.dataclass(frozen=True)
class DenseLUT:
    """All-codes materialisation of the Fig. 1b pipeline (the deployed LUT).

    A ``bits``-bit input only takes ``2^bits`` values, so the comparer +
    multiplier + shifter pipeline of :class:`QuantizedLUT` can be evaluated
    once per code at build time and stored densely:

    * :attr:`outputs` — ``outputs[q - qmin]`` is the *dequantized* pipeline
      output for code ``q``: the unit's integer output code
      (``QuantizedLUT.lookup_fixed_point``) times ``S 2^-lambda``, which is
      bit-identical to ``QuantizedLUT.lookup_dequantized(q)``.
    * :attr:`segment_slopes` — the FXP slope of the segment the comparer
      selects for code ``q``; this is the exact derivative of the deployed
      approximation, used by the fine-tuning backward pass.

    A real-valued lookup is then quantize-once + gather, replacing the
    per-call ``searchsorted`` + fancy indexing + rescaling of the pipeline
    form.  This is exactly the table a hardware deployment (and the NN-LUT
    baseline) burns into SRAM.
    """

    pwl: PiecewiseLinear
    scale: float
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5
    outputs: np.ndarray = dataclasses.field(init=False)
    segment_slopes: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.scale):
            raise ValueError(
                "DenseLUT requires an exact power-of-two scale 2.0 ** e (got %r)"
                % (self.scale,)
            )
        reference = QuantizedLUT(
            pwl=self.pwl, scale=self.scale, spec=self.spec, frac_bits=self.frac_bits
        )
        codes = np.arange(self.spec.qmin, self.spec.qmax + 1, dtype=np.int64)
        outputs = np.ldexp(
            reference.lookup_fixed_point(codes).astype(np.float64),
            reference.shift - self.frac_bits,
        )
        slopes = reference.stored_slopes[reference.segment_index(codes)]
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "segment_slopes", slopes)
        # The kernel's scalars as 0-d float64 arrays: numpy broadcasts a 0-d
        # operand several times faster than it converts a Python scalar, and
        # against the float64 input both give the same bits.
        object.__setattr__(self, "_scale", np.asarray(self.scale, dtype=np.float64))
        object.__setattr__(self, "_qmin", np.asarray(self.spec.qmin, dtype=np.float64))
        object.__setattr__(self, "_qmax", np.asarray(self.spec.qmax, dtype=np.float64))
        # Extended gather tables with one sentinel row for NaN inputs, which
        # survive the clip and would otherwise index garbage.  The sentinel
        # replicates the QuantizedLUT pipeline bitwise: its comparer sends
        # NaN to the last segment, so the output is NaN (slope * NaN + b)
        # while the selected slope is the top segment's finite value.
        object.__setattr__(
            self, "_outputs_ext", np.concatenate([outputs, [np.nan]])
        )
        object.__setattr__(
            self, "_slopes_ext", np.concatenate([slopes, [slopes[-1]]])
        )

    @classmethod
    def from_quantized(cls, lut: QuantizedLUT) -> "DenseLUT":
        """Build the dense form of an existing :class:`QuantizedLUT`."""
        return cls(pwl=lut.pwl, scale=lut.scale, spec=lut.spec, frac_bits=lut.frac_bits)

    @property
    def num_codes(self) -> int:
        """Table length ``2^bits``."""
        return int(self.outputs.size)

    def _offsets(self, q: np.ndarray) -> np.ndarray:
        """Map clipped codes to extended-table offsets (NaN → sentinel row).

        ``q`` is already clipped to ``[qmin, qmax]``, so its sum is finite
        unless NaN lanes survived the clip — one allocation-free reduction
        guards the common all-finite path.  NaN lanes are redirected to the
        sentinel offset *before* the integer cast, so no invalid-cast
        warning is emitted.
        """
        offsets = q - self._qmin
        if not np.isfinite(q.sum()):
            offsets = np.where(np.isnan(q), float(self.num_codes), offsets)
        return offsets.astype(np.intp)

    def table_indices(self, x) -> np.ndarray:
        """Quantize real inputs to extended-table offsets (one pass)."""
        arr = np.asarray(x, dtype=np.float64)
        # ``S`` is exactly 2^e, so ``x / S`` is exact up to the final
        # rounding (the same bits as ``x * (1 / S)``) and equals the code
        # ``quantize`` gives QuantizedLUT.
        q = clip_ufunc(np.rint(arr / self._scale), self._qmin, self._qmax)
        return self._offsets(q)

    def code_indices(self, q) -> np.ndarray:
        """Table offsets for integer codes, saturated to the spec's range.

        Codes outside ``[qmin, qmax]`` clamp to the boundary entries (the
        quantizer in front of a deployed LUT clips before lookup, so such
        codes cannot occur in-pipeline).
        """
        codes = np.clip(np.asarray(q, dtype=np.float64), self._qmin, self._qmax)
        return self._offsets(codes)

    def lookup_codes(self, q) -> np.ndarray:
        """Dequantized outputs for integer codes ``q`` (single gather)."""
        return self._outputs_ext[self.code_indices(q)]

    def slope_codes(self, q) -> np.ndarray:
        """Selected-segment slopes for integer codes ``q``."""
        return self._slopes_ext[self.code_indices(q)]

    def __call__(self, x) -> np.ndarray:
        """Real-domain lookup: quantize once, gather the output table."""
        return self._outputs_ext[self.table_indices(x)]

    def lookup_with_slope(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Fused lookup: one quantize pass, output *and* slope gathers.

        This is the fine-tuning fast path: the forward value and the exact
        backward slope come from the same table offsets, so the training
        step quantizes each activation once instead of three times.
        """
        idx = self.table_indices(x)
        return self._outputs_ext[idx], self._slopes_ext[idx]


# -- Dense-table cache ----------------------------------------------------------------
#
# The fine-tuning modules evaluate the same frozen pwl under a scale that
# changes only when the LSQ power-of-two quantizer steps to a new exponent.
# Tables are therefore cached process-wide, keyed by pwl identity + scale +
# format.  Entries hold strong references to their pwl, which keeps ``id``
# stable for the lifetime of the entry; the LRU bound keeps the cache from
# growing without limit.

_DENSE_LUT_CACHE: "collections.OrderedDict[Tuple[int, float, int, bool, int], DenseLUT]" = (
    collections.OrderedDict()
)
_DENSE_LUT_CACHE_SIZE = 256


def dense_lut_for(
    pwl: PiecewiseLinear,
    scale: float,
    spec: QuantSpec = QuantSpec(bits=8, signed=True),
    frac_bits: int = 5,
) -> DenseLUT:
    """Return the (cached) :class:`DenseLUT` for ``pwl`` at ``scale``.

    Repeated calls with the same arguments return the same table object;
    a new scale (or pwl / format) builds and caches a new table.
    """
    key = (id(pwl), float(scale), spec.bits, spec.signed, frac_bits)
    hit = _DENSE_LUT_CACHE.get(key)
    if hit is not None and hit.pwl is pwl:
        _DENSE_LUT_CACHE.move_to_end(key)
        return hit
    table = DenseLUT(pwl=pwl, scale=float(scale), spec=spec, frac_bits=frac_bits)
    _DENSE_LUT_CACHE[key] = table
    while len(_DENSE_LUT_CACHE) > _DENSE_LUT_CACHE_SIZE:
        _DENSE_LUT_CACHE.popitem(last=False)
    return table


def dense_lut_cache_clear() -> None:
    """Drop every cached dense table (tests and memory-pressure hooks)."""
    _DENSE_LUT_CACHE.clear()


@dataclasses.dataclass(frozen=True)
class QuantizedLUTBatch(_Fig1bCoefficients):
    """The Fig. 1b pipeline at one scale, broadcast over a pwl population.

    ``pwl`` is a :class:`PiecewiseLinearBatch` of ``P`` individuals; the
    coefficient arrays are ``(P, N)`` (breakpoints ``(P, N - 1)``) and a
    lookup of ``C`` codes returns a ``(P, C)`` array.  Row ``p`` is
    bit-identical to the scalar :class:`QuantizedLUT` returned by
    ``at(p)`` — this is what lets
    :class:`repro.core.evaluation.QuantizedPWLEvaluator` score a whole GA
    population in one array op per scale.
    """

    pwl: PiecewiseLinearBatch

    @property
    def population_size(self) -> int:
        return self.pwl.population_size

    def lookup_integer(self, q) -> np.ndarray:
        """Integer-domain outputs ``k_i q + (b_i >> shift)``: ``(P, C)``.

        The quantized breakpoints, stored slopes and shifted intercepts form
        an integer-domain pwl batch, so the comparer and the coefficient
        selection are :meth:`PiecewiseLinearBatch.__call__` (its ascending
        grid fast path covers the evaluation protocol's codes).
        """
        codes = np.asarray(q, dtype=np.float64).ravel()
        integer_pwl = PiecewiseLinearBatch._trusted(
            self.quantized_breakpoints, self.stored_slopes, self.shifted_intercepts
        )
        return integer_pwl(codes)

    def at(self, row: int) -> QuantizedLUT:
        """The scalar :class:`QuantizedLUT` for one individual."""
        return QuantizedLUT(
            pwl=self.pwl.row(row), scale=self.scale, spec=self.spec, frac_bits=self.frac_bits
        )
