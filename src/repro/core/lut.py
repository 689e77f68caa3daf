"""LUT storage structures mirroring Figure 1 of the paper.

Two storage patterns are modelled:

* :class:`LUT` — the conventional FP/INT32 pattern (Fig. 1a): slopes,
  intercepts and breakpoints are stored at full precision and the comparer
  operates on the high-precision input directly.
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
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pwl import PiecewiseLinear, PiecewiseLinearBatch, segment_counts
from repro.quant.fxp import fxp_round
from repro.quant.power_of_two import is_power_of_two, power_of_two_exponent
from repro.quant.quantizer import QuantSpec, quant_bounds


@dataclasses.dataclass(frozen=True)
class LUTEntry:
    """One row of the LUT: a slope/intercept pair."""

    slope: float
    intercept: float

    def evaluate(self, x) -> np.ndarray:
        """Evaluate this entry's line at ``x``."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


@dataclasses.dataclass(frozen=True)
class LUT:
    """High-precision LUT storage (Fig. 1a).

    Wraps a :class:`PiecewiseLinear` and exposes the row/comparer view a
    hardware designer would use.
    """

    pwl: PiecewiseLinear

    @property
    def num_entries(self) -> int:
        return self.pwl.num_entries

    @property
    def entries(self) -> List[LUTEntry]:
        return [
            LUTEntry(float(k), float(b))
            for k, b in zip(self.pwl.slopes, self.pwl.intercepts)
        ]

    @property
    def breakpoints(self) -> np.ndarray:
        return self.pwl.breakpoints

    def lookup(self, x) -> np.ndarray:
        """Comparer + selected-entry evaluation on high-precision input."""
        return self.pwl(x)

    def storage_bits(self, value_bits: int = 32) -> int:
        """Total parameter storage in bits.

        ``N`` slopes + ``N`` intercepts + ``N - 1`` breakpoints, each stored
        in ``value_bits`` bits.
        """
        n = self.num_entries
        return (3 * n - 1) * value_bits


@dataclasses.dataclass(frozen=True)
class QuantizedLUT:
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

    The derived arrays (:attr:`quantized_breakpoints`, :attr:`stored_slopes`,
    :attr:`stored_intercepts`, :attr:`shifted_intercepts`) are cached
    properties — the dataclass is frozen, so they can never go stale — and
    repeated access during a lookup does not re-run the clip/round/FXP
    pipeline (``functools.cached_property`` writes to the instance
    ``__dict__`` directly, bypassing the frozen ``__setattr__``).
    """

    pwl: PiecewiseLinear
    scale: float
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive, got %r" % (self.scale,))
        if not is_power_of_two(self.scale):
            raise ValueError(
                "QuantizedLUT requires a power-of-two scale (got %r); "
                "round it with round_scale_to_power_of_two()" % (self.scale,)
            )

    @property
    def num_entries(self) -> int:
        return self.pwl.num_entries

    @property
    def shift(self) -> int:
        """Right-shift amount implementing the division by ``S``."""
        return power_of_two_exponent(self.scale)

    @functools.cached_property
    def quantized_breakpoints(self) -> np.ndarray:
        """Breakpoints quantized to the input integer grid (Eq. 3)."""
        qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
        return np.clip(np.round(self.pwl.breakpoints / self.scale), qn, qp)

    @functools.cached_property
    def stored_slopes(self) -> np.ndarray:
        """FXP slopes as stored in the LUT."""
        return fxp_round(self.pwl.slopes, self.frac_bits)

    @functools.cached_property
    def stored_intercepts(self) -> np.ndarray:
        """FXP intercepts as stored in the LUT (pre-shift values)."""
        return fxp_round(self.pwl.intercepts, self.frac_bits)

    @functools.cached_property
    def shifted_intercepts(self) -> np.ndarray:
        """Run-time intercepts ``b_i >> log2(S)`` produced by the shifter."""
        return fxp_round(self.stored_intercepts / self.scale, self.frac_bits)

    def segment_index(self, q) -> np.ndarray:
        """Comparer on integer codes against the quantized breakpoints."""
        codes = np.asarray(q, dtype=np.float64)
        return np.searchsorted(self.quantized_breakpoints, codes, side="right")

    def lookup_integer(self, q) -> np.ndarray:
        """Integer-domain pwl output ``k_i * q + (b_i >> shift)``."""
        # ``+ 0.0`` maps a rounded ``-0.0`` onto code 0: integer codes have
        # no signed zero, and the dense table is built from code ``+0.0``.
        codes = np.asarray(q, dtype=np.float64) + 0.0
        idx = self.segment_index(codes)
        return self.stored_slopes[idx] * codes + self.shifted_intercepts[idx]

    def lookup_dequantized(self, q) -> np.ndarray:
        """Real-domain approximation ``S * (k_i q + b_i / S) ~= k_i x + b_i``."""
        return self.scale * self.lookup_integer(q)

    def __call__(self, x) -> np.ndarray:
        """Quantize ``x``, run the integer pipeline, and dequantize.

        This is the end-to-end behaviour of the Fig. 1b unit when fed a real
        value: the surrounding layer would normally supply ``q`` directly.
        """
        qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
        q = np.clip(np.round(np.asarray(x, dtype=np.float64) / self.scale), qn, qp)
        return self.lookup_dequantized(q)

    def storage_bits(self) -> int:
        """Parameter storage in bits for the Fig. 1b pattern.

        Slopes and intercepts are stored in ``frac_bits``-fraction FXP words
        of the input width; breakpoints are stored as input-width integers.
        """
        n = self.num_entries
        word = self.spec.bits
        return (3 * n - 1) * word

    def with_scale(self, scale: float) -> "QuantizedLUT":
        """Re-target the same searched parameters to a new scaling factor."""
        return QuantizedLUT(pwl=self.pwl, scale=scale, spec=self.spec, frac_bits=self.frac_bits)

    def to_dense(self) -> "DenseLUT":
        """Materialise this unit as a :class:`DenseLUT` gather table."""
        return DenseLUT.from_quantized(self)


@dataclasses.dataclass(frozen=True)
class DenseLUT:
    """All-codes materialisation of the Fig. 1b pipeline (the deployed LUT).

    A ``bits``-bit input only takes ``2^bits`` values, so the comparer +
    multiplier + shifter pipeline of :class:`QuantizedLUT` can be evaluated
    once per code at build time and stored densely:

    * :attr:`outputs` — ``outputs[q - qmin]`` is the *dequantized* pipeline
      output for code ``q``, bit-identical to
      ``QuantizedLUT.lookup_dequantized(q)``.
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
    outputs: Optional[np.ndarray] = None
    segment_slopes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.outputs is None) != (self.segment_slopes is None):
            raise ValueError(
                "outputs and segment_slopes must be supplied together "
                "(or both omitted to derive them from the pwl)"
            )
        if self.outputs is None:
            reference = QuantizedLUT(
                pwl=self.pwl, scale=self.scale, spec=self.spec, frac_bits=self.frac_bits
            )
            codes = np.arange(self.spec.qmin, self.spec.qmax + 1, dtype=np.float64)
            idx = reference.segment_index(codes)
            object.__setattr__(self, "outputs", reference.lookup_dequantized(codes))
            object.__setattr__(self, "segment_slopes", reference.stored_slopes[idx])
        outputs = np.asarray(self.outputs, dtype=np.float64)
        slopes = np.asarray(self.segment_slopes, dtype=np.float64)
        if outputs.shape != (self.spec.num_levels,) or slopes.shape != outputs.shape:
            raise ValueError(
                "dense tables must hold one entry per code (%d), got %r / %r"
                % (self.spec.num_levels, outputs.shape, slopes.shape)
            )
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "segment_slopes", slopes)
        # Division by the power-of-two scale is an exact exponent shift, so
        # quantizing with a multiply is bit-identical and faster.
        object.__setattr__(self, "_inv_scale", 1.0 / self.scale)
        object.__setattr__(self, "_qmin", float(self.spec.qmin))
        object.__setattr__(self, "_qmax", float(self.spec.qmax))
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
        q = np.clip(np.round(arr * self._inv_scale), self._qmin, self._qmax)
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

    def storage_bits(self) -> int:
        """Dense storage: one output word plus one slope word per code."""
        return 2 * self.num_codes * self.spec.bits


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
class QuantizedLUTBatch:
    """The Fig. 1b pipeline broadcast over a pwl population and a scale sweep.

    Wraps a :class:`PiecewiseLinearBatch` of ``P`` individuals and ``S``
    power-of-two scaling factors; lookups return ``(S, P, C)`` arrays where
    ``C`` is the number of input codes.  Entry ``[s, p]`` is bit-identical to
    the scalar :class:`QuantizedLUT` built from row ``p`` at scale ``s`` —
    this is what lets :class:`repro.core.fitness.QuantizedMSEFitness` score a
    whole GA population across its scale sweep in a handful of array ops.
    """

    pwl: PiecewiseLinearBatch
    scales: np.ndarray
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5

    def __post_init__(self) -> None:
        scales = np.atleast_1d(np.asarray(self.scales, dtype=np.float64))
        if scales.ndim != 1 or scales.size == 0:
            raise ValueError("scales must be a non-empty 1-D sequence")
        for scale in scales:
            if scale <= 0 or not is_power_of_two(float(scale)):
                raise ValueError(
                    "QuantizedLUTBatch requires positive power-of-two scales (got %r)"
                    % (scale,)
                )
        object.__setattr__(self, "scales", scales)

    @property
    def num_scales(self) -> int:
        return int(self.scales.size)

    @property
    def population_size(self) -> int:
        return self.pwl.population_size

    @property
    def num_entries(self) -> int:
        return self.pwl.num_entries

    @property
    def quantized_breakpoints(self) -> np.ndarray:
        """Breakpoints quantized per scale (Eq. 3): ``(S, P, N - 1)``."""
        qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
        return np.clip(
            np.round(self.pwl.breakpoints[None, :, :] / self.scales[:, None, None]), qn, qp
        )

    @property
    def stored_slopes(self) -> np.ndarray:
        """FXP slopes as stored in the LUT: ``(P, N)`` (scale independent)."""
        return fxp_round(self.pwl.slopes, self.frac_bits)

    @property
    def stored_intercepts(self) -> np.ndarray:
        """FXP intercepts as stored in the LUT: ``(P, N)``."""
        return fxp_round(self.pwl.intercepts, self.frac_bits)

    @property
    def shifted_intercepts(self) -> np.ndarray:
        """Shifter outputs ``b_i >> log2(S)`` per scale: ``(S, P, N)``."""
        return fxp_round(
            self.stored_intercepts[None, :, :] / self.scales[:, None, None], self.frac_bits
        )

    def segment_index(self, q) -> np.ndarray:
        """Comparer on integer codes: ``(S, P, C)`` segment indices."""
        codes = np.asarray(q, dtype=np.float64).ravel()
        return (self.quantized_breakpoints[:, :, :, None] <= codes[None, None, None, :]).sum(
            axis=2
        )

    def lookup_integer(self, q) -> np.ndarray:
        """Integer-domain outputs ``k_i q + (b_i >> shift)``: ``(S, P, C)``.

        Ascending code vectors (the evaluation-protocol case) take a
        repeat-expansion fast path via :func:`segment_counts`; the selected
        coefficients per code are identical either way.
        """
        codes = np.asarray(q, dtype=np.float64).ravel()
        scale_count, pop, entries = (
            self.num_scales,
            self.population_size,
            self.num_entries,
        )
        if codes.size and entries > 1 and np.all(codes[1:] >= codes[:-1]):
            counts = segment_counts(
                self.quantized_breakpoints.reshape(scale_count * pop, entries - 1), codes
            )
            k_all = np.broadcast_to(
                self.stored_slopes[None, :, :], (scale_count, pop, entries)
            ).ravel()
            k = np.repeat(k_all, counts.ravel()).reshape(scale_count, pop, codes.size)
            b = np.repeat(self.shifted_intercepts.ravel(), counts.ravel()).reshape(
                scale_count, pop, codes.size
            )
            return k * codes[None, None, :] + b
        idx = self.segment_index(codes)
        rows = np.arange(pop)[None, :, None]
        sweep = np.arange(scale_count)[:, None, None]
        k = self.stored_slopes[rows, idx]
        b = self.shifted_intercepts[sweep, rows, idx]
        return k * codes[None, None, :] + b

    def lookup_dequantized(self, q) -> np.ndarray:
        """Real-domain approximations ``S * (k_i q + b_i / S)``: ``(S, P, C)``."""
        return self.scales[:, None, None] * self.lookup_integer(q)

    def at(self, scale_index: int, row: int) -> QuantizedLUT:
        """The scalar :class:`QuantizedLUT` for one (scale, individual) pair."""
        return QuantizedLUT(
            pwl=self.pwl.row(row),
            scale=float(self.scales[scale_index]),
            spec=self.spec,
            frac_bits=self.frac_bits,
        )
