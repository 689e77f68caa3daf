"""Operator-level accuracy evaluation (Section 4.1 protocol).

The paper evaluates LUT approximations "with quantization awareness": input
data is sampled from the *dequantized* range ``[Q_n S, Q_p S]`` with step
``S`` — i.e. exactly the values an INT8 activation can take — rather than
from an arbitrary floating-point interval.  The pwl is executed through the
quantization-aware pipeline of Fig. 1b (quantized breakpoints, FXP
slopes/intercepts, shifter-rescaled intercepts) and scored by MSE against
the exact function.

For the scale-dependent operators (GELU, HSWISH, EXP) the sweep covers
``S in {2^0, 2^-1, ..., 2^-6}`` as in Figs. 2(a) and 3.  The wide-range
operators (DIV, RSQRT) are evaluated with multi-range input scaling
(Table 2) via :mod:`repro.scaling`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.lut import QuantizedLUTBatch
from repro.core.pwl import PiecewiseLinear, PiecewiseLinearBatch
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.quantizer import QuantSpec, quant_bounds

# The scaling-factor sweep of Fig. 2(a) / Fig. 3: 2^0 down to 2^-6.
DEFAULT_SCALES: Tuple[float, ...] = tuple(2.0 ** (-e) for e in range(0, 7))


def _evaluation_domain(function: NonLinearFunction) -> Optional[Tuple[float, float]]:
    """Domain restriction applied to the dequantized grid.

    The dequantized grid ``[Q_n S, Q_p S]`` is intersected with the
    operator's approximation range ``[R_n, R_p]``.  Two reasons:

    * the operators only ever see that range in the network (EXP inputs are
      max-shifted to ``<= 0``, GELU/HSWISH inputs are clamped by the LSQ
      activation quantizer whose scale tracks the observed range), and
    * it keeps the metric focused on what the methods actually differ in —
      breakpoint placement and its quantization robustness — rather than on
      far-tail extrapolation behaviour outside the searched interval, which
      would swamp the MSE at the largest scaling factors.

    The resulting MSE magnitudes land in the same decade as the paper's
    Table 3, which is consistent with this interpretation of the protocol.
    """
    return function.search_range


@dataclasses.dataclass(frozen=True)
class QuantizedPWLEvaluator:
    """Scores pwls through the Fig. 1b integer pipeline for one operator.

    This is the one implementation of the paper's operator-level metric:
    the protocol helpers, :class:`repro.core.search.SearchOutcome` and the
    GA's :class:`repro.core.fitness.QuantizedMSEFitness` all score through
    it.  Each scale's ``(codes, x, reference)`` grid is built once per
    evaluator and cached read-only (the dataclass is frozen, so the cache
    cannot go stale); every score is an entry of :meth:`mse_matrix`.
    """

    function: NonLinearFunction
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5
    eval_domain: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.eval_domain is None:
            object.__setattr__(self, "eval_domain", _evaluation_domain(self.function))
        object.__setattr__(self, "_grids", {})

    def _grid(self, scale: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes q, dequantized x, exact f(x))`` for one scaling factor."""
        grid = self._grids.get(scale)
        if grid is None:
            qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
            codes = np.arange(qn, qp + 1, dtype=np.float64)
            x = codes * scale
            if self.eval_domain is not None:
                lo, hi = self.eval_domain
                mask = (x >= lo) & (x <= hi)
                codes, x = codes[mask], x[mask]
            if x.size == 0:
                raise ValueError("evaluation grid is empty for scale %r" % (scale,))
            reference = np.asarray(self.function(x), dtype=np.float64)
            for array in (codes, x, reference):
                array.flags.writeable = False
            grid = self._grids[scale] = (codes, x, reference)
        return grid

    def grid_for_scale(self, scale: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(codes q, dequantized x)`` for one scaling factor."""
        codes, x, _ = self._grid(float(scale))
        return codes, x

    def mse_matrix(
        self, pwls: PiecewiseLinearBatch, scales: Sequence[float] = DEFAULT_SCALES
    ) -> np.ndarray:
        """Quantized-pipeline MSE for a pwl population: an ``(S, P)`` matrix.

        Entry ``[s, p]`` is the MSE of ``pwls.row(p)`` at ``scales[s]``; the
        lookup for each scale runs as one ``(P, C)`` broadcast through
        :class:`QuantizedLUTBatch`, so comparing many candidate pwls (a GA
        population, or one operator across entry counts) costs a handful of
        array ops instead of ``S x P`` scalar sweeps.
        """
        scale_list = [float(s) for s in scales]
        out = np.empty((len(scale_list), pwls.population_size), dtype=np.float64)
        for s_idx, scale in enumerate(scale_list):
            codes, _, reference = self._grid(scale)
            lut = QuantizedLUTBatch(
                pwl=pwls, scale=scale, spec=self.spec, frac_bits=self.frac_bits
            )
            error = lut.lookup_dequantized(codes)
            error -= reference
            error *= error
            out[s_idx] = np.mean(error, axis=1)
        return out

    def average_mse_batch(
        self, pwls: PiecewiseLinearBatch, scales: Sequence[float] = DEFAULT_SCALES
    ) -> np.ndarray:
        """Per-individual average MSE over the scale sweep: a ``(P,)`` vector."""
        matrix = self.mse_matrix(pwls, scales)
        if not matrix.shape[0]:
            raise ValueError("the scale sweep is empty")
        return matrix.mean(axis=0)

    def mse_at_scale(self, pwl: PiecewiseLinear, scale: float) -> float:
        """MSE of the quantized pipeline at a single scaling factor."""
        return float(self.mse_matrix(_one_row(pwl), (scale,))[0, 0])

    def sweep(
        self, pwl: PiecewiseLinear, scales: Sequence[float] = DEFAULT_SCALES
    ) -> Dict[float, float]:
        """MSE for each scaling factor in ``scales``."""
        scale_list = [float(s) for s in scales]
        return dict(zip(scale_list, self.mse_matrix(_one_row(pwl), scale_list)[:, 0].tolist()))

    def average_mse(
        self, pwl: PiecewiseLinear, scales: Sequence[float] = DEFAULT_SCALES
    ) -> float:
        """Average MSE over the scale sweep (the Table 3 statistic)."""
        return float(self.average_mse_batch(_one_row(pwl), scales)[0])


def _one_row(pwl: PiecewiseLinear) -> PiecewiseLinearBatch:
    return PiecewiseLinearBatch.from_rows([pwl])
