"""Fitness functions for the genetic breakpoint search.

Algorithm 1 scores an individual (a breakpoint set) by the mean squared
error of its pwl against the target function on a dense grid over the search
range.  :class:`GridMSEFitness` implements exactly that.  As an extension we
also provide :class:`QuantizedMSEFitness`, which scores the fully quantized
pipeline averaged over a set of scaling factors — useful for ablations on
how much the RM strategy buys over direct quantization-in-the-loop search.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.lut import QuantizedLUT, QuantizedLUTBatch
from repro.core.pwl import PiecewiseLinearBatch, fit_pwl, fit_pwl_batch
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.quantizer import QuantSpec, quant_bounds


class FitnessFunction:
    """Interface: maps a breakpoint vector to a scalar error (lower = fitter)."""

    def __call__(self, breakpoints: np.ndarray) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def batch_call(self, population: np.ndarray) -> np.ndarray:
        """Score a ``(P, N - 1)`` population matrix; returns ``(P,)`` scores.

        The default falls back to one scalar ``__call__`` per row, so custom
        fitness functions work with the batched genetic engine unchanged;
        subclasses override this with a true vectorized implementation.
        Entry ``i`` must equal ``self(population[i])`` bit-for-bit — the
        batched and per-individual engines of
        :class:`repro.core.genetic.GeneticSearch` rely on it.
        """
        pop = np.asarray(population, dtype=np.float64)
        return np.array([float(self(row)) for row in pop], dtype=np.float64)


@dataclasses.dataclass
class GridMSEFitness(FitnessFunction):
    """MSE of the fitted pwl on a dense grid (Algorithm 1, lines 4-8).

    Parameters
    ----------
    function:
        The target operator (provides the callable and the search range).
    grid_step:
        Sampling step over ``[R_n, R_p]``; the paper uses 0.01.
    fit_method:
        Passed through to :func:`fit_pwl`.
    frac_bits:
        When set, slopes/intercepts are FXP-rounded *before* scoring so the
        fitness reflects the storage precision.  ``None`` scores the FP pwl
        (the paper's formulation; FXP conversion happens after the search).
    """

    function: NonLinearFunction
    grid_step: float = 0.01
    fit_method: str = "interpolate"
    frac_bits: Optional[int] = None

    def __post_init__(self) -> None:
        self._grid = self.function.sample_grid(self.grid_step)
        self._reference = np.asarray(self.function(self._grid), dtype=np.float64)
        self._grid_ascending = bool(
            self._grid.size and np.all(self._grid[1:] >= self._grid[:-1])
        )

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    def build(self, breakpoints: np.ndarray):
        """Fit the pwl for a breakpoint individual (shared with callers)."""
        pwl = fit_pwl(
            self.function.fn,
            breakpoints,
            self.function.search_range,
            method=self.fit_method,
        )
        if self.frac_bits is not None:
            pwl = pwl.to_fixed_point(self.frac_bits)
        return pwl

    def __call__(self, breakpoints: np.ndarray) -> float:
        pwl = self.build(breakpoints)
        approx = pwl(self._grid)
        return float(np.mean((approx - self._reference) ** 2))

    def build_batch(self, population: np.ndarray) -> PiecewiseLinearBatch:
        """Fit the whole population in one shot (row ``i`` == ``build(row_i)``)."""
        pwls = fit_pwl_batch(
            self.function.fn,
            population,
            self.function.search_range,
            method=self.fit_method,
        )
        if self.frac_bits is not None:
            pwls = pwls.to_fixed_point(self.frac_bits)
        return pwls

    def batch_call(self, population: np.ndarray) -> np.ndarray:
        """Grid MSE of every individual as one ``(P, G)`` array op.

        Per element this is the scalar path's ``k * x + b - ref``, squared
        and averaged along the grid, so entry ``i`` equals
        ``self(population[i])`` bit for bit.
        """
        pwls = self.build_batch(population)
        if self._grid_ascending and pwls.breakpoints.shape[1]:
            error = pwls.on_sorted_grid(self._grid)
        else:
            error = pwls(self._grid)
        error -= self._reference
        error *= error
        return np.mean(error, axis=1)


@dataclasses.dataclass
class QuantizedMSEFitness(FitnessFunction):
    """MSE of the fully quantized Fig. 1b pipeline, averaged over scales.

    For each scaling factor the input grid is the dequantized range
    ``[Q_n S, Q_p S]`` intersected with the evaluation domain, sampled with
    step ``S`` — the paper's operator-level evaluation protocol — and the
    pwl is evaluated through :class:`QuantizedLUT` (quantized breakpoints,
    FXP slopes/intercepts, shifter-rescaled intercepts).
    """

    function: NonLinearFunction
    scales: Sequence[float] = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5
    fit_method: str = "interpolate"
    eval_domain: Optional[Tuple[float, float]] = None

    def build(self, breakpoints: np.ndarray):
        return fit_pwl(
            self.function.fn,
            breakpoints,
            self.function.search_range,
            method=self.fit_method,
        ).to_fixed_point(self.frac_bits)

    def __call__(self, breakpoints: np.ndarray) -> float:
        pwl = self.build(breakpoints)
        qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
        total = 0.0
        for scale in self.scales:
            lut = QuantizedLUT(pwl=pwl, scale=scale, spec=self.spec, frac_bits=self.frac_bits)
            codes = np.arange(qn, qp + 1, dtype=np.float64)
            x = codes * scale
            if self.eval_domain is not None:
                mask = (x >= self.eval_domain[0]) & (x <= self.eval_domain[1])
                codes, x = codes[mask], x[mask]
            if x.size == 0:
                continue
            approx = lut.lookup_dequantized(codes)
            reference = np.asarray(self.function(x), dtype=np.float64)
            total += float(np.mean((approx - reference) ** 2))
        return total / max(len(self.scales), 1)

    def build_batch(self, population: np.ndarray) -> PiecewiseLinearBatch:
        """Fit + FXP-round the whole population in one shot."""
        return fit_pwl_batch(
            self.function.fn,
            population,
            self.function.search_range,
            method=self.fit_method,
        ).to_fixed_point(self.frac_bits)

    def batch_call(self, population: np.ndarray) -> np.ndarray:
        """Quantized-pipeline MSE for all individuals and scales at once.

        The lookup for every (scale, individual, code) triple is a single
        broadcast through :class:`QuantizedLUTBatch`; only the per-scale
        domain masking and reference evaluation remain a (length ``S``)
        Python loop, accumulated in the same order as the scalar path so the
        scores agree bit-for-bit.
        """
        pwls = self.build_batch(np.asarray(population, dtype=np.float64))
        qn, qp = quant_bounds(self.spec.bits, self.spec.signed)
        codes = np.arange(qn, qp + 1, dtype=np.float64)
        lut = QuantizedLUTBatch(
            pwl=pwls,
            scales=np.asarray(self.scales, dtype=np.float64),
            spec=self.spec,
            frac_bits=self.frac_bits,
        )
        approx_all = lut.lookup_dequantized(codes)
        total = np.zeros(pwls.population_size, dtype=np.float64)
        for s_idx, scale in enumerate(lut.scales):
            x = codes * scale
            approx = approx_all[s_idx]
            if self.eval_domain is not None:
                mask = (x >= self.eval_domain[0]) & (x <= self.eval_domain[1])
                # ascontiguousarray keeps the row reduction on the same
                # contiguous summation path as the scalar code (bit parity).
                x, approx = x[mask], np.ascontiguousarray(approx[:, mask])
            if x.size == 0:
                continue
            reference = np.asarray(self.function(x), dtype=np.float64)
            total += np.mean((approx - reference[None, :]) ** 2, axis=1)
        return total / max(len(self.scales), 1)
