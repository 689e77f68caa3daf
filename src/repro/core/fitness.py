"""Fitness functions for the genetic breakpoint search.

Algorithm 1 scores an individual (a breakpoint set) by the mean squared
error of its pwl against the target function on a dense grid over the search
range.  :class:`GridMSEFitness` implements exactly that.  As an extension we
also provide :class:`QuantizedMSEFitness`, which scores the fully quantized
pipeline averaged over a set of scaling factors — the Table 3 metric itself,
delegated to :class:`repro.core.evaluation.QuantizedPWLEvaluator` — useful
for ablations on how much the RM strategy buys over direct
quantization-in-the-loop search.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation import DEFAULT_SCALES, QuantizedPWLEvaluator
from repro.core.pwl import PiecewiseLinearBatch, fit_pwl, fit_pwl_batch
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.quantizer import QuantSpec


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
    """The Table 3 metric as a GA fitness: Fig. 1b pipeline MSE over scales.

    An adapter over :class:`QuantizedPWLEvaluator`, the one implementation
    of that metric: each individual is fitted and FXP-rounded, and scored by
    :meth:`QuantizedPWLEvaluator.average_mse_batch` over ``scales``.  So a
    fitness value is bit for bit the number the protocol reports for that
    pwl.  ``eval_domain=None`` takes the evaluator's default, the operator's
    search range, and is replaced by it at construction.
    """

    function: NonLinearFunction
    scales: Sequence[float] = DEFAULT_SCALES
    spec: QuantSpec = QuantSpec(bits=8, signed=True)
    frac_bits: int = 5
    fit_method: str = "interpolate"
    eval_domain: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        self._evaluator = QuantizedPWLEvaluator(
            self.function, spec=self.spec, frac_bits=self.frac_bits,
            eval_domain=self.eval_domain,
        )
        self.eval_domain = self._evaluator.eval_domain

    def __call__(self, breakpoints: np.ndarray) -> float:
        return float(self.batch_call(np.asarray(breakpoints, dtype=np.float64)[None, :])[0])

    def build_batch(self, population: np.ndarray) -> PiecewiseLinearBatch:
        """Fit + FXP-round the whole population in one shot."""
        return fit_pwl_batch(
            self.function.fn,
            population,
            self.function.search_range,
            method=self.fit_method,
        ).to_fixed_point(self.frac_bits)

    def batch_call(self, population: np.ndarray) -> np.ndarray:
        """Average pipeline MSE of every individual: a ``(P,)`` vector."""
        return self._evaluator.average_mse_batch(self.build_batch(population), self.scales)
