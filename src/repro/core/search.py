"""High-level GQA-LUT search API.

:class:`GQALUT` wires together the Table 1 configuration, the fitness
function, the mutation operator (Gaussian or Rounding Mutation) and the
genetic loop, and returns a :class:`SearchOutcome` holding the searched pwl
in both FP and FXP form plus the search diagnostics.

Typical usage::

    from repro import GQALUT

    outcome = GQALUT.for_operator("gelu", num_entries=8, use_rm=True).search(seed=0)
    lut = outcome.quantized_lut(scale=0.25)
    y = lut(x)                      # quantization-aware approximation
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GA_DEFAULTS, OperatorSearchConfig, default_config
from repro.core.evaluation import DEFAULT_SCALES, QuantizedPWLEvaluator
from repro.core.fitness import GridMSEFitness
from repro.core.genetic import GAResult, GASettings, GeneticSearch
from repro.core.lut import QuantizedLUT
from repro.core.mutation import MutationFunction, NormalMutation, RoundingMutation
from repro.core.pwl import PiecewiseLinear, fit_pwl
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.quantizer import QuantSpec


@dataclasses.dataclass
class SearchOutcome:
    """Result of a GQA-LUT search for one operator."""

    function: NonLinearFunction
    config: OperatorSearchConfig
    num_entries: int
    use_rm: bool
    pwl_fp: PiecewiseLinear
    pwl_fxp: PiecewiseLinear
    ga_result: GAResult
    spec: QuantSpec

    @property
    def breakpoints(self) -> np.ndarray:
        return self.pwl_fp.breakpoints

    @property
    def frac_bits(self) -> int:
        return self.config.frac_bits

    def quantized_lut(self, scale: float) -> QuantizedLUT:
        """Deploy the searched parameters at a given power-of-two scale."""
        return QuantizedLUT(
            pwl=self.pwl_fxp, scale=scale, spec=self.spec, frac_bits=self.frac_bits
        )

    def evaluate(self, scales: Sequence[float] = DEFAULT_SCALES) -> dict:
        """Quantized-pipeline MSE per scaling factor (Section 4.1 protocol)."""
        evaluator = QuantizedPWLEvaluator(
            self.function, spec=self.spec, frac_bits=self.frac_bits
        )
        return evaluator.sweep(self.pwl_fxp, scales)

    def average_mse(self, scales: Sequence[float] = DEFAULT_SCALES) -> float:
        """Average quantized-pipeline MSE over the scale sweep."""
        evaluator = QuantizedPWLEvaluator(
            self.function, spec=self.spec, frac_bits=self.frac_bits
        )
        return evaluator.average_mse(self.pwl_fxp, scales)

    def float_mse(self, grid_step: float = 0.01) -> float:
        """MSE of the FP pwl on the dense search-range grid."""
        grid = self.function.sample_grid(grid_step)
        ref = np.asarray(self.function(grid), dtype=np.float64)
        approx = self.pwl_fp(grid)
        return float(np.mean((approx - ref) ** 2))


class GQALUT:
    """Genetic Quantization-Aware LUT-Approximation searcher.

    Parameters
    ----------
    function:
        Target operator.
    config:
        Per-operator configuration (Table 1); defaults to
        :func:`repro.core.config.default_config`.
    num_entries:
        LUT entry count ``N``; the search uses ``N - 1`` breakpoints.
    use_rm:
        Enable the Rounding Mutation strategy (Algorithm 2).  When false the
        conventional Gaussian mutation is used — the paper's
        "GQA-LUT w/o RM" variant.
    spec:
        Integer format of the deployment input (INT8 by default).
    fit_method:
        Slope/intercept derivation method (see :func:`fit_pwl`).
    fxp_aware_fitness:
        When true (default) the GA fitness scores candidates *after* the
        ``lambda``-bit FXP rounding of slopes and intercepts, so breakpoints
        are selected knowing the storage precision they will be deployed at.
        Algorithm 1 as printed scores the FP pwl and converts afterwards;
        set this to ``False`` for that literal behaviour (ablated in the
        benchmarks).
    """

    def __init__(
        self,
        function: NonLinearFunction,
        config: Optional[OperatorSearchConfig] = None,
        num_entries: int = 8,
        use_rm: bool = True,
        spec: QuantSpec = QuantSpec(bits=8, signed=True),
        fit_method: str = "interpolate",
        grid_step: float = 0.01,
        fxp_aware_fitness: bool = True,
    ) -> None:
        if num_entries < 2:
            raise ValueError("num_entries must be at least 2, got %d" % num_entries)
        self.config = config or default_config(function.name)
        self.function = function.with_range(*self.config.search_range)
        self.num_entries = num_entries
        self.use_rm = use_rm
        self.spec = spec
        self.fit_method = fit_method
        self.grid_step = grid_step
        self.fxp_aware_fitness = fxp_aware_fitness

    @classmethod
    def for_operator(
        cls,
        name: str,
        num_entries: int = 8,
        use_rm: bool = True,
        spec: QuantSpec = QuantSpec(bits=8, signed=True),
        **kwargs,
    ) -> "GQALUT":
        """Build a searcher for a registered operator name."""
        config = default_config(name)
        return cls(
            config.function(),
            config=config,
            num_entries=num_entries,
            use_rm=use_rm,
            spec=spec,
            **kwargs,
        )

    def _mutation(self) -> MutationFunction:
        if self.use_rm and self.config.theta_r > 0:
            rm_range = self.config.rm_range(self.num_entries) or (0, 6)
            return RoundingMutation(
                mutate_range=rm_range,
                theta_r=self.config.theta_r,
                search_range=self.function.search_range,
            )
        return NormalMutation(search_range=self.function.search_range)

    def search(
        self,
        generations: Optional[int] = None,
        population_size: Optional[int] = None,
        seed: Optional[int] = None,
        patience: Optional[int] = None,
    ) -> SearchOutcome:
        """Run Algorithm 1 and return the searched approximation.

        ``generations`` and ``population_size`` default to the Table 1
        values (500 / 50); smaller values are convenient for tests and quick
        experiments.
        """
        settings = self.config.ga_settings(
            num_entries=self.num_entries,
            generations=generations,
            population_size=population_size,
            seed=seed,
        )
        fitness = GridMSEFitness(
            self.function,
            grid_step=self.grid_step,
            fit_method=self.fit_method,
            frac_bits=self.config.frac_bits if self.fxp_aware_fitness else None,
        )
        ga = GeneticSearch(
            fitness=fitness,
            search_range=self.function.search_range,
            settings=settings,
            mutation=self._mutation(),
        )
        result = ga.run(patience=patience)
        pwl_fp = fit_pwl(
            self.function.fn,
            result.best_breakpoints,
            self.function.search_range,
            method=self.fit_method,
        )
        pwl_fxp = pwl_fp.to_fixed_point(self.config.frac_bits)
        return SearchOutcome(
            function=self.function,
            config=self.config,
            num_entries=self.num_entries,
            use_rm=self.use_rm,
            pwl_fp=pwl_fp,
            pwl_fxp=pwl_fxp,
            ga_result=result,
            spec=self.spec,
        )
