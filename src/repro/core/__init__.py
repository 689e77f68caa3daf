"""Core GQA-LUT machinery: piece-wise linear approximation + genetic search.

Public entry points:

* :class:`repro.core.pwl.PiecewiseLinear` — a pwl function (Eq. 1).
* :func:`repro.core.pwl.fit_pwl` — derive slopes/intercepts from breakpoints.
* :class:`repro.core.lut.QuantizedLUT` — the quantization-aware LUT unit (Fig. 1b).
* :class:`repro.core.genetic.GeneticSearch` — Algorithm 1.
* :class:`repro.core.mutation.RoundingMutation` — Algorithm 2.
* :class:`repro.core.search.GQALUT` — the high-level "search an operator"
  API combining all of the above with the Table 1 presets.
* :mod:`repro.core.engine_config` — the unified engine-knob registry
  (kwarg > context > env > default resolution for every engine switch).
"""

from repro.core import engine_config
from repro.core.engine_config import EngineConfig
from repro.core.pwl import (
    PiecewiseLinear,
    PiecewiseLinearBatch,
    fit_pwl,
    fit_pwl_batch,
    uniform_breakpoints,
)
from repro.core.lut import QuantizedLUT, QuantizedLUTBatch
from repro.core.fitness import (
    GridMSEFitness,
    QuantizedMSEFitness,
    FitnessFunction,
)
from repro.core.mutation import (
    MutationFunction,
    NormalMutation,
    RoundingMutation,
)
from repro.core.genetic import GeneticSearch, GASettings, GAResult
from repro.core.config import (
    OperatorSearchConfig,
    default_config,
    DEFAULT_CONFIGS,
    GA_DEFAULTS,
)
from repro.core.search import GQALUT, SearchOutcome
from repro.core.evaluation import (
    QuantizedPWLEvaluator,
    DEFAULT_SCALES,
)

__all__ = [
    "engine_config",
    "EngineConfig",
    "PiecewiseLinear",
    "PiecewiseLinearBatch",
    "fit_pwl",
    "fit_pwl_batch",
    "uniform_breakpoints",
    "QuantizedLUT",
    "QuantizedLUTBatch",
    "GridMSEFitness",
    "QuantizedMSEFitness",
    "FitnessFunction",
    "MutationFunction",
    "NormalMutation",
    "RoundingMutation",
    "GeneticSearch",
    "GASettings",
    "GAResult",
    "OperatorSearchConfig",
    "default_config",
    "DEFAULT_CONFIGS",
    "GA_DEFAULTS",
    "GQALUT",
    "SearchOutcome",
    "QuantizedPWLEvaluator",
    "DEFAULT_SCALES",
]
