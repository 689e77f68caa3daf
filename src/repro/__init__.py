"""GQA-LUT reproduction: Genetic Quantization-Aware Approximation for
Non-Linear Operations in Transformers (DAC 2024).

The package is organised as:

* :mod:`repro.functions` — the non-linear operators (GELU, HSWISH, EXP, DIV,
  RSQRT, ...).
* :mod:`repro.core` — piece-wise linear approximation, LUT storage, the
  genetic search (Algorithm 1), the Rounding Mutation (Algorithm 2) and the
  quantization-aware evaluation protocol.
* :mod:`repro.quant` — integer-only quantization utilities (the uniform
  quantizer, power-of-two scales, fixed-point codes and the shifter).
* :mod:`repro.scaling` — multi-range input scaling for DIV/RSQRT (Table 2).
* :mod:`repro.baselines` — the NN-LUT and uniform/Chebyshev pwl baselines.
* :mod:`repro.hardware` — the 28-nm cost model and Verilog generator for
  the pwl unit (Table 6).
* :mod:`repro.nn` — a numpy autograd + miniature Transformer substrate used
  for the fine-tuning experiments (Tables 4 and 5).
* :mod:`repro.graph` — traced graph IR, optimisation passes and the
  compiled inference executor (``REPRO_INFER_ENGINE=compiled``).
* :mod:`repro.serve` — the micro-batching serving front-end over compiled
  inference.
* :mod:`repro.data` — synthetic semantic-segmentation data.
* :mod:`repro.experiments` — runners reproducing each table and figure.

Quickstart::

    from repro import GQALUT

    outcome = GQALUT.for_operator("gelu", num_entries=8, use_rm=True).search(
        generations=100, seed=0
    )
    print(outcome.average_mse())          # Table 3 style number
    lut = outcome.quantized_lut(scale=0.25)
    y = lut(x)                            # INT8 quantization-aware approximation
"""

from repro.core import (
    GQALUT,
    SearchOutcome,
    PiecewiseLinear,
    PiecewiseLinearBatch,
    fit_pwl,
    fit_pwl_batch,
    QuantizedLUT,
    QuantizedLUTBatch,
    GeneticSearch,
    GASettings,
    RoundingMutation,
    NormalMutation,
    GridMSEFitness,
    default_config,
    DEFAULT_CONFIGS,
)
from repro.functions import get_function, list_functions, NonLinearFunction
from repro.quant import QuantSpec
from repro.scaling import MultiRangePWL, default_multi_range
from repro.baselines import NNLUT
from repro.hardware import Precision, estimate_pwl_unit, table6_sweep, generate_pwl_verilog

__version__ = "0.1.0"

__all__ = [
    "GQALUT",
    "SearchOutcome",
    "PiecewiseLinear",
    "PiecewiseLinearBatch",
    "fit_pwl",
    "fit_pwl_batch",
    "QuantizedLUT",
    "QuantizedLUTBatch",
    "GeneticSearch",
    "GASettings",
    "RoundingMutation",
    "NormalMutation",
    "GridMSEFitness",
    "default_config",
    "DEFAULT_CONFIGS",
    "get_function",
    "list_functions",
    "NonLinearFunction",
    "QuantSpec",
    "MultiRangePWL",
    "default_multi_range",
    "NNLUT",
    "Precision",
    "estimate_pwl_unit",
    "table6_sweep",
    "generate_pwl_verilog",
    "__version__",
]
