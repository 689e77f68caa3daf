"""Baseline approximation methods the paper compares against (or that serve
as sanity references for the genetic search).

* :class:`repro.baselines.nn_lut.NNLUT` — re-implementation of NN-LUT
  [Yu et al., DAC'22]: a single-hidden-layer ReLU network trained to mimic
  the operator, whose weights are then *exactly* converted into pwl
  parameters.
* :func:`repro.baselines.uniform.uniform_pwl` — evenly spaced breakpoints.
* :func:`repro.baselines.chebyshev.chebyshev_pwl` — Chebyshev-node
  breakpoints.
"""

from repro.baselines.nn_lut import NNLUT, NNLUTTrainingConfig
from repro.baselines.uniform import uniform_pwl
from repro.baselines.chebyshev import chebyshev_pwl, chebyshev_nodes

__all__ = [
    "NNLUT",
    "NNLUTTrainingConfig",
    "uniform_pwl",
    "chebyshev_pwl",
    "chebyshev_nodes",
]
