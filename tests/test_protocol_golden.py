"""Golden Table 3 / Fig. 3 numbers: a SHA-256 over the protocol's MSEs.

``protocol.average_mse`` (the Table 3 statistic) and
``protocol.scale_sweep_mse`` (the per-scale Fig. 2a / Fig. 3 data) score
a pwl through :class:`repro.core.evaluation.QuantizedPWLEvaluator`.  This
digest pins their float64 bits for seeded quick-budget ``gqa-rm`` pwls of
every operator at 8 and 16 entries, at INT8 and INT16, so a refactor of
the evaluator (or of the lookup table it runs) cannot move a reported
number unnoticed.

Like ``test_ga_golden.py`` the digest depends on the platform's
``exp``/``erf`` kernels; it was recorded on x86-64 with NumPy 2.x.
"""

import hashlib

import numpy as np

from repro.experiments import protocol
from repro.experiments.methods import ApproximationBudget, compute_approximation

OPERATORS = ("gelu", "hswish", "exp", "div", "rsqrt")
ENTRIES = (8, 16)
SEEDS = (0, 7)
BITS = (8, 16)

# Recorded before the pipeline MSE was folded into one evaluator kernel;
# the refactor must reproduce it bit for bit.
GOLDEN_SHA256 = "e2ddd8def45fb13ecafacb7c998b34b7a1933a2845e82c8d8e852b1dedf0331d"


def _float_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def protocol_digest() -> str:
    digest = hashlib.sha256()
    for operator in OPERATORS:
        for entries in ENTRIES:
            for seed in SEEDS:
                budget = ApproximationBudget(
                    generations=25, population_size=16, seed=seed
                )
                pwl = compute_approximation(operator, "gqa-rm", entries, budget)
                for bits in BITS:
                    digest.update(repr((operator, entries, seed, bits)).encode())
                    digest.update(_float_bytes(
                        [protocol.average_mse(operator, pwl, bits=bits)]
                    ))
                    if operator in protocol.SCALE_DEPENDENT_OPERATORS:
                        sweep = protocol.scale_sweep_mse(operator, pwl, bits=bits)
                        digest.update(_float_bytes(list(sweep.keys())))
                        digest.update(_float_bytes(list(sweep.values())))
    return digest.hexdigest()


def test_golden_protocol_digest():
    assert protocol_digest() == GOLDEN_SHA256
