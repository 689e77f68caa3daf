"""Generative parity of the one Fig. 1b pipeline MSE against its oracle.

:class:`QuantizedPWLEvaluator` is the only implementation of the paper's
operator-level metric: ``mse_at_scale``, ``sweep``, ``average_mse`` and the
GA's :class:`QuantizedMSEFitness` are views over its batch kernel
``mse_matrix``.  ``oracles.reference_pipeline_mse`` scores one pwl at one
scale through a scalar :class:`~repro.core.lut.QuantizedLUT`.  Hypothesis
draws the operator, the integer format, a subset of the scale sweep and a
small population (repeated and boundary breakpoints included), and every
view must match the oracle bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import DEFAULT_SCALES, QuantizedPWLEvaluator
from repro.core.fitness import QuantizedMSEFitness
from repro.core.pwl import uniform_breakpoints
from repro.functions.registry import get_function
from repro.quant.quantizer import QuantSpec

from oracles import reference_pipeline_mse

# (bits, frac_bits): the INT8 and INT16 deployments of Table 1 / Fig. 2.
FORMATS = ((8, 5), (16, 9))


def as_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def sequential_mean(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


@st.composite
def cases(draw):
    operator = draw(st.sampled_from(("gelu", "hswish", "exp")))
    bits, frac_bits = draw(st.sampled_from(FORMATS))
    scales = draw(st.lists(st.sampled_from(DEFAULT_SCALES), min_size=1, max_size=7, unique=True))
    lo, hi = get_function(operator).search_range
    size = draw(st.integers(1, 4))
    entries = draw(st.sampled_from((2, 3, 8, 16)))
    rows = draw(st.lists(
        st.lists(st.floats(lo, hi), min_size=entries - 1, max_size=entries - 1),
        min_size=size, max_size=size,
    ))
    population = np.sort(np.array(rows, dtype=np.float64), axis=1)
    return operator, bits, frac_bits, scales, population


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_pipeline_mse_views_match_oracle(case):
    operator, bits, frac_bits, scales, population = case
    fn = get_function(operator)
    spec = QuantSpec(bits=bits, signed=True)
    fitness = QuantizedMSEFitness(fn, scales=tuple(scales), spec=spec, frac_bits=frac_bits)
    evaluator = QuantizedPWLEvaluator(fn, spec=spec, frac_bits=frac_bits)
    pwls = fitness.build_batch(population)
    rows = [pwls.row(p) for p in range(pwls.population_size)]
    expected = np.array([
        [reference_pipeline_mse(fn, row, s, spec, frac_bits, fn.search_range) for row in rows]
        for s in scales
    ])
    averages = [sequential_mean(expected[:, p].tolist()) for p in range(len(rows))]

    assert as_bytes(evaluator.mse_matrix(pwls, scales)) == as_bytes(expected)
    assert as_bytes(evaluator.average_mse_batch(pwls, scales)) == as_bytes(averages)
    batch = fitness.batch_call(population)
    assert as_bytes(batch) == as_bytes(averages)
    for p, row in enumerate(rows):
        sweep = evaluator.sweep(row, scales)
        assert list(sweep) == [float(s) for s in scales]
        assert as_bytes(list(sweep.values())) == as_bytes(expected[:, p])
        assert as_bytes([evaluator.mse_at_scale(row, scales[0])]) == as_bytes([expected[0, p]])
        assert as_bytes([evaluator.average_mse(row, scales)]) == as_bytes([averages[p]])
        assert as_bytes([np.mean(list(sweep.values()))]) == as_bytes([averages[p]])
        assert as_bytes([fitness(population[p])]) == as_bytes([batch[p]])


def test_empty_grid_raises_like_the_oracle():
    fn = get_function("gelu")
    spec = QuantSpec(bits=8, signed=True)
    # No integer code lands in (0.25, 0.75) at S = 1.
    domain = (0.25, 0.75)
    fitness = QuantizedMSEFitness(fn, scales=(0.5, 1.0), eval_domain=domain)
    evaluator = QuantizedPWLEvaluator(fn, eval_domain=domain)
    population = uniform_breakpoints(*fn.search_range, num_entries=8)[None, :]
    pwls = fitness.build_batch(population)
    for score in (
        lambda: reference_pipeline_mse(fn, pwls.row(0), 1.0, spec, 5, domain),
        lambda: evaluator.mse_matrix(pwls, (1.0,)),
        lambda: evaluator.mse_at_scale(pwls.row(0), 1.0),
        lambda: evaluator.sweep(pwls.row(0), (0.5, 1.0)),
        lambda: evaluator.average_mse(pwls.row(0), (1.0,)),
        lambda: fitness.batch_call(population),
        lambda: fitness(population[0]),
    ):
        with pytest.raises(ValueError, match="empty"):
            score()


def test_empty_scale_sweep_raises():
    fitness = QuantizedMSEFitness(get_function("gelu"), scales=())
    with pytest.raises(ValueError, match="empty"):
        fitness(uniform_breakpoints(-4.0, 4.0, num_entries=8))
