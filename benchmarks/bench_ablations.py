"""Ablation benchmarks for design choices called out in DESIGN.md.

Not a paper table; these quantify (a) what the genetic search buys over
non-search baselines, (b) what the FXP-aware fitness buys over the literal
Algorithm 1 fitness, and (c) the GA's runtime cost per search.
"""

import pytest

from repro.baselines.chebyshev import chebyshev_pwl
from repro.baselines.uniform import uniform_pwl
from repro.core.config import default_config
from repro.core.search import GQALUT
from repro.experiments.protocol import average_mse


@pytest.mark.benchmark(group="ablation")
def test_ablation_search_vs_static_breakpoints(benchmark, approx_budget):
    """GQA-LUT vs uniform and Chebyshev breakpoints (no search)."""

    def run():
        out = {}
        for operator in ("gelu", "exp"):
            config = default_config(operator)
            fn = config.function()
            searched = GQALUT.for_operator(operator, 8, use_rm=True).search(
                generations=approx_budget.generations,
                population_size=approx_budget.population_size,
                seed=approx_budget.seed,
            ).pwl_fxp
            out[operator] = {
                "gqa-rm": average_mse(operator, searched),
                "uniform": average_mse(operator, uniform_pwl(fn, 8).to_fixed_point(5)),
                "chebyshev": average_mse(operator, chebyshev_pwl(fn, 8).to_fixed_point(5)),
            }
        return out

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for operator, values in results.items():
        print(operator, {k: "%.2e" % v for k, v in values.items()})
        assert values["gqa-rm"] <= values["uniform"] * 1.5


@pytest.mark.benchmark(group="ablation")
def test_ablation_fxp_aware_fitness(benchmark, approx_budget):
    """FXP-aware fitness (default) vs the literal Algorithm 1 FP fitness."""

    def run():
        out = {}
        for aware in (True, False):
            outcome = GQALUT.for_operator(
                "gelu", 8, use_rm=True, fxp_aware_fitness=aware
            ).search(
                generations=approx_budget.generations,
                population_size=approx_budget.population_size,
                seed=approx_budget.seed,
            )
            out["fxp-aware" if aware else "fp-fitness"] = average_mse("gelu", outcome.pwl_fxp)
        return out

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print({k: "%.2e" % v for k, v in results.items()})
    assert results["fxp-aware"] > 0 and results["fp-fitness"] > 0


@pytest.mark.benchmark(group="ablation")
def test_search_runtime_single_operator(benchmark):
    """Wall-clock cost of one 8-entry GELU search at a fixed small budget."""

    def run():
        return GQALUT.for_operator("gelu", 8, use_rm=True).search(
            generations=50, population_size=30, seed=0
        )

    outcome = benchmark(run)
    assert outcome.pwl_fxp.num_entries == 8
