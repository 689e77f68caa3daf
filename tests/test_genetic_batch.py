"""Equivalence and regression tests for the batched genetic engine.

Pins the three contracts DESIGN.md documents:

* batched fitness scores are bit-identical to scalar scores (to well below
  the issue's 1e-12 bound — exactly equal);
* a seeded ``GeneticSearch.run`` returns identical results under the
  batched and per-individual (legacy) engines, for both mutation operators;
* the dedup + score cache only removes redundant fitness work — it never
  changes the trajectory — and the crossover window can start at the last
  breakpoint index;
* the list-row crossover swap gives the same bytes as the float64 matrix
  swap it replaced, signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import QuantizedPWLEvaluator
from repro.core.fitness import FitnessFunction, GridMSEFitness, QuantizedMSEFitness
from repro.core import genetic
from repro.core.genetic import GASettings, GeneticSearch, swap_segment
from repro.core.mutation import NormalMutation, RoundingMutation
from repro.core.pwl import fit_pwl_batch
from repro.core.search import GQALUT
from repro.functions.registry import get_function


def make_population(fn, size=20, num_breakpoints=7, seed=0):
    rng = np.random.default_rng(seed)
    pop = np.sort(rng.uniform(*fn.search_range, size=(size, num_breakpoints)), axis=1)
    pop[0] = pop[1]  # duplicate row, as tournament selection produces
    return pop


class TestBatchFitnessEquivalence:
    @pytest.mark.parametrize("frac_bits", [None, 5])
    @pytest.mark.parametrize("method", ["interpolate", "lstsq"])
    def test_grid_mse_scores_match_scalar(self, frac_bits, method):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.01, fit_method=method, frac_bits=frac_bits)
        pop = make_population(fn)
        batch = fitness.batch_call(pop)
        scalar = np.array([fitness(row) for row in pop])
        np.testing.assert_array_equal(batch, scalar)
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("operator", ["gelu", "exp"])
    def test_quantized_mse_scores_match_scalar(self, operator):
        fn = get_function(operator)
        fitness = QuantizedMSEFitness(fn)
        pop = make_population(fn, size=12)
        batch = fitness.batch_call(pop)
        scalar = np.array([fitness(row) for row in pop])
        np.testing.assert_array_equal(batch, scalar)

    def test_quantized_mse_with_eval_domain_matches_scalar(self):
        fn = get_function("gelu")
        fitness = QuantizedMSEFitness(fn, eval_domain=fn.search_range)
        pop = make_population(fn, size=12)
        np.testing.assert_array_equal(
            fitness.batch_call(pop), np.array([fitness(row) for row in pop])
        )

    def test_default_batch_call_falls_back_to_scalar(self):
        class WidthFitness(FitnessFunction):
            def __call__(self, breakpoints):
                return float(np.max(breakpoints) - np.min(breakpoints))

        pop = make_population(get_function("gelu"), size=6)
        fitness = WidthFitness()
        np.testing.assert_array_equal(
            fitness.batch_call(pop), np.array([fitness(row) for row in pop])
        )


class TestEngineParity:
    def run_pair(self, operator="gelu", use_rm=True, seed=0, generations=25, pop=14):
        results = {}
        for engine in ("batch", "legacy"):
            outcome = GQALUT.for_operator(operator, num_entries=8, use_rm=use_rm).search(
                generations=generations,
                population_size=pop,
                seed=seed,
                engine=engine,
            )
            results[engine] = outcome.ga_result
        return results["batch"], results["legacy"]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_run_identical_across_engines_rm(self, seed):
        batch, legacy = self.run_pair(seed=seed)
        np.testing.assert_array_equal(batch.best_breakpoints, legacy.best_breakpoints)
        assert batch.best_fitness == legacy.best_fitness
        np.testing.assert_array_equal(
            batch.best_ever_breakpoints, legacy.best_ever_breakpoints
        )
        assert batch.history == legacy.history

    def test_seeded_run_identical_across_engines_gaussian(self):
        batch, legacy = self.run_pair(use_rm=False, seed=3)
        np.testing.assert_array_equal(batch.best_breakpoints, legacy.best_breakpoints)
        assert batch.best_fitness == legacy.best_fitness

    def test_direct_genetic_search_parity_with_custom_fitness(self):
        class WidthFitness(FitnessFunction):
            def __call__(self, breakpoints):
                return float(np.sum(np.abs(np.asarray(breakpoints))))

        settings = GASettings(
            num_breakpoints=5, population_size=10, generations=12, seed=11
        )
        results = {}
        for engine in ("batch", "legacy"):
            ga = GeneticSearch(WidthFitness(), (-4.0, 4.0), settings, engine=engine)
            results[engine] = ga.run()
        np.testing.assert_array_equal(
            results["batch"].best_breakpoints, results["legacy"].best_breakpoints
        )
        assert results["batch"].history == results["legacy"].history

    def test_unknown_engine_rejected(self):
        fitness = GridMSEFitness(get_function("gelu"), grid_step=0.1)
        with pytest.raises(ValueError):
            GeneticSearch(fitness, (-4.0, 4.0), engine="turbo")


class TestDedupCache:
    def test_cache_removes_fitness_work_but_counts_logical_evals(self):
        batch, legacy = TestEngineParity().run_pair(seed=0, generations=30)
        assert batch.evaluations == legacy.evaluations
        assert legacy.fitness_calls == legacy.evaluations
        assert legacy.cache_hits == 0
        assert batch.fitness_calls < batch.evaluations
        assert batch.cache_hits > 0
        assert batch.fitness_calls + batch.cache_hits == batch.evaluations

    def test_counters_reset_between_runs(self):
        """Regression: fitness_calls/cache_hits must be per-run, not
        accumulated instance state."""
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.05)
        settings = GASettings(num_breakpoints=7, population_size=8, generations=3, seed=1)
        for engine in ("batch", "legacy"):
            ga = GeneticSearch(fitness, fn.search_range, settings, engine=engine)
            first, second = ga.run(), ga.run()
            for result in (first, second):
                assert result.fitness_calls + result.cache_hits == result.evaluations
            if engine == "legacy":
                assert second.fitness_calls == second.evaluations
            else:
                # Second run starts with a warm cache: strictly less work.
                assert second.fitness_calls < first.fitness_calls

    def test_malformed_batch_call_rejected(self):
        class BrokenFitness(FitnessFunction):
            def __call__(self, breakpoints):
                return 0.0

            def batch_call(self, population):
                return np.zeros(1)  # wrong length

        settings = GASettings(num_breakpoints=3, population_size=6, generations=2, seed=0)
        ga = GeneticSearch(BrokenFitness(), (-1.0, 1.0), settings, engine="batch")
        with pytest.raises(ValueError):
            ga.run()

    def test_cache_eviction_keeps_results_correct(self):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.05)
        settings = GASettings(
            num_breakpoints=7, population_size=10, generations=15, seed=4
        )
        tiny = GeneticSearch(fitness, fn.search_range, settings, engine="batch", cache_size=8)
        full = GeneticSearch(fitness, fn.search_range, settings, engine="batch")
        a, b = tiny.run(), full.run()
        np.testing.assert_array_equal(a.best_breakpoints, b.best_breakpoints)
        assert a.history == b.history
        assert a.fitness_calls >= b.fitness_calls  # eviction re-scores, never corrupts


def matrix_swap(a: np.ndarray, b: np.ndarray, start: int, stop: int) -> None:
    """Reference crossover swap on float64 rows: exchange ``[start, stop)``
    in place, then ``ndarray.sort`` both rows (the matrix operator the
    list-row :func:`swap_segment` replaced)."""
    segment = a[start:stop].copy()
    a[start:stop] = b[start:stop]
    b[start:stop] = segment
    a.sort()
    b.sort()


def recorded_windows(ga, population, calls, monkeypatch):
    """Run ``ga._crossover`` ``calls`` times; return every swap window."""
    windows = []
    swap = genetic.swap_segment

    def spy(a, b, start, stop):
        windows.append((start, stop))
        swap(a, b, start, stop)

    monkeypatch.setattr(genetic, "swap_segment", spy)
    for _ in range(calls):
        ga._crossover(population)
    return windows


# Breakpoint values with repeats and both signed zeros, where list.sort and
# ndarray.sort can order equal elements differently.
SWAP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def swap_cases(draw):
    n = draw(st.integers(1, 31))
    rows = draw(st.integers(2, 5))
    matrix = np.sort(
        np.array(draw(st.lists(
            st.lists(SWAP_VALUES, min_size=n, max_size=n), min_size=rows, max_size=rows
        ))),
        axis=1,
    )
    swaps = draw(st.lists(
        st.tuples(
            st.integers(0, rows - 1), st.integers(0, rows - 1), st.integers(0, n - 1)
        ).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.just(t[1]), st.just(t[2]), st.integers(t[2] + 1, n)
        )),
        min_size=1, max_size=8,
    ))
    return matrix, swaps


class TestCrossoverWindow:
    def test_swap_can_start_at_last_index(self, monkeypatch):
        """Regression for the `integers(0, n - 1)` bias: the swap window must
        be able to cover exactly the top breakpoint."""
        fitness = GridMSEFitness(get_function("gelu"), grid_step=0.1)
        ga = GeneticSearch(
            fitness, (-4.0, 4.0), GASettings(num_breakpoints=7, seed=123)
        )
        population = ga._initial_population()
        windows = recorded_windows(ga, population, 20, monkeypatch)
        assert (6, 7) in windows, "window never covered only the last breakpoint"
        a = [float(v) for v in range(7)]
        b = [v + 100.0 for v in a]  # swapped-in values are unambiguous after sorting
        swap_segment(a, b, 6, 7)
        assert a == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 106.0]
        assert b == [6.0, 100.0, 101.0, 102.0, 103.0, 104.0, 105.0]

    def test_crossover_preserves_multiset_and_sortedness(self):
        fitness = GridMSEFitness(get_function("gelu"), grid_step=0.1)
        ga = GeneticSearch(fitness, (-4.0, 4.0), GASettings(num_breakpoints=7, seed=5))
        population = ga._initial_population()
        before = sorted(v for row in population for v in row)
        for _ in range(50):
            ga._crossover(population)
            assert all(np.all(np.diff(row) >= 0) for row in population)
        assert sorted(v for row in population for v in row) == before
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = np.sort(rng.uniform(-4, 4, 7))
            b = np.sort(rng.uniform(-4, 4, 7))
            child_a, child_b = a.tolist(), b.tolist()
            start = int(rng.integers(0, 7))
            swap_segment(child_a, child_b, start, int(rng.integers(start + 1, 8)))
            assert np.all(np.diff(child_a) >= 0) and np.all(np.diff(child_b) >= 0)
            np.testing.assert_array_equal(
                np.sort(np.concatenate([child_a, child_b])),
                np.sort(np.concatenate([a, b])),
            )

    @given(swap_cases())
    @settings(max_examples=300, deadline=None)
    def test_list_swap_matches_matrix_swap_bytes(self, case):
        matrix, swaps = case
        rows = matrix.tolist()
        for i, j, start, stop in swaps:
            if i == j:
                continue
            matrix_swap(matrix[i], matrix[j], start, stop)
            swap_segment(rows[i], rows[j], start, stop)
        assert np.array(rows, dtype=np.float64).tobytes() == matrix.tobytes()


class TestBatchedEvaluator:
    def test_mse_matrix_matches_scalar_sweep(self):
        fn = get_function("gelu")
        pop = make_population(fn, size=6)
        pwls = fit_pwl_batch(fn.fn, pop, fn.search_range).to_fixed_point(5)
        evaluator = QuantizedPWLEvaluator(fn, frac_bits=5)
        matrix = evaluator.mse_matrix(pwls)
        assert matrix.shape == (7, 6)
        for p in range(6):
            sweep = evaluator.sweep(pwls.row(p))
            for s_idx, scale in enumerate(sweep):
                assert matrix[s_idx, p] == sweep[scale]

    def test_average_mse_batch_matches_scalar(self):
        fn = get_function("exp")
        pop = make_population(fn, size=5)
        pwls = fit_pwl_batch(fn.fn, pop, fn.search_range).to_fixed_point(5)
        evaluator = QuantizedPWLEvaluator(fn, frac_bits=5)
        averages = evaluator.average_mse_batch(pwls)
        for p in range(5):
            assert averages[p] == pytest.approx(
                evaluator.average_mse(pwls.row(p)), abs=1e-15
            )


class TestMutationBatchParity:
    def test_rounding_mutation_batch_matches_sequential_calls(self):
        mutation = RoundingMutation(mutate_range=(0, 6), theta_r=0.05,
                                    search_range=(-4.0, 4.0))
        rows = np.sort(np.random.default_rng(2).uniform(-4, 4, size=(6, 7)), axis=1)
        batched = mutation.mutate_batch(rows, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        sequential = np.stack([mutation(row, rng) for row in rows])
        np.testing.assert_array_equal(batched, sequential)

    def test_normal_mutation_batch_shape_and_bounds(self):
        mutation = NormalMutation(search_range=(-4.0, 4.0), per_element_prob=1.0)
        rows = np.sort(np.random.default_rng(3).uniform(-4, 4, size=(5, 7)), axis=1)
        out = mutation.mutate_batch(rows, np.random.default_rng(0))
        assert out.shape == rows.shape
        assert np.all(out >= -4.0) and np.all(out <= 4.0)
        assert np.all(np.diff(out, axis=1) >= 0)
