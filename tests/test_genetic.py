"""Tests for the genetic search (Algorithm 1), mutations (Algorithm 2) and
fitness functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIGS, GA_DEFAULTS, default_config
from repro.core.fitness import GridMSEFitness, QuantizedMSEFitness
from repro.core.genetic import GAResult, GASettings, GeneticSearch
from repro.core.mutation import NormalMutation, RoundingMutation
from repro.core.pwl import uniform_breakpoints
from repro.core.search import GQALUT
from repro.functions.registry import get_function


class TestGASettings:
    def test_defaults_match_table1_caption(self):
        settings = GASettings()
        assert settings.num_breakpoints == 7
        assert settings.population_size == 50
        assert settings.crossover_prob == 0.7
        assert settings.mutation_prob == 0.2
        assert settings.generations == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_breakpoints": 0},
            {"population_size": 1},
            {"crossover_prob": 1.5},
            {"mutation_prob": -0.1},
            {"generations": 0},
            {"tournament_size": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GASettings(**kwargs)


class TestMutations:
    def test_normal_mutation_stays_in_range_and_sorted(self, rng):
        mutation = NormalMutation(search_range=(-4.0, 4.0), sigma_fraction=0.2,
                                  per_element_prob=1.0)
        bp = np.array([-3.0, 0.0, 3.0])
        for _ in range(20):
            out = mutation(bp, rng)
            assert np.all(out >= -4.0) and np.all(out <= 4.0)
            assert np.all(np.diff(out) >= 0)

    def test_rounding_mutation_theta_zero_is_identity(self, rng):
        mutation = RoundingMutation(mutate_range=(0, 6), theta_r=0.0)
        bp = np.array([-1.234, 0.567, 2.891])
        np.testing.assert_allclose(mutation(bp, rng), np.sort(bp))

    def test_rounding_mutation_scalar_grid(self):
        mutation = RoundingMutation(mutate_range=(0, 6), theta_r=0.05)
        # rand_p = 0.02 lands in slot i=0 -> integer grid.
        assert mutation.mutate_scalar(1.4, 0.02) == pytest.approx(1.0)
        # rand_p = 0.07 lands in slot i=1 -> half grid.
        assert mutation.mutate_scalar(1.4, 0.07) == pytest.approx(1.5)
        # rand_p = 0.9 lands in no slot -> unchanged.
        assert mutation.mutate_scalar(1.4, 0.9) == pytest.approx(1.4)

    def test_rounding_mutation_respects_mutate_range(self):
        mutation = RoundingMutation(mutate_range=(2, 6), theta_r=0.05)
        # Slot for i=0/1 does not exist: rand_p=0.02 is below ma*theta_r.
        assert mutation.mutate_scalar(1.4, 0.02) == pytest.approx(1.4)
        # rand_p=0.12 lands in i=2 -> quarter grid.
        assert mutation.mutate_scalar(1.4, 0.12) == pytest.approx(1.5)

    def test_rounding_mutation_output_sorted(self, rng):
        mutation = RoundingMutation(mutate_range=(0, 6), theta_r=0.05,
                                    search_range=(-8.0, 0.0))
        bp = np.sort(rng.uniform(-8, 0, size=7))
        out = mutation(bp, rng)
        assert np.all(np.diff(out) >= 0)
        assert np.all(out >= -8.0) and np.all(out <= 0.0)

    def test_rounding_mutation_invalid_params(self):
        with pytest.raises(ValueError):
            RoundingMutation(mutate_range=(3, 1))
        with pytest.raises(ValueError):
            RoundingMutation(theta_r=-0.1)

    @given(
        st.lists(st.floats(-8, 8), min_size=1, max_size=12),
        st.lists(st.one_of(st.floats(0, 1), st.integers(0, 8).map(lambda i: i * 0.05)),
                 min_size=12, max_size=12),
        st.integers(0, 6).flatmap(lambda ma: st.tuples(st.just(ma), st.integers(ma, 6))),
        st.sampled_from([0.05, 0.1, 0.125, 0.3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_pass_rounding_matches_scalar_slots(self, points, rands, mutate_range, theta_r):
        """The searchsorted slot lookup rounds exactly like Algorithm 2's
        per-exponent scan, including draws that sit on a slot bound."""
        mutation = RoundingMutation(mutate_range=mutate_range, theta_r=theta_r)
        bp = np.array(points)
        r = np.array(rands[: bp.size])
        expected = np.array([mutation.mutate_scalar(p, q) for p, q in zip(points, r.tolist())])
        assert mutation._apply_rands(bp, r).tobytes() == expected.tobytes()

    @given(st.floats(-8, 8), st.floats(0, 1), st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_rounded_breakpoint_lands_on_some_grid(self, p, rand_p, i):
        mutation = RoundingMutation(mutate_range=(0, 6), theta_r=0.05)
        out = mutation.mutate_scalar(p, rand_p)
        # The result is either unchanged or on one of the 2^-i grids.
        if out != pytest.approx(p):
            on_grid = any(
                abs(out * (2 ** k) - round(out * (2 ** k))) < 1e-9 for k in range(0, 7)
            )
            assert on_grid


class TestFitness:
    def test_grid_mse_zero_for_linear_function(self):
        fn = get_function("gelu").with_range(-4, 4)
        linear = fn.__class__("identity", lambda x: np.asarray(x, dtype=np.float64),
                              (-4.0, 4.0))
        fitness = GridMSEFitness(linear, grid_step=0.1)
        assert fitness(np.array([-2.0, 0.0, 2.0])) == pytest.approx(0.0, abs=1e-20)

    def test_grid_mse_positive_for_curved_function(self):
        fitness = GridMSEFitness(get_function("gelu"), grid_step=0.05)
        assert fitness(uniform_breakpoints(-4, 4, 8)) > 0

    def test_better_breakpoints_score_lower(self):
        fitness = GridMSEFitness(get_function("exp"), grid_step=0.05)
        uniform = fitness(uniform_breakpoints(-8, 0, 8))
        # Breakpoints concentrated where exp curves (near 0) should do better.
        concentrated = fitness(np.array([-4.0, -3.0, -2.25, -1.6, -1.0, -0.55, -0.2]))
        assert concentrated < uniform

    def test_fxp_aware_fitness_not_lower_than_fp(self):
        fn = get_function("gelu")
        bp = uniform_breakpoints(-4, 4, 8)
        fp = GridMSEFitness(fn, grid_step=0.05)(bp)
        fxp = GridMSEFitness(fn, grid_step=0.05, frac_bits=5)(bp)
        assert fxp >= fp

    def test_quantized_fitness_runs_and_is_positive(self):
        fitness = QuantizedMSEFitness(get_function("gelu"), scales=(0.5, 0.25))
        assert fitness(uniform_breakpoints(-4, 4, 8)) > 0


class TestGeneticSearch:
    def _search(self, use_patience=False, elitism=False, seed=0):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.05)
        settings = GASettings(num_breakpoints=7, population_size=12, generations=20,
                              seed=seed, elitism=elitism)
        ga = GeneticSearch(fitness, fn.search_range, settings)
        return ga.run(patience=5 if use_patience else None)

    def test_result_structure(self):
        result = self._search()
        assert isinstance(result, GAResult)
        assert result.best_breakpoints.size == 7
        assert result.best_fitness > 0
        assert result.best_ever_fitness == result.history[-1] == min(result.history)
        assert len(result.history) == result.generations_run
        assert result.evaluations >= 12 * result.generations_run

    def test_history_is_monotone_nonincreasing(self):
        result = self._search()
        diffs = np.diff(result.history)
        assert np.all(diffs <= 1e-15)

    def test_search_beats_random_initialisation(self):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.05)
        rng = np.random.default_rng(0)
        random_scores = [
            fitness(np.sort(rng.uniform(-4, 4, 7))) for _ in range(12)
        ]
        result = self._search()
        assert result.best_ever_fitness <= min(random_scores)

    def test_deterministic_given_seed(self):
        a = self._search(seed=7)
        b = self._search(seed=7)
        np.testing.assert_allclose(a.best_breakpoints, b.best_breakpoints)
        assert a.best_fitness == pytest.approx(b.best_fitness)

    def test_different_seeds_differ(self):
        a = self._search(seed=1)
        b = self._search(seed=2)
        assert not np.allclose(a.best_breakpoints, b.best_breakpoints)

    def test_patience_stops_early(self):
        result = self._search(use_patience=True)
        assert result.generations_run <= 20

    def test_converged_early_reports_a_patience_stop(self):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.05)
        settings = GASettings(num_breakpoints=7, population_size=8, generations=200, seed=0)
        stopped = GeneticSearch(fitness, fn.search_range, settings).run(patience=3)
        assert stopped.converged_early
        assert stopped.generations_run < settings.generations
        full = GeneticSearch(fitness, fn.search_range, settings).run()
        assert not full.converged_early
        assert full.generations_run == settings.generations

    def test_non_finite_search_range_rejected(self):
        fitness = GridMSEFitness(get_function("gelu"), grid_step=0.1)
        with pytest.raises(ValueError):
            GeneticSearch(fitness, (-np.inf, 4.0))

    def test_nan_from_mutation_rejected(self):
        class NaNMutation(NormalMutation):
            def mutate_batch(self, rows, rng):
                return np.full(np.shape(rows), np.nan)

        fn = get_function("gelu")
        settings = GASettings(num_breakpoints=3, population_size=6, generations=5,
                              mutation_prob=1.0, seed=0)
        ga = GeneticSearch(GridMSEFitness(fn, grid_step=0.1), fn.search_range, settings,
                           mutation=NaNMutation(search_range=fn.search_range))
        with pytest.raises(ValueError):
            ga.run()

    def test_invalid_range_rejected(self):
        fn = get_function("gelu")
        fitness = GridMSEFitness(fn, grid_step=0.1)
        with pytest.raises(ValueError):
            GeneticSearch(fitness, (4.0, -4.0))

    def test_breakpoints_stay_inside_range(self):
        result = self._search()
        assert np.all(result.best_breakpoints >= -4.0)
        assert np.all(result.best_breakpoints <= 4.0)


class TestConfig:
    def test_table1_rows_present(self):
        assert set(DEFAULT_CONFIGS) == {"gelu", "hswish", "exp", "div", "rsqrt"}

    def test_table1_values(self):
        gelu = DEFAULT_CONFIGS["gelu"]
        assert gelu.search_range == (-4.0, 4.0)
        assert gelu.theta_r == 0.05
        assert gelu.rm_range_8 == (0, 6)
        exp = DEFAULT_CONFIGS["exp"]
        assert exp.rm_range_8 == (2, 6)
        assert exp.rm_range_16 == (0, 6)
        hswish = DEFAULT_CONFIGS["hswish"]
        assert hswish.rm_range_16 == (2, 6)
        assert DEFAULT_CONFIGS["div"].theta_r == 0.0
        assert DEFAULT_CONFIGS["rsqrt"].theta_r == 0.0

    def test_defaults_match_caption(self):
        assert GA_DEFAULTS.num_breakpoints == 7
        assert GA_DEFAULTS.population_size == 50
        assert GA_DEFAULTS.crossover_prob == 0.7
        assert GA_DEFAULTS.mutation_prob == 0.2
        assert GA_DEFAULTS.generations == 500
        assert GA_DEFAULTS.frac_bits == 5

    def test_rm_range_selection_by_entries(self):
        exp = DEFAULT_CONFIGS["exp"]
        assert exp.rm_range(8) == (2, 6)
        assert exp.rm_range(16) == (0, 6)

    def test_ga_settings_override(self):
        cfg = default_config("gelu")
        settings = cfg.ga_settings(num_entries=16, generations=10, population_size=8)
        assert settings.num_breakpoints == 15
        assert settings.generations == 10
        assert settings.population_size == 8

    def test_unlisted_operator_gets_generic_config(self):
        cfg = default_config("sigmoid")
        assert cfg.search_range == get_function("sigmoid").search_range
        assert cfg.theta_r == 0.05


class TestGQALUTSearch:
    def test_outcome_structure(self, quick_gelu_outcome):
        outcome = quick_gelu_outcome
        assert outcome.num_entries == 8
        assert outcome.pwl_fp.num_entries == 8
        assert outcome.pwl_fxp.num_entries == 8
        assert outcome.breakpoints.size == 7
        assert outcome.frac_bits == 5

    def test_fxp_parameters_on_grid(self, quick_gelu_outcome):
        fxp = quick_gelu_outcome.pwl_fxp
        np.testing.assert_allclose(fxp.slopes * 32, np.round(fxp.slopes * 32))

    def test_float_mse_reasonable(self, quick_gelu_outcome):
        # Even a tiny search should approximate GELU to ~1e-3 on its range.
        assert quick_gelu_outcome.float_mse() < 5e-3

    def test_quantized_lut_deployment(self, quick_gelu_outcome):
        lut = quick_gelu_outcome.quantized_lut(scale=0.25)
        x = np.linspace(-4, 4, 65)
        y = lut(x)
        reference = get_function("gelu")(x)
        assert np.mean((y - reference) ** 2) < 1e-2

    def test_evaluate_returns_all_scales(self, quick_gelu_outcome):
        sweep = quick_gelu_outcome.evaluate()
        assert len(sweep) == 7
        assert all(v >= 0 for v in sweep.values())

    def test_average_mse_is_mean_of_sweep(self, quick_gelu_outcome):
        sweep = quick_gelu_outcome.evaluate()
        assert quick_gelu_outcome.average_mse() == pytest.approx(
            float(np.mean(list(sweep.values())))
        )

    def test_rm_disabled_for_div(self):
        searcher = GQALUT.for_operator("div", num_entries=8, use_rm=True)
        # DIV has theta_r = 0 so the mutation falls back to Gaussian.
        assert isinstance(searcher._mutation(), NormalMutation)

    def test_rm_enabled_for_gelu(self):
        searcher = GQALUT.for_operator("gelu", num_entries=8, use_rm=True)
        assert isinstance(searcher._mutation(), RoundingMutation)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            GQALUT(get_function("gelu"), num_entries=1)

    def test_search_respects_entry_count(self):
        outcome = GQALUT.for_operator("exp", num_entries=4, use_rm=False).search(
            generations=5, population_size=8, seed=0
        )
        assert outcome.pwl_fxp.num_entries == 4
