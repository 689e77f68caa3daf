"""Genetic breakpoint search (Algorithm 1 of the paper).

The search maintains a population of breakpoint sets.  Each generation:

1. every individual is scored by the fitness function (grid MSE),
2. with probability ``theta_c`` an individual exchanges a random contiguous
   segment of its breakpoint vector with another randomly chosen individual
   (crossover),
3. with probability ``theta_m`` the mutation function is applied
   (Gaussian noise, or Rounding Mutation when the RM strategy is enabled),
4. the next generation is formed by 3-way tournament selection.

The search returns the fittest individual of the *final* generation, as in
Algorithm 1 (line 20).  This matters for the Rounding Mutation strategy:
after many generations of RM the surviving population is biased toward
breakpoints that sit on coarse power-of-two grids, and picking from that
final population is what makes the deployed breakpoints robust to
quantization.  Optional elitism (off by default, as in the paper) can be
enabled to stabilise the plain-Gaussian variant.

Between two scorings the population is held as ``P`` Python float lists,
one per individual.  A generation works on rows of 7 or 15 breakpoints,
where a numpy call costs more than its arithmetic, so only the random
draws, the tournament argmin, the mutation of the gated rows and the
fitness itself run as array operations; crossover swaps are list slice
exchanges followed by a sort.  Every row stays byte-identical to what the
same steps produce on a ``(P, N_b)`` float64 matrix; the one place the two
sorts can disagree, mixed ``0.0``/``-0.0``, is handled in
:func:`swap_segment`.

Scoring de-duplicates the population, filters it through a
cross-generation score cache keyed by each row's raw float64 bytes, and
stacks only the misses into one :meth:`FitnessFunction.batch_call`.  The
batched fitness implementations are bit-identical to their scalar
counterparts, so a seeded run follows the same trajectory, and returns
the same breakpoints and fitness values, as one scalar fitness call per
individual; ``tests/oracles.py`` keeps that per-row scorer as the
reference (see DESIGN.md for the full contract).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.fitness import FitnessFunction
from repro.core.mutation import MutationFunction, NormalMutation

# Upper bound on cached (breakpoints -> score) entries; oldest entries are
# evicted first.  At the Table 1 budget a full run touches well under 2^15
# distinct individuals, so the default never evicts in practice.
DEFAULT_CACHE_SIZE = 1 << 16


def swap_segment(a: List[float], b: List[float], start: int, stop: int) -> None:
    """Exchange ``[start, stop)`` between two rows in place, then re-sort both.

    The rows must end up byte-identical to sorting them as float64 arrays.
    ``list.sort`` and ``ndarray.sort`` both treat ``0.0 == -0.0`` but may
    leave mixed signed zeros in different orders, so a row holding two or
    more zeros is sorted by ``ndarray.sort``.  Elsewhere, equal floats are
    bitwise equal, so any sort gives the same bytes (rows never hold NaN;
    see :meth:`GeneticSearch._mutate`).
    """
    segment = a[start:stop]
    a[start:stop] = b[start:stop]
    b[start:stop] = segment
    for row in (a, b):
        if row.count(0.0) > 1:
            values = np.array(row)
            values.sort()
            row[:] = values.tolist()
        else:
            row.sort()


@dataclasses.dataclass(frozen=True)
class GASettings:
    """Hyper-parameters of Algorithm 1.

    Defaults follow the caption of Table 1: ``N_b = 7`` breakpoints
    (8-entry pwl), population 50, crossover probability 0.7, mutation
    probability 0.2, 500 generations.
    """

    num_breakpoints: int = 7
    population_size: int = 50
    crossover_prob: float = 0.7
    mutation_prob: float = 0.2
    generations: int = 500
    tournament_size: int = 3
    elitism: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_breakpoints < 1:
            raise ValueError("need at least one breakpoint")
        if self.population_size < 2:
            raise ValueError("population must hold at least two individuals")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if self.tournament_size < 1:
            raise ValueError("tournament size must be positive")


@dataclasses.dataclass
class GAResult:
    """Outcome of a genetic search.

    ``best_breakpoints`` / ``best_fitness`` describe the fittest individual
    of the final generation (the paper's selection rule);
    ``best_ever_breakpoints`` / ``best_ever_fitness`` track the fittest
    individual of the generations scored inside the loop (the ones
    ``history`` records, so ``best_ever_fitness == history[-1]``), which is
    useful for diagnosing how much the mutation pressure trades raw FP
    fitness for robustness.  The final generation re-scored after the loop
    is not folded in, so ``best_fitness`` may be lower than
    ``best_ever_fitness``.

    ``evaluations`` counts logical fitness evaluations (population size per
    scored generation, as Algorithm 1 accounts them); ``fitness_calls`` is
    how many individuals were actually pushed through the fitness function
    after de-duplication and score caching, and ``cache_hits`` is the number
    of logical evaluations answered without any fitness work, so
    ``fitness_calls + cache_hits == evaluations``.

    ``converged_early`` is true when the ``patience`` rule of
    :meth:`GeneticSearch.run` stopped the loop.
    """

    best_breakpoints: np.ndarray
    best_fitness: float
    best_ever_breakpoints: np.ndarray
    best_ever_fitness: float
    history: List[float]
    generations_run: int
    evaluations: int
    fitness_calls: int = 0
    cache_hits: int = 0
    converged_early: bool = False


class GeneticSearch:
    """Runs Algorithm 1 for a given fitness and mutation operator.

    Parameters
    ----------
    fitness, search_range, settings, mutation:
        As in Algorithm 1 (see the module docstring).
    cache_size:
        Maximum number of cached (breakpoints -> score) entries; oldest
        entries are evicted first.  ``0`` keeps no score across
        generations (rows repeated within one generation are still scored
        once).
    """

    def __init__(
        self,
        fitness: FitnessFunction,
        search_range: Tuple[float, float],
        settings: GASettings = GASettings(),
        mutation: Optional[MutationFunction] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        lo, hi = search_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("invalid search range [%r, %r]" % (lo, hi))
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0, got %r" % (cache_size,))
        self.fitness = fitness
        self.search_range = (float(lo), float(hi))
        self.settings = settings
        self.mutation = mutation or NormalMutation(search_range=self.search_range)
        self._rng = np.random.default_rng(settings.seed)
        # ``struct`` packs a row of Python floats into the same native
        # float64 bytes as ``ndarray.tobytes()``: the score-cache key.
        self._pack_row = struct.Struct("%dd" % settings.num_breakpoints).pack
        self._cache: Dict[bytes, float] = {}
        self._cache_size = int(cache_size)
        self._fitness_calls = 0
        self._cache_hits = 0

    # -- population handling -------------------------------------------------

    def _initial_population(self) -> List[List[float]]:
        """Random sorted individuals, one float list per row."""
        lo, hi = self.search_range
        population = self._rng.uniform(
            lo, hi, size=(self.settings.population_size, self.settings.num_breakpoints)
        )
        return np.sort(population, axis=1).tolist()

    def _tournament(self, population: List[List[float]], scores: np.ndarray) -> List[List[float]]:
        """3-way tournament selection (lower score wins), fully vectorized.

        One ``(P, T)`` contender draw replaces the per-individual loop; the
        draw consumes the random stream exactly like ``P`` separate size-``T``
        draws, so seeded trajectories are unchanged.  Winners are copied,
        because crossover swaps segments in place.
        """
        count = len(population)
        contenders = self._rng.integers(
            0, count, size=(count, self.settings.tournament_size)
        )
        winners = contenders[np.arange(count), np.argmin(scores[contenders], axis=1)]
        return [population[w][:] for w in winners.tolist()]

    def _crossover(self, population: List[List[float]]) -> None:
        """Apply probabilistic segment-swap crossover to the rows in place.

        All randomness is drawn up front in four vectorized calls (gate
        mask, partners, window starts, window stops — the documented draw
        order); only the swaps themselves run sequentially, because an
        individual touched by one exchange may be a partner in the next.
        The window ``[start, stop)`` draws ``start`` over *all* indices, so
        the top breakpoint is exchanged as often as any other.
        """
        count, n = len(population), self.settings.num_breakpoints
        gates = self._rng.random(count) < self.settings.crossover_prob
        (triggered,) = np.nonzero(gates)
        if triggered.size == 0:
            return
        partners = self._rng.integers(0, count, size=triggered.size)
        if n < 2:
            return
        starts = self._rng.integers(0, n, size=triggered.size)
        stops = self._rng.integers(starts + 1, n + 1)
        for i, j, start, stop in zip(
            triggered.tolist(), partners.tolist(), starts.tolist(), stops.tolist()
        ):
            if j == i:
                j = (j + 1) % count
            swap_segment(population[i], population[j], start, stop)

    def _mutate(self, population: List[List[float]]) -> None:
        """Mutate gated rows through one batched operator application."""
        gates = self._rng.random(len(population)) < self.settings.mutation_prob
        (triggered,) = np.nonzero(gates)
        if triggered.size == 0:
            return
        rows = triggered.tolist()
        mutated = np.asarray(
            self.mutation.mutate_batch(np.array([population[i] for i in rows]), self._rng),
            dtype=np.float64,
        )
        if mutated.shape != (len(rows), self.settings.num_breakpoints):
            raise ValueError(
                "mutate_batch returned shape %r for %d individuals"
                % (mutated.shape, len(rows))
            )
        # Rows are sorted as lists by swap_segment, which orders NaN unlike
        # ndarray.sort; the initial population and the built-in operators
        # never produce one.
        if np.isnan(mutated).any():
            raise ValueError("mutate_batch returned NaN breakpoints")
        for i, row in zip(rows, mutated.tolist()):
            population[i] = row

    # -- scoring -------------------------------------------------------------

    def _score(self, population: List[List[float]]) -> np.ndarray:
        """Score every row, de-duplicating and consulting the cache first.

        Tournament selection copies winners, crossover/mutation fire
        probabilistically and RM rounds breakpoints onto coarse grids, so a
        generation routinely repeats rows — within itself and across
        generations.  Each distinct row (keyed by its raw float64 bytes) is
        scored once, all cache misses in one
        :meth:`FitnessFunction.batch_call`; everything else is answered
        from the cache.
        """
        cache = self._cache
        keys = list(itertools.starmap(self._pack_row, population))
        scores = list(map(cache.get, keys))
        misses: Dict[bytes, List[float]] = {}
        for key, row, score in zip(keys, population, scores):
            if score is None:
                misses.setdefault(key, row)
        self._cache_hits += len(population) - len(misses)
        if misses:
            values = np.asarray(
                self.fitness.batch_call(np.array(list(misses.values()))), dtype=np.float64
            )
            if values.shape != (len(misses),):
                raise ValueError(
                    "batch_call returned shape %r for %d individuals"
                    % (values.shape, len(misses))
                )
            self._fitness_calls += len(misses)
            cache.update(zip(misses, values.tolist()))
            scores = list(map(cache.__getitem__, keys))
            while len(cache) > self._cache_size:
                cache.pop(next(iter(cache)))
        return np.array(scores, dtype=np.float64)

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        callback: Optional[Callable[[int, float, np.ndarray], None]] = None,
        patience: Optional[int] = None,
        tol: float = 0.0,
    ) -> GAResult:
        """Execute the evolutionary loop.

        Parameters
        ----------
        callback:
            Optional ``callback(generation, best_fitness, best_individual)``
            invoked once per generation.
        patience:
            Stop early when the best fitness has not improved by more than
            ``tol`` for ``patience`` consecutive generations.
        """
        settings = self.settings
        # Per-run work counters; the score cache itself is kept warm across
        # runs (cached scores are exact, so trajectories are unaffected).
        self._fitness_calls = 0
        self._cache_hits = 0
        population = self._initial_population()
        best_ever_bp: Optional[np.ndarray] = None
        best_ever_fit = float("inf")
        history: List[float] = []
        evaluations = 0
        stale = 0
        generations_run = 0
        converged_early = False

        for generation in range(settings.generations):
            generations_run = generation + 1
            scores = self._score(population)
            evaluations += len(population)

            gen_best_idx = int(np.argmin(scores))
            improved = scores[gen_best_idx] < best_ever_fit - tol
            if scores[gen_best_idx] < best_ever_fit:
                best_ever_fit = float(scores[gen_best_idx])
                best_ever_bp = np.array(population[gen_best_idx])
            history.append(best_ever_fit)
            if callback is not None:
                callback(generation, best_ever_fit, best_ever_bp)

            stale = 0 if improved else stale + 1
            if patience is not None and stale >= patience:
                converged_early = True
                break

            # Selection, then in-place crossover and mutation on the rows.
            next_population = self._tournament(population, scores)
            self._crossover(next_population)
            self._mutate(next_population)

            # Optional elitism: keep the best-so-far individual alive.
            if settings.elitism and best_ever_bp is not None:
                next_population[0] = best_ever_bp.tolist()

            population = next_population

        if best_ever_bp is None:  # pragma: no cover - defensive; generations >= 1
            raise RuntimeError("genetic search produced no individuals")

        # Algorithm 1 line 20: the answer is the fittest individual of the
        # final generation (which, under RM, carries the quantization-robust
        # grid-aligned breakpoints).
        final_scores = self._score(population)
        evaluations += len(population)
        final_best_idx = int(np.argmin(final_scores))

        return GAResult(
            best_breakpoints=np.array(population[final_best_idx]),
            best_fitness=float(final_scores[final_best_idx]),
            best_ever_breakpoints=best_ever_bp,
            best_ever_fitness=best_ever_fit,
            history=history,
            generations_run=generations_run,
            evaluations=evaluations,
            fitness_calls=self._fitness_calls,
            cache_hits=self._cache_hits,
            converged_early=converged_early,
        )
