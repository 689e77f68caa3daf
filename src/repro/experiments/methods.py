"""Shared construction of the compared approximation methods.

Three methods appear throughout the evaluation:

* ``"nn-lut"``      — the NN-LUT baseline (trained MLP, exact pwl extraction),
* ``"gqa-wo-rm"``   — GQA-LUT with conventional Gaussian mutation,
* ``"gqa-rm"``      — GQA-LUT with the Rounding Mutation strategy.

All three produce a :class:`PiecewiseLinear` whose slopes and intercepts are
FXP-rounded with the operator's ``lambda`` (Table 1), so the downstream
quantized evaluation treats them identically.

:func:`compute_approximation` is the raw, cache-oblivious builder — every
cell is seeded, so it is a pure function of its arguments.  The public
:func:`build_approximation` / :func:`build_approximations` route through the
sweep engine (:mod:`repro.experiments.jobs`), which deduplicates, caches
(in-process and optionally on disk) and can fan cells across a process
pool; results are bit-identical either way.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple, TYPE_CHECKING

from repro.baselines.nn_lut import NNLUT, NNLUTTrainingConfig
from repro.core.config import DEFAULT_CONFIGS, default_config
from repro.core.pwl import PiecewiseLinear
from repro.core.search import GQALUT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.jobs import SweepEngine

# Canonical method identifiers, in the order the paper's tables list them.
METHODS: Tuple[str, ...] = ("nn-lut", "gqa-wo-rm", "gqa-rm")


@dataclasses.dataclass(frozen=True)
class ApproximationBudget:
    """Search/training budget knobs shared by the experiment runners.

    The paper's full budget is ``generations=500`` (Table 1 caption) and
    100K NN-LUT samples; the defaults here are lighter so that a complete
    table regenerates in minutes, and tests use even smaller values.
    """

    generations: int = 150
    population_size: int = 50
    nn_lut_samples: int = 20_000
    nn_lut_iterations: int = 1500
    seed: int = 0

    @classmethod
    def paper(cls) -> "ApproximationBudget":
        """The budget matching the paper's reported configuration."""
        return cls(generations=500, population_size=50,
                   nn_lut_samples=100_000, nn_lut_iterations=3000, seed=0)

    @classmethod
    def quick(cls) -> "ApproximationBudget":
        """A tiny budget for unit tests and smoke runs."""
        return cls(generations=25, population_size=16,
                   nn_lut_samples=3000, nn_lut_iterations=300, seed=0)


def resolved_method(operator: str, method: str) -> str:
    """The method label of the search a cell actually runs.

    ``"gqa-rm"`` resolves to ``"gqa-wo-rm"`` where Rounding Mutation
    cannot fire (:attr:`OperatorSearchConfig.rm_fires` is false, the
    predicate :attr:`GQALUT.uses_rm` reads: the DIV/RSQRT rows of Table 1):
    both labels run the same seeded search and build bit-identical pwls.
    Every other label resolves to itself.  Only Table 1 rows are looked up
    (operators outside it get ``theta_r = 0.05`` from
    :func:`default_config`), so resolving never raises: an unknown
    operator keeps its label and fails in its build, like any bad cell.
    """
    config = DEFAULT_CONFIGS.get(operator.lower())
    if method == "gqa-rm" and config is not None and not config.rm_fires:
        return "gqa-wo-rm"
    return method


def compute_approximation(
    operator: str,
    method: str,
    num_entries: int = 8,
    budget: ApproximationBudget = ApproximationBudget(),
) -> PiecewiseLinear:
    """Build one (operator, method, entry-count) cell from scratch.

    This is the raw sequential path — no cache, no engine — kept as the
    bit-parity reference for the sweep engine and used by its workers.
    """
    config = default_config(operator)
    if method == "nn-lut":
        nn = NNLUT(
            config.function(),
            num_entries=num_entries,
            config=NNLUTTrainingConfig(
                num_samples=budget.nn_lut_samples,
                iterations=budget.nn_lut_iterations,
                seed=budget.seed,
            ),
        )
        nn.train()
        return nn.extract_fxp_pwl(frac_bits=config.frac_bits)
    if method in ("gqa-wo-rm", "gqa-rm"):
        searcher = GQALUT.for_operator(
            operator, num_entries=num_entries, use_rm=(method == "gqa-rm")
        )
        outcome = searcher.search(
            generations=budget.generations,
            population_size=budget.population_size,
            seed=budget.seed,
        )
        return outcome.pwl_fxp
    raise ValueError("unknown method %r; expected one of %s" % (method, METHODS))


def build_approximation(
    operator: str,
    method: str,
    num_entries: int = 8,
    budget: ApproximationBudget = ApproximationBudget(),
    engine: Optional["SweepEngine"] = None,
) -> PiecewiseLinear:
    """Produce the FXP pwl for one (operator, method, entry-count) triple.

    Routed through ``engine`` (the process-wide default when omitted), so a
    cell already built by any experiment in this process — or present in the
    configured on-disk artifact store — is returned without recomputation.
    """
    from repro.experiments.jobs import ApproximationJob, default_engine

    engine = engine if engine is not None else default_engine()
    return engine.build(
        ApproximationJob(operator=operator, method=method,
                         num_entries=num_entries, budget=budget)
    )


def build_approximations(
    operators: Iterable[str],
    methods: Iterable[str] = METHODS,
    num_entries: int = 8,
    budget: ApproximationBudget = ApproximationBudget(),
    engine: Optional["SweepEngine"] = None,
    workers: Optional[int] = None,
) -> Dict[Tuple[str, str], PiecewiseLinear]:
    """Build every (operator, method) combination; keyed by that pair.

    The full grid is enumerated up front and handed to the sweep engine in
    one batch, so independent cells can run in parallel (``workers``) and
    duplicates with previously built artifacts cost nothing.
    """
    from repro.experiments.jobs import approximation_jobs, default_engine

    engine = engine if engine is not None else default_engine()
    operators, methods = tuple(operators), tuple(methods)
    # Shared enumerator: run_all's prefetch uses the same function, so the
    # prefetched cell set can never drift from what this actually requests.
    jobs = approximation_jobs(operators, methods, num_entries=num_entries, budget=budget)
    built = engine.run(jobs, workers=workers)
    cells = [(operator, method) for operator in operators for method in methods]
    return {cell: built[job.key] for cell, job in zip(cells, jobs)}
