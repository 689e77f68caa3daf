"""Regenerate every table and figure in one deduplicated parallel pass.

:func:`run_all_experiments` enumerates the union of approximation cells
needed by Table 3, Fig. 2, Fig. 3 and the Table 4/5 fine-tuning up front,
prefetches them through a single :class:`~repro.experiments.jobs.SweepEngine`
batch — duplicates collapse, previously stored artifacts load from disk,
missing cells fan out over the process pool — and then runs each experiment
against the warm cache.  Every cell owns an explicit seed, so the combined
pass is bit-identical to running the experiments one by one.

At the default configurations the experiments request 64 cells of which
only 26 are distinct (Fig. 2/Fig. 3 and both fine-tuning tables re-use
Table 3 cells, and a DIV/RSQRT ``gqa-rm`` cell is keyed to its
``gqa-wo-rm`` twin); ``benchmarks/bench_experiment_sweep.py`` tracks the
resulting wall-clock win.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.experiments.fig2 import Fig2aResult, Fig2bResult, run_fig2
from repro.experiments.fig2 import fig2a_jobs, fig2b_job
from repro.experiments.fig3 import Fig3Result, fig3_jobs, run_fig3
from repro.experiments.jobs import (
    ApproximationJob,
    SweepEngine,
    approximation_jobs,
    default_engine,
)
from repro.experiments.methods import ApproximationBudget, METHODS
from repro.experiments.finetune import FinetuneBudget, FinetuneResult
from repro.experiments.table3 import Table3Result, run_table3, table3_jobs
from repro.experiments.table4 import TABLE4_OPERATORS, run_table4
from repro.experiments.table5 import TABLE5_OPERATORS, run_table5
from repro.experiments.table6 import Table6Result, run_table6


@dataclasses.dataclass
class AllExperimentsResult:
    """Every table and figure of the paper from one engine pass."""

    table3: Table3Result
    fig2a: Fig2aResult
    fig2b: Fig2bResult
    fig3: Fig3Result
    table6: Table6Result
    table4: Optional[FinetuneResult] = None
    table5: Optional[FinetuneResult] = None


def all_experiment_jobs(
    budget: ApproximationBudget = ApproximationBudget(),
) -> Dict[str, List[ApproximationJob]]:
    """Per-experiment job lists at the default experiment configurations.

    The lists mirror exactly what each runner enumerates (same helper
    functions), preserving each experiment's legacy iteration order; the
    benchmark uses them as the sequential baseline's work list.
    """
    return {
        "table3": list(table3_jobs(budget=budget).values()),
        "fig2a": list(fig2a_jobs(budget=budget).values()),
        "fig2b": [fig2b_job(budget=budget)],
        "fig3": list(fig3_jobs(budget=budget).values()),
        "table4_approx": approximation_jobs(TABLE4_OPERATORS, METHODS, budget=budget),
        "table5_approx": approximation_jobs(TABLE5_OPERATORS, METHODS, budget=budget),
    }


def run_all_experiments(
    approx_budget: ApproximationBudget = ApproximationBudget(),
    finetune_budget: FinetuneBudget = FinetuneBudget(),
    engine: Optional[SweepEngine] = None,
    workers: Optional[int] = None,
    include_finetune: bool = True,
    include_individual: bool = True,
    run_dir: Optional[str] = None,
) -> AllExperimentsResult:
    """Run every experiment against one shared, prefetched artifact cache.

    Parameters
    ----------
    engine:
        Shared sweep engine (the process-wide default when omitted); attach
        an on-disk store to it to share artifacts across invocations.
    workers:
        Process count for the prefetch batch; ``0``/``None`` keeps it
        serial.
    include_finetune:
        The Table 4/5 fine-tuning protocol trains models for minutes even
        at quick budgets; set ``False`` to regenerate only the operator-
        level tables and figures (their approximation cells are prefetched
        either way, matching what the fine-tuning would consume).
    run_dir:
        Durable-run directory for the prefetch batch.  When given, the
        batch is journaled and crash-safe: kill the process at any point
        and rerunning with the same ``run_dir`` finishes the remaining
        cells without rebuilding completed ones (see
        :meth:`~repro.experiments.jobs.SweepEngine.resume`).  Every cell
        is seeded, so the recorded numbers are unchanged.
    """
    engine = engine if engine is not None else default_engine()
    per_experiment = all_experiment_jobs(approx_budget)
    union: List[ApproximationJob] = [
        job for jobs in per_experiment.values() for job in jobs
    ]
    engine.run(union, workers=workers, run_dir=run_dir)

    table3 = run_table3(budget=approx_budget, engine=engine)
    fig2a, fig2b = run_fig2(budget=approx_budget, engine=engine)
    fig3 = run_fig3(budget=approx_budget, engine=engine)
    table6 = run_table6()
    table4 = table5 = None
    if include_finetune:
        table4 = run_table4(budget=finetune_budget, approx_budget=approx_budget,
                            engine=engine, include_individual=include_individual)
        table5 = run_table5(budget=finetune_budget, approx_budget=approx_budget,
                            engine=engine, include_individual=include_individual)
    return AllExperimentsResult(
        table3=table3, fig2a=fig2a, fig2b=fig2b, fig3=fig3,
        table6=table6, table4=table4, table5=table5,
    )
