"""Figure 2 experiments.

* **Fig. 2(a)** — normalized MSE of GELU approximation (8-entry LUT) across
  scaling factors ``S = 2^0 .. 2^-6`` for NN-LUT, GQA-LUT without RM and
  GQA-LUT with RM, plus the breakdown of total error contributed by the
  large scales (the paper reports the large scales dominate with ~92.5%).
* **Fig. 2(b)** — the breakpoint-deviation analysis for EXP: the same FP
  breakpoint quantized under a large scale (``S = 2^-1``) deviates far more
  than under a small scale (``S = 2^-3``), producing a larger approximation
  error around the breakpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import default_config
from repro.core.evaluation import DEFAULT_SCALES
from repro.core.pwl import fit_pwl
from repro.experiments.jobs import ApproximationJob, SweepEngine, default_engine
from repro.experiments.methods import ApproximationBudget, METHODS
from repro.experiments.protocol import scale_sweep_mse
from repro.quant.quantizer import quantize


@dataclasses.dataclass
class Fig2aResult:
    """Per-method scale sweeps for GELU plus the large-scale error share."""

    operator: str
    num_entries: int
    sweeps: Dict[str, Dict[float, float]]
    large_scale_share: Dict[str, float]

    def normalized(self) -> Dict[str, Dict[float, float]]:
        """Each method's sweep normalised by the global maximum MSE."""
        peak = max(max(s.values()) for s in self.sweeps.values())
        if peak <= 0:
            return {m: {k: 0.0 for k in s} for m, s in self.sweeps.items()}
        return {m: {k: v / peak for k, v in s.items()} for m, s in self.sweeps.items()}

    def improvement_over(self, reference: str, method: str) -> float:
        """Average MSE ratio reference/method (how many times better)."""
        ref = np.mean(list(self.sweeps[reference].values()))
        got = np.mean(list(self.sweeps[method].values()))
        return float(ref / got) if got > 0 else float("inf")


def fig2a_jobs(
    operator: str = "gelu",
    num_entries: int = 8,
    methods: Sequence[str] = METHODS,
    budget: ApproximationBudget = ApproximationBudget(),
) -> Dict[str, ApproximationJob]:
    """The per-method cells Fig. 2(a) draws from, keyed by method."""
    return {
        method: ApproximationJob(
            operator=operator, method=method, num_entries=num_entries, budget=budget
        )
        for method in methods
    }


def run_fig2a(
    operator: str = "gelu",
    num_entries: int = 8,
    scales: Sequence[float] = DEFAULT_SCALES,
    methods: Sequence[str] = METHODS,
    budget: ApproximationBudget = ApproximationBudget(),
    large_scale_threshold: float = 2.0 ** -2,
    engine: Optional[SweepEngine] = None,
    workers: Optional[int] = None,
) -> Fig2aResult:
    """Reproduce Fig. 2(a): the GELU MSE-vs-scale comparison."""
    engine = engine if engine is not None else default_engine()
    jobs = fig2a_jobs(operator, num_entries, methods, budget)
    built = engine.run(jobs.values(), workers=workers)
    sweeps: Dict[str, Dict[float, float]] = {}
    share: Dict[str, float] = {}
    for method, job in jobs.items():
        sweep = scale_sweep_mse(operator, built[job.key], scales=scales)
        sweeps[method] = sweep
        total = sum(sweep.values())
        large = sum(v for s, v in sweep.items() if s >= large_scale_threshold)
        share[method] = large / total if total > 0 else 0.0
    return Fig2aResult(
        operator=operator, num_entries=num_entries, sweeps=sweeps, large_scale_share=share
    )


def format_fig2a(result: Fig2aResult) -> str:
    """Render Fig. 2(a) as a text table (normalized MSE per scale)."""
    scales = sorted(next(iter(result.sweeps.values())).keys(), reverse=True)
    normalized = result.normalized()
    lines = [
        "Figure 2(a): %s %d-entry normalized MSE vs scaling factor"
        % (result.operator.upper(), result.num_entries)
    ]
    header = "%-12s" % "method" + "".join("%10s" % ("2^%d" % round(np.log2(s))) for s in scales)
    lines.append(header + "%12s" % "large-S %")
    for method, sweep in normalized.items():
        row = "%-12s" % method + "".join("%10.3f" % sweep[s] for s in scales)
        row += "%11.1f%%" % (100 * result.large_scale_share[method])
        lines.append(row)
    if "nn-lut" in result.sweeps:
        for method in result.sweeps:
            if method != "nn-lut":
                lines.append(
                    "improvement of %s over nn-lut: %.2fx"
                    % (method, result.improvement_over("nn-lut", method))
                )
    return "\n".join(lines)


@dataclasses.dataclass
class Fig2bResult:
    """Breakpoint deviation of one breakpoint under two scaling factors."""

    operator: str
    breakpoint: float
    scale_large: float
    scale_small: float
    quantized_large: float
    quantized_small: float
    deviation_large: float
    deviation_small: float
    error_large: float
    error_small: float


def fig2b_job(
    operator: str = "exp",
    num_entries: int = 8,
    budget: ApproximationBudget = ApproximationBudget(),
) -> ApproximationJob:
    """The single GQA-LUT w/o RM cell Fig. 2(b) analyses."""
    return ApproximationJob(
        operator=operator, method="gqa-wo-rm", num_entries=num_entries, budget=budget
    )


def run_fig2b(
    operator: str = "exp",
    num_entries: int = 8,
    breakpoint_index: int = 3,
    scale_large: float = 2.0 ** -1,
    scale_small: float = 2.0 ** -3,
    budget: ApproximationBudget = ApproximationBudget(),
    bits: int = 8,
    engine: Optional[SweepEngine] = None,
) -> Fig2bResult:
    """Reproduce Fig. 2(b): breakpoint deviation of EXP under two scales.

    The GQA-LUT (without RM) approximation of EXP is searched; one of its
    breakpoints is quantized to the INT grid of each scale and the local
    approximation error around the breakpoint is measured for both.  The
    cell comes from the engine cache when Fig. 2(a) (or any other
    experiment) already built it.
    """
    config = default_config(operator)
    engine = engine if engine is not None else default_engine()
    pwl = engine.build(fig2b_job(operator, num_entries, budget))
    if not 0 <= breakpoint_index < pwl.breakpoints.size:
        raise ValueError("breakpoint_index out of range")
    p = float(pwl.breakpoints[breakpoint_index])

    def deviation_and_error(scale: float) -> Tuple[float, float, float]:
        p_quant = float(quantize(p, scale, bits) * scale)
        deviation = abs(p_quant - p)
        # Local error: MSE of the pwl with the single deviated breakpoint,
        # measured on a window around the original breakpoint.
        deviated_bp = pwl.breakpoints.copy()
        deviated_bp[breakpoint_index] = p_quant
        deviated = fit_pwl(config.function().fn, deviated_bp, config.search_range)
        window = np.linspace(p - 0.5, min(p + 0.5, config.search_range[1]), 200)
        reference = config.function()(window)
        error = float(np.mean((deviated(window) - reference) ** 2))
        return p_quant, deviation, error

    q_large, dev_large, err_large = deviation_and_error(scale_large)
    q_small, dev_small, err_small = deviation_and_error(scale_small)
    return Fig2bResult(
        operator=operator,
        breakpoint=p,
        scale_large=scale_large,
        scale_small=scale_small,
        quantized_large=q_large,
        quantized_small=q_small,
        deviation_large=dev_large,
        deviation_small=dev_small,
        error_large=err_large,
        error_small=err_small,
    )


def format_fig2b(result: Fig2bResult) -> str:
    """Render Fig. 2(b) as text."""
    lines = [
        "Figure 2(b): breakpoint deviation analysis (%s)" % result.operator.upper(),
        "original breakpoint p = %.4f" % result.breakpoint,
        "S = %-8g -> quantized p = %.4f, deviation = %.4f, local MSE = %.2e"
        % (result.scale_large, result.quantized_large, result.deviation_large, result.error_large),
        "S = %-8g -> quantized p = %.4f, deviation = %.4f, local MSE = %.2e"
        % (result.scale_small, result.quantized_small, result.deviation_small, result.error_small),
    ]
    if result.error_small > 0:
        lines.append(
            "error ratio (large S / small S): %.1fx"
            % (result.error_large / result.error_small)
        )
    return "\n".join(lines)


def run_fig2(
    num_entries: int = 8,
    methods: Sequence[str] = METHODS,
    budget: ApproximationBudget = ApproximationBudget(),
    fig2a_operator: str = "gelu",
    fig2b_operator: str = "exp",
    engine: Optional[SweepEngine] = None,
    workers: Optional[int] = None,
) -> Tuple[Fig2aResult, Fig2bResult]:
    """Both Fig. 2 panels in one deduplicated pass.

    The union of the panels' cells is prefetched through the engine in a
    single batch, so the ``(operator, "gqa-wo-rm", num_entries)`` pwl the
    breakpoint-deviation analysis needs is never rebuilt when the sweep of
    panel (a) — or any earlier experiment — already produced it.
    """
    engine = engine if engine is not None else default_engine()
    jobs = list(fig2a_jobs(fig2a_operator, num_entries, methods, budget).values())
    jobs.append(fig2b_job(fig2b_operator, num_entries, budget))
    engine.run(jobs, workers=workers)
    a = run_fig2a(operator=fig2a_operator, num_entries=num_entries, methods=methods,
                  budget=budget, engine=engine)
    b = run_fig2b(operator=fig2b_operator, num_entries=num_entries, budget=budget,
                  engine=engine)
    return a, b
