"""Integration tests for the experiment runners (quick budgets).

These exercise the full pipelines behind every table/figure with small
search/training budgets, checking structure and the invariants that should
hold regardless of budget.  The recorded paper-scale numbers live in
EXPERIMENTS.md and are regenerated by the benchmarks.
"""

import numpy as np
import pytest

from repro.experiments import (
    ApproximationBudget,
    METHODS,
    build_approximation,
    build_approximations,
    format_fig2a,
    format_fig2b,
    format_fig3,
    format_table3,
    format_table6_experiment,
    run_fig2a,
    run_fig2b,
    run_fig3,
    run_table3,
    run_table6,
)
from repro.experiments.finetune import FinetuneBudget, run_finetune_experiment, format_finetune_table
from repro.experiments.protocol import average_mse, normalize, scale_sweep_mse, wide_range_mse
from repro.experiments.table4 import TABLE4_OPERATORS
from repro.experiments.table5 import TABLE5_OPERATORS, format_table5, run_table5
from repro.hardware.cost_model import Precision
from repro.nn.models import MiniEfficientViT

QUICK = ApproximationBudget.quick()


class TestMethods:
    def test_build_each_method(self):
        for method in METHODS:
            pwl = build_approximation("gelu", method, num_entries=8, budget=QUICK)
            assert pwl.num_entries == 8

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            build_approximation("gelu", "magic", budget=QUICK)

    def test_build_approximations_keys(self):
        table = build_approximations(["exp"], methods=("gqa-rm",), budget=QUICK)
        assert set(table) == {("exp", "gqa-rm")}

    def test_budget_presets(self):
        assert ApproximationBudget.paper().generations == 500
        assert ApproximationBudget.quick().generations < 100


class TestProtocol:
    @pytest.fixture(scope="class")
    def gelu_pwl(self):
        return build_approximation("gelu", "gqa-rm", budget=QUICK)

    @pytest.fixture(scope="class")
    def div_pwl(self):
        return build_approximation("div", "gqa-wo-rm", budget=QUICK)

    def test_scale_sweep_keys(self, gelu_pwl):
        sweep = scale_sweep_mse("gelu", gelu_pwl)
        assert len(sweep) == 7

    def test_wide_range_mse_positive(self, div_pwl):
        assert wide_range_mse("div", div_pwl) > 0

    def test_average_mse_dispatch(self, gelu_pwl, div_pwl):
        assert average_mse("gelu", gelu_pwl) == pytest.approx(
            float(np.mean(list(scale_sweep_mse("gelu", gelu_pwl).values())))
        )
        assert average_mse("div", div_pwl) == pytest.approx(wide_range_mse("div", div_pwl))

    def test_normalize_peak_is_one(self):
        values = {1.0: 2.0, 0.5: 1.0}
        normalized = normalize(values)
        assert max(normalized.values()) == pytest.approx(1.0)


class TestFig2:
    def test_fig2a_structure(self):
        result = run_fig2a(methods=("nn-lut", "gqa-rm"), budget=QUICK)
        assert set(result.sweeps) == {"nn-lut", "gqa-rm"}
        assert all(len(s) == 7 for s in result.sweeps.values())
        assert all(0.0 <= v <= 1.0 for v in result.large_scale_share.values())
        normalized = result.normalized()
        peak = max(max(s.values()) for s in normalized.values())
        assert peak == pytest.approx(1.0)
        assert "Figure 2(a)" in format_fig2a(result)

    def test_fig2b_deviation_larger_at_larger_scale(self):
        result = run_fig2b(budget=QUICK)
        assert result.deviation_large >= result.deviation_small
        assert result.scale_large > result.scale_small
        assert "breakpoint" in format_fig2b(result).lower()

    def test_fig2b_rejects_bad_breakpoint_index(self):
        with pytest.raises(ValueError):
            run_fig2b(breakpoint_index=99, budget=QUICK)


class TestFig3AndTable3:
    def test_fig3_series_count_and_improvement(self):
        result = run_fig3(operators=("gelu",), methods=("nn-lut", "gqa-rm"),
                          entries=(8,), budget=QUICK)
        assert len(result.series) == 2
        factor = result.improvement("gelu", 8, 1.0)
        assert factor > 0
        assert "GELU" in format_fig3(result)

    def test_table3_structure_and_positive_values(self):
        result = run_table3(operators=("gelu", "div"), methods=("gqa-rm",),
                            entries=(8,), budget=QUICK)
        assert result.value("gqa-rm", 8, "gelu") > 0
        assert result.value("gqa-rm", 8, "div") > 0
        assert result.best_method(8, "gelu") == "gqa-rm"
        assert "Table 3" in format_table3(result)


class TestTable6:
    def test_full_sweep_and_headline_savings(self):
        result = run_table6()
        assert len(result.estimates) == 8
        # The central hardware claim of the paper.
        assert 0.75 <= result.area_saving_vs_fp32 <= 0.88
        assert 0.72 <= result.power_saving_vs_fp32 <= 0.88
        assert result.estimate(Precision.INT8, 8).area_um2 < result.estimate(
            Precision.INT32, 8
        ).area_um2
        assert 1.3 <= result.entry_area_ratio_int8 <= 2.1
        assert "Table 6" in format_table6_experiment(result)


class TestFinetuneExperiments:
    @pytest.fixture(scope="class")
    def quick_result(self):
        return run_table5(
            methods=("gqa-rm",),
            budget=FinetuneBudget.quick(),
            approx_budget=QUICK,
            include_individual=False,
        )

    def test_result_structure(self, quick_result):
        assert quick_result.model_name == "MiniEfficientViT"
        assert 0.0 <= quick_result.baseline_miou <= 1.0
        assert 0.0 <= quick_result.float_miou <= 1.0
        assert len(quick_result.rows) == 1
        row = quick_result.row("gqa-rm", "altogether")
        assert row.degradation == pytest.approx(quick_result.baseline_miou - row.miou)

    def test_missing_row_raises(self, quick_result):
        with pytest.raises(KeyError):
            quick_result.row("nn-lut", "altogether")

    def test_format_renders(self, quick_result):
        text = format_table5(quick_result)
        assert "Table 5" in text and "altogether" in text

    def test_operator_inventories_match_models(self):
        assert TABLE4_OPERATORS == ("exp", "gelu", "div", "rsqrt")
        assert TABLE5_OPERATORS == MiniEfficientViT.REPLACEABLE_OPERATORS

    def test_generic_runner_accepts_prebuilt_approximations(self):
        approx = build_approximations(("hswish", "div"), methods=("gqa-rm",), budget=QUICK)
        result = run_finetune_experiment(
            MiniEfficientViT,
            operators=("hswish", "div"),
            approximations=approx,
            methods=("gqa-rm",),
            budget=FinetuneBudget.quick(),
            include_individual=False,
        )
        assert len(result.rows) == 1
        assert "mIoU" in format_finetune_table(result, "t")
