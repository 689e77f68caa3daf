"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
NAMED = {
    "lut_search": {"cells_per_s": "1/s", "lut_mse": "mse"},
    "segment_serve": {"image_p50_ms": "ms", "images_per_s": "1/s", "image_p99_ms": "ms"},
    "decode": {
        "direct_tokens_per_s": "1/s", "tokens_per_s": "1/s",
        "ttft_p50_ms": "ms", "ttft_p90_ms": "ms",
        "itl_p50_ms": "ms", "itl_p99_ms": "ms",
    },
    "finetune": {"train_steps_per_s": "1/s", "val_miou": "miou"},
}
# Per-layer metrics that must be measured (non-zero) on each workload.
LAYERS = {
    "lut_search": (
        "core.search_s", "core.fitness_s", "core.fitness_calls", "core.evaluations",
        "experiments.sweep_self_s", "experiments.journal_ops", "experiments.journal_s",
        "experiments.store_save_s", "experiments.protocol_mse_s",
    ),
    "segment_serve": (
        "graph.predict_ms.b1", "graph.plan_steps", "serve.replay_share",
        "serve.mean_batch_size",
    ),
    "decode": (
        "graph.decode_step_ms.g1", "graph.plan_steps", "serve.replay_share",
        "serve.decode_group_size", "nn.kv_reserved_ratio",
    ),
    "finetune": (
        "graph.train_step_ms", "graph.train_trace_s", "graph.plan_steps", "nn.evaluate_s",
    ),
}
# Layers a workload never calls into: their time metrics must read 0.
UNUSED = {
    "lut_search": ("graph", "serve", "nn"),
    "segment_serve": ("core", "experiments", "nn"),
    "decode": ("core", "experiments"),
    "finetune": ("core", "experiments", "serve"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_untraced_run_prints_every_metric(workload):
    out = run(workload, trace=0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["success_rate"]["value"] == 1.0

    report = json.loads(lines[-2])["report"]
    for name, unit in {**COMMON, **NAMED[workload]}.items():
        assert report[name]["unit"] == unit, name
        assert report[name]["samples"] >= 1, name
    assert report["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_run_reports_its_layers(workload):
    out = run(workload, trace=1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("per_layer")
    values = {name: m["value"] for name, m in metrics.items()}
    for name in LAYERS[workload]:
        assert values[name] > 0, name
    for layer in UNUSED[workload]:
        assert values["%s.self_share" % layer] == 0.0, layer
    shares = sum(values["%s.self_share" % layer]
                 for layer in ("core", "experiments", "graph", "nn", "serve"))
    assert 0.0 < shares <= 1.0 + 1e-9
    assert values["graph.timed_retraces"] == 0.0
    trace_file = HERE / "out" / ("trace-%s-3.json" % workload)
    spans = json.loads(trace_file.read_text())["spans"]
    assert spans and all(len(span) == 6 for span in spans)


def test_host_normalization_uses_the_samples_around_a_span():
    sys.path.insert(0, str(HERE))
    from hostspeed import ARRAY_PARTS, HostProbe

    probe = HostProbe(ARRAY_PARTS)
    for began, ended, slowdown in ((0.0, 1.0, 1.0), (5.0, 6.0, 2.0), (9.0, 10.0, 4.0)):
        probe.began.append(began)
        probe.ended.append(ended)
        probe.slowdowns.append(slowdown)
    # The sample that ended last before the span and the one that began
    # first after it: median(1, 2).
    assert probe.normalized(2.0, 4.0) == pytest.approx(2.0 / 1.5)
    assert probe.normalized(6.5, 8.0) == pytest.approx(1.5 / 3.0)
    assert probe.normalized(6.5, 8.0, count=2) == pytest.approx(1.5 / 2.0)
    # Past the last sample only the samples before the span count.
    assert probe.normalized(10.5, 11.0) == pytest.approx(0.5 / 4.0)
    assert probe.factor() == pytest.approx(0.5)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("decode", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
