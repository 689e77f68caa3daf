"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.baselines import uniform_pwl
from repro.core.pwl import fit_pwl, uniform_breakpoints
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model

#: The operators the served models replace with their pwl tables.
SERVED_OPERATORS = ("exp", "gelu", "div", "rsqrt")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow_chaos: sustained-load supervisor chaos scenarios; skipped "
        "unless REPRO_SLOW_CHAOS=1 (the CI chaos job sets it) so the "
        "tier-1 run stays fast",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_SLOW_CHAOS") == "1":
        return
    skip = pytest.mark.skip(
        reason="slow chaos scenario; set REPRO_SLOW_CHAOS=1 to run"
    )
    for item in items:
        if "slow_chaos" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def parameter_walks(monkeypatch):
    """Record every ``Module.parameters()`` call (each walks a module tree)."""
    from repro.nn.module import Module

    calls = []
    original = Module.parameters

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Module, "parameters", counting)
    return calls


def _assert_reentrant(fn, inputs, threads=4, runs=480):
    """Call ``fn`` ``runs`` times from ``threads`` threads at once, cycling
    through ``inputs``, and require every output to equal a serial call's
    bit for bit.  A short interpreter switch interval makes the threads
    interleave inside the calls instead of taking turns.
    """
    serial = [fn(*args) for args in inputs]
    barrier = threading.Barrier(threads)
    results = [[] for _ in range(threads)]

    def worker(rank):
        barrier.wait(timeout=60)
        for call in range(rank, runs, threads):
            index = call % len(inputs)
            results[rank].append((index, fn(*inputs[index])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(rank,)) for rank in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    pairs = [pair for rank_results in results for pair in rank_results]
    assert len(pairs) == runs
    for index, outputs in pairs:
        for output, expected in zip(outputs, serial[index], strict=True):
            np.testing.assert_array_equal(output, expected)


@pytest.fixture
def assert_reentrant():
    """``assert_reentrant(fn, inputs)``: see :func:`_assert_reentrant`."""
    return _assert_reentrant


@pytest.fixture(scope="session")
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def gelu_uniform_pwl():
    """An 8-entry uniform-breakpoint GELU pwl reused across tests."""
    fn = get_function("gelu")
    breakpoints = uniform_breakpoints(*fn.search_range, num_entries=8)
    return fit_pwl(fn.fn, breakpoints, fn.search_range)


@pytest.fixture(scope="session")
def quick_gelu_outcome():
    """A small GQA-LUT search outcome (GELU, 8 entries) shared by tests."""
    from repro.core.search import GQALUT

    return GQALUT.for_operator("gelu", num_entries=8, use_rm=True).search(
        generations=15, population_size=12, seed=0
    )


def _fxp_pwl(op: str, entries: int = 8):
    """``op``'s uniform-breakpoint pwl with 5-bit fixed-point coefficients."""
    return uniform_pwl(get_function(op), entries).to_fixed_point(5)


@pytest.fixture(scope="session")
def fxp_pwl():
    """``fxp_pwl(op, entries=8)``: see :func:`_fxp_pwl`."""
    return _fxp_pwl


@pytest.fixture(scope="module")
def served_model():
    """The serving tests' model: a 16x16 MiniSegformer whose four
    operators run on 8-entry uniform FXP tables, prepared, in eval mode
    and warmed by one eager predict.

    The warm-up initialises the LSQ quantizers before any server (or
    forked replica) sees the model, so every path shares identical frozen
    scales — what makes served responses bit-identical to direct ones.
    Module-scoped: a test that loads new weights restores the old ones.
    """
    suite = PWLSuite(
        approximations={op: _fxp_pwl(op) for op in SERVED_OPERATORS},
        replace=set(SERVED_OPERATORS),
    )
    model = MiniSegformer(ModelConfig(image_size=16, embed_dim=16, depth=1), suite=suite)
    prepare_quantized_model(model)
    model.eval()
    model.predict(np.random.default_rng(0).normal(size=(1, 16, 16, 3)), engine="eager")
    return model
