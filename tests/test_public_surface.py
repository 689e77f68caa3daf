"""No public code that only tests call.

The scan reads every ``def`` and ``class`` under ``src/repro`` and every
name that code outside ``tests/`` loads: a ``Name`` or an ``Attribute`` in
``src/``, ``benchmarks/``, ``examples/`` and ``perfbench/``.  A definition
whose name is never loaded there has no caller but the test suite.  It
fails the test unless :data:`TEST_ONLY` names it with a reason, and each
:data:`TEST_ONLY` entry must still be defined, still lack a caller outside
``tests/`` and still be loaded by some test (else it is dead, not test-only).

A second scan flags imports that the importing module never reads, in the
same directories and in ``tests/``; a package ``__init__`` re-exports by
importing, so it is skipped.  A third keeps code and docs from naming a ``REPRO_*`` environment
variable the program does not read.

The scan matches names, not bindings: a method shares its name with every
attribute of that name, so it can miss dead code but never flags live
code.  Imports and ``__all__`` strings are not loads, so an export alone
does not keep a definition.  Dunder methods are called by Python itself
and are skipped.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.core.engine_config import KNOBS
from repro.reliability.faults import FAULT_PLAN_ENV

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Definitions only the tests call, each with the reason it stays.
TEST_ONLY = {
    "QuantizedMSEFitness": "the Table 3 pipeline-MSE fitness for the opt-in quantized GA methods (ROADMAP item 2)",
    "run_all_experiments": "the whole-paper driver the reproduction ledger runs (ROADMAP item 1)",
    "normalize": "the Fig. 2a/Fig. 3 normaliser, for the ledger's per-scale split",
    "grid_for_scale": "the per-scale evaluation grid, for the ledger's per-scale split",
    "mse_at_scale": "the per-scale pipeline MSE, for the ledger's per-scale split",
    "mutate_scalar": "Algorithm 2's per-breakpoint rule as the paper states it; the vectorised RM is tested against it",
    "SGD": "the second optimizer of the compiled-train and checkpoint tests",
    "lookup_codes": "the dense table's per-code probe of the parity tests",
    "dense_lut_cache_clear": "resets the process-wide dense-table cache between tests",
    "apply_elementwise": "the generic element-wise op of the reference pwl modules in tests/oracles.py",
    "fxp_pwl": "the FXP-rounded wide-range pwl the multi-range oracles rebuild",
    "gc": "store maintenance; the chaos tests pin which orphans it reaps",
    "set_default_engine": "resets the process-wide sweep engine between tests",
    "stored_intercepts": "the float view of the stored intercept codes, beside the other Fig. 1b views",
    "clip_ste": "the method form of the clip_ste registry op the gradcheck and replay programs draw",
    "softmax": "the exact softmax the autograd tests differentiate",
    "list_functions": "the operator listing exported from repro",
    "Sequential": "the container the in-place quantization surgery is tested through",
}


@functools.lru_cache(maxsize=None)
def definitions() -> Dict[str, List[str]]:
    """Every non-dunder ``def``/``class`` name under ``src/repro``, with sites."""
    found: Dict[str, List[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            site = "%s:%d" % (path.relative_to(ROOT), node.lineno)
            found.setdefault(node.name, []).append(site)
    return found


@functools.lru_cache(maxsize=None)
def loaded_in(directories: Tuple[str, ...]) -> FrozenSet[str]:
    """Every name a ``Name`` or ``Attribute`` load reads under ``directories``."""
    loaded = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return frozenset(loaded)


def test_every_definition_has_a_caller_outside_tests():
    defined = definitions()
    test_only = set(defined) - loaded_in(CALLER_DIRS)
    unexplained = sorted(test_only - set(TEST_ONLY))
    assert not unexplained, (
        "defined under src/repro but called only from tests (delete them, "
        "or add each to TEST_ONLY with its reason):\n%s"
        % "\n".join("  %s  %s" % (name, ", ".join(defined[name])) for name in unexplained)
    )


@pytest.mark.parametrize("name", sorted(TEST_ONLY))
def test_allowlisted_name_is_still_test_only(name):
    assert name in definitions(), "%s is gone from src/repro: drop it from TEST_ONLY" % name
    assert name not in loaded_in(CALLER_DIRS), (
        "%s now has a caller outside tests: drop it from TEST_ONLY" % name
    )
    assert name in loaded_in(("tests",)), (
        "no test calls %s either: it is dead code, delete it" % name
    )


def unused_imports(path: Path) -> List[str]:
    """Names ``path`` imports but never reads (``__all__`` counts as a read).

    String annotations count too: each string constant that parses as an
    expression contributes its names.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported: Dict[str, int] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return ["%s:%d %s" % (path.relative_to(ROOT), imported[name], name)
            for name in sorted(set(imported) - used)]


def test_no_unused_imports_outside_tests():
    unused = [
        site
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
        for site in unused_imports(path)
    ]
    assert not unused, "imported but never read (delete the import):\n  %s" % "\n  ".join(unused)


def test_no_unused_imports_in_tests():
    unused = [
        site
        for path in sorted((ROOT / "tests").rglob("*.py"))
        for site in unused_imports(path)
    ]
    assert not unused, "imported but never read (delete the import):\n  %s" % "\n  ".join(unused)


#: The ``REPRO_*`` environment variables the program and its harnesses read.
READ_ENV = frozenset(
    [knob.env for knob in KNOBS.values()]
    + [FAULT_PLAN_ENV, "REPRO_SLOW_CHAOS", "REPRO_BENCH_BUDGET"]
)


def test_no_unread_environment_variable_is_named():
    paths = [
        path
        for directory in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ] + [ROOT / "DESIGN.md", ROOT / ".github" / "workflows" / "ci.yml"]
    unread = [
        "%s:%d %s" % (path.relative_to(ROOT), number, name)
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for name in re.findall(r"REPRO_[A-Z][A-Z_]*", line)
        if name not in READ_ENV
    ]
    assert not unread, "names an environment variable nothing reads:\n  %s" % "\n  ".join(unread)
