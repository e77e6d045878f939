"""The names ``perfbench/`` reaches into ``braidpoly`` through must stay bound.

The benchmark patches callees where their callers bound them
(``perfbench/tracing.py``) and imports a few library names directly
(``perfbench/worker.py``, ``perfbench/gates.py``), so deleting or moving one
of them breaks the benchmark, not the library.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import braidpoly.cli
import braidpoly.jaeger
import braidpoly.polynomial
from braidpoly.braid import BraidWord

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in TRACING.CALLS])
def test_traced_callee_is_bound_in_its_caller(module, attr):
    assert attr in vars(importlib.import_module(module))


@pytest.mark.parametrize(
    "cls, method", [(c, m) for c, methods, _ in TRACING.METHODS for m in methods]
)
def test_traced_method_is_defined_on_its_class(cls, method):
    assert method in vars(getattr(braidpoly.polynomial, cls))


def test_other_patched_names():
    assert "enumerate_leaves" in vars(braidpoly.jaeger)
    assert isinstance(vars(BraidWord)["column_index"], functools.cached_property)
    assert callable(vars(braidpoly.cli)["build_parser"])
    assert callable(vars(braidpoly.cli)["main"])


@pytest.mark.parametrize("script", ["worker.py", "gates.py"])
def test_imported_library_names_exist(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("braidpoly")
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (script, module, name)
