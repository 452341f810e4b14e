"""The library surface the benchmark scripts use still exists.

``bench/*.py`` is read with ``ast``, not run: every organstop module and
name it imports, and every attribute it reads off an imported organstop
module (``docio.solve_results_document``), must resolve.  Code held in a
string, such as the CLI launch line, is parsed the same way.  A refactor
that would break the benchmark fails here first, in well under a second.
"""

import ast
import functools
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _imported(tree):
    """(module, name, bound name) per organstop import in ``tree``; name is
    None for a plain ``import organstop...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.split(".")[0] == "organstop":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "organstop":
                    yield alias.name, None, alias.asname or alias.name


def _code(path):
    """The script's tree, then the tree of each string that parses as code
    importing organstop."""
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "import" in node.value and "organstop" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass  # prose, such as a docstring


def _resolve(module, name):
    """The object ``from module import name`` binds, or None."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def _uses():
    for path in sorted(BENCH.glob("*.py")):
        for tree in _code(path):
            modules = {}
            for module, name, bound in _imported(tree):
                if name is None:
                    target = importlib.import_module(module)
                    if bound == module:  # import a.b binds a
                        target = importlib.import_module(module.split(".")[0])
                        bound = "organstop"
                    modules[bound] = target
                    continue
                obj = _resolve(module, name)
                yield path.name, f"{module}.{name}", obj
                if isinstance(obj, types.ModuleType):
                    modules[bound] = obj
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    module = modules[node.value.id]
                    yield (path.name, f"{module.__name__}.{node.attr}",
                           getattr(module, node.attr, None))


@functools.cache
def bench_uses():
    """(script, what, object or None) for every organstop name the
    benchmark reads."""
    return list(_uses())


def test_bench_reads_only_names_the_library_has():
    uses = bench_uses()
    assert len(uses) > 40  # the scan sees the benchmark's imports
    missing = sorted({(script, what) for script, what, obj in uses
                      if obj is None})
    assert not missing


@pytest.mark.parametrize("what", ["organstop.docio.solve_results_document",
                                  "organstop.ctime.poisson_lambda_ode",
                                  "organstop.cli.entry"])
def test_bench_scan_sees_module_attributes_and_launch_code(what):
    assert what in {w for _, w, _ in bench_uses()}
