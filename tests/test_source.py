"""Properties of the package source itself."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import monadcalc
from monadcalc.errors import InvariantViolation, MonadcalcError, check_invariant

SRC = pathlib.Path(monadcalc.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "monadbench" / "tracer.py"


def test_no_assert_statements_in_package():
    """Invariants raise typed errors, so ``python -O`` keeps every check."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


LAZY_IMPORTS = {"numpy", "scipy", "sympy"}


def _module_level_imports(node):
    """Import nodes that run when the module loads (function bodies skipped)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def test_heavy_dependencies_are_imported_inside_functions():
    """Importing the package loads none of numpy, scipy and sympy."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _module_level_imports(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in LAZY_IMPORTS]
    assert found == []


def test_scipy_is_not_imported():
    """The float joint spectrum needs no scipy: no import of it anywhere."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _imports_by_function(node, where):
    """(line, module, name of the enclosing function or None) per import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield f"{child.lineno}", alias.name, where
        elif isinstance(child, ast.ImportFrom):
            yield f"{child.lineno}", child.module or "", where
        inner = (child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
        yield from _imports_by_function(child, inner)


def test_numpy_only_in_the_float_roots_and_sympy_nowhere():
    """Exact mode runs on the standard library alone: sympy is a test
    oracle only, and numpy serves the --float roots (_complex_roots)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name, where in _imports_by_function(tree, None):
            top = name.split(".")[0]
            if top == "sympy" or (top == "numpy" and (
                    path.name, where) != ("eigen.py", "_complex_roots")):
                found.append(f"{path.name}:{line} {name}")
    assert found == []


def test_cli_starts_without_the_process_pool():
    """Only ``batch --jobs`` above 1 loads concurrent.futures and
    multiprocessing; every other command starts without them."""
    probe = ("import sys, monadcalc.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_check_invariant_raises_a_domain_error():
    check_invariant(True, "holds")
    with pytest.raises(InvariantViolation, match="broken") as exc:
        check_invariant(False, "broken")
    assert isinstance(exc.value, MonadcalcError)


def test_benchmark_layer_modules_import():
    """Every module the benchmark tracer wraps exists, so removing one
    fails the test suite rather than a traced benchmark run."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    layers = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets]
              == ["LAYER_MODULES"]]
    assert len(layers) == 1 and layers[0]
    for name in layers[0]:
        importlib.import_module(f"monadcalc.{name}")


def test_benchmark_selftest_passes():
    """The benchmark's own self-test: every workload check passes on the
    program's outputs and fires on corrupted copies (made with
    ``dataclasses.replace``), and the traced run reports every per-layer
    metric the benchmark declares."""
    proc = subprocess.run([sys.executable, "monadbench/selftest.py"],
                          cwd=TRACER.parents[1], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _public_definitions(tree):
    """Module-level ``def`` and ``class`` statements with public names."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names(node):
    """Names that ``node`` reads, as bare names or attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_public_functions_are_exported_or_used():
    """Every public module-level function or class of the package is
    exported by ``__init__`` or used by the package outside its own
    definition, so no helper lives in ``src/`` for the tests alone."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    statements = [(s, _names(s)) for tree in trees.values() for s in tree.body]
    exported = set(monadcalc.__all__)
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in _public_definitions(tree) if node.name not in exported
              and not any(node.name in names for s, names in statements
                          if s is not node)]
    assert unused == []


def test_readme_module_names_resolve():
    """Every backticked ``module.name`` in README.md whose module is one
    of the package's names an attribute of that module."""
    readme = TRACER.parents[1] / "README.md"
    modules = {path.stem for path in SRC.glob("*.py")}
    named = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`",
                       readme.read_text(encoding="utf-8"))
    missing = [f"{module}.{name}" for module, name in named if module in modules
               and not hasattr(importlib.import_module(f"monadcalc.{module}"), name)]
    assert [module for module, _ in named if module in modules]
    assert missing == []
