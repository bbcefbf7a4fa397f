"""The package's imports flow one way: modules import each other at the top,
and the only import inside a function is the one that keeps the LP modules
out of every command that solves no LP. Outside the package, modules import
only the standard library at the top, as ``pyproject.toml`` declares no
dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import treasurehunt

PACKAGE = Path(treasurehunt.__file__).parent


def _imports_inside_functions():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom):
                        found.append((path.stem, node.name, inner.module))
                    elif isinstance(inner, ast.Import):
                        found.extend((path.stem, node.name, alias.name) for alias in inner.names)
    return found


def test_only_the_lp_import_sits_inside_a_function():
    assert _imports_inside_functions() == [("solver", "sequence_form_value", "seqform")]


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh interpreter holds after importing the CLI."""
    code = f"import sys, treasurehunt.cli\nprint(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    return out.strip()


def test_cli_import_loads_no_lp_module():
    assert _loaded_by_cli_import(("treasurehunt.seqform", "treasurehunt.simplex")) == "[]"


def test_cli_import_loads_no_process_pool():
    # run_mc forks with os.fork and os.pipe alone: no pickling, no pool threads.
    assert _loaded_by_cli_import(("multiprocessing", "concurrent.futures")) == "[]"


def _module_level_imports(tree):
    """(module, line) of every import outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("treasurehunt" if node.level else node.module, node.lineno)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_module_level_imports_are_stdlib_or_the_package():
    allowed = sys.stdlib_module_names | {"treasurehunt"}
    outside = [
        (path.name, line, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, line in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] not in allowed
    ]
    assert outside == []
