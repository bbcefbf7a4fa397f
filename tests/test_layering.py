"""The package's imports flow one way: modules import each other at the top,
and the only import inside a function is the one that keeps the LP modules
out of every command that solves no LP."""

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


def test_cli_import_loads_no_lp_module():
    code = (
        "import sys, treasurehunt.cli\n"
        "print(sorted(m for m in ('treasurehunt.seqform', 'treasurehunt.simplex') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"
