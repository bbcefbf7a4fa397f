"""Smoke test: every demo script and every README `python` example runs to the end."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                             re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_has_a_python_example():
    assert README_EXAMPLES


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index):
    exec(compile(README_EXAMPLES[index], f"README.md python example {index}", "exec"), {"__name__": "__main__"})
