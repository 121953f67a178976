"""Demo scripts and the README quick start: every demo and the quick start
run end to end, and every name that a demo, a `dropbench` script or a README
example imports from pinchsim exists, so a removed export fails here."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
FAST = [
    "channel_selectivity",
    "frame_design",
    "greedy_vs_exhaustive",
    "min_rate_sweep",
    "waterfilling",
]

README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
(QUICK_START,) = re.findall(r"^## Library quick start\n+```python\n(.*?)^```", README, re.M | re.S)


def pinchsim_imports(source):
    """(module, name) for every `from pinchsim... import name` in a script."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "pinchsim"
        for alias in node.names
    ]


SOURCES = [
    *(pytest.param(p.read_text(), id=p.stem) for p in sorted(DEMOS.glob("*.py"))),
    *(
        pytest.param(p.read_text(), id=f"dropbench/{p.stem}")
        for p in sorted((ROOT / "dropbench").glob("*.py"))
    ),
    *(pytest.param(block, id=f"README/python-{i}") for i, block in enumerate(README_BLOCKS)),
]


@pytest.mark.parametrize("source", SOURCES)
def test_demo_imports_exist(source):
    names = pinchsim_imports(source)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    exec(compile(QUICK_START, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0.0
