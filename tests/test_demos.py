"""Demo scripts: the fast ones run end to end, and every name any demo
imports from pinchsim exists, so a removed export fails here."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# min_rate_sweep runs Monte Carlo sweeps; only its imports are checked.
FAST = ["channel_selectivity", "frame_design", "greedy_vs_exhaustive", "waterfilling"]


def pinchsim_imports(path):
    """(module, name) for every `from pinchsim... import name` in a script."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "pinchsim"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    names = pinchsim_imports(path)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
