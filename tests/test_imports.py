"""Modules share only public names: no module imports another's private ones."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "backflow"


def private_relative_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every underscore-prefixed name in a relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    assert private_relative_imports("from .mutinfo import _ball_points, didt\n") == [
        (1, "_ball_points")
    ]
    assert private_relative_imports("from numpy import _pytesttester\n") == []


def test_no_module_imports_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in private_relative_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
