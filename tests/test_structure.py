"""Structure of the package source: module boundaries and resolvable type hints."""

import ast
import importlib
import typing
from pathlib import Path

import pytest

import warpspec

SOURCES = sorted(Path(warpspec.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_type_hints_resolve(path):
    mod = importlib.import_module(f"warpspec.{path.stem}")
    unresolved = []
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if not callable(obj):
            continue
        try:
            typing.get_type_hints(obj)
        except (NameError, TypeError) as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved, unresolved


def test_solve_ivp_only_in_the_propagator_and_riccati():
    # linear radial ODEs integrate through halfline_solver.propagate; the
    # nonlinear Riccati comparison in warp_geometry is the one other user
    users = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.alias) and node.name == "solve_ivp")
        or (isinstance(node, ast.Attribute) and node.attr == "solve_ivp")
    }
    assert users == {"halfline_solver.py", "warp_geometry.py"}
