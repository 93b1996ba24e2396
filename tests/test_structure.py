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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def test_solve_ivp_nowhere_in_the_package():
    # every radial ODE integrates through halfline_solver.propagate, whose
    # Magnus step needs no solve_ivp; the Riccati comparison runs as the
    # linear Jacobi equation through it too
    users = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.alias) and node.name == "solve_ivp")
        or (isinstance(node, ast.Attribute) and node.attr == "solve_ivp")
    }
    assert users == set()


def test_one_block_maxima_fit():
    # the log-log slope of block maxima (tail remainder, curvature decay) is
    # fitted by channel_reduction.block_max_slope alone
    users = {
        (path.name, func.name)
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "polyfit"
    }
    assert users == {("channel_reduction.py", "block_max_slope")}


def test_one_gauss_legendre_rule():
    # Gauss-Legendre nodes and weights and the Legendre basis behind the nodal
    # antiderivative are used by warp_geometry.GaussLegendrePanels alone; every
    # other quadrature or running integral goes through its methods
    def owners(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        legendre = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if "legendre" in f"{getattr(node, 'module', None) or ''}.{alias.name}"
        }
        return {
            (path.name, top.name if isinstance(top, (ast.ClassDef, ast.FunctionDef)) else None)
            for top in tree.body
            if not isinstance(top, (ast.Import, ast.ImportFrom))
            for node in ast.walk(top)
            if (isinstance(node, ast.Name) and node.id in legendre)
            or (isinstance(node, ast.Attribute) and "legendre" in node.attr)
        }

    assert set().union(*map(owners, SOURCES)) == {("warp_geometry.py", "GaussLegendrePanels")}
