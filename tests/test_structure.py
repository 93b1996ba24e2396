"""Structure of the package source: module boundaries and resolvable type hints."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import warpspec
import warpspec.cli as cli

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


def _module_scope(tree: ast.Module):
    """Nodes that run when the module is imported: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node: ast.AST) -> list[str]:
    """Absolute module names an import statement names, a from-import's names included."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_scipy_is_imported_only_inside_functions():
    # import warpspec loads numpy alone; each scipy submodule is imported by
    # the function that uses it, when it first runs
    eager = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in _module_scope(ast.parse(path.read_text(encoding="utf-8")))
        if any(m == "scipy" or m.startswith("scipy.") for m in _imported_modules(node))
    ]
    assert not eager, eager


def test_scipy_integrate_nowhere_in_the_package():
    # the two trapezoid sums are written out with numpy
    users = {
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(m == "scipy.integrate" or m.startswith("scipy.integrate.") for m in _imported_modules(node))
        or (isinstance(node, ast.Attribute) and node.attr == "integrate"
            and isinstance(node.value, ast.Name) and node.value.id == "scipy")
    }
    assert users == set()


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter that runs code."""
    src = str(Path(warpspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import warpspec") == []


def test_synthetic_shooting_and_euclidean_curvature_load_no_scipy(tmp_path):
    # the half-line solver on closed-form channels and the curvature report
    # of a model profile need numpy alone
    code = f"""
import numpy as np
import warpspec.halfline_solver as hs
from warpspec import cli

q = hs.synthetic_channel(k_eff=2.5, phase=0.3)
hs.decaying_solution(q, 1.0, r_anchor=60.0)
hs.reversibility_check(q, 1.0, span=(1.0, 60.0), init=(1.0, 0.0), rtol=1e-12)
hs.scan_channels([hs.synthetic_channel(k_eff=1.9, phase=0.3)], 0.5 + 0.05 * np.arange(5), origin_bc=None, r_max=60.0)
assert cli.main(["curvature-report", "--profile", "euclidean", "--out", {str(tmp_path)!r}]) == 0
"""
    assert _scipy_modules_after(code) == []


def test_the_absence_side_loads_no_scipy(tmp_path):
    # the growth functional, its refusal, the identity suite and the
    # curvature report of the reference end need numpy alone
    code = f"""
import warpspec as ws
from warpspec import cli

for prof in (ws.power_decay_profile(3), ws.slow_log_decay_profile(3)):
    ws.verify_growth_theorem(prof, alpha=2.0, gamma=1.0, t0=20.0, t_end=300.0, seed=1)
ref = ws.reference_profile(3, 1.0, r_max=600.0)
try:
    ws.verify_growth_theorem(ref, alpha=2.0, gamma=1.0, t0=20.0, t_end=300.0, seed=1)
except ws.HypothesisViolatedError:
    pass
else:
    raise AssertionError("the reference end was not refused")
for prof in (ws.euclidean_profile(3), ws.hyperbolic_profile(3), ref):
    for data in ws.standard_identity_data():
        ws.check_parts_identities(prof, data, span=(1.0, 20.0), tol=1e-7)
assert cli.main(["curvature-report", "--profile", "wvn", "--out", {str(tmp_path)!r}]) == 0
"""
    assert _scipy_modules_after(code) == []


def test_a_profile_is_its_shape_and_its_range():
    # a profile holds no samples: each consumer samples the shape where it reads
    assert [f.name for f in dataclasses.fields(warpspec.WarpProfile)] == ["n", "kind", "params", "r_min", "r_max", "shape", "kinks"]
    stale = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in ("GRID_CAP", "MAX_GRID_STEP", "_check_resolution")
        if name in path.read_text(encoding="utf-8")
    ]
    assert not stale, stale


def test_a_shape_is_its_pair_and_its_triple():
    # one way to evaluate a shape: (S, S') and (S, S', log f) from one call
    # each; s, s_prime and log_f are projections of them, not fields
    assert [f.name for f in dataclasses.fields(warpspec.ShapeFns)] == ["pair", "triple"]
    assert not hasattr(warpspec.ShapeFns, "values")


def _functions():
    """Every function definition of the package, nested ones included, with its module's file name."""
    return [
        (path.name, func)
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_function_reads_s_and_s_prime_by_two_calls():
    # a reader of S and S' takes both from one ShapeFns.pair call
    def called(func):
        return {node.func.attr for node in ast.walk(func) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}

    both = [(name, func.name) for name, func in _functions() if {"s", "s_prime"} <= called(func)]
    assert not both, both


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


def test_one_radial_curvature():
    # K_rad = -(S' + S^2) is formed by warp_geometry.radial_curvature alone;
    # every other reader of K_rad calls it.  S and S' are calls (shape.s(r)),
    # or names: s and s_prime, or any names unpacked from one evaluation
    # (s_x, sp_x = shape.pair(x))
    def calls(node, name):
        return isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))

    def unpacked(func):
        """Names of S (position 0) and S' (position 1) unpacked from a pair or triple call in func."""
        names = ({"s"}, {"s_prime"})
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and (calls(node.value, "pair") or calls(node.value, "triple")):
                for target in node.targets:
                    for pos, elt in enumerate(getattr(target, "elts", ())[:2]):
                        if isinstance(elt, ast.Name):
                            names[pos].add(elt.id)
        return names

    def is_value(node, call, names):
        return calls(node, call) or (isinstance(node, ast.Name) and node.id in names)

    def forms_k_rad(node, s_names, sp_names):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        return any(
            is_value(a, "s_prime", sp_names)
            and isinstance(b, ast.BinOp)
            and isinstance(b.op, ast.Pow)
            and is_value(b.left, "s", s_names)
            for a, b in ((node.left, node.right), (node.right, node.left))
        )

    users = {
        (name, func.name)
        for name, func in _functions()
        for node in ast.walk(func)
        if forms_k_rad(node, *unpacked(func))
    }
    assert users == {("warp_geometry.py", "radial_curvature")}


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


def test_package_exports_are_module_exports():
    # warpspec re-exports only what its modules export, so a function taken
    # out of a module's __all__ cannot linger as a package-level name
    tree = ast.parse(Path(warpspec.__file__).read_text(encoding="utf-8"))
    stray = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"warpspec.{node.module}").__all__
    ]
    assert not stray, stray


# public names that no program path calls yet, each with the reason it stays;
# a name that gains a caller leaves this table
UNCALLED_PUBLIC = {
    "growth_thresholds": "absence chain that verify-growth is to report (ROADMAP item 7)",
    "conjugation_energy_margin": "absence chain that verify-growth is to report (ROADMAP item 7)",
    "check_growth_dichotomy": "absence chain that verify-growth is to report (ROADMAP item 7)",
    "predicted_k_eff": "closed form that the fitted tail amplitude is tested against",
    "predicted_phase_constant": "closed form that the fitted tail phase is tested against",
    "profile_from_json": "reads back the profile.json artifact that the CLI writes",
}


def _referenced_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names and attributes used in a module, outside its top-level definition called skip."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in tree.body
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip)
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ must be used by another package module, by
    # its own module outside its definition, by perfbench or the scripts, or
    # by the acceptance criteria; tests of the name alone do not count
    root = Path(__file__).resolve().parents[1]
    callers = {
        path: _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in [p for p in SOURCES if p.name != "__init__.py"]
        + [p for d in ("perfbench", "scripts") for p in sorted((root / d).glob("*.py")) if not p.name.startswith("test_")]
        + [root / "tests" / "test_acceptance.py", root / "tests" / "conftest.py"]
    }
    uncalled = {
        name: f"{path.stem}.{name}"
        for path in SOURCES
        for name in getattr(importlib.import_module(f"warpspec.{path.stem}"), "__all__", ())
        if name not in _referenced_names(ast.parse(path.read_text(encoding="utf-8")), skip=name)
        and not any(name in names for other, names in callers.items() if other != path)
    }
    # either a new name without a caller or a table entry that gained one
    assert uncalled.keys() == UNCALLED_PUBLIC.keys(), sorted(uncalled.get(n, n) for n in uncalled.keys() ^ UNCALLED_PUBLIC.keys())


def _cfg_reads(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """Attributes read as cfg.<attr> in the cli function name and, in turn, in
    every cli function it passes cfg to."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions.keys() - seen
            and any(isinstance(arg, ast.Name) and arg.id == "cfg" for arg in node.args)
        ):
            reads |= _cfg_reads(functions, node.func.id, seen)
    return reads


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_each_command_takes_exactly_the_settings_its_code_reads(command):
    # the runner, the helpers it hands cfg to (_named_profile, _lambda_window,
    # _outdir) and main read precisely the command's row of the table plus
    # out and timings: the table is measured from the code, not guessed
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = _cfg_reads(functions, cli._COMMANDS[command].run.__name__, set()) | _cfg_reads(functions, "main", set())
    assert reads - {"command"} == set(cli._settings(command))
