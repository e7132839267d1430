"""Guards on the package surface, read from the source with ``ast``.

Every top-level function and class of ``phaseclone`` is used somewhere in
the package or re-exported from ``phaseclone/__init__.py`` (a console
script named in ``pyproject.toml`` counts as used), and every name in a
module's ``__all__`` is defined in that module or imported into it from a
sibling module (a re-export).  Code that only tests call
belongs in ``tests/helpers.py``.  Small float literals (tolerances, in
practice) appear only as module-level constants, so that each threshold is
named once and the tolerance policy of ``operators.DEFAULT_TOL`` can list them.
``ZERO_COEFF_REL`` is read only by ``trigpoly._negligible``, the one zero rule,
and ``hypot`` (the closed form of a 2 x 2 eigenvalue) is named only by
``positivity._lowest``.  No function has a ``nonlocal`` or ``global``
statement, so no call carries state into the next, and
``analysis._classification`` has no ``for`` statement: its verdicts are
arrays over the members.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phaseclone"


def _modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


def _scripts() -> set[tuple[str, str]]:
    """``(module, function)`` of each console script of ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = re.findall(r'^\s*[\w.-]+\s*=\s*"([\w.]+):(\w+)"', section, re.MULTILINE)
    return {(module.rpartition(".")[2], name) for module, name in targets}


def _uses(tree: ast.Module, skip: ast.AST | None = None) -> tuple[set, set]:
    """Names loaded in ``tree`` outside the node ``skip``, and its ``module.attr`` pairs."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attrs.add((node.value.id, node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _imports(tree: ast.Module) -> dict[str, str]:
    """``local name -> "module.name"`` per ``from .module import name``, ``-> "module"`` per
    ``from . import module``."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source = f"{node.module}.{alias.name}" if node.module else alias.name
                bound[alias.asname or alias.name] = source
    return bound


def _unused(modules: dict[str, ast.Module]) -> list[str]:
    exempt = _scripts()
    exported = set(_imports(modules["__init__"]).values())
    uses = {name: _uses(tree) for name, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualified = f"{module}.{node.name}"
            if qualified in exported or (module, node.name) in exempt:
                continue
            if node.name in _uses(tree, skip=node)[0]:
                continue
            for other, (names, attrs) in uses.items():
                if other == module:
                    continue
                bound = _imports(modules[other])
                if any(bound.get(n) == qualified for n in names):
                    break
                if any(bound.get(m) == module and a == node.name for m, a in attrs):
                    break
            else:
                unused.append(qualified)
    return unused


def _defined(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names, and names bound by a ``from .`` import."""
    names = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _small_literals(modules: dict[str, ast.Module]) -> list[str]:
    """``module.py:line`` of each float literal ``0 < |x| < 1e-3`` outside a module-level assignment."""
    found = []
    for module, tree in modules.items():
        named = {
            id(n)
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for n in ast.walk(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-3
                and id(node) not in named
            ):
                found.append((module, node.lineno))
    return [f"{module}.py:{line}" for module, line in sorted(found)]


def _readers(modules: dict[str, ast.Module], name: str) -> list[str]:
    """``module.definition`` of each top-level definition that reads or imports ``name``;
    ``module`` where other module-level code does."""
    found = set()
    for module, tree in modules.items():
        for node in tree.body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            owner = f"{module}.{node.name}" if named else module
            for n in ast.walk(node):
                if (
                    (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
                    or (isinstance(n, ast.Attribute) and n.attr == name)
                    or (isinstance(n, ast.alias) and n.name == name)
                ):
                    found.add(owner)
    return sorted(found)


def test_every_top_level_definition_is_used_or_exported():
    assert _unused(_modules()) == []


def test_every_name_in_all_is_defined_in_its_module():
    stale = {
        module: sorted(set(_all(tree)) - _defined(tree)) for module, tree in _modules().items()
    }
    assert {module: names for module, names in stale.items() if names} == {}


def test_no_small_float_literal_outside_a_named_constant():
    assert _small_literals(_modules()) == []


def test_only_the_zero_rule_reads_its_threshold():
    assert _readers(_modules(), "ZERO_COEFF_REL") == ["trigpoly._negligible"]


def test_the_2x2_closed_form_is_written_once():
    assert _readers(_modules(), "hypot") == ["positivity._lowest"]


def _rebinders(modules: dict[str, ast.Module]) -> list[str]:
    """``module.function`` of every function with a ``nonlocal`` or ``global`` statement."""
    found = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(inner, (ast.Nonlocal, ast.Global)) for inner in ast.walk(node)):
                    found.add(f"{module}.{node.name}")
    return sorted(found)


def test_no_function_rebinds_an_outer_name():
    # A closure that rebinds captured names carries state between calls.
    assert _rebinders(_modules()) == []


def test_the_guard_sees_nonlocal_and_global():
    module = ast.parse(
        "N = 0\n\ndef count():\n    global N\n    N += 1\n\n"
        "def outer():\n    k = 0\n\n    def inner():\n        nonlocal k\n        k += 1\n\n"
        "    return inner\n\ndef pure(x):\n    return x\n"
    )
    assert _rebinders({"m": module}) == ["m.count", "m.inner", "m.outer"]


def _loops(tree: ast.Module, name: str) -> list[int]:
    """The lines of the ``for`` statements in top-level function ``name``; a comprehension is none."""
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return [node.lineno for node in ast.walk(function) if isinstance(node, ast.For)]


def test_the_classification_half_has_no_per_member_loop():
    # Its verdicts are masked assignments into arrays over the members.
    assert _loops(_modules()["analysis"], "_classification") == []


def test_the_guard_sees_a_for_statement_but_not_a_comprehension():
    module = ast.parse("def f(xs):\n    ys = [x for x in xs]\n    for y in ys:\n        pass\n")
    assert _loops(module, "f") == [3]


def test_the_guard_sees_each_read_of_the_zero_threshold():
    trigpoly = ast.parse(
        "ZERO_COEFF_REL = 1.0\n__all__ = ['ZERO_COEFF_REL']\n\n"
        "def _negligible(m, s):\n    return m <= ZERO_COEFF_REL * s\n"
    )
    other = ast.parse(
        "from .trigpoly import ZERO_COEFF_REL as Z\nfrom . import trigpoly\n\n"
        "class C:\n    def f(self, x):\n        return x <= trigpoly.ZERO_COEFF_REL\n"
    )
    readers = _readers({"trigpoly": trigpoly, "other": other}, "ZERO_COEFF_REL")
    assert readers == ["other", "other.C", "trigpoly._negligible"]


def test_the_guard_sees_a_literal_tolerance():
    module = ast.parse(
        "TOL = 1e-9\nBAND = (-2e-4, 0.5)\n\n"
        "def f(x, tol=1e-10):\n    return x < 2e-4 * TOL + 0.5 and x != 0.0\n"
    )
    assert _small_literals({"m": module}) == ["m.py:4", "m.py:5"]


def test_the_guard_sees_a_definition_only_tests_use():
    module = ast.parse(
        "def used():\n    return helper()\n\n"
        "def helper():\n    pass\n\n"
        "def dead():\n    pass\n"
    )
    init = ast.parse("from .m import used\n")
    assert _unused({"__init__": init, "m": module}) == ["m.dead"]


def test_the_guard_takes_a_re_export_and_rejects_a_stale_name():
    module = ast.parse('from .a import TOL\n\n__all__ = ["TOL", "gone"]\n')
    assert sorted(set(_all(module)) - _defined(module)) == ["gone"]
