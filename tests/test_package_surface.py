"""Guards on the package surface, read from the source with ``ast``.

Every top-level function and class of ``phaseclone`` is used somewhere in
the package or re-exported from ``phaseclone/__init__.py`` (a console
script named in ``pyproject.toml`` counts as used), and every name in a
module's ``__all__`` is defined in that module or imported into it from a
sibling module (a re-export).  Code that only tests call
belongs in ``tests/helpers.py``.
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


def test_every_top_level_definition_is_used_or_exported():
    assert _unused(_modules()) == []


def test_every_name_in_all_is_defined_in_its_module():
    stale = {
        module: sorted(set(_all(tree)) - _defined(tree)) for module, tree in _modules().items()
    }
    assert {module: names for module, names in stale.items() if names} == {}


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
