"""No public name without a caller.

Every public function, class, method and property of ``src/qspectra``
must be referenced somewhere besides its own definition: as a name, an
attribute or an imported name, in ``src/``, in ``bench/*.py`` or in a
fenced python block of README.  Tests do not count, so a name that only
tests call fails here; strings, comments and docstrings do not count
either, and dunder methods are out of scope.

Blind spot: names are matched as bare identifiers, not resolved to their
owner.  A method whose name is also used for something else (``count``,
``height``) passes even when nothing calls it, so such names are found
by tracing what the program runs, not by this scan.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: public names kept without a caller in the scanned code, with the reason
ALLOWED = {
    "algebraic.AlgebraicNumber.real_roots":
        "the documented way to list a polynomial's real roots",
    "algebraic.AlgebraicNumber.sign_of_int_poly":
        "the public exact sign of g(q) for an integer polynomial g",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, name) of each public def and class of a module,
    nested in classes to any depth; functions local to a function are
    not part of the surface."""
    def walk(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{module}.{owner}{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{owner}{node.name}.")
    return walk(tree.body, "")


class _References(ast.NodeVisitor):
    """Identifiers used as names, attributes or imports; a def's use of its
    own name inside its body (recursion) is not a reference."""

    def __init__(self):
        self.names: set[str] = set()
        self._enclosing: list[str] = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rpartition(".")[2])


def _unreferenced() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "qspectra").glob("*.py"))}
    refs = _References()
    for tree in trees.values():
        refs.visit(tree)
    for path in sorted((ROOT / "bench").glob("*.py")):
        refs.visit(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        refs.visit(ast.parse(block))
    return [qualified for module, tree in trees.items()
            for qualified, name in _public_definitions(tree, module)
            if name not in refs.names]


def test_every_public_name_has_a_caller():
    assert len(ALLOWED) <= 2
    assert sorted(_unreferenced()) == sorted(ALLOWED)
