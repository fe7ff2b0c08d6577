"""No public name and no option without a caller.

Every public function, class, method and property of ``src/qspectra``
must be referenced somewhere besides its own definition: as a name, an
attribute or an imported name, in ``src/``, in ``bench/*.py`` or in a
fenced python block of README.  Every parameter with a default, of any
function or class there, must be passed by some call in the same code.
Tests do not count, so a name or an option that only tests use fails
here; strings, comments and docstrings do not count either, and dunder
methods are out of scope of the first scan.

Blind spot: names are matched as bare identifiers, not resolved to their
owner.  A method whose name is also used for something else (``count``,
``height``) passes even when nothing calls it, and a parameter passes
when any callable of its function's name is passed that argument, so
such names are found by tracing what the program runs, not by these
scans.
"""

from __future__ import annotations

import ast
import math
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


def _scanned() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The modules of ``src/qspectra`` by name, and every scanned tree:
    those, ``bench/*.py`` and README's python blocks."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "qspectra").glob("*.py"))}
    scanned = list(trees.values())
    for path in sorted((ROOT / "bench").glob("*.py")):
        scanned.append(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        scanned.append(ast.parse(block))
    return trees, scanned


def _unreferenced() -> list[str]:
    trees, scanned = _scanned()
    refs = _References()
    for tree in scanned:
        refs.visit(tree)
    return [qualified for module, tree in trees.items()
            for qualified, name in _public_definitions(tree, module)
            if name not in refs.names]


def test_every_public_name_has_a_caller():
    assert len(ALLOWED) <= 2
    assert sorted(_unreferenced()) == sorted(ALLOWED)


def _defaulted_parameters(tree: ast.Module, module: str):
    """(qualified name, callee, position, parameter) of each parameter with
    a default of each def of a module, at any depth.  The callee is the
    name a call uses: the class for ``__init__``.  The position counts the
    call's positional arguments (after self or cls in a method); it is
    None for a keyword-only parameter."""
    def walk(body, owner, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{owner}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                callee = cls if node.name == "__init__" else node.name
                where = f"{module}.{owner}{node.name}"
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first - bound):
                    yield f"{where}({arg.arg})", callee, i, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{where}({arg.arg})", callee, None, arg.arg
                yield from walk(node.body, f"{where}.<locals>.", None)
    return walk(tree.body, "", None)


class _Calls(ast.NodeVisitor):
    """Per callee name, the most positional arguments of any call (one
    with a starred argument counts as passing every position) and every
    keyword passed (None for ``**``).  A ``cls(...)`` in a classmethod
    calls its class."""

    def __init__(self):
        self.positional: dict[str, int] = {}
        self.keywords: dict[str, set] = {}
        self._classes: list[str] = []
        self._cls: list[str | None] = [None]

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        classmethod_ = self._classes and any(
            isinstance(d, ast.Name) and d.id == "classmethod"
            for d in node.decorator_list)
        self._cls.append(self._classes[-1] if classmethod_ else None)
        self.generic_visit(node)
        self._cls.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None))
        if name == "cls" and self._cls[-1]:
            name = self._cls[-1]
        if name:
            count = (math.inf if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
            self.positional[name] = max(self.positional.get(name, 0), count)
            self.keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords)
        self.generic_visit(node)


def _unpassed() -> list[str]:
    trees, scanned = _scanned()
    calls = _Calls()
    for tree in scanned:
        calls.visit(tree)
    return [qualified for module, tree in trees.items()
            for qualified, callee, position, name
            in _defaulted_parameters(tree, module)
            if not ({name, None} & calls.keywords.get(callee, set())
                    or (position is not None
                        and calls.positional.get(callee, 0) > position))]


def test_every_defaulted_parameter_has_a_caller():
    """A default that no call overrides is a constant, not an option."""
    assert _unpassed() == []
