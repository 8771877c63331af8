"""Every module-level function, class and name of the package, and every method, has a user.

A stdlib stand-in for a dead-code finder. A top-level ``def``,
``class`` or assigned name (dunders aside) in ``src/krtorus`` must be
read somewhere in ``src/`` outside its own statement, be exported from
the package ``__init__``, or be named in ``bench/tracer.py``'s
``TARGETS``, which wraps module bindings from outside the program. A
method, property or classmethod of a top-level class, dunders aside,
must be read as an attribute in ``src/`` outside its own body on a
receiver that can be an instance of that class (see ``_Receivers``), or
be listed in ``HOOKS`` with the reason something else calls it: a method
of the same name on another class is no user. A helper that only tests
call belongs in ``tests/oracles.py``.
"""
from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from test_unused_imports import _annotation_names

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "krtorus"

# methods that code outside the package calls, by 'module.Class.method'
HOOKS = {
    "cli._Parser.error": "argparse calls it on a usage error, so that one exits 1",
}


def _reads(node) -> Counter:
    """How often each name is read under node: names, attributes, quoted annotations."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                reads.update(_annotation_names(ast.parse(sub.value, mode="eval")))
            except SyntaxError:
                pass
    return reads


def _top_level_names(node) -> list[str]:
    """The names a top-level statement defines: a def or class, or assignment targets."""
    if isinstance(node, _DEFS):
        return [node.name]
    targets = getattr(node, "targets", [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [n for t in targets
             for n in ([t] if isinstance(t, ast.Name) else getattr(t, "elts", []))]
    return [n.id for n in names
            if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))]


def unused_definitions(sources: dict[str, str], kept: set[str]) -> list[str]:
    """'module.name' for each top-level function, class or assigned name,
    dunders aside, that no module reads outside its own statement and
    that is not in kept."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    return [f"{module}.{name}" for module, tree in sorted(trees.items())
            for node in tree.body for name in _top_level_names(node)
            if name not in kept and reads[name] <= _reads(node)[name]]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined(cls) -> set[str]:
    """The names a class body defines: methods, class-level names, self.<name> stores."""
    names = {t.id for node in cls.body
             for t in getattr(node, "targets", [getattr(node, "target", None)])
             if isinstance(t, ast.Name)}
    names |= {node.name for node in cls.body if isinstance(node, _DEFS)}
    return names | {sub.attr for sub in ast.walk(cls)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and getattr(sub.value, "id", None) == "self"}


def _scoped_attributes(node, stack=()):
    """Each attribute node under node, with the definitions that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = stack + (child,) if isinstance(child, _DEFS) else stack
        if isinstance(child, ast.Attribute):
            yield child, stack
        yield from _scoped_attributes(child, inner)


class _Receivers:
    """Which top-level classes the receiver of an attribute read can be.

    A receiver is resolved when something names its class: the first
    parameter of a method (its class, or a subclass), a class name, a call
    of one, or a name whose nearest binding is a parameter annotated with
    a class name or an assignment of such a call. Any other receiver is
    duck-typed: it can be each class that has every attribute read on the
    same expression within the same top-level definition. A class with a
    base from outside the package can have any attribute.
    """

    def __init__(self, trees):
        self.classes = {c.name: c for tree in trees.values() for c in tree.body
                        if isinstance(c, ast.ClassDef)}
        bases = {name: [getattr(b, "id", None) for b in c.bases]
                 for name, c in self.classes.items()}
        self.lineage = {}  # each class with its package ancestors
        for name in self.classes:
            self.lineage[name], todo = {name}, [name]
            while todo:
                todo += [b for b in bases[todo.pop()] if b in self.classes]
                self.lineage[name] |= set(todo)
        self.attrs = {name: None if any(b not in self.classes for a in self.lineage[name]
                                        for b in bases[a])
                      else set().union(*map(_defined, map(self.classes.get, self.lineage[name])))
                      for name in self.classes}
        self.bindings = {}
        self.protocols = defaultdict(set)
        for module, tree in trees.items():
            for attr, stack in _scoped_attributes(tree):
                if self._resolved(attr.value, stack) is None:
                    self.protocols[self._key(module, attr.value, stack)].add(attr.attr)

    def _class_named(self, annotation):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        return {annotation.id} & self.classes.keys() if isinstance(annotation, ast.Name) else None

    def _bound(self, fn) -> dict:
        """For each name fn binds: the classes its bindings name, or None if one names none."""
        if fn not in self.bindings:
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            found = defaultdict(list)
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for t in getattr(node, "targets", [getattr(node, "target", None)]):
                        if isinstance(t, ast.Name):
                            found[t.id].append(self._class_named(getattr(node, "annotation", None))
                                               or self._resolved(node.value, ()))
            bound = {t: set().union(*named) if all(named) else None for t, named in found.items()}
            self.bindings[fn] = bound | {a.arg: self._class_named(a.annotation) or None
                                         for a in params}
        return self.bindings[fn]

    def _resolved(self, expr, stack):
        """The classes expr's value is named as, or None."""
        if isinstance(expr, ast.Call):
            expr = expr.func
            return {expr.id} if getattr(expr, "id", None) in self.classes else None
        if not isinstance(expr, ast.Name):
            return None
        for i in reversed(range(len(stack))):
            fn = stack[i]
            if isinstance(fn, ast.ClassDef):
                continue
            params = fn.args.posonlyargs + fn.args.args
            method = i and isinstance(stack[i - 1], ast.ClassDef) and "staticmethod" not in {
                getattr(d, "id", None) for d in fn.decorator_list}
            if method and params and params[0].arg == expr.id:  # self or cls
                return {stack[i - 1].name}
            if expr.id in (bound := self._bound(fn)):
                return bound[expr.id]
        return {expr.id} if expr.id in self.classes else None

    @staticmethod
    def _key(module, expr, stack):
        return (module, stack[0].name if stack else None, ast.unparse(expr))

    def of(self, module, expr, stack) -> set[str]:
        """The classes whose methods a read on expr can reach: each class it
        can be, their package ancestors, and their subclasses."""
        named = self._resolved(expr, stack)
        if named is None:
            protocol = self.protocols[self._key(module, expr, stack)]
            named = {c for c, attrs in self.attrs.items() if attrs is None or protocol <= attrs}
        return {c for c, line in self.lineage.items() for n in named
                if n in line or c in self.lineage[n]}


def unused_methods(sources: dict[str, str], hooks) -> list[str]:
    """'module.Class.method' for each method of a top-level class, dunders
    aside, that no module reads as an attribute outside its own body on a
    receiver that can be that class, and that is not in hooks."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    receivers = _Receivers(trees)
    reads = defaultdict(list)  # method name -> (receiver classes, enclosing definitions)
    for module, tree in trees.items():
        for attr, stack in _scoped_attributes(tree):
            reads[attr.attr].append((receivers.of(module, attr.value, stack), stack))
    return [f"{module}.{cls.name}.{fn.name}" for module, tree in sorted(trees.items())
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and f"{module}.{cls.name}.{fn.name}" not in hooks
            and not any(cls.name in classes and fn not in stack
                        for classes, stack in reads[fn.name])]


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _traced() -> set[str]:
    """The attribute names in bench/tracer.py's TARGETS rows (module, attribute, ...)."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (rows,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return {row.elts[1].value for row in rows.elts}


def test_checker_flags_a_helper_left_without_a_caller():
    sources = {"a": "def used(): pass\ndef kept(): pass\ndef left(x): return left(x)\n"
                    "class C:\n    def m(self) -> 'C': return C\n",
               "b": "from .a import used\nused()\n"}
    assert unused_definitions(sources, {"kept"}) == ["a.left", "a.C"]


def test_checker_flags_an_assignment_left_without_a_reader():
    sources = {"a": "__all__ = ['read']\nread = 1\nleft: int = 2\nmore, read2 = 3, 4\n"
                    "Alias = 'int | None'\n",
               "b": "from .a import read, read2\nprint(read + read2)\n"}
    assert unused_definitions(sources, set()) == ["a.left", "a.more", "a.Alias"]


def test_checker_flags_a_method_left_without_a_caller():
    sources = {"a": "class C:\n"
                    "    def __init__(self): pass\n"
                    "    def used(self): pass\n"
                    "    def hook(self): pass\n"
                    "    def left(self): return self.left()\n"
                    "    @property\n"
                    "    def size(self): return 0\n"
                    "    @classmethod\n"
                    "    def make(cls): return cls()\n",
               "b": "from .a import C\nC.make().used()\nsize = 1\nprint(size)\n"}
    # a plain name 'size' is not an attribute read, so the property stays flagged
    assert unused_methods(sources, {"a.C.hook"}) == ["a.C.left", "a.C.size"]


SHARED = ("class Matrix:\n"
          "    def identity(self): pass\n"
          "    def rows(self): pass\n"
          "class Group:\n"
          "    def identity(self): pass\n"
          "    def op(self, a): return a\n"
          "class Ring(Group):\n"
          "    def identity(self): pass\n")


@pytest.mark.parametrize("reader,flagged", [
    # a named receiver: a Group and its subclass, never a Matrix
    ("def f(g: Group): return g.identity()", ["a.Matrix.identity", "a.Group.op"]),
    ("def f(): g = Group(); return g.identity()", ["a.Matrix.identity", "a.Group.op"]),
    ("def f(m: 'Matrix'): return m.identity()", ["a.Group.identity", "a.Group.op",
                                                 "a.Ring.identity"]),
    # duck-typed: only a class with both op and identity can be x
    ("def f(x): return x.op(x.identity())", ["a.Matrix.identity"]),
    ("class User:\n    def __init__(self, x): self.x = x\n"
     "    def run(self): return self.x.op(self.x.identity())\nUser(0).run()",
     ["a.Matrix.identity"]),
    # one attribute read on x: any class with it
    ("def f(x): return x.identity()", ["a.Group.op"]),
], ids=["annotated", "assigned", "other-class", "duck-typed", "duck-typed-attribute", "any"])
def test_checker_needs_a_receiver_that_can_be_the_class(reader, flagged):
    sources = {"a": SHARED, "b": "from .a import Group, Matrix\n" + reader + "\nMatrix().rows()\n"}
    assert unused_methods(sources, ()) == flagged


def test_checker_reads_attributes_and_quoted_annotations():
    sources = {"a": "def f(): pass\nclass K: pass\n",
               "b": "import a\na.f()\ndef g(x: 'list[K]'): pass\ng(1)\n"}
    assert unused_definitions(sources, set()) == []


def test_kept_names_come_from_the_exports_and_the_tracer():
    assert {"analyze", "compute_reeb", "SurfaceField"} <= _exported()
    assert {"level_structure", "chain_homology", "main"} <= _traced()


def test_every_definition_has_a_user():
    assert unused_definitions(_sources(), _exported() | _traced()) == []


def test_every_method_has_a_user_or_is_a_hook():
    # without the hooks, exactly the hooks are flagged: none is stale
    assert unused_methods(_sources(), HOOKS) == []
    assert unused_methods(_sources(), ()) == sorted(HOOKS)
