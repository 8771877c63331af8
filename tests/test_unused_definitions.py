"""Every module-level function and class of the package, and every method, has a user.

A stdlib stand-in for a dead-code finder. A top-level ``def`` or
``class`` in ``src/krtorus`` must be read somewhere in ``src/`` outside
its own body, be exported from the package ``__init__``, or be named in
``bench/tracer.py``'s ``TARGETS``, which wraps module bindings from
outside the program. A method, property or classmethod of a top-level
class, dunders aside, must be read as an attribute in ``src/`` outside
its own body, or be listed in ``HOOKS`` with the reason something else
calls it. A helper that only tests call belongs in ``tests/oracles.py``.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

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


def unused_definitions(sources: dict[str, str], kept: set[str]) -> list[str]:
    """'module.name' for each top-level function or class that no module reads
    outside its own body and that is not in kept."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in kept and reads[node.name] <= _reads(node)[node.name]]


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unused_methods(sources: dict[str, str], hooks) -> list[str]:
    """'module.Class.method' for each method of a top-level class, dunders
    aside, that no module reads as an attribute outside its own body and
    that is not in hooks."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(_attributes, trees.values()), Counter())
    return [f"{module}.{cls.name}.{fn.name}" for module, tree in sorted(trees.items())
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and f"{module}.{cls.name}.{fn.name}" not in hooks
            and reads[fn.name] <= _attributes(fn)[fn.name]]


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
