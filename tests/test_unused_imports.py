"""No module of the package imports a name that it never uses.

A stdlib stand-in for a linter's unused-import rule (F401). The package
``__init__`` re-exports by importing, so it is skipped. An import that is
kept on purpose carries ``# noqa: F401`` on one of its lines and passes.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "krtorus"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node) -> set:
    """Names in an annotation, including those inside a quoted one."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    source = ("import os\nimport sys\nfrom a.b import c as d, e\n"
              "from f import g  # noqa: F401\nprint(sys.argv, e)\n")
    assert unused_imports(source) == ["d (line 3)", "os (line 1)"]


def test_checker_reads_attribute_roots_and_quoted_annotations():
    source = ("from __future__ import annotations\nimport os.path\nfrom t import A, B\n"
              "def f(x: 'A') -> 'list[B]':\n    return os.path.sep\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []
