"""Every internal check in the package is pinned by a test or allowlisted.

An ``InternalInvariantError`` is the package's exit 2: a defect, not a
bad input. A check that no test makes fire shows nothing about whether
it works, so each message raised in ``src/krtorus`` must be matched by
the ``match=`` of some ``pytest.raises(InternalInvariantError, ...)`` in
``tests/``, or be listed in ``ALLOWLIST`` with the reason it is kept
without a test. A stdlib-``ast`` reading, in the style of
``test_unused_imports.py``.

A message is read as its text with ``None`` for each formatted value,
which stands for any text without letters. A ``match=`` pattern is read
as one string it matches: ``\\d+`` stands for ``0``, an escaped
character for itself, and ``^`` and ``$`` are dropped; other regex
syntax is refused. The pattern pins a message when that string is a
substring of some message the template can produce, with at least one
character from the template's own text. A ``match=`` that names a
parameter reads that parameter's strings in the function's
``parametrize`` decorators, and ``re.escape(...)`` escapes what it wraps.
Run as a script, the module prints the messages no test pins.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "krtorus"
TESTS = ROOT / "tests"

# message (formatted values as "{}") -> why it is kept without a test
ALLOWLIST = {
    "refined fan at {} does not close":
        "loop bound of the refined fan walk at V, which stays apart from SurfaceField.fans; "
        "no corrupted graph or level structure gets past the refined edge checks to it",
    "refined fan at {} is not a single cycle":
        "the refined link at V is one cycle only if the level pieces subdivide closed fans; "
        "the region walks rely on it, and no corrupted input gets past the edge checks to it",
    "boundary walk left region {}":
        "the turn around w crosses edges off V, which glue one region, unless the graph "
        "filed a triangle of that sector elsewhere in a way the region checks above miss",
    "region {} boundary is not a single closed walk":
        "Euler characteristic 1 makes a region a disk with one boundary walk only if the "
        "region is a surface, which nothing before the walk checks",
    "cut boundary has several cycles":
        "Euler characteristic 1 forces one rim cycle only if the cut disk is connected, "
        "which nothing checks; a rim whose first cycle matches the walk passes the rotation check",
}


def _template(node) -> tuple:
    """A message literal as its characters, with None for each formatted value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return tuple(node.value)
    if isinstance(node, ast.JoinedStr):
        out = []
        for part in node.values:
            out.extend(part.value if isinstance(part, ast.Constant) else (None,))
        return tuple(out)
    raise ValueError(f"line {node.lineno}: the message is not a string literal")


def render(template: tuple) -> str:
    return "".join("{}" if c is None else c for c in template)


def internal_messages(source: str) -> list[tuple]:
    """The message template of every ``raise InternalInvariantError(...)``."""
    return [_template(node.exc.args[0]) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "InternalInvariantError"]


def _parameter_strings(func, name: str) -> list[str]:
    """The string values that ``parametrize`` decorators give a parameter."""
    found = []
    for d in func.decorator_list:
        if not (isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "parametrize"):
            continue
        argnames = d.args[0]
        names = ([n.strip() for n in argnames.value.split(",")] if isinstance(argnames, ast.Constant)
                 else [n.value for n in argnames.elts])
        if name in names:
            i = names.index(name)
            for case in d.args[1].elts:
                values = case.args if isinstance(case, ast.Call) else getattr(case, "elts", [case])
                value = values[i] if len(names) > 1 else values[0]
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    found.append(value.value)
    return found


def match_patterns(source: str) -> list[str]:
    """The ``match=`` patterns of ``pytest.raises(InternalInvariantError, ...)``."""
    patterns = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "raises" and call.args
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id == "InternalInvariantError"):
                continue
            for kw in call.keywords:
                if kw.arg != "match":
                    continue
                value, escape = kw.value, False
                if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
                        and value.func.attr == "escape" and len(value.args) == 1):
                    value, escape = value.args[0], True
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    found = [value.value]
                elif isinstance(value, ast.Name):
                    found = _parameter_strings(func, value.id)
                else:
                    raise ValueError(f"line {kw.value.lineno}: cannot read this match=")
                patterns += [re.escape(s) if escape else s for s in found]
    return patterns


def example(pattern: str) -> str:
    """One string the pattern matches, for the subset of syntax the tests use."""
    body = re.sub(r"^\^|(?<!\\)\$$", "", pattern).replace(r"\d+", "0")
    if re.search(r"(?<!\\)[.^$*+?{}\[\]|()]", re.sub(r"\\.", "", body)):
        raise ValueError(f"pattern {pattern!r} uses regex syntax this check cannot read")
    return re.sub(r"\\(.)", r"\1", body)


def pins(text: str, template: tuple) -> bool:
    """Is ``text`` a substring of a message the template can produce, with at
    least one character taken from the template's own text? A formatted
    value stands for text without letters: the package formats numbers,
    and tuples and lists of them, into its messages."""
    end = len(template)

    def close(states):  # a formatted value may also be empty
        out = set(states)
        for p, lit in states:
            while p < end and template[p] is None:
                p += 1
                out.add((p, lit))
        return out

    states = close({(p, False) for p in range(end + 1)})
    for ch in text:
        step = set()
        for p, lit in states:
            if p < end and template[p] is None and not ch.isalpha():
                step.add((p, lit))
            elif p < end and template[p] == ch:
                step.add((p + 1, True))
        states = close(step)
    return any(lit for _, lit in states)


def unpinned(sources: list[str], tests: list[str], allowlist: dict) -> list[str]:
    """Messages neither pinned by a test's ``match=`` nor allowlisted,
    then allowlist entries that no longer name an unpinned message."""
    texts = [example(p) for src in tests for p in match_patterns(src)]
    messages = {render(t): t for src in sources for t in internal_messages(src)}
    pinned = {m for m, t in messages.items() if any(pins(x, t) for x in texts)}
    open_ = [f"no test pins: {m}" for m in messages if m not in pinned and m not in allowlist]
    stale = [f"allowlisted but pinned or gone: {m}" for m in allowlist
             if m not in messages or m in pinned]
    return open_ + stale


def _read(paths) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(paths)]


def test_every_internal_check_is_pinned_or_allowlisted():
    assert unpinned(_read(PACKAGE.glob("*.py")), _read(TESTS.glob("test_*.py")), ALLOWLIST) == []


_SOURCE = '''
def f(x, k):
    if x:
        raise InternalInvariantError(f"cell {k} is not a disk")
    raise InternalInvariantError("walk does not close")
'''


def _test_source(pattern: str) -> str:
    return ("def test_it():\n"
            f"    with pytest.raises(InternalInvariantError, match={pattern}):\n"
            "        f(1, 2)\n")


def test_checker_fails_on_an_unpinned_message():
    tests = [_test_source('r"cell \\d+ is not a disk"')]
    assert unpinned([_SOURCE], tests, {}) == ["no test pins: walk does not close"]
    assert unpinned([_SOURCE], tests, {"walk does not close": "reason"}) == []


def test_checker_fails_on_a_stale_allowlist_entry():
    tests = [_test_source('"is not a disk"'), _test_source('"does not close"')]
    assert unpinned([_SOURCE], tests, {"walk does not close": "reason"}) == [
        "allowlisted but pinned or gone: walk does not close"]


@pytest.mark.parametrize("decorator", [
    '@pytest.mark.parametrize("message", ["cell 7 is not a disk", "walk does"])',
    '@pytest.mark.parametrize(("x", "message"), [(1, "cell 7 is not a disk"), '
    'pytest.param(2, "walk does", id="walk")])'])
def test_checker_reads_parametrized_and_escaped_patterns(decorator):
    tests = [decorator + "\n"
             "def test_it(message):\n"
             "    with pytest.raises(InternalInvariantError, match=re.escape(message)):\n"
             "        f(1, 2)\n"]
    assert unpinned([_SOURCE], tests, {}) == []


@pytest.mark.parametrize("text, ok", [
    ("cell 12 is not", True), ("is not a disk", True), ("cell ", True),
    ("12", False), ("12 is a disk", False), ("a disk!", False), ("cell x is not", False)])
def test_pins_reads_a_formatted_value_as_text_without_letters(text, ok):
    assert pins(text, tuple("cell ") + (None,) + tuple(" is not a disk")) is ok


def test_example_refuses_regex_it_cannot_read():
    assert example(r"^refined edge \(\d+, \d+\) is not shared$") == "refined edge (0, 0) is not shared"
    with pytest.raises(ValueError):
        example("cell .* disk")


if __name__ == "__main__":
    print("\n".join(unpinned(_read(PACKAGE.glob("*.py")), _read(TESTS.glob("test_*.py")), {})))
