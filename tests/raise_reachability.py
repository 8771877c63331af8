"""Which ``raise`` sites in ``src/krtorus`` does the test suite execute?

Runs pytest in this process under a ``sys.settrace`` line tracer that
only traces frames of modules in ``src/krtorus``, then prints, per
module, how many ``raise InternalInvariantError(...)`` and
``raise InputRejected(...)`` statements ran at least once. Run it from
the repository root:

    python tests/raise_reachability.py [--list] [pytest args]

With no pytest arguments it runs the tier-1 suite (``tests`` and
``bench``, as in ``pyproject.toml``); ``--list`` also prints each site
that did not run. The tracer is put back before every test, because
``tests/test_work_growth.py`` installs its own and clears it. Code run
in subprocesses (the bench tests) is not traced. The whole suite takes
several minutes under the tracer, so this is a tool to run by hand, not
a test; pytest does not collect it (its name does not start with
``test_``).
"""
from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "krtorus"
KINDS = ("InternalInvariantError", "InputRejected")


def raise_sites(path: Path) -> dict[int, str]:
    """{line of the ``raise`` statement: exception class} for the two kinds."""
    sites = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id in KINDS):
            sites[node.lineno] = node.exc.func.id
    return sites


class LineTracer:
    """Records (file, line) for every line run in a frame of the package."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: set = set()

    def enter(self, frame, event, arg):
        return self.local if frame.f_code.co_filename.startswith(self.prefix) else None

    def local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local


class Reinstall:
    """Pytest plugin: puts the tracer back before each test's setup (fixtures
    run the pipeline there) and before its call."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer.enter)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.tracer.enter)


def report(hits: set, show_unreached: bool) -> list[str]:
    """Per module and in total, 'reached/total' for each kind of site."""
    lines, totals, missed = [], defaultdict(lambda: [0, 0]), []
    for path in sorted(PACKAGE.glob("*.py")):
        counts = defaultdict(lambda: [0, 0])
        for line, kind in sorted(raise_sites(path).items()):
            ran = (str(path), line) in hits
            counts[kind][0] += ran
            counts[kind][1] += 1
            if not ran:
                missed.append(f"  {path.name}:{line} {kind}")
        if counts:
            cells = [f"{kind} {counts[kind][0]}/{counts[kind][1]}"
                     for kind in KINDS if counts[kind][1]]
            lines.append(f"{path.name:14s} " + ", ".join(cells))
            for kind, (ran, total) in counts.items():
                totals[kind][0] += ran
                totals[kind][1] += total
    lines.append("total          " + ", ".join(
        f"{kind} {totals[kind][0]}/{totals[kind][1]}" for kind in KINDS))
    if show_unreached:
        lines += ["not reached:"] + missed
    return lines


def main(argv: list[str]) -> int:
    show_unreached = "--list" in argv
    args = [a for a in argv if a != "--list"] or [str(ROOT / "tests"), str(ROOT / "bench")]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(str(PACKAGE) + "/")
    sys.settrace(tracer.enter)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[Reinstall(tracer)])
    finally:
        sys.settrace(None)
    print("\n".join(report(tracer.hits, show_unreached)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
